"""Stirling numbers mod p and the symbolic identity battery of the
Pochhammer polynomials (t; kappa)_m, on exact coefficient vectors over F_p.

Every table here is a base triangle of the one recurrence in ``dense``,
rescaled by a power of kappa where the table depends on it: Pascal's
triangle, the rows of (t - shift; kappa)_m and both Stirling triangles.
The ``stirling-1`` law compares the rescaled first-kind triangle with the
battery's own gather of kappa powers, so it is the law that checks the
rescale of ``dense._triangle``.
The battery reads the kernels the solutions are built with: those
triangles, the gather that turns a row into the table of r(t + x w), the
window product ``dense._times`` that multiplies in every factor of a
solution, and the basis matrix of ``dense.dense_pochhammer_coeffs``.
That basis change is the second-kind Stirling expansion
t^j = sum_i S2(j, i) kappa^{j-i} (t; kappa)_i, from the triangle
``stirling`` reads; divided-difference or factorial-based routes are
invalid here, since i! vanishes mod p as soon as i >= p.  The battery
checks the matrix against the Pochhammer table, a different triangle, by
the round trip B M = I.
Each law is one identity over whole tables, one row per length m.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from . import dense
from .ffield import FieldCtx, FieldElement
from .qkz_core import CheckReport

__all__ = [
    "stirling",
    "binomial_mod",
    "pochhammer_identity_suite",
]


def binomial_mod(m: int, i: int, p: int) -> int:
    """C(m, i) mod p, read from Pascal's triangle mod p (its rows up to m
    are built, so m stays at desk scale)."""
    if i < 0 or i > m:
        return 0
    return int(dense._pascal(p, m)[m, i])


def stirling(kind: int, m: int, l: int, ctx: FieldCtx) -> FieldElement:
    """Signed Stirling numbers of the first kind / second kind, mod p.

    Recurrences: s1(m+1, l) = s1(m, l-1) - m*s1(m, l),
                 s2(m+1, l) = s2(m, l-1) + l*s2(m, l).
    Read from one triangle per (p, kind), built in blocks of p rows up to
    row m.
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    if l < 0 or l > m:
        raise ValueError(f"need 0 <= l <= m, got l={l}, m={m}")
    return ctx.element(int(dense._stirling_rows(kind, ctx.p, m)[m, l]))


def pochhammer_identity_suite(
    ctx: FieldCtx, kappa: FieldElement, mutate: bool = False
) -> CheckReport:
    """The full symbolic identity battery for one (p, kappa), on exact
    coefficient vectors over F_p, each law one identity over the table P of
    the (t; kappa)_m:

    shift-down and shift-up laws (denominator-cleared), binomial convolution
    in a second formal variable, the product rule, the first-kind Stirling
    expansion, the basis matrix the solutions are built with by the round
    trip B M = I (column m is the second-kind expansion of t^m), additivity
    at p, the (t; kappa)_p closed form, and the quasi-constant law.  All
    lengths m, i, j up to 2p are covered.

    ``mutate`` perturbs the l = 1 product-rule coefficient (negative control).
    """
    p = ctx.p
    kv = kappa.val
    if kappa.ctx is not ctx or not 0 < kv < p:
        raise ValueError("kappa must be a nonzero prime-field element")
    L = 2 * p
    ms = np.arange(L + 1)

    def times_linear(T, c):  # each row m of T times (t + c_m)
        T = np.pad(T, ((0, 0), (0, 1)))
        return (np.roll(T, 1, axis=1) + np.reshape(c, (-1, 1)) * T) % p

    def shifted(shift):  # rows m <= L of (t - shift; kappa)_m
        return dense._pochhammer_rows(p, kv, shift, L)[: L + 1, : L + 1]

    def plus_var(m):  # (t + z; kappa)_m, [t-deg, z-deg]
        return dense._with_var(P[m, : m + 1], p, 1)

    def convolution(m):  # sum_i C(m,i) (t;)_i (z;)_{m-i}, [t-deg, z-deg]
        return (C[m, : m + 1, None] * PL[: m + 1, : m + 1]).T @ PL[m::-1, : m + 1] % p

    # P[m] = ascending coefficients of (t; kappa)_m, m <= 2L; C[m, i] = C(m, i) mod p
    P = dense._pochhammer_rows(p, kv, 0, 2 * L)[: 2 * L + 1, : 2 * L + 1]
    PL = P[: L + 1, : L + 1]
    C = dense._pascal(p, L)[: L + 1, : L + 1]
    kpow = np.array([pow(kv, e, p) for e in range(L + 1)], dtype=np.int64)
    S1 = dense._stirling_rows(1, p, L)[: L + 1, : L + 1] * kpow[np.maximum(ms[:, None] - ms, 0)] % p
    M = dense._pochhammer_basis_matrix(p, kv, L + 1)
    bad = {
        # (t - kappa; kappa)_m * t = (t; kappa)_m * (t - kappa m)
        "shift-down": times_linear(shifted(kv), 0) != times_linear(PL, -kv * ms % p),
        # (t + kappa; kappa)_m * (t - (m-1) kappa) = (t; kappa)_m * (t + kappa)
        "shift-up": times_linear(shifted(-kv % p), -kv * (ms - 1) % p)
        != times_linear(PL, kv),
        # (t + z; kappa)_m = convolution(m)
        "binomial-convolution": [[np.any(plus_var(m) != convolution(m))] for m in range(L + 1)],
        # (t; kappa)_m = sum_l s1(m, l) kappa^{m-l} t^l
        "stirling-1": PL != S1,
        # column m of B M = I, with B holding the (t; kappa)_i of P
        "basis-round-trip": (PL.T @ M % p != np.eye(L + 1, dtype=np.int64)).T,
    }
    bad = {key: np.any(rows, axis=1) for key, rows in bad.items()}
    failures = [(key, m) for m in range(L + 1) for key, rows in bad.items() if rows[m]]

    # product rule (t;)_i (t;)_j = sum_l C(i,l) C(j,l) l! kappa^l (t;)_{i+j-l}, all j >= i:
    # left sides by the solutions' product kernel, right sides by the
    # windows of rows j .. i + j of P times the reversed coefficient rows
    fk = kpow * [factorial(l) % p for l in range(L + 1)] % p
    for i in range(L + 1):
        c = C[i, : i + 1] * C[i:, : i + 1] % p * fk[: i + 1] % p
        if mutate and i:
            c[:, 1] += 1
        lhs = dense._times(PL[i:].T, P[i, : i + 1]).T
        rhs = (dense._windows(P[i : L + i + 1, : L + i + 1], i + 1) @ c[:, ::-1, None])[..., 0]
        bad_j = np.flatnonzero(np.any((lhs - rhs) % p, axis=1))
        failures += [("product-rule", i, i + j) for j in bad_j.tolist()]

    # closed form at p, additivity at p, quasi-constant law
    hp = np.zeros(p + 1, dtype=np.int64)
    hp[[1, p]] = -pow(kv, p - 1, p) % p, 1  # (t; kappa)_p = t^p - kappa^{p-1} t
    if not np.array_equal(P[p, : p + 1], hp):
        failures.append(("closed-form-p",))
    rhsp = np.zeros((p + 1, p + 1), dtype=np.int64)
    rhsp[:, 0] = P[p, : p + 1]
    rhsp[0] += hp
    if not np.array_equal(plus_var(p), rhsp % p):
        failures.append(("additivity-p",))
    for mult, hpow in ((1, hp), (2, np.convolve(hp, hp) % p)):
        qa = P[p * mult, : p * mult + 1]
        if not np.array_equal(qa, hpow):
            failures.append(("quasi-constant-power", mult))
        # invariance under t -> t - kappa
        if not np.array_equal(dense.dense_shift_var(qa, 0, -kv, p), qa):
            failures.append(("quasi-constant-shift", mult))

    return CheckReport(
        name=f"pochhammer identities p={p} kappa={kv}",
        passed=not failures,
        failures=failures,
    )
