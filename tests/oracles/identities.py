"""The symbolic identity battery of the Pochhammer polynomials as it was
before it became whole-table identities: one loop over m with a scalar
binomial / Stirling number per term, the product rule as a loop over every
pair i <= j with an inner sum over l, and the second-kind Stirling
expansion t^m = sum_l S2(m, l) kappa^{m-l} (t; kappa)_l checked term by
term (it is column m of the basis round trip, so its m-set equals that of
``basis-round-trip``).  Also ``factorial_mod``, which only this loop reads.
Its tables are its own (``oracles.tables``, ``math.comb``); of the package
it reads only the basis matrix it checks.
``pochhammer.pochhammer_identity_suite`` is compared with it."""

from __future__ import annotations

from math import comb

import numpy as np

from charp_qkz import dense
from charp_qkz.ffield import FieldCtx, FieldElement
from charp_qkz.qkz_core import CheckReport

from .tables import (
    _stirling_table,
    factor_table_by_products,
    pochhammer_scalar_coeffs,
    shift_matrix_by_pascal_loop,
)


def factorial_mod(m: int, p: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out = out * i % p
    return out


def pochhammer_identity_suite(
    ctx: FieldCtx, kappa: FieldElement, mutate: bool = False
) -> CheckReport:
    """The full symbolic identity battery for one (p, kappa), on exact
    coefficient vectors over F_p:

    shift-down and shift-up laws (denominator-cleared), binomial convolution
    in a second formal variable, the product rule, Stirling expansions in
    both directions verified by expansion, the basis matrix the solutions
    are built with by the round trip B M = I, additivity at p, the
    (t; kappa)_p closed form, and the quasi-constant law.  All lengths m,
    i, j up to 2p are covered.

    ``mutate`` perturbs the l = 1 product-rule coefficient (negative control).
    """
    p = ctx.p
    kv = kappa.val
    if kappa.ctx is not ctx or not 0 < kv < p:
        raise ValueError("kappa must be a nonzero prime-field element")
    max_len = 2 * p
    failures = []

    def pmul(a, b):
        return np.convolve(a, b) % p

    def plus_var(m):  # (t + z; kappa)_m, [t-deg, z-deg]: (t - w; kappa)_m at w = -z
        F = factor_table_by_products(p, kv, m, 0, with_var=True)
        return np.where(np.arange(m + 1) % 2, -F, F) % p

    def binomial_mod(m, i):
        return comb(m, i) % p if 0 <= i <= m else 0

    s1, s2 = (_stirling_table(kind, p, max_len) for kind in (1, 2))

    # pochs[m] = ascending coefficients of (t; kappa)_m, up to degree 2*max_len
    tables = pochhammer_scalar_coeffs(p, kv, 2 * max_len)
    pochs = [np.array(tab, dtype=np.int64) for tab in tables]
    # the monomial -> Pochhammer basis matrix, and B with columns (t; kappa)_i
    M = dense._pochhammer_basis_matrix(p, kv, max_len + 1).astype(np.int64)
    B = np.zeros_like(M)
    for i in range(max_len + 1):
        B[: i + 1, i] = pochs[i]
    round_trip = np.all(B @ M % p == np.eye(max_len + 1, dtype=np.int64), axis=0)

    tvec = np.array([0, 1], dtype=np.int64)

    for m in range(max_len + 1):
        pm = pochs[m]
        # (t - kappa; kappa)_m * t = (t; kappa)_m * (t - kappa m)
        shifted_dn = factor_table_by_products(p, kv, m, kv, with_var=False)[:, 0]
        lhs = pmul(shifted_dn, tvec)
        rhs = pmul(pm, np.array([(-kv * m) % p, 1], dtype=np.int64))
        if not np.array_equal(lhs, rhs):
            failures.append(("shift-down", m))
        # (t + kappa; kappa)_m * (t - (m-1) kappa) = (t; kappa)_m * (t + kappa)
        shifted_up = factor_table_by_products(p, kv, m, -kv % p, with_var=False)[:, 0]
        lhs = pmul(shifted_up, np.array([(-kv * (m - 1)) % p, 1], dtype=np.int64))
        rhs = pmul(pm, np.array([kv, 1], dtype=np.int64))
        if not np.array_equal(lhs, rhs):
            failures.append(("shift-up", m))
        # binomial convolution: (t + z; kappa)_m = sum_i C(m,i) (t;)_i (z;)_{m-i}
        lhs2 = plus_var(m)
        rhs2 = np.zeros_like(lhs2)
        for i in range(m + 1):
            b = binomial_mod(m, i)
            if b:
                rhs2[: i + 1, : m - i + 1] += b * np.outer(pochs[i], pochs[m - i])
        if not np.array_equal(lhs2, rhs2 % p):
            failures.append(("binomial-convolution", m))
        # Stirling expansions: (t;kappa)_m in monomials and t^m in Pochhammers
        kpow = 1
        s1vec = np.zeros(m + 1, dtype=np.int64)
        for l in range(m, -1, -1):
            s1vec[l] = s1[m][l] * kpow % p
            kpow = kpow * kv % p
        if not np.array_equal(pm, s1vec):
            failures.append(("stirling-1", m))
        rhs3 = np.zeros(m + 1, dtype=np.int64)
        kpow = 1
        for l in range(m, -1, -1):
            c = s2[m][l] * kpow % p
            kpow = kpow * kv % p
            if c:
                rhs3[: l + 1] += c * pochs[l]
        tm = np.zeros(m + 1, dtype=np.int64)
        tm[m] = 1
        if not np.array_equal(tm, rhs3 % p):
            failures.append(("stirling-2", m))
        # column m of the basis matrix: B M = I, with B from the product recurrence
        if not round_trip[m]:
            failures.append(("basis-round-trip", m))

    # product rule over all pairs i, j <= max_len
    for i in range(max_len + 1):
        for j in range(i, max_len + 1):
            lhs = pmul(pochs[i], pochs[j])
            rhs = np.zeros(i + j + 1, dtype=np.int64)
            kpow = 1
            for l in range(min(i, j) + 1):
                c = binomial_mod(i, l) * binomial_mod(j, l) % p
                c = c * factorial_mod(l, p) % p * kpow % p
                kpow = kpow * kv % p
                if mutate and l == 1:
                    c = (c + 1) % p
                if c:
                    rhs[: i + j - l + 1] += c * pochs[i + j - l]
            if not np.array_equal(lhs, rhs % p):
                failures.append(("product-rule", i, j))

    # closed form at p, additivity at p, quasi-constant law
    hp = np.zeros(p + 1, dtype=np.int64)
    hp[p] = 1
    hp[1] = (-pow(kv, p - 1, p)) % p
    if not np.array_equal(pochs[p], hp):
        failures.append(("closed-form-p",))
    rhsp = np.zeros((p + 1, p + 1), dtype=np.int64)
    rhsp[: p + 1, 0] = pochs[p]
    rhsp[0, : p + 1] += hp
    if not np.array_equal(plus_var(p), rhsp % p):
        failures.append(("additivity-p",))
    for mult in (1, 2):
        qa = pochs[p * mult]
        hpow = hp
        for _ in range(mult - 1):
            hpow = pmul(hpow, hp)
        if not np.array_equal(qa, hpow):
            failures.append(("quasi-constant-power", mult))
        # invariance under t -> t - kappa
        if not np.array_equal(qa @ shift_matrix_by_pascal_loop(len(qa), -kv, p) % p, qa):
            failures.append(("quasi-constant-shift", mult))

    return CheckReport(
        name=f"pochhammer identities p={p} kappa={kv}",
        passed=not failures,
        failures=failures,
    )
