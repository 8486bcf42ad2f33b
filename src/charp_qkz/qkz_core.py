"""The weight space, R-matrix, qKZ operators, and the symbolic / pointwise
equation verifiers.

Operators act on K^n in the basis v^(i) (the i-th tensor slot carries the
lowered vector); the singular-weight subspace V is the zero-coordinate-sum
hyperplane.  Pointwise, ``k_product_batch`` evaluates the product of s
shifted copies of K_a on a batch of F_{p^2} points, R-factor by R-factor
on one running matrix in int32, with the axis a given per point so that
one call serves every axis, and 1/(u - 1) read from the table of F_{p^2}
inverses: K_a itself (``k_matrix_batch``, s = 1, with ``k_operator_at``
its one-point view) and the p-curvature (s = p).  ``singular_factors`` is
the one test for a pole or degeneracy of an R-factor.
Symbolically, K_a is an ordered product of R-factors (u - P^(a,j))/(u - 1),
and ``apply_r_factors`` multiplies one int16 coefficient array by their
denominators and another by their numerators, u given by the axes of its
variables, reducing after every factor; so every identity is checked with
denominators cleared and no rational function is ever formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dense import dense_shift_var, pad_to_shape, render_polynomials
from .ffield import FieldCtx, FieldElement, elements, inverse_table, make_field
from .linalg import ext_matmul, mod, stack_groups

__all__ = [
    "QkzParams",
    "make_params",
    "CheckReport",
    "SingularPointError",
    "k_operator_at",
    "k_matrix_batch",
    "k_product_batch",
    "every_axis",
    "kappa_shifts",
    "singular_factors",
    "verify_rmatrix_identities",
    "verify_flatness",
    "r_factors",
    "apply_r_factors",
    "verify_qkz_solution",
    "verify_kz_solution",
]


class SingularPointError(ValueError):
    """The evaluation point lies on a singular hyperplane H_{i,j,m}."""


@dataclass(frozen=True)
class QkzParams:
    """Parameters of one qKZ system: field, tensor length, and step kappa.

    For kappa in F_p^x, ``k`` is the unique 0 < k < p with kappa*k = -1 mod p
    and ``d`` = floor(n*k/p) counts the p-hypergeometric solutions; both are
    None when kappa lies outside the prime field.
    """

    ctx: FieldCtx
    n: int
    kappa: FieldElement
    k: Optional[int] = None
    d: Optional[int] = None

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def kappa_pair(self) -> np.ndarray:
        """kappa as an (a0, a1) pair, the form the batched kernels read."""
        return np.array([self.kappa.a0, self.kappa.a1], dtype=np.int64)

    def minus(self) -> "QkzParams":
        return make_params(self.ctx, self.n, -self.kappa)


def make_params(ctx: FieldCtx, n: int, kappa) -> QkzParams:
    if isinstance(kappa, int):
        kappa = ctx.element(kappa)
    if kappa.ctx != ctx:
        raise ValueError("kappa must live in the given field context")
    if not 2 <= n < ctx.p:
        raise ValueError(f"need 2 <= n < p, got n={n}, p={ctx.p}")
    if not kappa:
        raise ValueError("kappa must be nonzero")
    k = d = None
    if kappa.in_prime_field:
        k = -pow(kappa.a0, ctx.p - 2, ctx.p) % ctx.p  # kappa*k = -1 mod p
        d = n * k // ctx.p
    return QkzParams(ctx, n, kappa, k, d)


@dataclass
class CheckReport:
    """Outcome of one verification battery."""

    name: str
    passed: bool
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f" ({len(self.failures)} failure(s))" if self.failures else ""
        return f"[{tag}] {self.name}{extra}"


# -- operator construction ---------------------------------------------------


def _factor_order(n: int, a: int) -> list[int]:
    """Tensor-slot order in which the R-factors of K_a are applied
    (rightmost factor of eq-order first)."""
    return list(range(a + 1, n + 1)) + list(range(1, a))


# -- pointwise evaluation ----------------------------------------------------


def k_operator_at(params: QkzParams, a: int, z: Sequence[FieldElement]):
    """K_a(z) at one point of F_p^n or F_{p^2}^n, as a matrix of elements of
    the point's field: the one-point view of :func:`k_matrix_batch`.

    Raises :class:`SingularPointError` on a pole (u = 1) or a degeneracy
    (u = -1) of any R-factor, naming the factor.
    """
    if len(z) != params.n:
        raise ValueError("point length mismatch")
    Z = np.array([[[x.a0, x.a1] for x in z]], dtype=np.int64)
    return elements(k_matrix_batch(params, a, Z)[0], z[0].ctx)


def k_matrix_batch(params: QkzParams, a, Z: np.ndarray) -> np.ndarray:
    """K_a evaluated on a batch of extension-field points (npts, n, 2) ->
    (npts, n, n, 2), one axis a for all points or one per point: the
    one-shift case of :func:`k_product_batch`."""
    return k_product_batch(params, a, Z, 1)


def every_axis(n: int, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every axis 1..n over a whole batch Z (npts, n, 2), as the per-point
    axes (n npts,) and the batch repeated n times, axis-major, for one
    kernel call."""
    return np.repeat(np.arange(1, n + 1), len(Z)), np.tile(Z, (n, 1, 1))


def kappa_shifts(params: QkzParams, Z: np.ndarray) -> np.ndarray:
    """The batch Z (npts, n, 2) shifted by -kappa e_b for each b = 1..n, as
    (n, npts, n, 2): entry b - 1 is Z - kappa e_b."""
    n = params.n
    shifted = np.repeat(Z[None], n, axis=0)
    shifted[range(n), :, range(n)] = mod(shifted[range(n), :, range(n)] - params.kappa_pair, params.p)
    return shifted


@functools.lru_cache(maxsize=None)
def _running_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per axis a (at a - 1), read-only: ``rows`` (n, n), the row of K_a
    held in each running row (row 0 holds row a, row f + 1 the row j of
    the R-factor f of K_a, in application order); ``back`` (n, n), the
    running row that holds each row; and ``lower`` (n, n-1), whether the
    factor f has j < a."""
    rows = np.array([[a - 1] + [j - 1 for j in _factor_order(n, a)] for a in range(1, n + 1)])
    back = np.empty_like(rows)
    back[np.arange(n)[:, None], rows] = np.arange(n)
    tables = rows, back, (rows[:, 1:] < rows[:, :1]).astype(np.int64)
    for table in tables:
        table.flags.writeable = False
    return tables


def _factor_forms(params: QkzParams, ax: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """For each point of a batch (npts, n, 2), with its axis a at a - 1 in
    ``ax``, and each R-factor f of K_a: u = z_a - z_j (- kappa if j < a)
    at shift 0, reduced, as (2, n-1, npts) int32."""
    rows, _, lower = _running_rows(params.n)
    r, pts = rows[ax].T, np.arange(len(Z))
    Zt = Z.transpose(2, 1, 0)  # [component, slot, point]
    w = Zt[:, r[:1], pts] - Zt[:, r[1:], pts]
    w -= lower[ax].T * params.kappa_pair[:, None, None]
    return mod(w, params.p).astype(np.int32)


def _first_singular(params: QkzParams, w: np.ndarray, shifts: int) -> np.ndarray:
    """For u = w - m kappa (w as from ``_factor_forms``) and the shifts m <
    s = ``shifts``: per point the first R-factor f, in application order,
    with a pole (u = 1) at some m, as 2f, or else with a degeneracy (u =
    -1), as 2f + 1; -1 where there is none.  u = e iff m = (w - e)/kappa,
    so each (factor, point) is tested once: the quotient must lie in F_p
    and be below s.  For prime-field kappa it lies in F_p iff w does, since
    the g-component of u does not move with m, and for s = p every m is
    below s."""
    p, nf = params.p, w.shape[1]
    delta = make_field(p, 2).nonresidue
    i0, i1 = (int(c) for c in inverse_table(p)[:2, params.kappa.val])  # 1/kappa
    v0 = w[0] - np.array([1, -1], dtype=np.int32)[:, None, None]  # (pole, degeneracy) x (f, point)
    hit = mod(v0 * i1 + i0 * w[1], p) == 0 if i1 else w[1] == 0
    if shifts < p:
        hit = hit & (mod(v0 * i0 + delta * i1 * w[1], p) < shifts)
    code = np.where(hit, 2 * np.arange(nf)[:, None] + np.arange(2)[:, None, None], 2 * nf)
    first = code.reshape(2 * nf, w.shape[2]).min(axis=0, initial=2 * nf)
    return np.where(first < 2 * nf, first, -1)


def singular_factors(params: QkzParams, a, Z: np.ndarray, shifts: int) -> np.ndarray:
    """Per point of a batch (npts, n, 2), with one axis a for all points or
    one per point: the first singular R-factor of the product of
    :func:`k_product_batch` as coded by ``_first_singular``, or -1."""
    ax = np.broadcast_to(np.asarray(a, dtype=np.intp) - 1, Z.shape[:1])
    return _first_singular(params, _factor_forms(params, ax, Z), shifts)


def _singular_error(params: QkzParams, a, codes: np.ndarray) -> Optional[SingularPointError]:
    """The error of a batch with the first singular factors ``codes`` (as
    from :func:`singular_factors`), or None: it names the axis with the
    smallest a among the singular points, and its first factor in
    application order, the pole first."""
    bad = codes >= 0
    if not np.any(bad):
        return None
    axes = np.broadcast_to(np.asarray(a), codes.shape)
    first = int(axes[bad].min())
    f, degenerate = divmod(int(codes[bad & (axes == first)].min()), 2)
    j = _factor_order(params.n, first)[f]
    what = "degenerate R-factor" if degenerate else "pole of R-factor"
    return SingularPointError(f"{what} (a={first}, j={j}) in the batch")


def k_product_batch(params: QkzParams, a, Z: np.ndarray, shifts: int) -> np.ndarray:
    """K_a(z - (s-1) kappa e_a) ... K_a(z - kappa e_a) K_a(z) for s =
    ``shifts`` on a batch of extension-field points (npts, n, 2) -> (npts,
    n, n, 2), with one axis a for all points or an array of one axis per
    point; s = p gives the p-curvature C_a.

    The s(n-1) R-factors (u - P^(a,j))/(u - 1), u = z_a - m kappa - z_j
    (- kappa if j < a) for the shift m, are applied in turn to one running
    matrix from Id.  With c = 1/(u - 1) a factor rewrites rows a and j
    only: for D = row_a - row_j and t = c*D, row_a += t and row_j -= t.
    Each point's rows are relabelled so that row a is running row 0 and the
    row j of its factor f is row f + 1; one loop over the rows (0, f + 1)
    then serves every axis, and a final gather puts the rows back.  c0, c1
    and delta c1 are read from :func:`ffield.inverse_table`, one shift at a
    time for all (f, point).  The matrix is held [row, column, component,
    point] in int32 and updated in place; t is reduced before it is added,
    and the rows are reduced once at the end, which ``_int32_bound``
    allows.

    Raises :class:`SingularPointError` if some factor at some point has a
    pole (u = 1) or degenerates (u = -1), naming the smallest such axis and
    its first such factor in application order of K_a, the pole first: the
    error of the one-axis call on that axis's points.
    """
    p, n, npts = params.p, params.n, len(Z)
    assert _int32_bound(p, n, shifts) < 1 << 31
    ax = np.broadcast_to(np.asarray(a, dtype=np.intp) - 1, (npts,))
    w = _factor_forms(params, ax, Z)
    error = _singular_error(params, ax + 1, _first_singular(params, w, shifts))
    if error is not None:
        raise error
    rows, back, _ = _running_rows(n)
    pts = np.arange(npts)
    M = np.zeros((n, n, 2, npts), dtype=np.int32)
    M[np.arange(n)[:, None], rows[ax].T, 0, pts] = 1  # Id, rows relabelled
    _run_factors(M, params, w, shifts)
    np.remainder(M, p, out=M)
    # [point, row, column, component] with the rows put back
    return M.transpose(3, 0, 1, 2)[pts[:, None], back[ax]].astype(np.int64)


def _run_factors(M: np.ndarray, params: QkzParams, w: np.ndarray, shifts: int) -> None:
    """Apply the R-factors of ``k_product_batch`` to the running matrix M
    (n, n, 2, npts) in place, shift by shift, for the forms w of
    ``_factor_forms``.  The encoded value u0 + p u1 of u - 1 = w - 1 - m
    kappa for every (f, point) is stepped by -kappa from shift to shift,
    and (c0, c1, delta c1) are read for it from the inverse table."""
    p, n = params.p, len(M)
    k0, k1 = params.kappa.a0, params.kappa.a1
    u0, u1 = mod(w[0] - 1, p).astype(np.intp), p * w[1].astype(np.intp)
    enc = np.empty_like(u0)
    c = np.empty((3,) + u0.shape, dtype=np.int32)  # (c0, c1, delta c1) over (f, point)
    c0, cross = c[0], c[2:0:-1]  # t = c0*D + cross*D', D' = D with its components swapped
    D, t, tmp = (np.empty(M.shape[1:], dtype=np.int32) for _ in range(3))
    for m in range(shifts):
        if m:
            u0 = mod(u0 - k0, p)
            if k1:
                u1 = mod(u1 - p * k1, p * p)
        np.add(u0, u1, out=enc)
        np.take(inverse_table(p), enc, axis=1, out=c, mode="clip")
        for f in range(n - 1):
            np.subtract(M[0], M[f + 1], out=D)
            np.multiply(D, c0[f], out=t)
            np.multiply(D[:, ::-1], cross[:, f], out=tmp)
            t += tmp
            np.floor_divide(t, p, out=tmp)
            tmp *= p
            t -= tmp
            M[0] += t
            M[f + 1] -= t


def _int32_bound(p: int, n: int, shifts: int) -> int:
    """A bound on |c0*D + cross*D'| in ``k_product_batch``, the largest
    value its int32 arrays hold.  Row 0 starts in {0, 1} and gains t in [0, p) at each of
    the s(n-1) factors; every other row starts in {0, 1} and loses t at s
    of them.  So |D| <= 1 + s n (p - 1), and the two products add up to at
    most 2 (p - 1) times that: below 2.03e8 for p <= 101, s <= p, n < p."""
    return 2 * (p - 1) * (1 + shifts * n * (p - 1))


# -- symbolic R-matrix identities ---------------------------------------------


def _swap_matrix(nfactors: int, i: int, j: int) -> np.ndarray:
    """The swap P^(i,j) of tensor slots i and j (1-based) on (C^2)^{x
    nfactors}, in the basis of bit strings with slot 1 leading."""
    weights = 1 << np.arange(nfactors - 1, -1, -1)
    bits = (np.arange(1 << nfactors)[:, None] // weights) % 2
    bits[:, [i - 1, j - 1]] = bits[:, [j - 1, i - 1]]
    return np.eye(1 << nfactors, dtype=np.int64)[bits @ weights].T


def _r_numerator(nfactors: int, i: int, j: int, u: tuple, mutate: bool = False) -> np.ndarray:
    """The R-matrix numerator u*Id - P^(i,j) on (C^2)^{x nfactors} for the
    linear form u = c + c_u*u + c_v*v given as (c, c_u, c_v), as integer
    coefficient matrices: entry [a, b] is the matrix coefficient of u^a v^b.

    ``mutate`` adds the projector D onto slots i and j both in the first
    basis state.  D commutes with P, so (D - P)^2 = Id - D, which is no
    scalar: unitarity fails at every p.  A multiple c*P in place of P would
    pass both identities whenever c^2 = 1 mod p, as -2P does at p = 3.
    """
    P = _swap_matrix(nfactors, i, j)
    eye = np.eye(len(P), dtype=np.int64)
    N = np.zeros((2, 2) + P.shape, dtype=np.int64)
    N[0, 0] = u[0] * eye - P
    if mutate:
        bits = (np.arange(len(P))[:, None] >> (nfactors - np.array([i, j]))) % 2
        N[0, 0] += np.diag(np.all(bits == 0, axis=1)).astype(np.int64)
    N[1, 0] = u[1] * eye
    N[0, 1] = u[2] * eye
    return N


def _poly_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """The product of two matrices of polynomials in u, v held as in
    ``_r_numerator``, reduced mod p."""
    shape = (A.shape[0] + B.shape[0] - 1, A.shape[1] + B.shape[1] - 1) + A.shape[2:]
    out = np.zeros(shape, dtype=np.int64)
    for a, b in np.ndindex(A.shape[:2]):
        for c, d in np.ndindex(B.shape[:2]):
            out[a + c, b + d] += A[a, b] @ B[c, d]
    return out % p


def _entry_failures(tag: str, values: np.ndarray, expect: np.ndarray, p: int) -> list[tuple]:
    """(tag, i, j, entry of ``values`` as text) wherever two matrices of
    polynomials, coefficient axes first as in ``_r_numerator``, differ; the
    variables print as z1 = u and z2 = v."""
    coeff_axes = tuple(range(values.ndim - 2))
    bad = np.argwhere(np.any(values != expect, axis=coeff_axes))
    if not len(bad):
        return []
    texts = render_polynomials(np.moveaxis(values, coeff_axes, tuple(a + 2 for a in coeff_axes)), p)
    return [(tag, int(i), int(j), texts[i][j]) for i, j in bad]


def verify_rmatrix_identities(ctx: FieldCtx, mutate: bool = False) -> CheckReport:
    """Symbolic unitarity and Yang-Baxter checks with denominators cleared,
    on integer coefficient matrices of u^a v^b.

    ``mutate`` adds a rank-one projector to each numerator (negative
    control, see ``_r_numerator``); the report then carries every failing
    matrix entry.
    """
    p = ctx.p
    # unitarity on (C^2)^x2, formal u: (u-P)(-u-P) = (u-1)(-u-1) Id = (1-u^2) Id
    prod = _poly_matmul(_r_numerator(2, 1, 2, (0, 1, 0), mutate), _r_numerator(2, 2, 1, (0, -1, 0), mutate), p)
    expect = np.zeros_like(prod)
    expect[0, 0] = np.eye(4, dtype=np.int64)
    expect[2, 0] = (p - 1) * expect[0, 0]
    failures = _entry_failures("unitarity", prod[:, 0], expect[:, 0], p)
    # Yang-Baxter on (C^2)^x3, formal u, v; both sides cleared by
    # (u-v-1)(u-1)(v-1)
    R12 = _r_numerator(3, 1, 2, (0, 1, -1), mutate)
    R13 = _r_numerator(3, 1, 3, (0, 1, 0), mutate)
    R23 = _r_numerator(3, 2, 3, (0, 0, 1), mutate)
    lhs = _poly_matmul(_poly_matmul(R12, R13, p), R23, p)
    rhs = _poly_matmul(_poly_matmul(R23, R13, p), R12, p)
    failures += _entry_failures("yang-baxter", (lhs - rhs) % p, 0, p)
    return CheckReport(
        name=f"rmatrix identities p={p}",
        passed=not failures,
        failures=failures,
    )


# -- equation verifiers --------------------------------------------------------


def verify_flatness(params: QkzParams, Z: np.ndarray, unshifted_control: bool = False) -> CheckReport:
    """Discrete flatness K_a(z - kappa e_b) K_b(z) = K_b(z - kappa e_a) K_a(z)
    checked exactly at every point of a batch Z (npts, n, 2) of F_{p^2}
    points: one kernel call makes every K_a(z), and one (per group of
    ``stack_groups``) every shifted factor of the pairs a < b.  The shifted
    factors are defined wherever the K_a(z) are: the one R-factor of
    K_a(z - kappa e_b) that moves has u = z_a - z_b + kappa, minus the u of
    the factor a of K_b(z), and that of K_b(z - kappa e_a) has u = z_b -
    z_a, minus that of the factor b of K_a(z).  So no pair is skipped
    (``details["skipped"]`` stays empty), and a singular point raises from
    the first call.

    ``unshifted_control`` takes K_a(z) in place of K_a(z - kappa e_b) on the
    left (negative control).
    """
    if not len(Z):
        raise ValueError("flatness needs at least one point")
    p, n, npts = params.p, params.n, len(Z)
    K = k_matrix_batch(params, *every_axis(n, Z)).reshape((n, npts, n, n, 2))
    shifted = kappa_shifts(params, Z)
    ia, ib = np.triu_indices(n, 1)  # the pairs a < b, 0-based
    k = 1 if unshifted_control else 2
    failures = []
    for g in stack_groups(len(ia), k * npts * n * n * 2):
        # K_b(z - kappa e_a), then K_a(z - kappa e_b) unless under the control
        ga, gb = ia[g], ib[g]
        axes, points = (gb, ga)[:k], (shifted[ga], shifted[gb])[:k]
        Ks = k_matrix_batch(
            params, np.repeat(np.concatenate(axes) + 1, npts), np.concatenate(points).reshape(-1, n, 2)
        ).reshape((k, len(ga), npts, n, n, 2))
        lhs = ext_matmul(K[ga] if unshifted_control else Ks[1], K[gb], p)
        rhs = ext_matmul(Ks[0], K[ga], p)
        bad = np.argwhere(np.any(lhs != rhs, axis=(2, 3, 4)))
        failures += [(int(ga[i]) + 1, int(gb[i]) + 1, int(pt)) for i, pt in bad]
    return CheckReport(
        name=f"discrete flatness p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"skipped": [], "points": len(Z)},
    )


def _pad_for_axis(F: np.ndarray, ax: int, n: int) -> np.ndarray:
    """Pad a coordinate stack for the axis-a check: the cleared equation
    raises the degree by n-1 in z_a and by 1 in every other variable."""
    grow = [n - 1 if i == ax else 1 for i in range(n)]
    return pad_to_shape(F, (F.shape[0],) + tuple(s + g for s, g in zip(F.shape[1:], grow)))


def _axis_slices(ndim: int, axis: int):
    """Index tuples (upper, lower) selecting entries 1.. and ..-2 along one
    axis (negative axes count from the end)."""
    lead = (slice(None),) * (axis % ndim)
    return lead + (slice(1, None),), lead + (slice(0, -1),)


def _lin_mul(X: np.ndarray, axes: tuple, cc: int, p: int, sub: Optional[np.ndarray] = None) -> np.ndarray:
    """(x - y - cc) * X - sub inside X's (padded) shape, reduced into [0, p)
    by ``linalg.mod``: the one reduction of the symbolic stacks, held in
    int16.  The linear form is given by the negative array axes ``axes`` =
    (x, y) of its variables, or (x,) for x - cc.  The R-factor stacks enter
    with X and ``sub`` in [0, p) and 0 <= cc <= p (cc < p with ``sub``); the
    KZ stacks with cc = 0, X in (-p, (p - 1)^2] and ``sub`` in (-p, p).
    Either way the value before the reduction is within p^2 - 1 of 0, and
    p^2 + p < 2^15 for every p <= MAX_PRIME."""
    out = X * -cc
    hi, lo = _axis_slices(X.ndim, axes[0])
    out[hi] += X[lo]
    if len(axes) > 1:
        hi, lo = _axis_slices(X.ndim, axes[1])
        out[hi] -= X[lo]
    if sub is not None:
        out -= sub
    return mod(out, p)


def _solution_array(params: QkzParams, F: np.ndarray) -> np.ndarray:
    """F mod p (axis 0 = coordinate, then z_1..z_n) cut down to the bounding
    box of its support, at least one entry per axis, as int16."""
    if params.ctx.ext_degree != 1 or F.ndim != params.n + 1 or F.shape[0] != params.n:
        raise ValueError(f"expected a prime-field coordinate array of shape (n, ...), n={params.n}")
    F = np.asarray(F, dtype=np.int64) % params.p
    hits = np.nonzero(np.any(F, axis=0))
    return F[(slice(None),) + tuple(slice(int(h.max()) + 1 if h.size else 1) for h in hits)].astype(np.int16)


def _mismatches(a: int, lhs: np.ndarray, rhs: np.ndarray) -> list[tuple]:
    """(a, i) for every coordinate i where lhs and rhs (a stack or 0) differ."""
    bad = np.any((lhs != rhs).reshape(lhs.shape[0], -1), axis=1)
    return [(a, int(i) + 1) for i in np.nonzero(bad)[0]]


def r_factors(params: QkzParams, a: int, shift: int = 0) -> list[tuple[int, int]]:
    """The R-factors of K_a(z - shift e_a) in the order they are applied, as
    pairs (j, c) with u = z_a - z_j - c and 0 <= c < p (prime-field kappa)."""
    kv = params.kappa.val
    return [(j, ((kv if j < a else 0) + shift) % params.p) for j in _factor_order(params.n, a)]


def apply_r_factors(D: np.ndarray, N: np.ndarray, a: int, factors, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiply D by the denominators u - 1 and N by the numerators
    u - P^(a,j) of R-factors (j, axes, c) of K_a; returns both as int16
    stacks in [0, p).

    u is x - y - c, or x - c when ``axes`` holds one axis, for the negative
    array axes (x, y) of its variables: z_a and z_j, or w_j = z_a - z_j.
    Axis 0 of N indexes the coordinates, and (u - P^(a,j)) N is u N minus N
    with rows a and j swapped.  The trailing axes must hold the products and
    the entries lie in [0, p); each factor is one ``_lin_mul`` per side.
    """
    D, N = D.astype(np.int16, copy=False), N.astype(np.int16, copy=False)
    for j, axes, c in factors:
        swap = np.arange(len(N))
        swap[[a - 1, j - 1]] = j - 1, a - 1
        D = _lin_mul(D, axes, c + 1, p)
        N = _lin_mul(N, axes, c, p, N[swap])
    return D, N


def verify_qkz_solution(params: QkzParams, F: np.ndarray) -> CheckReport:
    """Denominator-cleared symbolic check that a solution solves the qKZ
    equations: for each a,  (prod den_a)(z) * f(z - kappa e_a) = num_a(z) f(z).

    ``F`` holds the coordinates of f as dense coefficient arrays, shape
    (n, e_1+1, ..., e_n+1) with axes z_1..z_n (one entry of
    ``SolutionSet.arrays``).  Both sides are built exactly in a shape large
    enough to hold them; failures are (a, coordinate) pairs.
    """
    p, n = params.p, params.n
    kv = params.kappa.val
    F0 = _solution_array(params, F)
    failures = []
    per_axis = {}
    for a in range(1, n + 1):
        X = _pad_for_axis(F0, a - 1, n)
        factors = [(j, (a - 1 - n, j - 1 - n), c) for j, c in r_factors(params, a)]
        lhs, rhs = apply_r_factors(dense_shift_var(X, a - 1 - n, -kv, p), X, a, factors, p)
        bad = _mismatches(a, lhs, rhs)
        failures += bad
        per_axis[a] = not bad
    return CheckReport(
        name=f"qKZ solution p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"per_axis": per_axis},
    )


def verify_kz_solution(params: QkzParams, F: np.ndarray) -> CheckReport:
    """Denominator-cleared differential KZ check:
    kappa * prod_{j != a}(z_a - z_j) * df/dz_a = num(H_a) * f, with f given
    as in :func:`verify_qkz_solution`.  The left side minus the right is
    built by Horner's rule over the j != a in increasing order: E =
    kappa df/dz_a, then E <- (z_a - z_j) E - g_j with g_j the Gaudin term
    (P^(a,j) - 1) f times the z_a - z_i of the earlier i; failures are the
    coordinates where E is not 0."""
    p, n = params.p, params.n
    kv = params.kappa.val
    F0 = _solution_array(params, F)
    failures = []
    for a in range(1, n + 1):
        ax = a - 1 - n
        X = _pad_for_axis(F0, a - 1, n)
        s = X.shape[ax]
        hi, lo = _axis_slices(X.ndim, ax)
        E = np.zeros_like(X)
        E[lo] = X[hi] * (kv * np.arange(1, s) % p).reshape((s - 1,) + (1,) * (-ax - 1))
        others = [j for j in range(1, n + 1) if j != a]
        for m, j in enumerate(others):
            g = X[j - 1] - X[a - 1]
            for i in others[:m]:
                g = _lin_mul(g, (ax, i - 1 - n), 0, p)
            G = np.zeros_like(E)
            G[a - 1], G[j - 1] = g, -g
            E = _lin_mul(E, (ax, j - 1 - n), 0, p, G)
        failures += _mismatches(a, E, 0)
    return CheckReport(
        name=f"KZ solution p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
    )
