"""The weight space, R-matrix, qKZ operators, and the symbolic / pointwise
equation verifiers.

Operators act on K^n in the basis v^(i) (the i-th tensor slot carries the
lowered vector); the singular-weight subspace V is the zero-coordinate-sum
hyperplane.  Pointwise, K_a is evaluated by ``k_matrix_batch`` on a batch
of F_{p^2} points; ``k_operator_at`` is its one-point view.
Symbolically, K_a is an ordered product of R-factors (u - P^(a,j))/(u - 1),
and ``apply_r_factors`` multiplies one dense coefficient array by their
denominators and another by their numerators, u given by the axes of its
variables, so every identity is checked with denominators cleared and no
rational function is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dense import dense_shift_var, pad_to_shape, render_polynomials
from .ffield import FieldCtx, FieldElement, elements, make_field
from .linalg import ext_matmul

__all__ = [
    "QkzParams",
    "make_params",
    "CheckReport",
    "SingularPointError",
    "k_operator_at",
    "k_matrix_batch",
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
    return elements(k_matrix_batch(params, a, Z, make_field(params.p, 2))[0], z[0].ctx)


def k_matrix_batch(params: QkzParams, a: int, Z: np.ndarray, pctx: FieldCtx) -> np.ndarray:
    """K_a evaluated on a batch of extension-field points (npts, n, 2).

    Each R-factor (u - P)/(u - 1) is applied as it comes, with no deferred
    denominator: for c = 1/(u - 1) and w = u*c = 1 + c it sends row a to
    w*row_a - c*row_j and row j to w*row_j - c*row_a, and fixes every other
    row.  The running matrix is held as two component planes M0 + g*M1
    indexed [row, column, point], so that a row is one contiguous slice.
    """
    p = pctx.p
    delta = pctx.nonresidue
    inv_tab = np.asarray(pctx._inv_table, dtype=np.int64)
    n = params.n
    k0, k1 = params.kappa_pair
    Zt = np.moveaxis(Z, 0, -1)  # [slot, component, point]
    M0 = np.zeros((n, n, Z.shape[0]), dtype=np.int64)
    M0[range(n), range(n)] = 1
    M1 = np.zeros_like(M0)
    ai = a - 1
    for j in _factor_order(n, a):
        ji = j - 1
        u0 = Zt[ai, 0] - Zt[ji, 0]
        u1 = Zt[ai, 1] - Zt[ji, 1]
        if j < a:
            u0, u1 = u0 - k0, u1 - k1
        u0, u1 = u0 % p, u1 % p
        prime = u1 == 0
        if np.any(prime & (u0 == 1)):
            raise SingularPointError(f"pole of R-factor (a={a}, j={j}) in the batch")
        if np.any(prime & (u0 == p - 1)):
            raise SingularPointError(f"degenerate R-factor (a={a}, j={j}) in the batch")
        # c = 1/(u - 1) through the norm of u - 1, left unreduced: |c| < p^2
        # and |t| < 2p^4 below, far inside int64
        v0 = u0 - 1
        ninv = inv_tab[(v0 * v0 - delta * u1 * u1) % p]
        c0, c1 = v0 * ninv, -u1 * ninv
        # Row j is still e_j here: M starts at Id and each j != a is touched
        # by its own factor only.  So with t = c*(row_a - e_j) the new rows
        # are row_a + t and e_j - t.
        a0, a1 = M0[ai], M1[ai]
        d0 = a0.copy()
        d0[ji] -= 1
        t0 = c0 * d0 + delta * c1 * a1
        t1 = c0 * a1 + c1 * d0
        new_j0 = -t0
        new_j0[ji] += 1
        M0[ai], M1[ai] = (a0 + t0) % p, (a1 + t1) % p
        M0[ji], M1[ji] = new_j0 % p, -t1 % p
    return np.stack([M0, M1], axis=-1).transpose(2, 0, 1, 3).copy()


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
    points.

    ``unshifted_control`` takes K_a(z) in place of K_a(z - kappa e_b) on the
    left (negative control).
    """
    if not len(Z):
        raise ValueError("flatness needs at least one point")
    pctx = make_field(params.p, 2)
    p, delta = pctx.p, pctx.nonresidue
    n = params.n
    kap = params.kappa_pair
    failures = []
    skipped = []
    K = {a: k_matrix_batch(params, a, Z, pctx) for a in range(1, n + 1)}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            Za = Z.copy()
            Za[:, a - 1] = (Za[:, a - 1] - kap) % p
            Zb = Z.copy()
            Zb[:, b - 1] = (Zb[:, b - 1] - kap) % p
            try:
                # K_a(z - kappa e_b), or K_a(z) under the control
                Kab = K[a] if unshifted_control else k_matrix_batch(params, a, Zb, pctx)
                Kba = k_matrix_batch(params, b, Za, pctx)  # K_b(z - kappa e_a)
            except SingularPointError as exc:
                skipped.append((a, b, str(exc)))
                continue
            lhs = ext_matmul(Kab, K[b], p, delta)
            rhs = ext_matmul(Kba, K[a], p, delta)
            bad = np.nonzero(np.any(lhs != rhs, axis=(1, 2, 3)))[0]
            for i in bad:
                failures.append((a, b, int(i)))
    return CheckReport(
        name=f"discrete flatness p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"skipped": skipped, "points": len(Z)},
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


def _lin_mul(X: np.ndarray, axes: tuple, cc: int) -> np.ndarray:
    """(x - y - cc) * X inside X's (padded) shape, not reduced mod p; the
    linear form is given by the negative array axes ``axes`` = (x, y) of its
    variables, or (x,) for the form x - cc."""
    out = X * -cc
    hi, lo = _axis_slices(X.ndim, axes[0])
    out[hi] += X[lo]
    if len(axes) > 1:
        hi, lo = _axis_slices(X.ndim, axes[1])
        out[hi] -= X[lo]
    return out


def _solution_array(params: QkzParams, F: np.ndarray) -> np.ndarray:
    """F mod p (axis 0 = coordinate, then z_1..z_n) cut down to the bounding
    box of its support, at least one entry per axis."""
    if params.ctx.ext_degree != 1 or F.ndim != params.n + 1 or F.shape[0] != params.n:
        raise ValueError(f"expected a prime-field coordinate array of shape (n, ...), n={params.n}")
    F = np.asarray(F, dtype=np.int64) % params.p
    hits = np.nonzero(np.any(F, axis=0))
    return F[(slice(None),) + tuple(slice(int(h.max()) + 1 if h.size else 1) for h in hits)]


def _mismatches(a: int, lhs: np.ndarray, rhs: np.ndarray) -> list[tuple]:
    """(a, i) for every coordinate i where two reduced stacks differ."""
    bad = np.any((lhs != rhs).reshape(lhs.shape[0], -1), axis=1)
    return [(a, int(i) + 1) for i in np.nonzero(bad)[0]]


def r_factors(params: QkzParams, a: int, shift: int = 0) -> list[tuple[int, int]]:
    """The R-factors of K_a(z - shift e_a) in the order they are applied, as
    pairs (j, c) with u = z_a - z_j - c and 0 <= c < p (prime-field kappa)."""
    kv = params.kappa.val
    return [(j, ((kv if j < a else 0) + shift) % params.p) for j in _factor_order(params.n, a)]


def apply_r_factors(D: np.ndarray, N: np.ndarray, a: int, factors, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiply D by the denominators u - 1 and N by the numerators
    u - P^(a,j) of R-factors (j, axes, c) of K_a; returns both reduced mod p.

    u is x - y - c, or x - c when ``axes`` holds one axis, for the negative
    array axes (x, y) of its variables: z_a and z_j, or w_j = z_a - z_j.
    Axis 0 of N indexes the coordinates, and u - P^(a,j) is u - 1 on every
    row but a and j, which swap in P.  The trailing axes must hold the
    products and the entries lie in [0, p); both are reduced only when the
    tracked bound on their entries would pass 2^62.
    """
    ra = a - 1
    bound = p
    for j, axes, c in factors:
        # a factor multiplies |entries| by at most p + 2 (0 <= c < p)
        if bound * (p + 2) >= 1 << 62:
            D, N, bound = D % p, N % p, p
        D = _lin_mul(D, axes, c + 1)
        U = _lin_mul(N, axes, c)
        rj = j - 1
        ua, uj = U[ra] - N[rj], U[rj] - N[ra]
        U -= N
        U[ra], U[rj] = ua, uj
        N, bound = U, bound * (p + 2)
    return D % p, N % p


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
    as in :func:`verify_qkz_solution`."""
    p, n = params.p, params.n
    kv = params.kappa.val
    F0 = _solution_array(params, F)
    failures = []
    for a in range(1, n + 1):
        ax = a - 1 - n
        X = _pad_for_axis(F0, a - 1, n)
        s = X.shape[ax]
        hi, lo = _axis_slices(X.ndim, ax)
        lhs = np.zeros_like(X)
        lhs[lo] = X[hi] * (kv * np.arange(1, s) % p).reshape((s - 1,) + (1,) * (-ax - 1))
        rhs = np.zeros_like(X)
        # unreduced: each factor z_a - z_j at most doubles |entries|, so they
        # stay below n p^2 2^(n-1) < 2^62, since the padded stack has over
        # 2^(n-1) entries and n < 40 for any stack that fits in memory
        for j in range(1, n + 1):
            if j == a:
                continue
            lhs = _lin_mul(lhs, (ax, j - 1 - n), 0)
            # Gaudin term (P^(a,j) - 1) f times prod_{j2 != a, j} (z_a - z_j2)
            G = X[j - 1] - X[a - 1]
            for j2 in range(1, n + 1):
                if j2 not in (a, j):
                    G = _lin_mul(G, (ax, j2 - 1 - n), 0)
            rhs[a - 1] += G
            rhs[j - 1] -= G
        failures += _mismatches(a, lhs % p, rhs % p)
    return CheckReport(
        name=f"KZ solution p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
    )
