"""The weight space, R-matrix, qKZ operators, Gaudin Hamiltonians,
Shapovalov form, and the symbolic / pointwise equation verifiers.

Operators act on K^n in the basis v^(i) (the i-th tensor slot carries the
lowered vector); the singular-weight subspace V is the zero-coordinate-sum
hyperplane.  Rational operators are kept as a polynomial numerator matrix
over a factored linear-form denominator; identity checks always clear
denominators, so no rational-function normalization is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dense import dense_shift_var, pad_to_shape
from .ffield import FieldCtx, FieldElement
from .linalg import ext_inv, ext_matmul, ext_mul
from .mpoly import LinearForm, MPoly

__all__ = [
    "QkzParams",
    "make_params",
    "VectorPoly",
    "RatOpMatrix",
    "CheckReport",
    "SingularPointError",
    "k_operator",
    "k_operator_at",
    "k_matrix_batch",
    "gaudin_operator",
    "shapovalov",
    "negate_z",
    "verify_rmatrix_identities",
    "verify_flatness",
    "verify_qkz_solution",
    "verify_kz_solution",
    "verify_pairing_periodicity",
    "pairing_polynomial",
    "is_quasi_constant",
    "points_to_array",
    "shift_point",
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
        k = k_from_kappa_int(ctx.p, kappa.a0)
        d = n * k // ctx.p
    return QkzParams(ctx, n, kappa, k, d)


def k_from_kappa_int(p: int, kappa0: int) -> int:
    """The unique 0 < k < p with kappa*k = -1 mod p."""
    if kappa0 % p == 0:
        raise ValueError("kappa must be nonzero in F_p")
    k = (-pow(kappa0, p - 2, p)) % p
    return k


class VectorPoly:
    """A K^n-valued polynomial function of z (one MPoly per coordinate)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[MPoly]):
        self.coords = list(coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def ctx(self) -> FieldCtx:
        return self.coords[0].ctx

    def coordinate_sum(self) -> MPoly:
        acc = self.coords[0]
        for c in self.coords[1:]:
            acc = acc + c
        return acc

    def is_singular_vector(self) -> bool:
        """Whether the value lies in V (coordinates sum to zero)."""
        return self.coordinate_sum().is_zero()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def degree(self) -> int:
        return max(c.total_degree() for c in self.coords)

    def eval(self, point) -> list[FieldElement]:
        return [c.eval(point) for c in self.coords]

    def shift_var(self, a: int, delta) -> "VectorPoly":
        return VectorPoly([c.shift_var(a, delta) for c in self.coords])

    def substitute(self, assignments) -> "VectorPoly":
        return VectorPoly([c.substitute(assignments) for c in self.coords])

    def top_degree_part(self) -> "VectorPoly":
        d = self.degree()
        parts = []
        for c in self.coords:
            if c.total_degree() == d:
                parts.append(c.top_degree_part())
            else:
                parts.append(MPoly.zero(c.ctx, c.nvars))
        return VectorPoly(parts)

    def leading_term(self) -> tuple[tuple, list[FieldElement]]:
        """Vector-valued leading term: the largest monomial occurring in any
        coordinate, with the vector of its coefficients."""
        if self.is_zero():
            raise ValueError("leading term of the zero vector")
        mono = max(
            (c.leading_monomial() for c in self.coords if not c.is_zero()),
            key=lambda e: (sum(e), e),
        )
        return mono, [c.coeff(mono) for c in self.coords]

    def __sub__(self, other: "VectorPoly") -> "VectorPoly":
        return VectorPoly([a - b for a, b in zip(self.coords, other.coords)])

    def __add__(self, other: "VectorPoly") -> "VectorPoly":
        return VectorPoly([a + b for a, b in zip(self.coords, other.coords)])

    def __eq__(self, other):
        return isinstance(other, VectorPoly) and self.coords == other.coords

    def __repr__(self):
        return "VectorPoly(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass
class RatOpMatrix:
    """Operator num / prod(den) with an n x n polynomial numerator."""

    num: list[list[MPoly]]
    den: list[LinearForm]

    @property
    def n(self) -> int:
        return len(self.num)

    def eval_at(self, point) -> list[list[FieldElement]]:
        """Full rational operator evaluated at a point off the poles."""
        pctx = point[0].ctx
        den = FieldElement(pctx, 1)
        for form in self.den:
            v = form.eval(point)
            if not v:
                raise SingularPointError(f"pole of the operator on {form}=0")
            den = den * v
        dinv = den.inv()
        return [[entry.eval(point) * dinv for entry in row] for row in self.num]


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


def _u_form(params: QkzParams, a: int, j: int) -> tuple[MPoly, FieldElement]:
    """(u_j as MPoly, constant c) for the factor R^{(a,j)}; u_j = z_a-z_j-c."""
    ctx, n = params.ctx, params.n
    c = params.kappa if j < a else ctx.zero()
    u = (
        MPoly.variable(ctx, n, a)
        - MPoly.variable(ctx, n, j)
        - MPoly.const(ctx, n, c)
    )
    return u, c


def k_operator(params: QkzParams, a: int) -> RatOpMatrix:
    """The qKZ operator K_a restricted to the weight basis v^(1..n), as an
    ordered product of R-factors in numerator/denominator form."""
    ctx, n = params.ctx, params.n
    if not 1 <= a <= n:
        raise IndexError(f"operator index {a} out of range 1..{n}")
    zero = MPoly.zero(ctx, n)
    M = [[MPoly.const(ctx, n, 1) if i == j else zero for j in range(n)] for i in range(n)]
    den: list[LinearForm] = []
    for j in _factor_order(n, a):
        u, c = _u_form(params, a, j)
        den.append(LinearForm(a, j, c + ctx.element(1)))
        # numerator u - P in the weight basis: [[u,-1],[-1,u]] on rows {a,j},
        # u-1 on the remaining diagonal (P fixes v^(i) for i outside {a,j})
        um1 = u - MPoly.const(ctx, n, 1)
        ai, ji = a - 1, j - 1
        rowa = [u * M[ai][col] - M[ji][col] for col in range(n)]
        rowj = [u * M[ji][col] - M[ai][col] for col in range(n)]
        M = [
            rowa if i == ai else rowj if i == ji else [um1 * M[i][col] for col in range(n)]
            for i in range(n)
        ]
    return RatOpMatrix(M, den)


def gaudin_operator(params: QkzParams, a: int) -> RatOpMatrix:
    """Gaudin Hamiltonian H_a = sum_{j != a} (P^(a,j) - 1)/(z_a - z_j) on the
    weight basis, over the common denominator prod_{j != a} (z_a - z_j)."""
    ctx, n = params.ctx, params.n
    if not 1 <= a <= n:
        raise IndexError(f"operator index {a} out of range 1..{n}")
    zero = MPoly.zero(ctx, n)
    num = [[zero for _ in range(n)] for _ in range(n)]
    den = [LinearForm(a, j, ctx.zero()) for j in range(1, n + 1) if j != a]
    for j in range(1, n + 1):
        if j == a:
            continue
        rest = MPoly.const(ctx, n, 1)
        for j2 in range(1, n + 1):
            if j2 not in (a, j):
                rest = rest * LinearForm(a, j2, ctx.zero()).as_mpoly(n)
        ai, ji = a - 1, j - 1
        num[ai][ai] = num[ai][ai] - rest
        num[ji][ji] = num[ji][ji] - rest
        num[ai][ji] = num[ai][ji] + rest
        num[ji][ai] = num[ji][ai] + rest
    return RatOpMatrix(num, den)


# -- pointwise evaluation ----------------------------------------------------


def _hyperplane_name(a: int, j: int, diff: FieldElement) -> str:
    i1, i2 = min(a, j), max(a, j)
    m = diff if a < j else -diff
    return f"H_{{{i1},{i2},{m}}}"


def k_operator_at(params: QkzParams, a: int, z: Sequence[FieldElement]):
    """K_a(z) as an exact matrix over the point's field.

    Raises :class:`SingularPointError` on a pole (u = 1) or a degeneracy
    (u = -1) of any R-factor, naming the offending hyperplane.
    """
    n = params.n
    if len(z) != n:
        raise ValueError("point length mismatch")
    pctx = z[0].ctx
    one = pctx.element(1)
    M = [[one if i == j else pctx.zero() for j in range(n)] for i in range(n)]
    den = one
    for j in _factor_order(n, a):
        c = params.kappa if j < a else params.ctx.zero()
        u = z[a - 1] - z[j - 1] - FieldElement(pctx, c.val)
        if u == one:
            raise SingularPointError(
                f"pole of R at {_hyperplane_name(a, j, z[a - 1] - z[j - 1])}"
            )
        if u == -one:
            raise SingularPointError(
                f"degenerate R at {_hyperplane_name(a, j, z[a - 1] - z[j - 1])}"
            )
        ai, ji = a - 1, j - 1
        um1 = u - one
        rowa = [u * M[ai][col] - M[ji][col] for col in range(n)]
        rowj = [u * M[ji][col] - M[ai][col] for col in range(n)]
        for i in range(n):
            if i == ai:
                M[i] = rowa
            elif i == ji:
                M[i] = rowj
            else:
                M[i] = [um1 * M[i][col] for col in range(n)]
        den = den * um1
    dinv = den.inv()
    return [[x * dinv for x in row] for row in M]


def points_to_array(points, ctx: FieldCtx) -> np.ndarray:
    """Stack points into an int64 array (npts, n, 2) of (a0, a1) pairs."""
    vals = np.array([[x.val for x in pt] for pt in points], dtype=np.int64)
    return np.stack([vals % ctx.p, vals // ctx.p], axis=-1)


def shift_point(z, a: int, delta: FieldElement):
    """z - delta * e_a for a point given as a list of field elements."""
    out = list(z)
    out[a - 1] = out[a - 1] - FieldElement(z[0].ctx, delta.val)
    return out


def k_matrix_batch(params: QkzParams, a: int, Z: np.ndarray, pctx: FieldCtx) -> np.ndarray:
    """K_a evaluated on a batch of extension-field points (npts, n, 2)."""
    p = pctx.p
    delta = pctx.nonresidue
    n = params.n
    npts = Z.shape[0]
    kap = np.array([params.kappa.val % p, params.kappa.val // p], dtype=np.int64)
    M = np.zeros((npts, n, n, 2), dtype=np.int64)
    M[:, range(n), range(n), 0] = 1
    den = np.zeros((npts, 2), dtype=np.int64)
    den[:, 0] = 1
    for j in _factor_order(n, a):
        u = (Z[:, a - 1] - Z[:, j - 1]) % p
        if j < a:
            u = (u - kap) % p
        um1 = u.copy()
        um1[:, 0] = (um1[:, 0] - 1) % p
        if np.any(np.all(um1 == 0, axis=1)):
            raise SingularPointError(f"pole of R-factor (a={a}, j={j}) in the batch")
        up1 = u.copy()
        up1[:, 0] = (up1[:, 0] + 1) % p
        if np.any(np.all(up1 == 0, axis=1)):
            raise SingularPointError(f"degenerate R-factor (a={a}, j={j}) in the batch")
        new = ext_mul(um1[:, None, None], M, p, delta)
        scaled = ext_mul(u[:, None, None], M[:, [a - 1, j - 1]], p, delta)
        ai, ji = a - 1, j - 1
        new[:, ai] = (scaled[:, 0] - M[:, ji]) % p
        new[:, ji] = (scaled[:, 1] - M[:, ai]) % p
        M = new
        den = ext_mul(den, um1, p, delta)
    dinv = ext_inv(den, pctx)
    return ext_mul(dinv[:, None, None], M, p, delta)


# -- Shapovalov form ---------------------------------------------------------


def shapovalov(x, y):
    """Standard dot product sum_i x_i y_i (works for field elements, MPoly
    coordinates, or VectorPoly arguments)."""
    if isinstance(x, VectorPoly):
        x = x.coords
    if isinstance(y, VectorPoly):
        y = y.coords
    if len(x) != len(y):
        raise ValueError("Shapovalov form needs equal-length vectors")
    acc = None
    for xi, yi in zip(x, y):
        t = xi * yi
        acc = t if acc is None else acc + t
    return acc


def negate_z(f: MPoly) -> MPoly:
    """f(-z_1, ..., -z_n)."""
    ctx = f.ctx
    return MPoly(
        ctx,
        f.nvars,
        {e: (c if sum(e) % 2 == 0 else ctx.neg(c)) for e, c in f.terms.items()},
    )


def negate_z_vector(f: VectorPoly) -> VectorPoly:
    return VectorPoly([negate_z(c) for c in f.coords])


def singular_basis(ctx: FieldCtx, n: int) -> list[list[FieldElement]]:
    """The basis e_i = v^(i) - v^(i+1) of the zero-sum subspace V."""
    basis = []
    for i in range(n - 1):
        vec = [ctx.zero() for _ in range(n)]
        vec[i] = ctx.element(1)
        vec[i + 1] = ctx.element(-1)
        basis.append(vec)
    return basis


# -- symbolic R-matrix identities ---------------------------------------------


def _tensor_numerator(ctx: FieldCtx, nvars: int, nfactors: int, i: int, j: int, u: MPoly, sign: int = -1):
    """Numerator u*Id + sign*P^(i,j) of the R-matrix on (C^2)^{x nfactors},
    with P the swap of tensor slots i and j (1-based)."""
    dim = 1 << nfactors
    zero = MPoly.zero(ctx, nvars)
    M = [[zero for _ in range(dim)] for _ in range(dim)]
    sgn = MPoly.const(ctx, nvars, sign)
    for b in range(dim):
        bits = [(b >> (nfactors - 1 - s)) & 1 for s in range(nfactors)]
        bits[i - 1], bits[j - 1] = bits[j - 1], bits[i - 1]
        bp = 0
        for s in range(nfactors):
            bp = (bp << 1) | bits[s]
        M[bp][b] = M[bp][b] + sgn
        M[b][b] = M[b][b] + u
    return M


def _matmul_poly(A, B):
    n = len(A)
    ctx, nv = A[0][0].ctx, A[0][0].nvars
    out = [[MPoly.zero(ctx, nv) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            if not a:
                continue
            for j in range(n):
                if B[k][j]:
                    out[i][j] = out[i][j] + a * B[k][j]
    return out


def verify_rmatrix_identities(ctx: FieldCtx, mutate: bool = False) -> CheckReport:
    """Symbolic unitarity and Yang-Baxter checks with denominators cleared.

    ``mutate`` doubles the permutation part of R (negative control; note a
    bare sign flip would still satisfy both identities); the report then
    carries every failing matrix entry.
    """
    sign = -2 if mutate else -1
    failures = []
    # unitarity on (C^2)^x2, formal u: (u-P)(-u-P) = (u-1)(-u-1) Id
    u = MPoly.variable(ctx, 1, 1)
    N12 = _tensor_numerator(ctx, 1, 2, 1, 2, u, sign)
    N21 = _tensor_numerator(ctx, 1, 2, 2, 1, -u, sign)
    prod = _matmul_poly(N12, N21)
    scale = (u - MPoly.const(ctx, 1, 1)) * (-u - MPoly.const(ctx, 1, 1))
    for i in range(4):
        for j in range(4):
            expect = scale if i == j else MPoly.zero(ctx, 1)
            if prod[i][j] != expect:
                failures.append(("unitarity", i, j, str(prod[i][j])))
    # Yang-Baxter on (C^2)^x3, formal u, v; both sides cleared by
    # (u-v-1)(u-1)(v-1)
    uu = MPoly.variable(ctx, 2, 1)
    vv = MPoly.variable(ctx, 2, 2)
    R12 = _tensor_numerator(ctx, 2, 3, 1, 2, uu - vv, sign)
    R13 = _tensor_numerator(ctx, 2, 3, 1, 3, uu, sign)
    R23 = _tensor_numerator(ctx, 2, 3, 2, 3, vv, sign)
    lhs = _matmul_poly(_matmul_poly(R12, R13), R23)
    rhs = _matmul_poly(_matmul_poly(R23, R13), R12)
    for i in range(8):
        for j in range(8):
            if lhs[i][j] != rhs[i][j]:
                failures.append(("yang-baxter", i, j, str(lhs[i][j] - rhs[i][j])))
    return CheckReport(
        name=f"rmatrix identities p={ctx.p}",
        passed=not failures,
        failures=failures,
    )


# -- equation verifiers --------------------------------------------------------


def verify_flatness(
    params: QkzParams, points, pctx: Optional[FieldCtx] = None, unshifted_control: bool = False
) -> CheckReport:
    """Discrete flatness K_a(z - kappa e_b) K_b(z) = K_b(z - kappa e_a) K_a(z)
    checked exactly at every given extension-field point.

    ``unshifted_control`` takes K_a(z) in place of K_a(z - kappa e_b) on the
    left (negative control).
    """
    if pctx is None:
        pctx = points[0][0].ctx
    p, delta = pctx.p, pctx.nonresidue
    n = params.n
    Z = points_to_array(points, pctx)
    kap = np.array([params.kappa.val % p, params.kappa.val // p], dtype=np.int64)
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
        details={"skipped": skipped, "points": len(points)},
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


def _lin_mul(X: np.ndarray, ax_a: int, ax_j: int, cc: int) -> np.ndarray:
    """(z_a - z_j - cc) * X inside X's (padded) shape, not reduced mod p;
    ``ax_a``/``ax_j`` are the negative array axes of z_a and z_j."""
    out = X * -cc
    hi, lo = _axis_slices(X.ndim, ax_a)
    out[hi] += X[lo]
    hi, lo = _axis_slices(X.ndim, ax_j)
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
        ax = a - 1 - n
        X = _pad_for_axis(F0, a - 1, n)
        # rows 0..n-1 carry the left side, rows n..2n-1 the right side
        S = np.concatenate([dense_shift_var(X, ax, -kv, p), X])
        ra, bound = n + a - 1, p
        for j in _factor_order(n, a):
            # with u = z_a - z_j - c, the left side takes the factor's
            # denominator u - 1 and the right side its numerator u - P:
            # u - 1 on every coordinate but a and j, which swap in P.
            # A factor multiplies |entries| by at most p + 2 (0 <= c < p).
            if bound * (p + 2) >= 1 << 62:
                S, bound = S % p, p
            U = _lin_mul(S, ax, j - 1 - n, kv if j < a else 0)
            rj = n + j - 1
            ua, uj = U[ra] - S[rj], U[rj] - S[ra]
            U -= S
            U[ra], U[rj] = ua, uj
            S, bound = U, bound * (p + 2)
        S %= p
        bad = _mismatches(a, S[:n], S[n:])
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
            lhs = _lin_mul(lhs, ax, j - 1 - n, 0)
            # Gaudin term (P^(a,j) - 1) f times prod_{j2 != a, j} (z_a - z_j2)
            G = X[j - 1] - X[a - 1]
            for j2 in range(1, n + 1):
                if j2 not in (a, j):
                    G = _lin_mul(G, ax, j2 - 1 - n, 0)
            rhs[a - 1] += G
            rhs[j - 1] -= G
        failures += _mismatches(a, lhs % p, rhs % p)
    return CheckReport(
        name=f"KZ solution p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
    )


def pairing_polynomial(f: VectorPoly, g: VectorPoly) -> MPoly:
    """S(g(-z), f(z)) as a polynomial in z."""
    return shapovalov(negate_z_vector(g), f)


def is_quasi_constant(fpoly: MPoly, kappa: FieldElement) -> bool:
    """Whether the polynomial is invariant under z_a -> z_a - kappa for every
    a; for kappa in F_p^x this is membership in F_p[z_1^p-z_1, ..., z_n^p-z_n]."""
    for a in range(1, fpoly.nvars + 1):
        if fpoly.shift_var(a, -kappa) != fpoly:
            return False
    return True


def verify_pairing_periodicity(
    params: QkzParams, f: VectorPoly, g: VectorPoly, points
) -> CheckReport:
    """Periodicity of S(g(-z), f(z)) for a step-kappa solution f
    and step-(-kappa) solution g: pointwise kappa-shift invariance on each
    axis, plus the symbolic quasi-constant property."""
    pairing = pairing_polynomial(f, g)
    failures = []
    if not is_quasi_constant(pairing, params.kappa):
        failures.append(("symbolic", "pairing is not a quasi-constant"))
    for idx, z in enumerate(points):
        base = pairing.eval(z)
        for a in range(1, params.n + 1):
            zs = shift_point(z, a, params.kappa)
            if pairing.eval(zs) != base:
                failures.append((idx, a))
    return CheckReport(
        name=f"pairing periodicity p={params.p} n={params.n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
    )
