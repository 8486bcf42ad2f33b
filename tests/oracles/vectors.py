"""The sparse vector layer: K^n-valued polynomials as one ``MPoly`` per
coordinate, the Gaudin operators, the Shapovalov pairing and its
periodicity at points given as lists of field elements, and the R-matrix
identities on ``MPoly`` matrices.  The
package checks these claims on dense arrays; these are the references the
dense checks are compared with."""

from __future__ import annotations

from typing import Sequence

from charp_qkz.ffield import FieldCtx, FieldElement
from charp_qkz.mpoly import MPoly
from charp_qkz.qkz_core import CheckReport, QkzParams

from .operators import LinearForm, RatOpMatrix, _matmul_poly


def shift_point(z, a: int, delta: FieldElement):
    """z - delta * e_a for a point given as a list of field elements."""
    out = list(z)
    out[a - 1] = out[a - 1] - FieldElement(z[0].ctx, delta.val)
    return out


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


def _tensor_numerator(ctx: FieldCtx, nvars: int, nfactors: int, i: int, j: int, u: MPoly, mutate: bool = False):
    """Numerator u*Id - P^(i,j) of the R-matrix on (C^2)^{x nfactors},
    with P the swap of tensor slots i and j (1-based); ``mutate`` adds the
    projector onto slots i and j both in the first basis state."""
    dim = 1 << nfactors
    zero = MPoly.zero(ctx, nvars)
    M = [[zero for _ in range(dim)] for _ in range(dim)]
    sgn = MPoly.const(ctx, nvars, -1)
    one = MPoly.const(ctx, nvars, 1)
    for b in range(dim):
        bits = [(b >> (nfactors - 1 - s)) & 1 for s in range(nfactors)]
        bits[i - 1], bits[j - 1] = bits[j - 1], bits[i - 1]
        bp = 0
        for s in range(nfactors):
            bp = (bp << 1) | bits[s]
        M[bp][b] = M[bp][b] + sgn
        M[b][b] = M[b][b] + u
        if mutate and bits[i - 1] == bits[j - 1] == 0:
            M[b][b] = M[b][b] + one
    return M


def sparse_rmatrix_identities(ctx: FieldCtx, mutate: bool = False) -> CheckReport:
    """Symbolic unitarity and Yang-Baxter checks with denominators cleared.

    ``mutate`` adds a rank-one projector to each numerator (negative
    control); the report then carries every failing matrix entry.
    """
    failures = []
    # unitarity on (C^2)^x2, formal u: (u-P)(-u-P) = (u-1)(-u-1) Id
    u = MPoly.variable(ctx, 1, 1)
    N12 = _tensor_numerator(ctx, 1, 2, 1, 2, u, mutate)
    N21 = _tensor_numerator(ctx, 1, 2, 2, 1, -u, mutate)
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
    R12 = _tensor_numerator(ctx, 2, 3, 1, 2, uu - vv, mutate)
    R13 = _tensor_numerator(ctx, 2, 3, 1, 3, uu, mutate)
    R23 = _tensor_numerator(ctx, 2, 3, 2, 3, vv, mutate)
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
