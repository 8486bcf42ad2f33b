"""The sparse operator layer: linear forms, K_a as an ``MPoly`` numerator
matrix over a factored linear-form denominator, ``MPoly`` matrix products,
and the symbolic p-curvature built from them, plus the zero-sum basis as
field-element lists.  The package builds the symbolic curvature on dense
arrays (``pcurvature.curvature_symbolic``); these are the references it is
compared with."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from charp_qkz.ffield import FieldCtx, FieldElement
from charp_qkz.mpoly import MPoly
from charp_qkz.qkz_core import QkzParams, SingularPointError, _factor_order


@dataclass(frozen=True)
class LinearForm:
    """The linear form z_i - z_j - c (or z_i - c when j is None); 1-based."""

    i: int
    j: Optional[int]
    c: FieldElement

    def __post_init__(self):
        if self.j is not None and self.i == self.j:
            raise ValueError("linear form needs distinct variable indices")

    def as_mpoly(self, nvars: int) -> MPoly:
        ctx = self.c.ctx
        f = MPoly.variable(ctx, nvars, self.i)
        if self.j is not None:
            f = f - MPoly.variable(ctx, nvars, self.j)
        return f - MPoly.const(ctx, nvars, self.c)

    def eval(self, point) -> FieldElement:
        v = point[self.i - 1]
        if self.j is not None:
            v = v - point[self.j - 1]
        return v - self.c

    def __str__(self):
        s = f"z{self.i}"
        if self.j is not None:
            s += f"-z{self.j}"
        if self.c.val:
            s += f"-{self.c}" if "+" not in str(self.c) else f"-({self.c})"
        return s


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


def singular_basis(ctx: FieldCtx, n: int) -> list[list[FieldElement]]:
    """The basis e_i = v^(i) - v^(i+1) of the zero-sum subspace V."""
    basis = []
    for i in range(n - 1):
        vec = [ctx.zero() for _ in range(n)]
        vec[i] = ctx.element(1)
        vec[i + 1] = ctx.element(-1)
        basis.append(vec)
    return basis


def d_a_poly(params: QkzParams, a: int) -> MPoly:
    """D_a = prod_{j != a} (z_a - z_j - 1; kappa)_p as a polynomial in z."""
    ctx, n = params.ctx, params.n
    out = MPoly.const(ctx, n, 1)
    base_a = MPoly.variable(ctx, n, a)
    for j in range(1, n + 1):
        if j == a:
            continue
        form = base_a - MPoly.variable(ctx, n, j) - MPoly.const(ctx, n, 1)
        for m in range(params.p):
            out = out * (form - MPoly.const(ctx, n, params.kappa * m))
    return out


def curvature_symbolic(params: QkzParams, a: int) -> tuple[list[list[MPoly]], MPoly]:
    """(tilde-C_a, D_a): the normalized curvature as an exact polynomial
    matrix (desk scale: p symbolic matrix products).

    The denominator multiset of the p-fold product is exactly the factor
    list of D_a; this is asserted by comparing the accumulated denominator
    polynomial with D_a, so no division is ever performed.
    """
    ctx, n = params.ctx, params.n
    num = None
    denpoly = MPoly.const(ctx, n, 1)
    for m in range(params.p):
        op = k_operator(params, a)
        shift = -(params.kappa * m)
        num_m = [[e.shift_var(a, shift) for e in row] for row in op.num]
        for formpoly in (fm.as_mpoly(n).shift_var(a, shift) for fm in op.den):
            denpoly = denpoly * formpoly
        num = num_m if num is None else _matmul_poly(num_m, num)
    da = d_a_poly(params, a)
    if denpoly != da:
        raise AssertionError("denominator of the p-fold product differs from D_a")
    for i in range(n):
        num[i][i] = num[i][i] - da
    return num, da
