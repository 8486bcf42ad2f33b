"""Sparse multivariate polynomials in z_1..z_n over a field context.

Terms live in a dict mapping exponent tuples to nonzero encoded coefficients
(see :mod:`charp_qkz.ffield`).  The monomial order used throughout is
length-lex: compare total degree first, then the exponent tuple
lexicographically with z_1 most significant.

Variable indices in the public API are 1-based (z_1, ..., z_n), matching the
usual notation for the qKZ variables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from .ffield import FieldCtx, FieldElement

__all__ = ["MPoly"]

# above this many coefficient products, prime-field multiplication switches
# to the dense numpy kernel
_DENSE_MUL_THRESHOLD = 1 << 14


def _as_encoded(ctx: FieldCtx, c) -> int:
    if isinstance(c, FieldElement):
        if c.ctx.p != ctx.p:
            raise ValueError("field context mismatch")
        return c.val
    if isinstance(c, int):
        return c % ctx.p
    raise TypeError(f"cannot use {type(c).__name__} as a field coefficient")


class MPoly:
    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldCtx, nvars: int, terms: Optional[dict] = None):
        self.ctx = ctx
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, nvars: int) -> "MPoly":
        return cls(ctx, nvars, {})

    @classmethod
    def const(cls, ctx: FieldCtx, nvars: int, c) -> "MPoly":
        v = _as_encoded(ctx, c)
        if v == 0:
            return cls(ctx, nvars, {})
        return cls(ctx, nvars, {(0,) * nvars: v})

    @classmethod
    def variable(cls, ctx: FieldCtx, nvars: int, i: int) -> "MPoly":
        """The monomial z_i (1-based)."""
        if not 1 <= i <= nvars:
            raise IndexError(f"variable index {i} out of range 1..{nvars}")
        e = [0] * nvars
        e[i - 1] = 1
        return cls(ctx, nvars, {tuple(e): 1})

    @classmethod
    def from_terms(cls, ctx: FieldCtx, nvars: int, items: Iterable) -> "MPoly":
        terms: dict = {}
        for exps, c in items:
            v = _as_encoded(ctx, c)
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector length mismatch")
            if v:
                cur = terms.get(exps, 0)
                s = ctx.add(cur, v)
                if s:
                    terms[exps] = s
                elif exps in terms:
                    del terms[exps]
        return cls(ctx, nvars, terms)

    # -- structural helpers ---------------------------------------------

    def _check(self, other: "MPoly"):
        if self.ctx != other.ctx or self.nvars != other.nvars:
            raise ValueError("polynomial context/arity mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i - 1] for e in self.terms)

    def constant_term(self) -> FieldElement:
        return FieldElement(self.ctx, self.terms.get((0,) * self.nvars, 0))

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        add = self.ctx.add
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = add(out.get(e, 0), c)
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MPoly(self.ctx, self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        sub = self.ctx.sub
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = sub(out.get(e, 0), c)
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MPoly(self.ctx, self.nvars, out)

    def __neg__(self) -> "MPoly":
        neg = self.ctx.neg
        return MPoly(self.ctx, self.nvars, {e: neg(c) for e, c in self.terms.items()})

    def scale(self, c) -> "MPoly":
        v = _as_encoded(self.ctx, c)
        if v == 0:
            return MPoly.zero(self.ctx, self.nvars)
        mul = self.ctx.mul
        return MPoly(self.ctx, self.nvars, {e: mul(cc, v) for e, cc in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return MPoly.zero(self.ctx, self.nvars)
        work = len(self.terms) * len(other.terms)
        if self.ctx.ext_degree == 1 and work > _DENSE_MUL_THRESHOLD:
            from .dense import dense_mul

            return dense_mul(self, other)
        f, g = self.terms, other.terms
        if len(f) > len(g):
            f, g = g, f
        mul, add = self.ctx.mul, self.ctx.add
        out: dict = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = add(out.get(e, 0), mul(c1, c2))
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return MPoly(self.ctx, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = MPoly.const(self.ctx, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    # -- evaluation and substitution -------------------------------------

    def eval(self, point) -> FieldElement:
        """Evaluate at a point; the point's context may extend this
        polynomial's prime field."""
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        if self.nvars:
            ctx = point[0].ctx if isinstance(point[0], FieldElement) else self.ctx
        else:
            ctx = self.ctx
        if ctx.p != self.ctx.p:
            raise ValueError("point field does not extend coefficient field")
        vals = [_as_encoded(ctx, v) if not isinstance(v, FieldElement) else v.val for v in point]
        # power tables per variable
        pows = []
        for i in range(self.nvars):
            d = self.degree_in(i + 1)
            tab = [1]
            for _ in range(max(d, 0)):
                tab.append(ctx.mul(tab[-1], vals[i]))
            pows.append(tab)
        acc = 0
        mul, add = ctx.mul, ctx.add
        for e, c in self.terms.items():
            t = c
            for i, ei in enumerate(e):
                if ei:
                    t = mul(t, pows[i][ei])
            acc = add(acc, t)
        return FieldElement(ctx, acc)

    def shift_var(self, a: int, delta) -> "MPoly":
        """Substitute z_a -> z_a + delta (exact binomial expansion)."""
        if not 1 <= a <= self.nvars:
            raise IndexError(f"variable index {a} out of range")
        d = _as_encoded(self.ctx, delta)
        if d == 0:
            return self
        ctx = self.ctx
        mul, add = ctx.mul, ctx.add
        deg = self.degree_in(a)
        # delta powers and binomials mod p
        dpow = [1]
        for _ in range(deg):
            dpow.append(mul(dpow[-1], d))
        binom = _binomial_table(deg, ctx.p)
        ai = a - 1
        out: dict = {}
        for e, c in self.terms.items():
            ea = e[ai]
            if ea == 0:
                s = add(out.get(e, 0), c)
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
                continue
            row = binom[ea]
            for m in range(ea + 1):
                coef = mul(c, (row[m] * dpow[ea - m]) % ctx.p) if ctx.ext_degree == 1 else mul(
                    c, mul(row[m], dpow[ea - m])
                )
                if not coef:
                    continue
                ee = e[:ai] + (m,) + e[ai + 1 :]
                s = add(out.get(ee, 0), coef)
                if s:
                    out[ee] = s
                elif ee in out:
                    del out[ee]
        return MPoly(ctx, self.nvars, out)

    def substitute(self, assignments: Mapping[int, Union[FieldElement, int]]) -> "MPoly":
        """Replace z_i -> value for each (1-based) index in ``assignments``.

        Unassigned variables keep their positions; the result still has
        ``nvars`` slots with the assigned variables eliminated.
        """
        if not assignments:
            return self
        idx = sorted(assignments)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate substitution index")
        for i in idx:
            if not 1 <= i <= self.nvars:
                raise IndexError(f"variable index {i} out of range")
        ctx = self.ctx
        vals = {i - 1: _as_encoded(ctx, assignments[i]) for i in idx}
        pows = {}
        for i0, v in vals.items():
            d = max((e[i0] for e in self.terms), default=0)
            tab = [1]
            for _ in range(d):
                tab.append(ctx.mul(tab[-1], v))
            pows[i0] = tab
        mul, add = ctx.mul, ctx.add
        out: dict = {}
        for e, c in self.terms.items():
            t = c
            for i0, tab in pows.items():
                if e[i0]:
                    t = mul(t, tab[e[i0]])
            if not t:
                continue
            ee = tuple(0 if i0 in vals else ei for i0, ei in enumerate(e))
            s = add(out.get(ee, 0), t)
            if s:
                out[ee] = s
            elif ee in out:
                del out[ee]
        return MPoly(ctx, self.nvars, out)

    def derivative(self, a: int) -> "MPoly":
        """Formal partial derivative with respect to z_a."""
        if not 1 <= a <= self.nvars:
            raise IndexError(f"variable index {a} out of range")
        ai = a - 1
        ctx = self.ctx
        out: dict = {}
        for e, c in self.terms.items():
            if e[ai] == 0:
                continue
            coef = ctx.mul(c, e[ai] % ctx.p)
            if coef:
                out[e[:ai] + (e[ai] - 1,) + e[ai + 1 :]] = coef
        return MPoly(ctx, self.nvars, out)

    # -- order-dependent views -------------------------------------------

    def top_degree_part(self) -> "MPoly":
        """Sum of the terms of maximal total degree (homogeneous)."""
        if not self.terms:
            raise ValueError("top-degree part of the zero polynomial")
        d = self.total_degree()
        return MPoly(
            self.ctx, self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("leading term of the zero polynomial")
        return max(self.terms, key=lambda e: (sum(e), e))

    def leading_term(self) -> tuple[tuple, FieldElement]:
        e = self.leading_monomial()
        return e, FieldElement(self.ctx, self.terms[e])

    def coeff(self, exps) -> FieldElement:
        return FieldElement(self.ctx, self.terms.get(tuple(exps), 0))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = FieldElement(self.ctx, self.terms[e])
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            factors = [cs]
            for i, ei in enumerate(e):
                if ei == 1:
                    factors.append(f"z{i + 1}")
                elif ei > 1:
                    factors.append(f"z{i + 1}^{ei}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self})"


def _binomial_table(n: int, p: int) -> list[list[int]]:
    """Pascal triangle rows 0..n reduced mod p."""
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1]
        row = [1] + [(prev[i - 1] + prev[i]) % p for i in range(1, m)] + [1]
        rows.append(row)
    return rows
