"""The sparse t-polynomial layer: polynomials in t with ``MPoly``
coefficients, (t - base; kappa)_m as such a polynomial, and conversion
between the monomial and Pochhammer bases by triangular elimination, also
as a dense back substitution.  The package computes all of this on dense
arrays (``dense.build_product_tpoly``, ``dense._pochhammer_basis_matrix``
from Stirling numbers); these are the references it is compared with.  The
basis conversions read the (t; kappa)_i from ``_poch_scalar_coeffs_ext``,
one product recurrence in field arithmetic for F_p and F_{p^2} alike."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from charp_qkz.ffield import FieldCtx, FieldElement
from charp_qkz.mpoly import MPoly, _binomial_table

from .tables import pochhammer_scalar_coeffs


class TPoly:
    """Polynomial in t with MPoly coefficients, indexed by t-degree."""

    __slots__ = ("ctx", "nvars", "coeffs")

    def __init__(self, ctx: FieldCtx, nvars: int, coeffs: Sequence[MPoly]):
        self.ctx = ctx
        self.nvars = nvars
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @classmethod
    def zero(cls, ctx: FieldCtx, nvars: int) -> "TPoly":
        return cls(ctx, nvars, [])

    @classmethod
    def from_mpoly(cls, f: MPoly) -> "TPoly":
        return cls(f.ctx, f.nvars, [f])

    @classmethod
    def t(cls, ctx: FieldCtx, nvars: int = 0) -> "TPoly":
        one = MPoly.const(ctx, nvars, 1)
        return cls(ctx, nvars, [MPoly.zero(ctx, nvars), one])

    @property
    def deg_t(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> MPoly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return MPoly.zero(self.ctx, self.nvars)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "TPoly"):
        if self.ctx != other.ctx or self.nvars != other.nvars:
            raise ValueError("t-polynomial context/arity mismatch")

    def __add__(self, other: "TPoly") -> "TPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly(
            self.ctx, self.nvars, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: "TPoly") -> "TPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly(
            self.ctx, self.nvars, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> "TPoly":
        return TPoly(self.ctx, self.nvars, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return TPoly(self.ctx, self.nvars, [c.scale(other) for c in self.coeffs])
        if isinstance(other, MPoly):
            return TPoly(self.ctx, self.nvars, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return TPoly.zero(self.ctx, self.nvars)
        out = [MPoly.zero(self.ctx, self.nvars) for _ in range(self.deg_t + other.deg_t + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TPoly(self.ctx, self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def eval_t(self, value) -> MPoly:
        """Substitute a field value for t (Horner)."""
        acc = MPoly.zero(self.ctx, self.nvars)
        for c in reversed(self.coeffs):
            acc = acc.scale(value) + c
        return acc

    def substitute(self, assignments) -> "TPoly":
        return TPoly(self.ctx, self.nvars, [c.substitute(assignments) for c in self.coeffs])

    def shift_t(self, delta) -> "TPoly":
        """Substitute t -> t + delta."""
        d = delta.val if isinstance(delta, FieldElement) else delta % self.ctx.p
        if d == 0 or self.is_zero():
            return self
        ctx = self.ctx
        deg = self.deg_t
        binom = _binomial_table(deg, ctx.p)
        dpow = [1]
        for _ in range(deg):
            dpow.append(ctx.mul(dpow[-1], d))
        out = [MPoly.zero(ctx, self.nvars) for _ in range(deg + 1)]
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            for m in range(i + 1):
                s = ctx.mul(binom[i][m], dpow[i - m])
                if s:
                    out[m] = out[m] + c.scale(s)
        return TPoly(ctx, self.nvars, out)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.deg_t, -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            tp = f"t^{i}" if i > 1 else ("t" if i == 1 else "")
            cs = str(c)
            if " + " in cs and tp:
                cs = f"({cs})"
            parts.append(f"{cs}*{tp}" if tp else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"TPoly({self})"


@dataclass
class PochhammerForm:
    """Expansion f(t) = sum_i coeffs[i] * (t; kappa)_i."""

    kappa: FieldElement
    nvars: int
    coeffs: list[MPoly]

    @property
    def ctx(self) -> FieldCtx:
        return self.kappa.ctx

    def coeff(self, i: int) -> MPoly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return MPoly.zero(self.ctx, self.nvars)


def poch_factor(base: Union[MPoly, None], kappa: FieldElement, m: int, nvars: Optional[int] = None) -> TPoly:
    """(t - base; kappa)_m as a TPoly (base omitted or None means (t; kappa)_m)."""
    ctx = kappa.ctx
    if base is not None:
        nvars = base.nvars
    elif nvars is None:
        nvars = 0
    one = MPoly.const(ctx, nvars, 1)
    acc = TPoly(ctx, nvars, [one])
    for i in range(m):
        const = MPoly.const(ctx, nvars, -(kappa * i))
        if base is not None:
            const = const - base
        acc = acc * TPoly(ctx, nvars, [const, one])
    return acc


def poch_poly(kappa: FieldElement, m: int, nvars: int = 0) -> TPoly:
    """The Pochhammer polynomial (t; kappa)_m = prod_{i=1}^m (t - (i-1) kappa)."""
    if m < 0:
        raise ValueError("Pochhammer length must be non-negative")
    return poch_factor(None, kappa, m, nvars=nvars)


def to_pochhammer_basis(f: TPoly, kappa: FieldElement) -> PochhammerForm:
    """Expand f(t) in the basis (t; kappa)_i by top-down triangular
    elimination (each basis element is monic of degree i)."""
    ctx, nvars = f.ctx, f.nvars
    if f.is_zero():
        return PochhammerForm(kappa, nvars, [])
    deg = f.deg_t
    pochs = _poch_scalar_coeffs_ext(ctx, kappa, deg)
    work = list(f.coeffs)
    out = [MPoly.zero(ctx, nvars) for _ in range(deg + 1)]
    for i in range(deg, -1, -1):
        c = work[i]
        out[i] = c
        if i and not c.is_zero():
            tab = pochs[i]
            for l in range(i):
                if tab[l]:
                    work[l] = work[l] - c.scale(tab[l])
    return PochhammerForm(kappa, nvars, out)


def _poch_scalar_coeffs_ext(ctx: FieldCtx, kappa: FieldElement, max_deg: int) -> list[list[int]]:
    """Coefficient lists (encoded field values) of (t; kappa)_i for
    i = 0..max_deg, in F_p or F_{p^2}."""
    tables = [[1]]
    for i in range(1, max_deg + 1):
        prev = tables[-1]
        c = ctx.neg((kappa * (i - 1)).val)
        cur = [0] * (i + 1)
        for d, a in enumerate(prev):
            cur[d + 1] = ctx.add(cur[d + 1], a)
            cur[d] = ctx.add(cur[d], ctx.mul(c, a))
        tables.append(cur)
    return tables


def from_pochhammer_basis(pf: PochhammerForm) -> TPoly:
    """Expand sum_i coeffs[i] (t; kappa)_i back into the monomial basis."""
    ctx = pf.ctx
    nvars = pf.nvars
    if not pf.coeffs:
        return TPoly.zero(ctx, nvars)
    deg = len(pf.coeffs) - 1
    pochs = _poch_scalar_coeffs_ext(ctx, pf.kappa, deg)
    out = [MPoly.zero(ctx, nvars) for _ in range(deg + 1)]
    for i, c in enumerate(pf.coeffs):
        if c.is_zero():
            continue
        for l, s in enumerate(pochs[i]):
            if s:
                out[l] = out[l] + c.scale(s)
    return TPoly(ctx, nvars, out)


def basis_matrix_by_back_substitution(p: int, kappa: int, tlen: int) -> np.ndarray:
    """The int64 matrix of ``dense._pochhammer_basis_matrix``: column i of
    its inverse is the monic (t; kappa)_i, so it is the inverse of a unit
    upper-triangular matrix and comes out of one back substitution."""
    B = np.zeros((tlen, tlen), dtype=np.int64)
    for i, coeffs in enumerate(pochhammer_scalar_coeffs(p, kappa, tlen - 1)):
        B[: i + 1, i] = coeffs
    M = np.eye(tlen, dtype=np.int64)
    for i in range(tlen - 2, -1, -1):
        M[i] = (M[i] - B[i, i + 1 :] @ M[i + 1 :]) % p
    return M
