"""The triangular tables mod p as the package built them before they
became rescaled rows of one recurrence (``dense._triangle``): the factor
table of (t - w - shift; kappa)_m as a product of m linear factors from
scratch for each m, the (t; kappa)_m as Python lists, the Stirling triangle
as tuples, and the binomial matrix of ``dense_shift_var`` from its own
Pascal rows.  Also the products with a factor table as a loop over its
t-degrees, as ``dense.build_product_tpoly`` and ``dense._row_functional``
made them before each became one windowed product.  The tables and
products the package reads are compared with them."""

from __future__ import annotations

import numpy as np

from charp_qkz import dense
from charp_qkz.ffield import FieldCtx


def factor_table_by_products(p: int, kappa: int, m: int, shift: int, with_var: bool) -> np.ndarray:
    """Coefficient table of (t - w - shift; kappa)_m with w a single variable
    (or w = 0 when ``with_var`` is false): F[dt, dw] mod p, one linear factor
    at a time."""
    F = np.zeros((m + 1, m + 1 if with_var else 1), dtype=np.int64)
    F[0, 0] = 1
    deg = 0
    for s in range(m):
        c = (-shift - s * kappa) % p
        new = np.zeros_like(F)
        new[1 : deg + 2, :] += F[: deg + 1, :]  # * t
        if with_var:
            new[: deg + 1, 1:] -= F[: deg + 1, :-1]  # * (-w)
        if c:
            new[: deg + 1, :] += c * F[: deg + 1, :]
        F = new % p
        deg += 1
    return F


def pochhammer_scalar_coeffs(p: int, kappa: int, max_deg: int) -> list[list[int]]:
    """Monomial coefficient lists of (t; kappa)_i mod p for i = 0..max_deg."""
    tables = [[1]]
    for i in range(1, max_deg + 1):
        prev = tables[-1]
        c = (-(i - 1) * kappa) % p
        cur = [0] * (i + 1)
        for d, a in enumerate(prev):
            cur[d + 1] = (cur[d + 1] + a) % p
            cur[d] = (cur[d] + c * a) % p
        tables.append(cur)
    return tables


def _stirling_table(kind: int, p: int, rows: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..rows of the signed Stirling triangle of the given kind, mod p:
    s1(m+1, l) = s1(m, l-1) - m*s1(m, l), s2(m+1, l) = s2(m, l-1) + l*s2(m, l)."""
    table = [(1,)]  # row for m=0
    for mm in range(rows):
        row = table[-1]
        new = [0] * (mm + 2)
        for ll in range(mm + 1):
            if kind == 1:
                new[ll + 1] = (new[ll + 1] + row[ll]) % p
                new[ll] = (new[ll] - mm * row[ll]) % p
            else:
                new[ll + 1] = (new[ll + 1] + row[ll]) % p
                new[ll] = (new[ll] + ll * row[ll]) % p
        table.append(tuple(new))
    return tuple(table)


def shift_matrix_by_pascal_loop(d: int, shift: int, p: int) -> np.ndarray:
    """The d x d binomial matrix S[e, m] = C(e, m) shift^{e-m} mod p of the
    substitution z -> z + shift, from Pascal rows built one at a time."""
    S = np.zeros((d, d), dtype=np.int64)
    dpow = [1]
    for _ in range(d):
        dpow.append(dpow[-1] * shift % p)
    row = [1]
    for e in range(d):
        for m, b in enumerate(row):
            S[e, m] = b * dpow[e - m] % p
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    return S


def product_tpoly_by_degree(ctx: FieldCtx, kappa: int, factors: list[tuple[int | None, int, int]]) -> np.ndarray:
    """Dense coefficients of prod_j (t - w_j - c_j; kappa)_{m_j}.

    Each factor is (var, c, m) with ``var`` a 1-based z-index or None for a
    pure constant shift.  Axis 0 of the array is the t-degree; then comes
    one axis per factor with a variable, in the order of the factors.
    """
    if ctx.ext_degree != 1:
        raise ValueError("dense kernels are prime-field only")
    p = ctx.p
    arr = np.ones((1,), dtype=np.int64)
    for var, c, m in factors:
        F = dense._factor_table(p, kappa, m, c % p, with_var=var is not None)
        tlen = arr.shape[0]
        out = np.zeros((tlen + m,) + arr.shape[1:] + F.shape[1:], dtype=np.int64)
        src = arr[..., None]
        for dt in range(m + 1):
            if np.count_nonzero(F[dt]):
                out[dt : dt + tlen] += src * F[dt]
        if var is None:
            out = out[..., 0]
        arr = out % p
    return arr


def row_functional_by_degree(
    p: int, kappa: int, tlen: int, rows: tuple[int, ...], factor: tuple
) -> np.ndarray:
    """The matrix G[(r, e), tau] = sum_i M[rows_r, i] F[i - tau, e] taking
    the t-coefficients of a polynomial of degree < tlen to the requested
    Pochhammer coefficients of its product with the factor table F of
    ``factor`` = (var, shift, m); M is the basis matrix of size tlen + m.
    Float64 with entries in [0, p)."""
    var, shift, m = factor
    F = dense._factor_table(p, kappa, m, shift % p, with_var=var is not None)
    Mr = dense._pochhammer_basis_matrix(p, kappa, tlen + m)[list(rows)].astype(np.int64)
    G = np.zeros((len(rows), F.shape[1], tlen), dtype=np.int64)
    for dt in range(m + 1):
        G += Mr[:, None, dt : dt + tlen] * F[dt][None, :, None]
    return (G % p).reshape(-1, tlen).astype(np.float64)
