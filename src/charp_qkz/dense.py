"""Dense numpy kernels for prime-field polynomial work.

Solution sets are built and held as dense coefficient arrays (axes = z_1..
z_n); these kernels build them (large products in t and z, Pochhammer-basis
reduction), evaluate them, render them as text and convert them to and from
sparse polynomials.  Every triangular table they read (Pascal's triangle,
the (t - shift; kappa)_m, both Stirling triangles) is a base triangle of
its prime, built by one cached recurrence, rescaled by a power of kappa or
of a shift (``_triangle``).  One window product, ``_times``, serves the
factors of a solution and the identity battery's product rule.  All work
is exact mod p: with p <= 101 and the accumulation patterns used below no
int64 intermediate approaches 2^63, and the one float64 path is exact by
the bound stated where it occurs.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ffield import FieldCtx, make_field
from .linalg import stack_groups
from .mpoly import MPoly

__all__ = [
    "mpoly_to_dense",
    "dense_to_mpoly",
    "dense_mul",
    "dense_shift_var",
    "dense_negate_vars",
    "dense_conv",
    "pad_to_shape",
    "dense_total_degrees",
    "dense_top_degree_part",
    "build_product_tpoly",
    "dense_pochhammer_coeffs",
    "render_polynomials",
]


def mpoly_to_dense(f: MPoly) -> np.ndarray:
    if f.ctx.ext_degree != 1:
        raise ValueError("dense kernels are prime-field only")
    shape = tuple(f.degree_in(i + 1) + 1 if f.terms else 1 for i in range(f.nvars))
    arr = np.zeros(shape if f.nvars else (1,), dtype=np.int64)
    if f.nvars == 0:
        arr[0] = f.terms.get((), 0)
        return arr
    for e, c in f.terms.items():
        arr[e] = c
    return arr


def dense_to_mpoly(arr: np.ndarray, ctx: FieldCtx, nvars: int) -> MPoly:
    """Convert a dense coefficient array (axis i = z_{i+1}, ``nvars`` axes)
    back to a sparse polynomial."""
    arr = np.mod(arr, ctx.p)
    nz = np.nonzero(arr)
    exps = zip(*(ax.tolist() for ax in nz))
    return MPoly(ctx, nvars, dict(zip(exps, arr[nz].tolist())))


def dense_mul(f: MPoly, g: MPoly) -> MPoly:
    """Exact product via dense accumulation; iterate the sparser operand."""
    if len(f.terms) > len(g.terms):
        f, g = g, f
    p = f.ctx.p
    gd = mpoly_to_dense(g)
    out_shape = tuple(
        f.degree_in(i + 1) + gd.shape[i] for i in range(f.nvars)
    )
    out = np.zeros(out_shape, dtype=np.int64)
    budget = 0
    for e, c in f.terms.items():
        sl = tuple(slice(ei, ei + s) for ei, s in zip(e, gd.shape))
        out[sl] += c * gd
        budget += 1
        if budget % 64 == 0:
            out %= p
    return dense_to_mpoly(out, f.ctx, f.nvars)


def dense_shift_var(arr: np.ndarray, axis: int, shift: int, p: int) -> np.ndarray:
    """Substitute z -> z + shift along one axis of a dense array, exactly:
    coefficient transport by the binomial matrix S[e, m] = C(e, m) shift^{e-m},
    read from the Pascal triangle with c = shift."""
    d = arr.shape[axis]
    if shift % p == 0 or d == 1:
        return arr % p
    S = _pascal(p, d - 1, shift)[:d, :d]
    out = np.tensordot(arr % p, S, axes=([axis], [0]))
    return np.moveaxis(out, -1, axis) % p


def dense_negate_vars(arr: np.ndarray, p: int) -> np.ndarray:
    """Substitute z_i -> -z_i for every variable of a dense array."""
    parity = np.zeros((), dtype=np.int64)
    for ax, s in enumerate(arr.shape):
        e = np.arange(s, dtype=np.int64).reshape((s,) + (1,) * (arr.ndim - 1 - ax))
        parity = parity + e
    sign = np.where(parity % 2 == 0, 1, p - 1)
    return (arr * sign) % p


def pad_to_shape(arr: np.ndarray, shape: tuple) -> np.ndarray:
    if arr.shape == tuple(shape):
        return arr
    out = np.zeros(shape, dtype=arr.dtype)
    out[tuple(slice(0, s) for s in arr.shape)] = arr
    return out


def dense_total_degrees(S: np.ndarray) -> list[int]:
    """The total degree of each coordinate stack in S (axis 0 = stack, axis
    1 = coordinate, then z_1..z_n): the largest total degree of any term of
    any coordinate, -1 when every coordinate is zero.  One pass over the
    whole stack, as ``SolutionSet.degrees`` reads it."""
    if not S.shape[0]:
        return []
    total = np.indices(S.shape[2:]).sum(axis=0).ravel()
    support = np.any(S != 0, axis=1).reshape(S.shape[0], -1)
    return [int(total[row].max(initial=-1)) for row in support]


def dense_top_degree_part(F: np.ndarray) -> np.ndarray:
    """The terms of largest total degree of a coordinate stack (axis 0 =
    coordinate, then z_1..z_n): the degree is the maximum over all
    coordinates, so lower-degree coordinates become zero."""
    total = np.indices(F.shape[1:]).sum(axis=0)
    return np.where(total == dense_total_degrees(F[None])[0], F, 0)


def dense_conv(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact full convolution (polynomial product) of two dense coefficient
    arrays mod p: one shifted copy of the denser operand is accumulated per
    nonzero entry of the sparser one."""
    A = A % p
    B = B % p
    if np.count_nonzero(A) > np.count_nonzero(B):
        A, B = B, A
    out = np.zeros(tuple(a + b - 1 for a, b in zip(A.shape, B.shape)), dtype=np.int64)
    for idx in zip(*np.nonzero(A)):
        sl = tuple(slice(i, i + s) for i, s in zip(idx, B.shape))
        out[sl] += int(A[idx]) * B
    return out % p


# Print-order tables are cached per box shape.  A table holds about 85
# bytes a monomial, mostly its suffix string: 1.4 MB for 7^5, the largest box
# of the solve grid, whose 196 keys have 61 box shapes.  Boxes of more than
# _CACHED_MONOMIALS monomials (2.8 MB a table) are built per call, so the
# cache holds at most 64 x 2.8 MB.
_CACHED_MONOMIALS = 1 << 15


def _build_print_order(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The print order of a box of exponents (axes z_1, z_2, ...): the flat
    indices of its monomials by descending (total degree, e_1, e_2, ...),
    and each monomial's suffix text "*z1^e1*z2*..." in that order ("" for
    the constant).  Both arrays are read-only."""
    suffixes = np.array([""], dtype=object)
    for i, size in enumerate(shape, start=1):
        tokens = [""] + [f"*z{i}"] + [f"*z{i}^{x}" for x in range(2, size)]
        suffixes = np.add.outer(suffixes, np.array(tokens[:size], dtype=object))
    suffixes = suffixes.ravel()
    # descending e_1, e_2, ... is descending flat index
    order = np.lexsort((-np.arange(suffixes.size), -np.indices(shape).sum(axis=0).ravel()))
    suffixes = suffixes[order]
    order.flags.writeable = False
    suffixes.flags.writeable = False
    return order, suffixes


_cached_print_order = functools.lru_cache(maxsize=64)(_build_print_order)


def render_polynomials(arrays: np.ndarray, p: int) -> list[list[str]]:
    """Every polynomial of a (d, n, ...) stack of coefficient arrays
    (entries in [0, p); the axes after the first two are z_1, z_2, ...) as
    text, exactly as ``str(MPoly)`` prints it: terms "c*z1^e1*z2*..." by
    descending (total degree, e_1, e_2, ...), joined by " + "; "0" for the
    zero polynomial.  Returns d lists of n strings.

    The stack is gathered into the print order of its box, so the nonzero
    entries of each polynomial come out in print order."""
    d, n = arrays.shape[:2]
    shape = arrays.shape[2:]
    size = int(np.prod(shape))
    table = _cached_print_order if size <= _CACHED_MONOMIALS else _build_print_order
    order, suffixes = table(shape)
    coeffs = arrays.reshape(d * n, size)[:, order]
    rows, cols = np.nonzero(coeffs)
    digits = np.array([str(c) for c in range(p)], dtype=object)
    texts = (digits[coeffs[rows, cols]] + suffixes[cols]).tolist()
    ends = np.cumsum(np.bincount(rows, minlength=d * n)).tolist()
    starts = [0] + ends[:-1]
    polys = [" + ".join(texts[b:e]) or "0" for b, e in zip(starts, ends)]
    return [polys[ell * n : (ell + 1) * n] for ell in range(d)]


def dense_eval_points(arr: np.ndarray, Z: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a dense prime-field coefficient array, or a stack of them,
    at a batch of F_{p^2} points Z (npts, n, 2): the last n axes of ``arr``
    are z_1..z_n and any axes before them are stack axes; returns
    (*stack, npts, 2).

    Contracts one variable axis at a time against per-point power tables,
    built once for the whole stack; all arithmetic stays in int64 with
    per-axis reduction.
    """
    npts, n = Z.shape[:2]
    delta = make_field(p, 2).nonresidue

    def powers(var: int, s: int):
        pw0 = np.empty((s, npts), dtype=np.int64)
        pw1 = np.zeros((s, npts), dtype=np.int64)
        pw0[0] = 1
        x0, x1 = Z[:, var, 0] % p, Z[:, var, 1] % p
        for e in range(1, s):
            pw0[e] = (pw0[e - 1] * x0 + delta * pw1[e - 1] * x1) % p
            pw1[e] = (pw0[e - 1] * x1 + pw1[e - 1] * x0) % p
        return pw0, pw1

    pw0, pw1 = powers(n - 1, arr.shape[-1])
    Y0 = np.tensordot(arr % p, pw0, axes=([-1], [0])) % p
    Y1 = np.tensordot(arr % p, pw1, axes=([-1], [0])) % p
    for ax in range(n - 2, -1, -1):
        pw0, pw1 = powers(ax, arr.shape[ax - n])
        n0 = (np.einsum("...sn,sn->...n", Y0, pw0) + delta * np.einsum("...sn,sn->...n", Y1, pw1)) % p
        n1 = (np.einsum("...sn,sn->...n", Y0, pw1) + np.einsum("...sn,sn->...n", Y1, pw0)) % p
        Y0, Y1 = n0, n1
    return np.stack([Y0, Y1], axis=-1)


# Every triangular table mod p is a base triangle of its prime rescaled by a
# power of lam: T[m, l] = B[m, l] lam^{m-l}, rescaled on every read.  A base
# triangle comes from one recurrence: row m + 1 is row m times t plus
# c(m, l) = c0 + cm*m + cl*l times row m, that is
# T[m+1, l] = T[m, l-1] + c(m, l) T[m, l] from T[0] = (1, 0, 0, ...).  The
# bases are Pascal's triangle (c = 1), the rows of (u - s; 1)_m (c = -s - m;
# s = 0 gives the signed first-kind Stirling numbers) and the second-kind
# Stirling triangle (c = l).  None depends on kappa:
# (t - s; kappa)_m = kappa^m (t/kappa - s/kappa; 1)_m, so the rows of
# (t - s; kappa)_m are those of (u - s/kappa; 1)_m rescaled by kappa, and
# (t - s; 0)_m = (t - s)^m is Pascal's triangle rescaled by -s.
# Rows are built in blocks of p, so the readers of one prime share a base:
# the solutions (m < p) one of p rows, the identity battery one of 2p or 4p,
# a basis matrix one of at most np.  A table of R rows takes 8 (R + 1)^2
# bytes, 1.3 MB for 4p rows at p = 101.  So at p = 101 and n <= 4 the 64
# cached base triangles take at most 84 MB.  A solve key reads only the
# bases of shift 0 and 1, Pascal's and the second-kind triangle of its
# prime, so 64 hold the bases of several primes at once.
def _triangle(p: int, rows: int, c0: int, cm: int, cl: int, lam: int = 1) -> np.ndarray:
    """Rows 0..rows (or more) of the base triangle of c = c0 + cm*m + cl*l
    times lam^{m-l}, square and read-only, with T[m, l] = 0 for l > m."""
    rows = p * max(1, -(-rows // p))
    T = _recurrence(p, rows, c0 % p, cm % p, cl % p)
    lam %= p
    if lam == 1:
        return T
    ms = np.arange(rows + 1)
    powers = np.array([pow(lam, e, p) for e in range(rows + 1)], dtype=np.int64)
    T = T * powers[abs(ms[:, None] - ms)] % p
    T.flags.writeable = False
    return T


@functools.lru_cache(maxsize=64)
def _recurrence(p: int, rows: int, c0: int, cm: int, cl: int) -> np.ndarray:
    ms = np.arange(rows + 1)
    c = (c0 + cm * ms[:, None] + cl * ms) % p
    T = np.zeros((rows + 1, rows + 1), dtype=np.int64)
    T[0, 0] = 1
    for m in range(rows):
        row = T[m + 1]
        row[1:] = T[m, :-1]
        row += c[m] * T[m]
        row %= p
    T.flags.writeable = False
    return T


def _pascal(p: int, rows: int, x: int = 1) -> np.ndarray:
    """C(m, l) x^{m-l} mod p: Pascal's triangle rescaled by x."""
    return _triangle(p, rows, 1, 0, 0, x)


def _pochhammer_rows(p: int, kappa: int, shift: int, rows: int) -> np.ndarray:
    """Row m: the ascending t-coefficients of (t - shift; kappa)_m mod p,
    the rows of (u - shift/kappa; 1)_m rescaled by kappa, or of Pascal's
    triangle rescaled by -shift when kappa = 0."""
    kappa %= p
    if not kappa:
        return _triangle(p, rows, 1, 0, 0, -shift)
    return _triangle(p, rows, -shift * pow(kappa, -1, p), -1, 0, kappa)


def _stirling_rows(kind: int, p: int, rows: int) -> np.ndarray:
    """s1(m, l) (kind 1, signed) or S2(m, l) (kind 2) mod p."""
    return _triangle(p, rows, 0, -1, 0) if kind == 1 else _triangle(p, rows, 0, 0, 1)


def _with_var(row: np.ndarray, p: int, x: int) -> np.ndarray:
    """The table F[dt, dw] of r(t + x w) from the t-coefficients of r(t):
    F[dt, dw] = r[dt + dw] C(dt + dw, dt) x^{dw}, one gather from the
    Pascal triangle scaled by x."""
    m = len(row) - 1
    dt = np.arange(m + 1)
    s = dt[:, None] + dt  # dt + dw
    inside = s <= m
    s = np.where(inside, s, 0)
    return np.where(inside, row[s] * _pascal(p, m, x)[s, dt[:, None]] % p, 0)


# The solutions ask for m < p, so at p = 101 the 1024 tables with the
# variable take at most 1024 x 101^2 int64 = 84 MB.
@functools.lru_cache(maxsize=1024)
def _factor_table(p: int, kappa: int, m: int, shift: int, with_var: bool) -> np.ndarray:
    """Coefficient table of (t - w - shift; kappa)_m with w a single variable
    (or w = 0 when ``with_var`` is false): F[dt, dw] mod p, row m of the
    triangle of (t - shift; kappa)_m, with the variable gathered by
    ``_with_var`` at x = -1.  Cached and read-only; callers pass ``shift``
    reduced mod p and ``with_var`` by keyword, so each table has one key."""
    row = _pochhammer_rows(p, kappa, shift, m)[m, : m + 1]
    F = _with_var(row, p, -1) if with_var else row[:, None].copy()
    F.flags.writeable = False
    return F


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """The read-only view W[i, ..., j] = a[i + j] of the windows of ``width``
    consecutive entries along axis 0 of ``a``, the window index last."""
    return as_strided(
        a,
        shape=(a.shape[0] - width + 1,) + a.shape[1:] + (width,),
        strides=a.strides + a.strides[:1],
        writeable=False,
    )


def _times(a: np.ndarray, F: np.ndarray) -> np.ndarray:
    """A (tlen, k) stack of t-polynomials (t on axis 0) times the table F
    (m + 1, ...) of one polynomial, unreduced: out[tau, c, ...] =
    sum_dt a[tau - dt, c] F[dt, ...], one int64 product of the windows of
    ``a``, padded by m zeros on both sides, with the reversed table.  For
    entries in [0, p) every partial sum is below (m + 1)(p - 1)^2 < 2^63."""
    tlen, m = a.shape[0], F.shape[0] - 1
    padded = np.zeros((tlen + 2 * m, a.shape[1]), dtype=np.int64)
    padded[m : m + tlen] = a
    return _windows(padded, m + 1) @ F[::-1]


def build_product_tpoly(ctx: FieldCtx, kappa: int, factors: list[tuple[int | None, int, int]]) -> np.ndarray:
    """Dense coefficients of prod_j (t - w_j - c_j; kappa)_{m_j}.

    Each factor is (var, c, m) with ``var`` a 1-based z-index or None for a
    pure constant shift.  Axis 0 of the array is the t-degree; then comes
    one axis per factor with a variable, in the order of the factors.  Each
    factor is multiplied in by ``_times``.
    """
    if ctx.ext_degree != 1:
        raise ValueError("dense kernels are prime-field only")
    p = ctx.p
    arr = np.ones((1,), dtype=np.int64)
    for var, c, m in factors:
        F = _factor_table(p, kappa, m, c % p, with_var=var is not None)
        out = _times(arr.reshape(len(arr), -1), F)
        arr = out.reshape((len(out),) + arr.shape[1:] + ((m + 1,) if var is not None else ())) % p
    return arr


def _pochhammer_basis_matrix(p: int, kappa: int, tlen: int) -> np.ndarray:
    """The tlen x tlen matrix taking monomial coefficients of a t-polynomial
    of degree < tlen to its coefficients in the basis (t; kappa)_i, as a
    read-only int64 view with entries in [0, p).

    Column j is the expansion t^j = sum_i S2(j, i) kappa^{j-i} (t; kappa)_i,
    the transposed slice of the cached second-kind Stirling triangle, the
    one ``pochhammer.stirling`` reads, rescaled by kappa.
    """
    return _triangle(p, tlen - 1, 0, 0, 1, kappa)[:tlen, :tlen].T


@functools.lru_cache(maxsize=256)
def _row_functional(
    p: int, kappa: int, tlen: int, rows: tuple[int, ...], factor: tuple
) -> np.ndarray:
    """The matrix G[(r, e), tau] = sum_i M[rows_r, i] F[i - tau, e] taking
    the t-coefficients of a polynomial of degree < tlen to the requested
    Pochhammer coefficients of its product with the factor table F of
    ``factor`` = (var, shift, m); M is the basis matrix of size tlen + m.
    One int64 product of the windows of the rows of M with F, exact as in
    ``build_product_tpoly``.  Float64 with entries in [0, p), read-only."""
    var, shift, m = factor
    F = _factor_table(p, kappa, m, shift % p, with_var=var is not None)
    Mr = _pochhammer_basis_matrix(p, kappa, tlen + m)[list(rows)]
    G = _windows(Mr.T, m + 1) @ F  # G[tau, r, e]
    G = (G.transpose(1, 2, 0) % p).reshape(-1, tlen).astype(np.float64)
    G.flags.writeable = False
    return G


def dense_pochhammer_coeffs(
    arr: np.ndarray,
    p: int,
    kappa: int,
    rows: tuple[int, ...] | None = None,
    factor: tuple[int | None, int, int] | None = None,
) -> np.ndarray:
    """Pochhammer-basis coefficients (t; kappa)_i of a dense t-polynomial
    (axis 0 = t-degree), or of its product with one more factor.

    ``factor`` is one (var, shift, m) entry as ``build_product_tpoly`` takes
    it: the coefficients are those of arr * (t - w - shift; kappa)_m, and
    when ``var`` is not None the factor's variable is a new axis of size
    m + 1 right after axis 0.  ``rows`` picks the basis indices returned
    along axis 0 (default: all of them).  With neither, the result has the
    shape of ``arr``.

    One exact float64 product with the cached row functional: both factors
    have entries in [0, p), so every partial sum is an integer of size at
    most tlen * (p-1)^2 < 2^53 and no rounding occurs.
    """
    tlen = arr.shape[0]
    if tlen * (p - 1) ** 2 >= 1 << 53:
        raise AssertionError("Pochhammer basis change would leave exact float64 range")
    factor = (None, 0, 0) if factor is None else tuple(factor)
    var, _, m = factor
    rows = tuple(range(tlen + m)) if rows is None else tuple(rows)
    G = _row_functional(p, kappa % p, tlen, rows, factor)
    flat = arr.reshape(tlen, -1)
    out = np.empty((G.shape[0], flat.shape[1]), dtype=np.int64)
    for g in stack_groups(flat.shape[1], G.size):
        out[:, g] = G @ (flat[:, g] % p).astype(np.float64)
    out %= p
    lead = (len(rows),) + ((m + 1,) if var is not None else ())
    return out.reshape(lead + arr.shape[1:])
