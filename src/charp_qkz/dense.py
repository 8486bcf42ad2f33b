"""Dense numpy kernels for prime-field polynomial work.

Solution sets are built and held as dense coefficient arrays (axes = z_1..
z_n); these kernels build them (large products in t and z, Pochhammer-basis
reduction), evaluate them, render them as text and convert them to and from
sparse polynomials.  Everything here is exact arithmetic mod p: with
p <= 101 and the accumulation patterns used below no int64 intermediate
approaches 2^63, and the two float64 paths are exact by the bounds stated
where they occur.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ffield import FieldCtx
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
    "pochhammer_scalar_coeffs",
    "dense_pochhammer_coeffs",
    "fft_error_bound",
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


def dense_shift_var(arr: np.ndarray, axis: int, delta: int, p: int) -> np.ndarray:
    """Substitute z -> z + delta along one axis of a dense array, exactly:
    coefficient transport by the binomial matrix S[e, m] = C(e, m) delta^{e-m}."""
    d = arr.shape[axis]
    if delta % p == 0 or d == 1:
        return arr % p
    S = np.zeros((d, d), dtype=np.int64)
    dpow = [1]
    for _ in range(d):
        dpow.append(dpow[-1] * delta % p)
    row = [1]
    for e in range(d):
        for m, b in enumerate(row):
            S[e, m] = b * dpow[e - m] % p
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
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
    out = np.zeros(shape, dtype=np.int64)
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


# float64 unit roundoff, and the relative 2-norm error allowed per pass of
# a transform (see dense_conv)
_UNIT_ROUNDOFF = 2.0**-53
_FFT_PASS_ERROR = 64 * _UNIT_ROUNDOFF


def fft_error_bound(A: np.ndarray, B: np.ndarray) -> float:
    """A bound on the largest error of any coefficient of the FFT product of
    two arrays with integer entries (see ``dense_conv``)."""
    out_shape = [a + b - 1 for a, b in zip(A.shape, B.shape)]
    passes = sum(3 * math.ceil(math.log2(4 * s)) + 2 for s in out_shape)
    delta = (1 + _FFT_PASS_ERROR) ** passes - 1
    rho = 2**0.5 * 2 * _UNIT_ROUNDOFF / (1 - 2 * _UNIT_ROUNDOFF)
    sigma = 2 * delta + delta**2 + rho * (1 + delta) ** 2
    norms = math.sqrt(int(np.sum(A * A))) * math.sqrt(int(np.sum(B * B)))
    return norms * (sigma + delta * math.sqrt(math.prod(out_shape)) * (1 + sigma))


def dense_conv(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact full convolution (polynomial product) of two dense coefficient
    arrays mod p.

    Small products accumulate one shifted copy of B per nonzero entry of A.
    Large ones go through a real FFT of the output shape (a cyclic
    convolution of that shape is the linear one), when rounding its result
    is exact by an a-priori bound.  Write u = 2^-53, N for the number of
    output entries, a, b for A, B mod p (entries in [0, p)), c = a * b, and
    X = Fa, Y = Fb for the unnormalised transforms, so ||X||_2 = sqrt(N)
    ||a||_2 and c = F*(X Y) / N.

    1. Model: every pass of a transform (one radix-r butterfly layer with
       its twiddle products, or one pointwise chirp product) has relative
       2-norm error at most e = 64u.  Higham (Accuracy and Stability of
       Numerical Algorithms, Thm 24.2) gives about 7u for a radix-2 pass;
       64u also covers radices up to about 40 summed directly.  An axis of
       length s takes at most ceil(log2 s) mixed-radix passes, or, through
       Bluestein's algorithm for large prime factors, three transforms of
       a length below 4s and two chirp products; it is counted as
       3 ceil(log2 4s) + 2 passes, which covers both.  With L the count
       over all axes, the forward and inverse transforms have relative
       2-norm error at most d = (1 + e)^L - 1.
    2. Forward: X' = X + E, Y' = Y + G with ||E|| <= d sqrt(N) ||a||,
       ||G|| <= d sqrt(N) ||b||.
    3. Product: P' = X' Y' (1 + t) pointwise, |t| <= r = sqrt(2) 2u/(1-2u)
       (Higham, Lemma 3.5).  P' - XY = EY + XG + EG + t X'Y'.  Mapped back
       by F*/N, EY becomes the cyclic convolution of e = F*E/N with b, and
       ||e|| = ||E|| / sqrt(N) <= d ||a||, so by Cauchy-Schwarz each entry
       is at most d ||a|| ||b||; likewise XG and EG (<= d^2 ||a|| ||b||).
       Each entry of F*(t X'Y')/N is at most r ||X'|| ||Y'|| / N
       <= r (1 + d)^2 ||a|| ||b||.  So w = F*P'/N has
       |w - c| <= s ||a|| ||b|| entrywise, s = 2d + d^2 + r (1 + d)^2.
    4. Inverse: the computed result c' has ||c' - w|| <= d ||w||, and
       ||w|| <= ||c|| + ||w - c|| <= sqrt(N) (1 + s) ||a|| ||b||, since
       every |c_k| <= ||a|| ||b|| (Cauchy-Schwarz).
    5. Together: |c' - c| <= ||a|| ||b|| (s + d sqrt(N) (1 + s)) entrywise,
       which ``fft_error_bound`` evaluates.  Below 1/2, rounding c' gives c
       (and every |c_k| <= ||a|| ||b|| is far below 2^53).

    In ``verify_orthogonality`` the factors have shapes (k+1)^n and
    (p-k+1)^n, so N = (p+1)^n; the largest case of the default sweep,
    p = 13, n = 5, has N = 14^5, L = 100, d < 7.2e-13 and ||a|| ||b|| <=
    144 * 56^(5/2) < 3.4e6, so the bound is below 2e-3.  A product whose
    bound is not below 1/2 accumulates slices instead.
    """
    A = A % p
    B = B % p
    out_shape = tuple(a + b - 1 for a, b in zip(A.shape, B.shape))
    small = A.size * min(np.count_nonzero(A), np.count_nonzero(B)) <= (1 << 22)
    if not small and fft_error_bound(A, B) < 0.5:
        axes = tuple(range(A.ndim))
        fa = np.fft.rfftn(A, s=out_shape, axes=axes)
        fb = np.fft.rfftn(B, s=out_shape, axes=axes)
        raw = np.fft.irfftn(fa * fb, s=out_shape, axes=axes)
        return np.rint(raw).astype(np.int64) % p
    # direct accumulation over the sparser operand
    if np.count_nonzero(A) > np.count_nonzero(B):
        A, B = B, A
    out = np.zeros(out_shape, dtype=np.int64)
    for idx in zip(*np.nonzero(A)):
        sl = tuple(slice(i, i + s) for i, s in zip(idx, B.shape))
        out[sl] += int(A[idx]) * B
    return out % p


def render_polynomials(arrays: np.ndarray, p: int) -> list[list[str]]:
    """Every polynomial of a (d, n, ...) stack of coefficient arrays
    (entries in [0, p); the axes after the first two are z_1, z_2, ...) as
    text, exactly as ``str(MPoly)`` prints it: terms "c*z1^e1*z2*..." by
    descending (total degree, e_1, e_2, ...), joined by " + "; "0" for the
    zero polynomial.  Returns d lists of n strings."""
    d, n = arrays.shape[:2]
    idx = np.nonzero(arrays)
    exps = idx[2:]
    order = np.lexsort(tuple(-e for e in reversed(exps)) + (-sum(exps), idx[1], idx[0]))
    terms = np.array([str(c) for c in range(p)], dtype=object)[arrays[idx][order]]
    for i, (e, size) in enumerate(zip(exps, arrays.shape[2:]), start=1):
        tokens = np.array(
            [""] + [f"*z{i}"] + [f"*z{i}^{x}" for x in range(2, size)], dtype=object
        )
        terms = terms + tokens[e[order]]
    texts = terms.tolist()
    ends = np.cumsum(np.bincount(idx[0] * n + idx[1], minlength=d * n)).tolist()
    starts = [0] + ends[:-1]
    polys = [" + ".join(texts[b:e]) or "0" for b, e in zip(starts, ends)]
    return [polys[ell * n : (ell + 1) * n] for ell in range(d)]


def dense_eval_points(arr: np.ndarray, Z: np.ndarray, p: int, delta: int) -> np.ndarray:
    """Evaluate a dense prime-field coefficient array (axes = z_1..z_n) at a
    batch of F_{p^2} points Z (npts, n, 2); returns (npts, 2).

    Contracts one variable axis at a time against per-point power tables;
    all arithmetic stays in int64 with per-axis reduction.
    """
    npts = Z.shape[0]
    n = arr.ndim

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
        pw0, pw1 = powers(ax, arr.shape[ax])
        n0 = (np.einsum("...sn,sn->...n", Y0, pw0) + delta * np.einsum("...sn,sn->...n", Y1, pw1)) % p
        n1 = (np.einsum("...sn,sn->...n", Y0, pw1) + np.einsum("...sn,sn->...n", Y1, pw0)) % p
        Y0, Y1 = n0, n1
    return np.stack([Y0, Y1], axis=-1)


def _factor_table(p: int, kappa: int, m: int, shift: int, with_var: bool) -> np.ndarray:
    """Coefficient table of (t - w - shift; kappa)_m with w a single variable
    (or w = 0 when ``with_var`` is false): F[dt, dw] mod p."""
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


def build_product_tpoly(
    ctx: FieldCtx, kappa: int, factors: list[tuple[int | None, int, int]]
) -> tuple[np.ndarray, list[int]]:
    """Dense coefficients of prod_j (t - w_j - c_j; kappa)_{m_j}.

    Each factor is (var, c, m) with ``var`` a 1-based z-index or None for a
    pure constant shift.  Returns (array, axes_vars): axis 0 of the array is
    the t-degree, the remaining axes follow ``axes_vars``.
    """
    if ctx.ext_degree != 1:
        raise ValueError("dense kernels are prime-field only")
    p = ctx.p
    arr = np.ones((1,), dtype=np.int64)
    axes_vars: list[int] = []
    for var, c, m in factors:
        F = _factor_table(p, kappa, m, c, with_var=var is not None)
        tlen = arr.shape[0]
        new_shape = (tlen + m,) + arr.shape[1:] + ((m + 1,) if var is not None else ())
        out = np.zeros(new_shape, dtype=np.int64)
        if var is not None:
            src = arr[..., None]
            for dt in range(m + 1):
                row = F[dt]
                nz = np.nonzero(row)[0]
                if nz.size:
                    out[dt : dt + tlen] += src * row
            axes_vars.append(var)
        else:
            for dt in range(m + 1):
                if F[dt, 0]:
                    out[dt : dt + tlen] += F[dt, 0] * arr
        arr = out % p
    return arr, axes_vars


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


@functools.lru_cache(maxsize=256)
def _pochhammer_basis_matrix(p: int, kappa: int, tlen: int) -> np.ndarray:
    """The tlen x tlen matrix taking monomial coefficients of a t-polynomial
    of degree < tlen to its coefficients in the basis (t; kappa)_i, as
    float64 with entries in [0, p).

    Column i of the inverse map is (t; kappa)_i, a monic polynomial of degree
    i, so the matrix is the inverse of a unit upper-triangular matrix and
    comes out of one back substitution.
    """
    B = np.zeros((tlen, tlen), dtype=np.int64)
    for i, coeffs in enumerate(pochhammer_scalar_coeffs(p, kappa, tlen - 1)):
        B[: i + 1, i] = coeffs
    M = np.eye(tlen, dtype=np.int64)
    for i in range(tlen - 2, -1, -1):
        M[i] = (M[i] - B[i, i + 1 :] @ M[i + 1 :]) % p
    M = M.astype(np.float64)
    M.flags.writeable = False
    return M


# multiply-adds per float64 product in dense_pochhammer_coeffs.  Blocks this
# small run single-threaded: on a shared 2-vCPU guest, unblocked products of
# these thin shapes (30 x 30 by 30 x 14406) sometimes took 16 ms against
# 0.7-0.9 ms blocked, and with one BLAS thread the blocked form was no
# slower.  Blocking also bounds the float64 scratch memory.
_GEMM_MADDS = 1 << 19


@functools.lru_cache(maxsize=256)
def _row_functional(
    p: int, kappa: int, tlen: int, rows: tuple[int, ...], factor: tuple
) -> np.ndarray:
    """The matrix G[(r, e), tau] = sum_i M[rows_r, i] F[i - tau, e] taking
    the t-coefficients of a polynomial of degree < tlen to the requested
    Pochhammer coefficients of its product with the factor table F of
    ``factor`` = (var, shift, m); M is the basis matrix of size tlen + m.
    Float64 with entries in [0, p), read-only."""
    var, shift, m = factor
    F = _factor_table(p, kappa, m, shift, with_var=var is not None)
    Mr = _pochhammer_basis_matrix(p, kappa, tlen + m)[list(rows)].astype(np.int64)
    G = np.zeros((len(rows), F.shape[1], tlen), dtype=np.int64)
    for dt in range(m + 1):
        G += Mr[:, None, dt : dt + tlen] * F[dt][None, :, None]
    G = (G % p).reshape(-1, tlen).astype(np.float64)
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
    step = max(1, _GEMM_MADDS // max(1, G.size))
    for c in range(0, flat.shape[1], step):
        block = (flat[:, c : c + step] % p).astype(np.float64)
        out[:, c : c + step] = G @ block
    out %= p
    lead = (len(rows),) + ((m + 1,) if var is not None else ())
    return out.reshape(lead + arr.shape[1:])
