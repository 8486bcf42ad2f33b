"""Exact linear algebra over F_p and F_{p^2} on batched numpy kernels:
matrices stacked along leading axes, elements as (a0, a1) component pairs
in the trailing axis.  One Gauss-Jordan elimination serves every rank,
determinant and solve; ``rank``, ``det`` and ``solve`` are its one-matrix
views on matrices of field elements."""

from __future__ import annotations

import math

import numpy as np

from .ffield import FieldCtx, FieldElement, inverse_table, make_field

__all__ = [
    "mod",
    "stack_groups",
    "rank",
    "det",
    "solve",
    "ext_mul",
    "ext_matmul",
    "ext_inv",
    "ext_det_batch",
    "ext_rank_batch",
    "ext_solve_batch",
]


def mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p) for an integer array and p > 0, in x's dtype: equal
    to ``x % p``, but numpy divides by a scalar through a fast path for
    ``//`` and not for ``%``.  The product (x // p) * p may wrap near the
    ends of the dtype; the difference is then still exact, since the true
    result is in [0, p) and the arithmetic is modulo 2^bits."""
    return x - x // p * p


# The entries (4 MB as int64) that one stacked kernel call or product may
# make, or the multiply-adds of one float64 block: memory grows with one
# group of items, not with all (the default sweep and the benchmark fit in
# one).  Float64 blocks this small run single-threaded: on a 2-vCPU guest
# unblocked thin Pochhammer products (30 x 30 by 30 x 14406) sometimes took
# 16 ms against 0.7-0.9 ms blocked, which cost nothing with one BLAS thread.
_STACK_ENTRIES = 1 << 19


def stack_groups(count: int, entries_each: int) -> list[slice]:
    """Consecutive slices of ``count`` stacked items of ``entries_each``
    entries each, as few as keep every slice within ``_STACK_ENTRIES``
    (one item at least)."""
    step = max(1, _STACK_ENTRIES // max(1, entries_each))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _pairs(mat, p: int) -> np.ndarray:
    """A matrix of field elements or integers as an (r, c, 2) pair array
    over F_{p^2} (F_p sits in it as the pairs (a0, 0))."""
    vals = np.array(
        [[x.val if isinstance(x, FieldElement) else x % p for x in row] for row in mat],
        dtype=np.int64,
    )
    if vals.ndim < 2:  # no rows
        vals = vals.reshape(0, 0)
    return np.stack([vals % p, vals // p], axis=-1)


def rank(mat, ctx: FieldCtx) -> int:
    """Rank of one matrix; an empty matrix has rank 0."""
    return int(ext_rank_batch(_pairs(mat, ctx.p), ctx.p))


def det(mat, ctx: FieldCtx) -> FieldElement:
    """Determinant of one square matrix, in ``ctx``."""
    d = ext_det_batch(_pairs(mat, ctx.p), ctx.p)
    return FieldElement(ctx, int(d[0]) + int(d[1]) * ctx.p)


def solve(mat, rhs, ctx: FieldCtx) -> list[FieldElement]:
    """Solve a square nonsingular system A x = b, in ``ctx``."""
    A = _pairs(mat, ctx.p)
    if A.shape[0] != A.shape[1]:
        raise ValueError("solve needs a square system")
    X, ok = ext_solve_batch(A, _pairs([[x] for x in rhs], ctx.p), ctx.p)
    if not ok:
        raise ValueError("singular or inconsistent linear system")
    return [FieldElement(ctx, int(x0) + int(x1) * ctx.p) for x0, x1 in X[:, 0]]


# -- batched F_{p^2} kernels ------------------------------------------------


def ext_mul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Elementwise product of F_{p^2} arrays shaped (..., 2), broadcasting
    over the leading axes."""
    delta = make_field(p, 2).nonresidue
    c0 = mod(x[..., 0] * y[..., 0] + delta * x[..., 1] * y[..., 1], p)
    c1 = mod(x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0], p)
    return np.stack([c0, c1], axis=-1)


def ext_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Matrix product of stacked F_{p^2} matrices shaped (..., n, n, 2).
    Each component is reduced into the result before the next is made, so
    no more than two products of the batch's size are alive besides it."""
    a0, a1 = A[..., 0], A[..., 1]
    b0, b1 = B[..., 0], B[..., 1]
    c = a1 @ b1
    c *= make_field(p, 2).nonresidue
    c += a0 @ b0
    out = np.empty(c.shape + (2,), dtype=c.dtype)
    _reduce_into(c, p, out[..., 0])
    c = a0 @ b1
    c += a1 @ b0
    _reduce_into(c, p, out[..., 1])
    return out


def _reduce_into(x: np.ndarray, p: int, out: np.ndarray) -> None:
    """``mod(x, p)`` written into ``out``, with one temporary."""
    q = x // p
    q *= p
    np.subtract(x, q, out=out)


def ext_inv(x: np.ndarray, p: int) -> np.ndarray:
    """Componentwise inverse of stacked F_{p^2} scalars shaped (..., 2), read
    from the table of every inverse in F_{p^2}."""
    enc = mod(x[..., 0], p) + p * mod(x[..., 1], p)
    if np.any(enc == 0):
        raise ZeroDivisionError("inverse of zero in F_{p^2}")
    table = inverse_table(p)
    return np.stack([table[0][enc], table[1][enc]], axis=-1).astype(np.int64)


def _eliminate_batch(A: np.ndarray, p: int, ncols: int | None = None):
    """Gauss-Jordan elimination of stacked F_{p^2} matrices (..., r, c, 2) on
    their first ``ncols`` columns (all by default; later columns ride along).

    Each matrix keeps its own pivot count: per column it swaps in its first
    row at or below that count with a nonzero entry, scales it to a leading
    1 and clears the column elsewhere, or is left as it is when there is no
    such row. Returns (reduced matrices, ranks, dets (..., 2)); det is the
    signed product of the pivots, zero once a column has none.
    """
    lead = A.shape[:-3]
    A = mod(A.reshape((math.prod(lead),) + A.shape[-3:]), p)
    npts, nrows = A.shape[:2]
    pts = np.arange(npts)
    rank = np.zeros(npts, dtype=np.int64)
    det = np.zeros((npts, 2), dtype=np.int64)
    det[:, 0] = 1
    one = np.array([1, 0], dtype=np.int64)
    for c in range(A.shape[2] if ncols is None else ncols):
        if np.all(rank == nrows):
            break  # no row left to pivot on (only when there are more columns than rows)
        r = np.minimum(rank, nrows - 1)
        cand = np.any(A[:, :, c] != 0, axis=-1) & (np.arange(nrows) >= rank[:, None])
        has = np.any(cand, axis=1)
        pr = np.where(has, np.argmax(cand, axis=1), r)
        row_r = A[pts, r].copy()
        A[pts, r] = A[pts, pr]
        A[pts, pr] = row_r
        det = np.where((has & (pr != r))[:, None], mod(-det, p), det * has[:, None])
        piv = np.where(has[:, None], A[pts, r, c], one)
        det = ext_mul(det, piv, p)
        A[pts, r] = ext_mul(A[pts, r], ext_inv(piv, p)[:, None], p)
        f = A[:, :, c] * has[:, None, None]
        f[pts, r] = 0
        A = mod(A - ext_mul(f[:, :, None], A[pts, r][:, None], p), p)
        rank += has
    return A.reshape(lead + A.shape[1:]), rank.reshape(lead), det.reshape(lead + (2,))


def ext_det_batch(M: np.ndarray, p: int) -> np.ndarray:
    """Determinants of stacked square F_{p^2} matrices (..., k, k, 2) -> (..., 2)."""
    return _eliminate_batch(M, p)[2]


def ext_rank_batch(M: np.ndarray, p: int) -> np.ndarray:
    """Ranks of stacked F_{p^2} matrices (..., r, c, 2) -> (...)."""
    return _eliminate_batch(M, p)[1]


def ext_solve_batch(A: np.ndarray, B: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B for stacked square F_{p^2} systems, A (..., n, n, 2) and
    B (..., n, m, 2) (B broadcasts over the leading axes).

    Returns (X (..., n, m, 2), solvable (...)): solvable is False where A is
    singular, and X is zero there.
    """
    n = A.shape[-2]
    B = np.broadcast_to(B, A.shape[:-3] + B.shape[-3:])
    R, rank, _ = _eliminate_batch(np.concatenate([A, B], axis=-2), p, ncols=n)
    ok = rank == n
    return R[..., n:, :] * ok[..., None, None, None], ok
