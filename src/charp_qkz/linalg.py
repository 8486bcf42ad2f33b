"""Exact linear algebra over F_p and F_{p^2} on batched numpy kernels:
matrices stacked along leading axes, elements as (a0, a1) component pairs
in the trailing axis.  One Gauss-Jordan elimination serves every rank,
determinant and solve; ``rank``, ``det`` and ``solve`` are its one-matrix
views on matrices of field elements."""

from __future__ import annotations

import math

import numpy as np

from .ffield import FieldCtx, FieldElement, make_field

__all__ = [
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


def _pairs(mat, ctx: FieldCtx) -> tuple[np.ndarray, FieldCtx]:
    """A matrix of field elements or integers as an (r, c, 2) pair array,
    with the F_{p^2} context the batched kernels compute in (F_p sits in
    it as the pairs (a0, 0))."""
    p = ctx.p
    vals = np.array(
        [[x.val if isinstance(x, FieldElement) else x % p for x in row] for row in mat],
        dtype=np.int64,
    )
    if vals.ndim < 2:  # no rows
        vals = vals.reshape(0, 0)
    return np.stack([vals % p, vals // p], axis=-1), make_field(p, 2)


def rank(mat, ctx: FieldCtx) -> int:
    """Rank of one matrix; an empty matrix has rank 0."""
    return int(ext_rank_batch(*_pairs(mat, ctx)))


def det(mat, ctx: FieldCtx) -> FieldElement:
    """Determinant of one square matrix, in ``ctx``."""
    d = ext_det_batch(*_pairs(mat, ctx))
    return FieldElement(ctx, int(d[0]) + int(d[1]) * ctx.p)


def solve(mat, rhs, ctx: FieldCtx) -> list[FieldElement]:
    """Solve a square nonsingular system A x = b, in ``ctx``."""
    A, ectx = _pairs(mat, ctx)
    if A.shape[0] != A.shape[1]:
        raise ValueError("solve needs a square system")
    B, _ = _pairs([[x] for x in rhs], ctx)
    X, ok = ext_solve_batch(A, B, ectx)
    if not ok:
        raise ValueError("singular or inconsistent linear system")
    return [FieldElement(ctx, int(x0) + int(x1) * ctx.p) for x0, x1 in X[:, 0]]


# -- batched F_{p^2} kernels ------------------------------------------------


def ext_mul(x: np.ndarray, y: np.ndarray, p: int, delta: int) -> np.ndarray:
    """Elementwise product of F_{p^2} arrays shaped (..., 2), broadcasting
    over the leading axes."""
    c0 = (x[..., 0] * y[..., 0] + delta * x[..., 1] * y[..., 1]) % p
    c1 = (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]) % p
    return np.stack([c0, c1], axis=-1)


def ext_matmul(A: np.ndarray, B: np.ndarray, p: int, delta: int) -> np.ndarray:
    """Matrix product of stacked F_{p^2} matrices shaped (..., n, n, 2)."""
    a0, a1 = A[..., 0], A[..., 1]
    b0, b1 = B[..., 0], B[..., 1]
    c0 = (a0 @ b0 + delta * (a1 @ b1)) % p
    c1 = (a0 @ b1 + a1 @ b0) % p
    return np.stack([c0, c1], axis=-1)


def ext_inv(x: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Componentwise inverse of stacked F_{p^2} scalars shaped (..., 2)."""
    p = ctx.p
    delta = ctx.nonresidue
    a0, a1 = x[..., 0] % p, x[..., 1] % p
    norm = (a0 * a0 - delta * a1 * a1) % p
    if np.any(norm == 0):
        raise ZeroDivisionError("inverse of zero in F_{p^2}")
    inv_tab = np.asarray(ctx._inv_table, dtype=np.int64)
    ninv = inv_tab[norm]
    return np.stack([(a0 * ninv) % p, (-a1 * ninv) % p], axis=-1)


def _eliminate_batch(A: np.ndarray, ctx: FieldCtx, ncols: int | None = None):
    """Gauss-Jordan elimination of stacked F_{p^2} matrices (..., r, c, 2) on
    their first ``ncols`` columns (all by default; later columns ride along).

    Each matrix keeps its own pivot count: per column it swaps in its first
    row at or below that count with a nonzero entry, scales it to a leading
    1 and clears the column elsewhere, or is left as it is when there is no
    such row. Returns (reduced matrices, ranks, dets (..., 2)); det is the
    signed product of the pivots, zero once a column has none.
    """
    p, delta = ctx.p, ctx.nonresidue
    lead = A.shape[:-3]
    A = A.reshape((math.prod(lead),) + A.shape[-3:]) % p
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
        det = np.where((has & (pr != r))[:, None], -det % p, det * has[:, None])
        piv = np.where(has[:, None], A[pts, r, c], one)
        det = ext_mul(det, piv, p, delta)
        A[pts, r] = ext_mul(A[pts, r], ext_inv(piv, ctx)[:, None], p, delta)
        f = A[:, :, c] * has[:, None, None]
        f[pts, r] = 0
        A = (A - ext_mul(f[:, :, None], A[pts, r][:, None], p, delta)) % p
        rank += has
    return A.reshape(lead + A.shape[1:]), rank.reshape(lead), det.reshape(lead + (2,))


def ext_det_batch(M: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Determinants of stacked square F_{p^2} matrices (..., k, k, 2) -> (..., 2)."""
    return _eliminate_batch(M, ctx)[2]


def ext_rank_batch(M: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Ranks of stacked F_{p^2} matrices (..., r, c, 2) -> (...)."""
    return _eliminate_batch(M, ctx)[1]


def ext_solve_batch(A: np.ndarray, B: np.ndarray, ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B for stacked square F_{p^2} systems, A (..., n, n, 2) and
    B (..., n, m, 2) (B broadcasts over the leading axes).

    Returns (X (..., n, m, 2), solvable (...)): solvable is False where A is
    singular, and X is zero there.
    """
    n = A.shape[-2]
    B = np.broadcast_to(B, A.shape[:-3] + B.shape[-3:])
    R, rank, _ = _eliminate_batch(np.concatenate([A, B], axis=-2), ctx, ncols=n)
    ok = rank == n
    return R[..., n:, :] * ok[..., None, None, None], ok
