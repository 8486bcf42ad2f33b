"""Exact linear algebra over a field context, plus batched numpy kernels
for F_{p^2} matrix work (points stacked along a leading axis, elements as
(a0, a1) component pairs in the trailing axis)."""

from __future__ import annotations

import math

import numpy as np

from .ffield import FieldCtx, FieldElement

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


def _to_rows(mat, ctx: FieldCtx) -> list[list[int]]:
    return [
        [x.val if isinstance(x, FieldElement) else x % ctx.p for x in row] for row in mat
    ]


def _eliminate(rows: list[list[int]], ctx: FieldCtx) -> tuple[list[list[int]], list[int]]:
    """Row echelon form in place; returns (rows, pivot column indices)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ctx.inv(rows[r][c])
        rows[r] = [ctx.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat, ctx: FieldCtx) -> int:
    rows = _to_rows(mat, ctx)
    _, pivots = _eliminate(rows, ctx)
    return len(pivots)


def det(mat, ctx: FieldCtx) -> FieldElement:
    rows = _to_rows(mat, ctx)
    n = len(rows)
    acc = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return FieldElement(ctx, 0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            acc = ctx.neg(acc)
        acc = ctx.mul(acc, rows[c][c])
        inv = ctx.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c]:
                f = ctx.mul(rows[i][c], inv)
                rows[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[c])]
    return FieldElement(ctx, acc)


def solve(mat, rhs, ctx: FieldCtx) -> list[FieldElement]:
    """Solve a square nonsingular system A x = b."""
    rows = _to_rows(mat, ctx)
    b = [x.val if isinstance(x, FieldElement) else x % ctx.p for x in rhs]
    aug = [row + [bv] for row, bv in zip(rows, b)]
    aug, pivots = _eliminate(aug, ctx)
    n = len(rows[0])
    if pivots != list(range(n)):
        raise ValueError("singular or inconsistent linear system")
    return [FieldElement(ctx, aug[i][-1]) for i in range(n)]


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
