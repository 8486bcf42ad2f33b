"""Exact linear algebra over a field context, plus batched numpy kernels
for F_{p^2} matrix work (points stacked along a leading axis, elements as
(a0, a1) component pairs in the trailing axis)."""

from __future__ import annotations

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


def ext_det_batch(M: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Determinants of stacked square F_{p^2} matrices (npts, k, k, 2) -> (npts, 2).

    Gaussian elimination on every point at once: each point swaps in its own
    pivot row (the first nonzero entry at or below the diagonal) and flips
    its own sign. A point with no pivot in a column multiplies its
    determinant by that zero entry, and its column below the diagonal is
    already zero, so its elimination step changes nothing.
    """
    p, delta = ctx.p, ctx.nonresidue
    A = M % p
    npts, k = A.shape[0], A.shape[1]
    pts = np.arange(npts)
    det = np.zeros((npts, 2), dtype=np.int64)
    det[:, 0] = 1
    one = np.array([1, 0], dtype=np.int64)
    for c in range(k):
        nonzero = np.any(A[:, c:, c] != 0, axis=-1)  # (npts, k - c)
        pr = c + np.argmax(nonzero, axis=1)  # c where the column is zero
        row_c = A[pts, c].copy()
        A[pts, c] = A[pts, pr]
        A[pts, pr] = row_c
        swapped = pr != c
        det[swapped] = (-det[swapped]) % p
        piv = A[:, c, c]
        det = ext_mul(det, piv, p, delta)
        inv = ext_inv(np.where(np.any(piv != 0, axis=-1, keepdims=True), piv, one), ctx)
        f = ext_mul(A[:, c + 1 :, c], inv[:, None], p, delta)  # (npts, k - c - 1, 2)
        A[:, c + 1 :] = (A[:, c + 1 :] - ext_mul(f[:, :, None], A[:, None, c], p, delta)) % p
    return det
