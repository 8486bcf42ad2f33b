"""The scalar elimination that ``charp_qkz.linalg`` used before ``rank``,
``det`` and ``solve`` became views of the batched F_{p^2} kernels: row
reduction on Python lists of encoded field values, one field operation at
a time.  The batched kernels and their one-matrix views are compared with
it."""

from __future__ import annotations

from charp_qkz.ffield import FieldCtx, FieldElement


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
