"""The batched F_{p^2} elimination against the scalar one: ``ext_rank_batch``,
``ext_solve_batch`` and ``ext_det_batch`` must give what the scalar
elimination of ``oracles.linalg`` gives on the same matrices as field
elements, point by point; so must their one-matrix views ``linalg.rank``,
``linalg.det`` and ``linalg.solve``, over F_p and F_{p^2}."""

import numpy as np
import pytest

from charp_qkz import linalg
from charp_qkz.ffield import FieldElement, make_field
from charp_qkz.linalg import ext_det_batch, ext_matmul, ext_rank_batch, ext_solve_batch
from oracles import linalg as scalar_linalg

PRIMES = (5, 7, 11, 13)


def _rows(pctx, M):
    return [[FieldElement(pctx, int(x[0]) + int(x[1]) * pctx.p) for x in row] for row in M]


def _stacks(rng, pctx, r, c, count=5):
    """Random, rank-deficient (a product through an inner dimension below
    min(r, c)), sparse and zero r x c matrices, stacked."""
    p, delta = pctx.p, pctx.nonresidue
    rand = rng.integers(0, p, size=(count, r, c, 2))
    inner = int(rng.integers(0, min(r, c)))
    left = rng.integers(0, p, size=(count, r, inner, 2))
    right = rng.integers(0, p, size=(count, inner, c, 2))
    deficient = ext_matmul(left, right, p, delta)
    sparse = rng.integers(0, p, size=(count, r, c, 2)) * (rng.random((count, r, c, 1)) < 0.3)
    zero = np.zeros((1, r, c, 2), dtype=np.int64)
    return np.concatenate([rand, deficient, sparse, zero]), inner


@pytest.mark.parametrize("p", PRIMES)
def test_rank_batch_matches_scalar_rank(p):
    pctx = make_field(p, 2)
    rng = np.random.default_rng(p)
    for r in range(1, 6):
        for c in range(1, 11):
            M, inner = _stacks(rng, pctx, r, c)
            got = ext_rank_batch(M, pctx)
            assert got.tolist() == [scalar_linalg.rank(_rows(pctx, m), pctx) for m in M], (r, c)
            assert max(got[5:10]) <= inner and got[-1] == 0


@pytest.mark.parametrize("p", PRIMES)
def test_det_batch_matches_scalar_det(p):
    pctx = make_field(p, 2)
    rng = np.random.default_rng(100 + p)
    for k in range(1, 6):
        M, _ = _stacks(rng, pctx, k, k)
        got = ext_det_batch(M, pctx)
        for m, dv in zip(M, got):
            assert FieldElement(pctx, int(dv[0]) + int(dv[1]) * p) == scalar_linalg.det(_rows(pctx, m), pctx)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_batch_matches_scalar_solve(p):
    """Singular and nonsingular systems share one batch; each point reports
    its own solvability, and X is zero where it has none."""
    pctx = make_field(p, 2)
    rng = np.random.default_rng(200 + p)
    for k in range(1, 6):
        A, _ = _stacks(rng, pctx, k, k)
        for m in (1, 3):
            B = rng.integers(0, p, size=(len(A), k, m, 2))
            X, ok = ext_solve_batch(A, B, pctx)
            assert X.shape == B.shape and ok.shape == (len(A),)
            for a, b, x, good in zip(A, B, X, ok):
                for j in range(m):
                    try:
                        expect = scalar_linalg.solve(_rows(pctx, a), _rows(pctx, [b[:, j]])[0], pctx)
                    except ValueError:
                        assert not good and not x.any()
                        continue
                    assert good and _rows(pctx, [x[:, j]])[0] == expect
            assert not ok[-1]


def test_leading_axes_and_broadcast_rhs():
    """Any leading batch shape works, and a right-hand side without the
    leading axes is shared by every system."""
    pctx = make_field(7, 2)
    rng = np.random.default_rng(7)
    M = rng.integers(0, 7, size=(2, 3, 4, 4, 2))
    flat = M.reshape(6, 4, 4, 2)
    assert ext_rank_batch(M, pctx).tolist() == ext_rank_batch(flat, pctx).reshape(2, 3).tolist()
    assert np.array_equal(ext_det_batch(M, pctx).reshape(6, 2), ext_det_batch(flat, pctx))
    assert ext_rank_batch(np.zeros((3, 0, 4, 2), dtype=np.int64), pctx).tolist() == [0, 0, 0]
    eye = np.zeros((4, 4, 2), dtype=np.int64)
    eye[range(4), range(4), 0] = 1
    X, ok = ext_solve_batch(M, eye, pctx)
    prod = ext_matmul(M, X, 7, pctx.nonresidue)
    assert np.array_equal(prod[ok], np.broadcast_to(eye, prod[ok].shape))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ext", [1, 2])
def test_one_matrix_views_match_scalar_elimination(p, ext):
    """rank, det and solve on one matrix of field elements or integers give
    the scalar results in the caller's field: an F_p input gives F_p
    elements, and a singular solve raises."""
    ctx = make_field(p, ext)
    pctx = make_field(p, 2)
    rng = np.random.default_rng(300 + 10 * p + ext)
    for k in range(1, 5):
        M, _ = _stacks(rng, pctx, k, k, count=3)
        if ext == 1:
            M[..., 1] = 0
        for m in M:
            rows = _rows(ctx, m)
            assert linalg.rank(rows, ctx) == scalar_linalg.rank(rows, ctx)
            dv = linalg.det(rows, ctx)
            assert dv == scalar_linalg.det(rows, ctx) and dv.ctx is ctx
            if ext == 1:  # integers are read as residues mod p
                ints = [[int(x[0]) - p for x in row] for row in m]
                assert linalg.det(ints, ctx) == dv and linalg.rank(ints, ctx) == linalg.rank(rows, ctx)
            b = _rows(ctx, [m[:, 0]])[0]
            try:
                expect = scalar_linalg.solve(rows, b, ctx)
            except ValueError:
                with pytest.raises(ValueError, match="singular"):
                    linalg.solve(rows, b, ctx)
                continue
            got = linalg.solve(rows, b, ctx)
            assert got == expect and all(x.ctx is ctx for x in got)


def test_one_matrix_view_edge_cases():
    ctx = make_field(7)
    assert linalg.rank([], ctx) == 0
    assert linalg.rank([[], []], ctx) == 0
    assert linalg.det([], ctx) == ctx.one()
    assert linalg.rank([[0, 0], [0, 0]], ctx) == 0
    assert linalg.rank([[1, 2, 3]], ctx) == 1
    with pytest.raises(ValueError, match="singular"):
        linalg.solve([[1, 2], [2, 4]], [1, 1], ctx)
    with pytest.raises(ValueError, match="square"):
        linalg.solve([[1, 2, 3], [0, 1, 1]], [1, 1], ctx)
    assert linalg.solve([[2, 0], [0, 3]], [1, 1], ctx) == [ctx.element(4), ctx.element(5)]
