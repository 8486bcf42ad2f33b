"""The orthogonality check decides each pairing polynomial from its values on
the grid (F_p u {inf})^n.  Its failures are compared with the pairings
that are nonzero as polynomials: the sparse oracle at p in {5, 7}, and
slice-accumulated dense products at p in {11, 13} (slow).  The grid helper
is checked against point evaluation and at infinity."""

import itertools

import numpy as np
import pytest

from charp_qkz import dense
from charp_qkz.ffield import make_field
from charp_qkz.hypergeo import _grid_values, extract_solutions, verify_orthogonality
from charp_qkz.qkz_core import make_params
from oracles.solutions import sparse_solutions
from oracles.vectors import pairing_polynomial, shapovalov


def _ortho_sweep(primes):
    return [
        (p, n, kv)
        for p in primes
        for n in range(2, 6)
        if n < p
        for kv in range(1, p)
        if 0 < make_params(make_field(p), n, kv).d < n - 1
    ]


def _failures(nonzero):
    return [(ell + 1, m + 1) for ell, m in np.argwhere(np.array(nonzero))]


@pytest.mark.parametrize("p,n,kv", _ortho_sweep((5, 7)))
def test_grid_check_matches_sparse_pairing(p, n, kv):
    params = make_params(make_field(p), n, kv)
    plus = sparse_solutions(extract_solutions(params))
    minus = sparse_solutions(extract_solutions(params.minus()))
    negated = [[not pairing_polynomial(f, g).is_zero() for g in minus] for f in plus]
    unnegated = [[not shapovalov(g, f).is_zero() for g in minus] for f in plus]
    rep = verify_orthogonality(params)
    assert rep.failures == _failures(negated) == []
    assert rep.details["shape"] == (len(plus), len(minus))
    control = verify_orthogonality(params, unnegated_control=True)
    assert control.failures == _failures(unnegated)


def _conv_pairings(params, negate):
    p = params.p
    plus = extract_solutions(params).arrays
    minus = extract_solutions(params.minus()).arrays
    return [
        [
            bool(
                np.any(
                    sum(
                        dense.dense_conv(sp[a], dense.dense_negate_vars(sm[a], p) if negate else sm[a], p)
                        for a in range(params.n)
                    )
                    % p
                )
            )
            for sm in minus
        ]
        for sp in plus
    ]


@pytest.mark.slow
@pytest.mark.parametrize("p,n,kv", _ortho_sweep((11, 13)))
def test_grid_check_matches_dense_conv_pairing(p, n, kv):
    params = make_params(make_field(p), n, kv)
    assert verify_orthogonality(params).failures == _failures(_conv_pairings(params, True)) == []
    control = verify_orthogonality(params, unnegated_control=True)
    assert control.failures == _failures(_conv_pairings(params, False))


@pytest.mark.parametrize("p,shape", [(5, (3, 4, 2)), (7, (8, 1, 5)), (11, (6, 7))])
def test_grid_values_evaluate_and_read_the_top_coefficient(p, shape):
    rng = np.random.default_rng(p)
    arr = rng.integers(-2 * p, 2 * p, size=shape)
    grid = _grid_values(arr, p, len(shape))
    assert grid.shape == (p + 1,) * len(shape) and grid.dtype == np.int64
    # F_p points, as F_{p^2} pairs with zero second component
    pts = np.array(list(itertools.product(range(p), repeat=len(shape))))
    Z = np.stack([pts, np.zeros_like(pts)], axis=-1)
    values = dense.dense_eval_points(arr, Z, p)
    assert not values[:, 1].any()
    assert np.array_equal(grid[(slice(p),) * len(shape)].ravel(), values[:, 0])
    # infinity on an axis reads that axis's top coefficient
    for ax, s in enumerate(shape):
        top = np.take(arr, s - 1, axis=ax)
        assert np.array_equal(np.take(grid, p, axis=ax), _grid_values(top, p, len(shape) - 1))
    assert grid[(p,) * len(shape)] == arr[tuple(s - 1 for s in shape)] % p


@pytest.mark.parametrize("p,shape", [(5, (2, 3, 4, 2)), (7, (3, 2, 8, 1, 5)), (11, (4, 6, 7))])
def test_grid_values_of_a_stack_are_the_grids_of_its_arrays(p, shape):
    """Axes before the last n are stack axes: each array of the stack gets
    the grid it gets alone."""
    arr = np.random.default_rng(p).integers(-2 * p, 2 * p, size=shape)
    n = 2 if len(shape) == 3 else 3
    grid = _grid_values(arr, p, n)
    assert grid.shape == shape[: len(shape) - n] + (p + 1,) * n
    for idx in np.ndindex(shape[: len(shape) - n]):
        assert np.array_equal(grid[idx], _grid_values(arr[idx], p, n)), idx


@pytest.mark.parametrize("p", [5, 7, 13])
def test_grid_values_catch_z_to_the_p_minus_z_at_infinity(p):
    """z_1^p - z_1 vanishes at every point of F_p x F_p and is caught only
    by the value at infinity on its axis."""
    arr = np.zeros((p + 1, 2), dtype=np.int64)
    arr[p, 0], arr[1, 0] = 1, -1
    grid = _grid_values(arr, p, 2)
    assert not grid[:p].any()
    assert np.array_equal(grid[p], np.r_[np.ones(p, dtype=np.int64), 0])
