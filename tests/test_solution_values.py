"""``hypergeo.solution_values`` against the values contracted from the
solution arrays (``oracles.solutions.evaluate_solutions``), for every kappa
with d(kappa) > 0, at kappa on a batch Z and at -kappa on -Z (the two
sides the quasi-section systems read), for one point and for a batch; and
``dense_eval_points`` over a stack against one call per array."""

import numpy as np
import pytest

from charp_qkz import hypergeo
from charp_qkz.dense import dense_eval_points
from charp_qkz.ffield import make_field, sample_point, sample_points
from charp_qkz.hypergeo import extract_solutions, solution_values
from charp_qkz.qkz_core import make_params
from oracles.solutions import evaluate_solutions

FAST = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 5) if n < p]
SLOW = [(11, 5), (13, 5)]


def _compare(p, n, kappas):
    pctx = make_field(p, 2)
    Z = sample_points(pctx, n, range(700, 712))
    compared = 0
    for kv in kappas:
        params = make_params(make_field(p), n, kv)
        if params.d == 0:
            continue
        for side, W in ((params, Z), (params.minus(), -Z % p)):
            want = evaluate_solutions(extract_solutions(side).arrays, W, p)
            got = solution_values(side, W)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want), (p, n, kv, str(side.kappa))
            assert np.array_equal(solution_values(side, W[:1]), want[:, :1])
        compared += 1
        hypergeo._solution_cache.clear()
    assert compared


@pytest.mark.parametrize("p,n", FAST)
def test_solution_values_match_the_arrays(p, n):
    _compare(p, n, range(1, p))


def test_solution_values_match_the_arrays_at_13_5_one_kappa():
    """The n = 5 representative of the slow sweep: kappa = 1, d = 4."""
    _compare(13, 5, [1])


@pytest.mark.slow
@pytest.mark.parametrize("p,n", SLOW)
def test_solution_values_match_the_arrays_slow(p, n):
    _compare(p, n, range(1, p))



@pytest.mark.parametrize("p,n,kv", [(7, 3, 2), (11, 4, 1), (13, 3, 5)])
def test_stacked_eval_matches_per_array_calls(p, n, kv):
    """One call on a (d, n, box) solution stack, at one point as the
    ``solutions`` suite makes it and at a batch, and one call on a random
    stack with two stack axes and unequal variable axes, equal one call per
    array."""
    pctx = make_field(p, 2)
    arrays = extract_solutions(make_params(make_field(p), n, kv)).arrays
    for Z in (sample_point(pctx, n, 3)[None], sample_points(pctx, n, range(5))):
        want = evaluate_solutions(arrays, Z, p)
        got = dense_eval_points(arrays, Z, p)
        assert got.shape == arrays.shape[:2] + (len(Z), 2)
        assert np.array_equal(got, want.swapaxes(1, 2)), (p, n, kv)
    Z = sample_points(pctx, 3, range(4))
    stack = np.random.default_rng(p).integers(-p, 2 * p, size=(2, 3, 4, 1, 5))
    got = dense_eval_points(stack, Z, p)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], dense_eval_points(stack[idx], Z, p)), idx
    hypergeo._solution_cache.clear()
