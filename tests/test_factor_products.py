"""The factor products of ``dense``, one windowed int64 product per factor
in ``build_product_tpoly`` and one for the row functional, against the
per-degree loops they replaced (``oracles.tables``), on every factor list
that the solutions, the bar-Q companions (kappa = 0) and the ``restrict``
check build."""

import numpy as np
import pytest

from charp_qkz import dense, hypergeo
from charp_qkz.ffield import make_field
from charp_qkz.qkz_core import make_params
from oracles.tables import product_tpoly_by_degree, row_functional_by_degree

FAST = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 6) if n < p]
SLOW = [(p, n) for p in (17, 19, 23, 29, 31) for n in (2, 3)]


def _compare_products(monkeypatch, p, n, kappas):
    """Build the solutions, the bar-Q companions and the restricted
    products of (p, n, kappa) for each kappa, comparing every product and
    row functional they ask for with the loops."""
    seen = {"build": 0, "fold": 0}
    real_build, real_fold = dense.build_product_tpoly, dense._row_functional

    def build(ctx, kappa, factors):
        got = real_build(ctx, kappa, factors)
        assert got.dtype == np.int64
        assert np.array_equal(got, product_tpoly_by_degree(ctx, kappa, factors)), (p, kappa, factors)
        seen["build"] += 1
        return got

    def fold(q, kappa, tlen, rows, factor):
        got = real_fold(q, kappa, tlen, rows, factor)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert np.array_equal(got, row_functional_by_degree(q, kappa, tlen, rows, factor)), (
            q, kappa, tlen, rows, factor,
        )
        seen["fold"] += 1
        return got

    monkeypatch.setattr(dense, "build_product_tpoly", build)
    monkeypatch.setattr(dense, "_row_functional", fold)
    for kv in kappas:
        params = make_params(make_field(p), n, kv)
        hypergeo._solution_cache.clear()
        hypergeo.extract_solutions(params)
        hypergeo.barq_solutions(params)
        assert hypergeo.verify_restrictions(params).passed
    hypergeo._solution_cache.clear()
    assert seen["build"] and seen["fold"]


@pytest.mark.parametrize("p,n", FAST)
def test_products_match_degree_loops(monkeypatch, p, n):
    _compare_products(monkeypatch, p, n, range(1, p))


@pytest.mark.slow
@pytest.mark.parametrize("p,n", SLOW)
def test_products_match_degree_loops_sweep(monkeypatch, p, n):
    _compare_products(monkeypatch, p, n, range(1, p))


@pytest.mark.slow
@pytest.mark.parametrize("p", [53, 101])
@pytest.mark.parametrize("n", [2, 3])
def test_products_match_degree_loops_large_p(monkeypatch, p, n):
    _compare_products(monkeypatch, p, n, (1, 2))
