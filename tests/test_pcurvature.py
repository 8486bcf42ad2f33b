"""p-curvature of the discrete connection: pointwise battery, symbolic
structure, duality, and nondegeneracy for steps outside the prime field."""

import numpy as np
import pytest

from charp_qkz.ffield import elements, make_field, sample_point
from charp_qkz.pcurvature import (
    curvature_at,
    curvature_batch,
    curvature_symbolic,
    d_a_poly,
    kernel_image_ranks,
    reduced_curvature_at,
    verify_curvature_battery,
    verify_d_a_closed_form,
    verify_duality,
    verify_ext_kappa,
)
from charp_qkz.qkz_core import make_params


def test_batch_matches_scalar():
    ctx = make_field(5)
    pctx = make_field(5, 2)
    params = make_params(ctx, 3, 2)
    Z = np.stack([sample_point(pctx, 3, 50 + i) for i in range(4)])
    for a in range(1, 4):
        batch = curvature_batch(params, a, Z, pctx)
        for idx, z in enumerate(Z):
            C = curvature_at(params, a, z)
            for r in range(3):
                for c in range(3):
                    b = batch[idx, r, c]
                    assert C[r][c] == pctx.element(int(b[0]), int(b[1]))


def test_reduced_curvature_is_curvature_minus_identity():
    ctx = make_field(7)
    pctx = make_field(7, 2)
    params = make_params(ctx, 3, 3)
    z = sample_point(pctx, 3, 4)
    for a in range(1, 4):
        C = curvature_at(params, a, z)
        H = reduced_curvature_at(params, a, z)
        for r in range(3):
            for c in range(3):
                expected = C[r][c] - (pctx.one() if r == c else pctx.zero())
                assert H[r][c] == expected


@pytest.mark.parametrize("p,n", [(5, 3), (5, 4), (7, 3), (7, 4)])
def test_battery_all_kappa(p, n):
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        rep = verify_curvature_battery(params, npoints=20, seed=1)
        assert rep.passed, (p, n, kv, rep.failures[:3])


def test_battery_degenerate_d_gives_zero_curvature():
    ctx = make_field(7)
    params = make_params(ctx, 3, 4)  # k=5, d=2 = n-1
    assert params.d == params.n - 1
    rep = verify_curvature_battery(params, npoints=10, seed=0)
    assert rep.passed
    params = make_params(ctx, 3, 6)  # k=1, d=0
    assert params.d == 0
    rep = verify_curvature_battery(params, npoints=10, seed=0)
    assert rep.passed
    params = make_params(ctx, 2, 3)  # n=2: d in {0, n-1}, always degenerate
    rep = verify_curvature_battery(params, npoints=10, seed=0)
    assert rep.passed


def test_battery_reports_ranks():
    ctx = make_field(7)
    params = make_params(ctx, 4, 2)  # k=3, d=1, 0 < d < n-1
    rep = verify_curvature_battery(params, npoints=10, seed=3)
    assert rep.passed
    assert rep.params.p == 7 and rep.points == 10
    assert set(rep.per_axis) == {1, 2, 3, 4}
    assert all(len(axis["ranks"]) == 10 for axis in rep.per_axis.values())


def test_kernel_image_ranks_bounds():
    """rank(hatC_a) <= min(d, n-1-d) within the zero-sum space; the span of
    all images has a well-defined dimension reported (not asserted)."""
    ctx = make_field(7)
    pctx = make_field(7, 2)
    params = make_params(ctx, 4, 2)  # d = 1
    z = sample_point(pctx, 4, 21)
    ranks = kernel_image_ranks(params, z)
    d, n = params.d, params.n
    for a in range(1, n + 1):
        assert 0 <= ranks[a]["rank"] <= min(d, n - 1 - d)
        assert ranks[a]["kernel_dim"] + ranks[a]["rank"] == n - 1
    assert 1 <= ranks["sum_image_dim"] <= d


def test_d_a_closed_form():
    """D_a = prod_{j != a} ((z_a - z_j)^p - kappa^{p-1} (z_a - z_j))."""
    ctx = make_field(5)
    for kv in (1, 2, 3, 4):
        params = make_params(ctx, 3, kv)
        for a in range(1, 4):
            rep = verify_d_a_closed_form(params, a)
            assert rep.passed, rep.failures[:2]


@pytest.mark.parametrize("kv", [1, 2, 3, 4])
def test_symbolic_curvature_polynomial_structure(kv):
    """p=5, n=3: the reduced numerator matrix is polynomial (denominator
    fully cancels), total degree <= (n-2)p = 5, and its top-degree
    homogeneous part has rank <= 1 at random points."""
    from charp_qkz import linalg

    ctx = make_field(5)
    pctx = make_field(5, 2)
    params = make_params(ctx, 3, kv)
    for a in range(1, 4):
        Ctil, Da = curvature_symbolic(params, a)
        assert Da == d_a_poly(params, a)
        deg = max(
            (entry.total_degree() for row in Ctil for entry in row if not entry.is_zero()),
            default=0,
        )
        assert deg <= 5
        from charp_qkz.mpoly import MPoly

        top = [
            [
                entry.top_degree_part()
                if not entry.is_zero() and entry.total_degree() == deg
                else MPoly.zero(entry.ctx, entry.nvars)
                for entry in row
            ]
            for row in Ctil
        ]
        for seed in range(5):
            z = elements(sample_point(pctx, 3, 300 + seed), pctx)
            M = [[e.eval(z) for e in row] for row in top]
            assert linalg.rank(M, pctx) <= 1


@pytest.mark.parametrize("p,n", [(5, 4), (7, 4), (7, 5)])
def test_duality(p, n):
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        rep = verify_duality(params, npoints=10, seed=2)
        assert rep.passed, (p, n, kv, rep.failures[:3])


def test_duality_negative_control():
    ctx = make_field(7)
    params = make_params(ctx, 4, 2)
    rep = verify_duality(params, npoints=10, seed=2, flip_control=True)
    assert not rep.passed


@pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_ext_kappa_nondegenerate(p, n):
    import random

    rng = random.Random(p * 100 + n)
    ectx = make_field(p, 2)
    for trial in range(3):
        kap = ectx.element(rng.randrange(p), rng.randrange(1, p))
        params = make_params(ectx, n, kap)
        rep = verify_ext_kappa(params, npoints=10, seed=trial)
        assert rep.passed, (p, n, str(kap), rep.failures[:2])


def test_ext_kappa_rejects_prime_field_step():
    ectx = make_field(5, 2)
    params = make_params(ectx, 3, ectx.element(2, 0))
    with pytest.raises(ValueError):
        verify_ext_kappa(params, npoints=2, seed=0)
