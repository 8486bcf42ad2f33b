"""p-curvature of the discrete connection: pointwise battery, symbolic
structure, duality, and nondegeneracy for steps outside the prime field."""

import numpy as np
import pytest

from charp_qkz.dense import dense_eval_points, dense_to_mpoly, dense_top_degree_part, dense_total_degrees
from charp_qkz.ffield import make_field, sample_point
from charp_qkz.linalg import ext_mul, ext_rank_batch
from charp_qkz.pcurvature import (
    _d_a_batch,
    _reduce_batch,
    _w_product,
    battery_points,
    curvature_at,
    curvature_batch,
    curvature_stack,
    curvature_symbolic,
    d_a_closed_form,
    kernel_image_ranks,
    reduced_curvature_at,
    verify_curvature_battery,
    verify_duality,
    verify_ext_kappa,
)
from charp_qkz.qkz_core import make_params, r_factors
from oracles import zbox
from oracles.operators import curvature_symbolic as sparse_curvature_symbolic
from oracles.operators import d_a_poly
from oracles.zbox import w_to_z


def _battery(params, npoints, seed):
    """The battery at its points for (npoints, seed), as the curvature suite runs it."""
    Z = battery_points(params, npoints, seed)
    return verify_curvature_battery(params, Z, curvature_stack(params, Z))


def _duality(params, npoints, seed, flip_control=False):
    """The duality check for kappa at the battery's points, reading the
    curvature stacks of kappa and -kappa."""
    Z = battery_points(params, npoints, seed)
    C, C_minus = curvature_stack(params, Z), curvature_stack(params.minus(), Z)
    return verify_duality(params, Z, C, C_minus, flip_control=flip_control)


def test_batch_matches_scalar():
    ctx = make_field(5)
    pctx = make_field(5, 2)
    params = make_params(ctx, 3, 2)
    Z = np.stack([sample_point(pctx, 3, 50 + i) for i in range(4)])
    for a in range(1, 4):
        batch = curvature_batch(params, a, Z)
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
        rep = _battery(params, 20, 1)
        assert rep.passed, (p, n, kv, rep.failures[:3])


def test_battery_degenerate_d_gives_zero_curvature():
    ctx = make_field(7)
    params = make_params(ctx, 3, 4)  # k=5, d=2 = n-1
    assert params.d == params.n - 1
    rep = _battery(params, 10, 0)
    assert rep.passed
    params = make_params(ctx, 3, 6)  # k=1, d=0
    assert params.d == 0
    rep = _battery(params, 10, 0)
    assert rep.passed
    params = make_params(ctx, 2, 3)  # n=2: d in {0, n-1}, always degenerate
    rep = _battery(params, 10, 0)
    assert rep.passed


def test_battery_reports_ranks():
    ctx = make_field(7)
    params = make_params(ctx, 4, 2)  # k=3, d=1, 0 < d < n-1
    rep = _battery(params, 10, 3)
    assert rep.passed
    assert rep.details["points"] == 10
    assert set(rep.details["per_axis"]) == {1, 2, 3, 4}
    assert all(len(axis["ranks"]) == 10 for axis in rep.details["per_axis"].values())


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
    """D_a = prod_{j != a} (w_j^p - w_j), w_j = z_a - z_j: the denominators
    of the symbolic product equal the closed form, and so, expanded in z, do
    the z-box closed form prod (t^p - kappa^{p-1} t) at t = z_a - z_j - 1
    and the sparse Pochhammer product, at p=5, n=3 and p=7, n=4 for every
    kappa and a."""
    for p, n in ((5, 3), (7, 4)):
        ctx = make_field(p)
        for kv in range(1, p):
            params = make_params(ctx, n, kv)
            for a in range(1, n + 1):
                expect = d_a_closed_form(params, a)
                assert np.array_equal(curvature_symbolic(params, a)[1], expect), (p, kv, a)
                in_z = w_to_z(expect, a, n, p)
                assert np.array_equal(in_z, zbox.d_a_closed_form(params, a)), (p, kv, a)
                assert dense_to_mpoly(in_z, ctx, n) == d_a_poly(params, a), (p, kv, a)


def _entry_values(C: np.ndarray, Z: np.ndarray, p: int) -> np.ndarray:
    """Every entry of an (n, n, box) polynomial matrix at the points Z:
    (npts, n, n, 2)."""
    n = C.shape[0]
    entries = C.reshape((n * n,) + C.shape[2:])
    vals = np.stack([dense_eval_points(e, Z, p) for e in entries], axis=1)
    return vals.reshape(len(Z), n, n, 2)


def _w_points(Z: np.ndarray, a: int, p: int) -> np.ndarray:
    """The points (npts, n, 2) in the variables w_j = z_a - z_j, j != a:
    (npts, n-1, 2)."""
    W = (Z[:, a - 1 : a] - Z) % p
    return np.delete(W, a - 1, axis=1)


@pytest.mark.parametrize("kv", [1, 2, 3, 4])
def test_symbolic_curvature_polynomial_structure(kv):
    """p=5, n=3: the reduced numerator matrix is polynomial (denominator
    fully cancels), total degree <= (n-2)p = 5, and its top-degree
    homogeneous part has rank <= 1 at random points; in w, and expanded in
    z."""
    ctx = make_field(5)
    pctx = make_field(5, 2)
    params = make_params(ctx, 3, kv)
    Z = np.stack([sample_point(pctx, 3, 300 + seed) for seed in range(5)])
    for a in range(1, 4):
        Cw, Dw = curvature_symbolic(params, a)
        assert dense_total_degrees(Cw.reshape((1, 9) + Dw.shape))[0] <= 5
        Ctil, Da = w_to_z(Cw, a, 3, 5), w_to_z(Dw, a, 3, 5)
        assert dense_to_mpoly(Da, ctx, 3) == d_a_poly(params, a)
        entries = Ctil.reshape((9,) + Ctil.shape[2:])
        assert dense_total_degrees(entries[None])[0] <= 5
        top = dense_top_degree_part(entries).reshape(Ctil.shape)
        assert np.all(ext_rank_batch(_entry_values(top, Z, 5), 5) <= 1)


@pytest.mark.parametrize("p,n", [(5, 3), pytest.param(7, 4, marks=pytest.mark.slow)])
def test_symbolic_curvature_matches_sparse_oracle(p, n):
    """tilde-C_a and D_a, expanded from w into z, equal the sparse MPoly
    construction entry for entry, for every kappa and a."""
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        for a in range(1, n + 1):
            Cw, Dw = curvature_symbolic(params, a)
            Ctil, Da = w_to_z(Cw, a, n, p), w_to_z(Dw, a, n, p)
            ref, ref_da = sparse_curvature_symbolic(params, a)
            assert dense_to_mpoly(Da, ctx, n) == ref_da
            for i in range(n):
                for j in range(n):
                    assert dense_to_mpoly(Ctil[i, j], ctx, n) == ref[i][j], (kv, a, i, j)


def _slow_except_5_3(pairs):
    return [(p, n) if (p, n) == (5, 3) else pytest.param(p, n, marks=pytest.mark.slow) for p, n in pairs]


ZBOX_PAIRS = [(p, n) for p in (5, 7, 11, 13) for n in (2, 3, 4)] + [(7, 5)]
SWEEP_PAIRS = [(p, n) for p in (5, 7, 11, 13) for n in (2, 3, 4, 5) if n < p]


@pytest.mark.parametrize("p,n", _slow_except_5_3(ZBOX_PAIRS))
def test_symbolic_curvature_matches_zbox_oracle(p, n):
    """tilde-C_a and D_a built in w, expanded exactly into z, equal the
    z-box construction entry for entry, for every kappa and a."""
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        for a in range(1, n + 1):
            Cw, Dw = curvature_symbolic(params, a)
            Cz, Dz = zbox.curvature_symbolic(params, a)
            assert np.array_equal(w_to_z(Dw, a, n, p), Dz), (kv, a)
            assert np.array_equal(w_to_z(Cw, a, n, p), Cz), (kv, a)


@pytest.mark.parametrize("p,n", _slow_except_5_3(SWEEP_PAIRS))
def test_symbolic_curvature_closed_form_and_exact_degree(p, n):
    """In w, for every kappa and a: D_a equals its closed form, and the
    total degree of tilde-C_a is exactly (n-2)p when 0 < d < n-1, while
    tilde-C_a = 0 otherwise."""
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        for a in range(1, n + 1):
            Ctil, Da = curvature_symbolic(params, a)
            assert np.array_equal(Da, d_a_closed_form(params, a)), (kv, a)
            if 0 < params.d < n - 1:
                assert dense_total_degrees(Ctil.reshape((1, n * n) + Da.shape))[0] == (n - 2) * p, (kv, a)
            else:
                assert not Ctil.any(), (kv, a)


@pytest.mark.parametrize("p,n", _slow_except_5_3(SWEEP_PAIRS))
def test_symbolic_curvature_matches_pointwise(p, n):
    """Each entry of tilde-C_a at the battery's points, in w, equals
    D_a(z) hat-C_a(z), built from the batched K_a products, for every kappa
    and a."""
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        Z = battery_points(params, 6, 1)
        for a in range(1, n + 1):
            Ctil, _ = curvature_symbolic(params, a)
            H = _reduce_batch(curvature_batch(params, a, Z), p)
            expect = ext_mul(_d_a_batch(params, Z)[a - 1, :, None, None], H, p)
            assert np.array_equal(_entry_values(Ctil, _w_points(Z, a, p), p), expect), (kv, a)


def _slow_above_7(pairs):
    return [(p, n) if p <= 7 else pytest.param(p, n, marks=pytest.mark.slow) for p, n in pairs]


@pytest.mark.parametrize("p,n", _slow_above_7(SWEEP_PAIRS))
def test_d_a_batch_matches_closed_form_array(p, n):
    """The pointwise D_a equals the dense closed form prod_j (w_j^p - w_j)
    evaluated at the w-coordinates, for every kappa and a, at the battery's
    points and at random points of F_{p^2}^n (F_p points and points on
    singular hyperplanes included)."""
    ctx = make_field(p)
    rng = np.random.default_rng(p * 10 + n)
    rand = rng.integers(0, p, size=(16, n, 2))
    rand[:4, :, 1] = 0
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        Z = np.concatenate([battery_points(params, 8, kv), rand])
        for a in range(1, n + 1):
            expect = dense_eval_points(d_a_closed_form(params, a), _w_points(Z, a, p), p)
            assert np.array_equal(_d_a_batch(params, Z)[a - 1], expect), (kv, a)


def test_d_a_batch_rejects_extension_kappa():
    pctx = make_field(5, 2)
    params = make_params(pctx, 3, pctx.element(1, 2))
    with pytest.raises(ValueError, match="F_p"):
        _d_a_batch(params, battery_points(params, 2, 0))


@pytest.mark.parametrize("p,n", [(5, 3), (7, 4)])
def test_symbolic_checks_fail_without_last_factor(p, n):
    """Negative control: the product in w with its last R-factor left out
    fails both the D_a closed form and the degree bound, for every kappa
    and a."""
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        for a in range(1, n + 1):
            factors = [f for m in range(p) for f in r_factors(params, a, m * kv)]
            Ctil, Da = _w_product(params, a, factors[:-1])
            assert not np.array_equal(Da, d_a_closed_form(params, a)), (kv, a)
            deg = dense_total_degrees(Ctil.reshape((1, n * n) + Ctil.shape[2:]))[0]
            assert deg > (n - 2) * p, (kv, a, deg)


@pytest.mark.parametrize("p,n", [(5, 4), (7, 4), (7, 5)])
def test_duality(p, n):
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        rep = _duality(params, 10, 2)
        assert rep.passed, (p, n, kv, rep.failures[:3])


def test_duality_negative_control():
    ctx = make_field(7)
    params = make_params(ctx, 4, 2)
    rep = _duality(params, 10, 2, flip_control=True)
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
