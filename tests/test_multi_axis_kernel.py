"""The R-factor kernel with one axis per point (``qkz_core.k_product_batch``,
and through it ``k_matrix_batch`` and ``curvature_batch``) against the
per-axis paths it must agree with: the whole-matrix rescaling kernel
(``oracles.kmatrix``) for one shift and the pairwise K tree
(``oracles.curvature``) for p shifts, on batches that mix every axis; the
``SingularPointError`` of the one-axis call when one point is singular for
its axis; the kernel's per-(factor, point) singular test against a
brute-force search over the shifts and against the n(n-1) loop of the mask
it replaced; ``verify_flatness`` against the pair-by-pair loop; and the
int32 bound of the kernel and the int16 bound of the symbolic stacks at the
largest prime."""

import random

import numpy as np
import pytest

from charp_qkz import linalg, pcurvature, qkz_core
from charp_qkz.ffield import MAX_PRIME, make_field, sample_points
from charp_qkz.linalg import stack_groups
from charp_qkz.pcurvature import curvature_batch
from charp_qkz.qkz_core import (
    SingularPointError,
    _factor_order,
    _int32_bound,
    every_axis,
    k_matrix_batch,
    k_product_batch,
    make_params,
    singular_factors,
    verify_flatness,
)
from oracles import symbolic
from oracles.curvature import curvature_batch as tree_curvature_batch
from oracles.curvature import nonsingular_points, singular_mask
from oracles.kmatrix import k_matrix_batch as rescaling_k_matrix_batch
from oracles.kmatrix import verify_flatness as pairwise_verify_flatness

PN = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 6) if n < p]


def _cases(p, n, ext):
    """Params for kappa in {1, p - 1} and ``ext`` seeded kappas outside F_p."""
    ctx, pctx = make_field(p), make_field(p, 2)
    rng = random.Random(p * 10 + n)
    out = [make_params(ctx, n, kv) for kv in (1, p - 1)]
    while len(out) < 2 + ext:
        kap = pctx.element(rng.randrange(p), rng.randrange(1, p))
        if all(kap != q.kappa for q in out):
            out.append(make_params(pctx, n, kap))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularPointError as exc:
        return f"SingularPointError: {exc}"


def _mixed_batch(params, npts, seed):
    """``npts`` points nonsingular for every C_a (so for every K_a too), each
    with its own random axis."""
    Z = nonsingular_points(params, npts, seed)
    assert len(Z) == npts
    axes = np.random.default_rng(seed).integers(1, params.n + 1, size=npts)
    return axes, Z


def _assert_matches_per_axis(params, axes, Z):
    p = params.p
    for shifts, oracle in ((1, rescaling_k_matrix_batch), (p, tree_curvature_batch)):
        got = k_product_batch(params, axes, Z, shifts)
        assert got.shape == Z.shape[:1] + (params.n, params.n, 2)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        for a in range(1, params.n + 1):
            at = axes == a
            if at.any():
                np.testing.assert_array_equal(got[at], oracle(params, a, Z[at]))


@pytest.mark.parametrize("p,n", PN)
def test_mixed_axes_match_the_per_axis_oracles(p, n):
    for i, params in enumerate(_cases(p, n, ext=1)):
        axes, Z = _mixed_batch(params, 9, p * n + i)
        _assert_matches_per_axis(params, axes, Z)
        # the named views, and every axis over one batch
        np.testing.assert_array_equal(k_matrix_batch(params, axes, Z), k_product_batch(params, axes, Z, 1))
        np.testing.assert_array_equal(curvature_batch(params, axes, Z), k_product_batch(params, axes, Z, p))
        C = curvature_batch(params, *every_axis(n, Z)).reshape((n,) + (len(Z), n, n, 2))
        for a in range(1, n + 1):
            np.testing.assert_array_equal(C[a - 1], curvature_batch(params, a, Z))


@pytest.mark.slow
@pytest.mark.parametrize("p,n", PN)
def test_mixed_axes_match_the_per_axis_oracles_every_kappa(p, n):
    cases = [make_params(make_field(p), n, kv) for kv in range(1, p)] + _cases(p, n, ext=3)[2:]
    for i, params in enumerate(cases):
        axes, Z = _mixed_batch(params, 23, p * n * 7 + i)
        _assert_matches_per_axis(params, axes, Z)


def _with_singular_first_factor(params, a, z, e):
    """z moved so that u = z_a - z_j (- kappa if j < a) = e at shift 0 for
    the first R-factor j of K_a: a pole for e = 1, a degeneracy for e = -1."""
    j = _factor_order(params.n, a)[0]
    z = z.copy()
    z[j - 1] = (z[a - 1] - (params.kappa_pair if j < a else 0) - [e, 0]) % params.p
    return z


@pytest.mark.parametrize("p,n", PN)
def test_a_point_singular_for_its_axis_raises_the_one_axis_error(p, n):
    """Inserted into a batch that mixes the axes, a point singular for its
    own axis a raises what the one-axis call on the points of a raises,
    and what the per-axis oracle raises."""
    rng = random.Random(p * 100 + n)
    for i, params in enumerate(_cases(p, n, ext=1)):
        axes, Z = _mixed_batch(params, 8, p + n + i)
        for a in range(1, n + 1):
            for e in (1, -1):
                bad = _with_singular_first_factor(params, a, Z[rng.randrange(len(Z))], e)
                at = rng.randrange(len(Z) + 1)
                Zs, axs = np.insert(Z, at, bad, axis=0), np.insert(axes, at, a)
                for shifts, oracle in ((1, rescaling_k_matrix_batch), (p, tree_curvature_batch)):
                    got = _outcome(k_product_batch, params, axs, Zs, shifts)
                    one_axis = _outcome(k_product_batch, params, a, Zs[axs == a], shifts)
                    assert got.startswith("SingularPointError") and f"(a={a}, " in got
                    assert got == one_axis == _outcome(oracle, params, a, Zs[axs == a])


def _brute_first_singular(params, a, z, shifts):
    """The first singular R-factor of K_a's s-shift product at one point,
    coded as ``qkz_core.singular_factors`` codes it, by trying every shift."""
    p, pctx = params.p, make_field(params.p, 2)
    kap = pctx.element(params.kappa.a0, params.kappa.a1)
    zs = [pctx.element(int(x0), int(x1)) for x0, x1 in z]
    for f, j in enumerate(_factor_order(params.n, a)):
        us = [zs[a - 1] - zs[j - 1] - (kap if j < a else 0) - m * kap for m in range(shifts)]
        if any(u == 1 for u in us):
            return 2 * f
        if any(u == p - 1 for u in us):
            return 2 * f + 1
    return -1


@pytest.mark.parametrize("p", [5, 7, 11])
def test_singular_factors_match_a_search_over_the_shifts(p):
    """Random points (many on some hyperplane), every shift count the
    kernels use and one between."""
    rng = np.random.default_rng(p)
    for n in range(2, min(p, 5)):
        for params in _cases(p, n, ext=2):
            Z = rng.integers(0, p, size=(40, n, 2))
            Z[::3, :, 1] = rng.integers(0, p)  # every z_i - z_j in F_p
            axes = rng.integers(1, n + 1, size=len(Z))
            for shifts in (1, 3, p):
                codes = singular_factors(params, axes, Z, shifts)
                want = [_brute_first_singular(params, int(a), z, shifts) for a, z in zip(axes, Z)]
                assert codes.tolist() == want
                assert any(c >= 0 for c in want) and any(c < 0 for c in want)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_singular_mask_matches_the_loop_over_factors(p):
    rng = np.random.default_rng(p * 3)
    for n in range(2, min(p, 6)):
        for params in _cases(p, n, ext=3):
            Z = np.concatenate([rng.integers(0, p, size=(60, n, 2)), sample_points(make_field(p, 2), n, range(60))])
            got = pcurvature._singular_mask(params, Z)
            want = singular_mask(params, Z)
            assert got.dtype == bool and got.tolist() == want.tolist()
            assert want.any()


def _report(fn, params, Z, control):
    rep = _outcome(fn, params, Z, control)
    return rep if isinstance(rep, str) else (rep.passed, rep.failures, rep.details)


@pytest.mark.parametrize("p,n", [(5, 3), (7, 4), (11, 5)])
def test_flatness_matches_the_pairwise_loop(p, n):
    """Outside F_p many sample points are singular for some K_a(z): both
    checks raise the same error there and agree elsewhere, with and without
    the control.  The pairwise loop never skips a pair, since a shifted
    factor is singular only where a factor of some K_b(z) is."""
    pctx = make_field(p, 2)
    raised = checked = 0
    for params in _cases(p, n, ext=3):
        for control in (False, True):
            for seed in range(12):
                Z = sample_points(pctx, n, range(seed * 100, seed * 100 + 6))
                if seed % 3 == 0:
                    Z[:, :, 1] = Z[0, 0, 1]  # every z_i - z_j in F_p
                got = _report(verify_flatness, params, Z, control)
                assert got == _report(pairwise_verify_flatness, params, Z, control)
                if isinstance(got, str):
                    raised += 1
                else:
                    assert got[2]["skipped"] == [] and got[0] != control
                    checked += 1
    assert raised and checked


def test_int32_bound_holds_at_the_largest_prime():
    """The running matrix stays in int32 for every n < p <= MAX_PRIME and
    every shift count up to p; at p = MAX_PRIME the kernel agrees with the
    int64 oracles on batches mixing every axis."""
    p = MAX_PRIME
    assert _int32_bound(p, p - 1, p) < 1 << 31
    assert all(_int32_bound(q, q - 1, q) < _int32_bound(p, p - 1, p) for q in (3, 5, 13, 97))
    for n in (3, 6):
        for i, params in enumerate(_cases(p, n, ext=1)):
            axes, Z = _mixed_batch(params, 4, n + i)
            _assert_matches_per_axis(params, axes, Z)


def test_int16_bound_holds_at_the_largest_prime():
    """The symbolic stacks stay in int16 at p = MAX_PRIME: p^2 + p < 2^15,
    and at the extremes of the bound in ``_lin_mul``'s docstring (stacks of
    all p - 1; cc = p, cc = p - 1 with ``sub``, cc = 0 on two axes; the KZ
    stacks, with entries -(p - 1) and (p - 1)^2) it equals the int64
    product mod p."""
    p = MAX_PRIME
    assert p * p + p < 1 << 15
    X = np.full((2, 4, 3, 5), p - 1, dtype=np.int16)
    kz = np.random.default_rng(p).choice([1 - p, (p - 1) ** 2], size=X.shape).astype(np.int16)
    cases = [
        (X, (-2,), p, None),
        (X, (-3, -1), p, None),
        (X, (-3, -1), p - 1, X),
        (X, (-3, -1), 0, None),
        (kz, (-3, -1), 0, None),
        (kz, (-3, -1), 0, X),
        (kz, (-1, -2), 0, -X),
    ]
    for Y, axes, cc, sub in cases:
        expect = symbolic._lin_mul(Y.astype(np.int64), axes, cc) - (0 if sub is None else sub)
        got = qkz_core._lin_mul(Y, axes, cc, p, sub)
        assert got.dtype == np.int16 and np.array_equal(got, expect % p), (axes, cc)


def test_stack_groups_cover_the_items_within_the_budget():
    assert stack_groups(5, 0) == [slice(0, 5)]
    assert stack_groups(5, linalg._STACK_ENTRIES) == [slice(i, i + 1) for i in range(5)]
    assert stack_groups(7, linalg._STACK_ENTRIES // 3) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert stack_groups(0, 10) == []


@pytest.mark.parametrize("budget", [1, 3000])
def test_stacked_work_in_groups_gives_the_same_reports(budget, monkeypatch):
    """With a budget that splits the stacked axes and pairs into groups (one
    item each, or a few), the flatness, battery and duality reports are
    byte-identical, the controls included."""
    import contextlib
    import io

    from charp_qkz import cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    argvs = [
        ["verify", "--p", "7", "--n", "3", "--n", "4", "--suites", "rmatrix", "curvature", "--points", "6"]
        + ["--seed", "2", "--format", "json"] + extra
        for extra in ([], ["--sabotage"])
    ]
    expected = [run(argv) for argv in argvs]
    monkeypatch.setattr(linalg, "_STACK_ENTRIES", budget)
    calls = []
    real = pcurvature.curvature_batch
    monkeypatch.setattr(pcurvature, "curvature_batch", lambda *args: calls.append(1) or real(*args))
    assert [run(argv) for argv in argvs] == expected
    assert len(calls) > 2 * 2 * 6  # more than one call per kappa
