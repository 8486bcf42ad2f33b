"""Differential tests of the batched F_{p^2} pointwise layer against the
scalar reference path (``reduced_curvature_at`` / ``curvature_at`` and
``linalg.det`` on field-element matrices)."""

import random

import numpy as np
import pytest

from charp_qkz import linalg
from charp_qkz.ffield import FieldElement, make_field, sample_point
from charp_qkz.linalg import ext_det_batch
from charp_qkz.pcurvature import (
    _nonsingular_points,
    _singular_mask,
    curvature_at,
    curvature_batch,
    reduced_curvature_at,
    verify_ext_kappa,
)
from charp_qkz.qkz_core import SingularPointError, make_params, points_to_array

PN = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 6) if n < p]


def _ext_kappas(p, count, seed):
    rng = random.Random(seed)
    ctx = make_field(p, 2)
    out = []
    while len(out) < count:
        kap = ctx.element(rng.randrange(p), rng.randrange(1, p))
        if kap not in out:
            out.append(kap)
    return out


def _elem(pctx, pair):
    return FieldElement(pctx, int(pair[0]) + int(pair[1]) * pctx.p)


def _scalar_restrict_to_v(M, pctx):
    """hat-C_a on the zero-sum space in the basis e_i = v^(i) - v^(i+1)."""
    n = len(M)
    cols = []
    for i in range(n - 1):
        w = [M[r][i] - M[r][i + 1] for r in range(n)]
        acc, col = pctx.zero(), []
        for r in range(n - 1):
            acc = acc + w[r]
            col.append(acc)
        cols.append(col)
    return [[cols[i][r] for i in range(n - 1)] for r in range(n - 1)]


def _scalar_ext_kappa(params, npoints, seed):
    """(failures, details) of the nondegeneracy check on the scalar path."""
    n, pctx = params.n, params.ctx
    failures, dets = [], {a: [] for a in range(1, n + 1)}
    good = attempt = 0
    while good < npoints and attempt < npoints * 40:
        z = sample_point(pctx, n, seed * 65537 + attempt)
        attempt += 1
        try:
            mats = {a: reduced_curvature_at(params, a, z) for a in range(1, n + 1)}
        except SingularPointError:
            continue
        good += 1
        for a in range(1, n + 1):
            dv = linalg.det(_scalar_restrict_to_v(mats[a], pctx), pctx)
            dets[a].append(dv)
            if not dv:
                failures.append(("degenerate hatC", a, [str(x) for x in z]))
    if good < npoints:
        failures.append(("insufficient nonsingular points", good))
    details = {"points": good, "sample_dets": {a: str(dets[a][0]) for a in dets if dets[a]}}
    return failures, details


@pytest.mark.parametrize("p,n", PN)
def test_ext_kappa_matches_scalar_reference(p, n):
    for i, kap in enumerate(_ext_kappas(p, 2, p * 10 + n)):
        params = make_params(make_field(p, 2), n, kap)
        rep = verify_ext_kappa(params, npoints=4, seed=i + 1)
        failures, details = _scalar_ext_kappa(params, 4, i + 1)
        assert (rep.failures, rep.details) == (failures, details)
        assert rep.passed == (not failures)


def test_singular_mask_matches_scalar_loop():
    p, n = 5, 4
    pctx = make_field(p, 2)
    params = make_params(pctx, n, pctx.element(2, 3))
    pts = [sample_point(pctx, n, 65537 + t) for t in range(60)]
    expected = []
    for z in pts:
        try:
            for a in range(1, n + 1):
                reduced_curvature_at(params, a, z)
            expected.append(False)
        except SingularPointError:
            expected.append(True)
    mask = _singular_mask(params, points_to_array(pts, pctx), p)
    assert 0 < sum(expected) < len(pts)
    assert mask.tolist() == expected
    kept = _nonsingular_points(params, 10, 1, pctx)
    assert kept == [z for z, bad in zip(pts, expected) if not bad][:10]


def _random_stack(rng, p, npts, k):
    return rng.integers(0, p, size=(npts, k, k, 2), dtype=np.int64)


@pytest.mark.parametrize("p", [5, 7, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_det_batch_matches_scalar_det(p, k):
    pctx = make_field(p, 2)
    rng = np.random.default_rng(p * 100 + k)
    rand = _random_stack(rng, p, 12, k)
    # rank-deficient: last row a combination of the others (or zero for k=1);
    # sparse: most entries zero, so pivots move between rows
    deficient = _random_stack(rng, p, 12, k)
    coef = rng.integers(0, p, size=(12, k - 1, 1, 2), dtype=np.int64)
    deficient[:, -1] = linalg.ext_mul(coef, deficient[:, :-1], p, pctx.nonresidue).sum(axis=1) % p
    sparse = _random_stack(rng, p, 12, k) * (rng.random((12, k, k, 1)) < 0.3)
    zero = np.zeros((3, k, k, 2), dtype=np.int64)
    for M in (rand, deficient, sparse, zero):
        got = ext_det_batch(M, pctx)
        for i in range(M.shape[0]):
            rows = [[_elem(pctx, M[i, r, c]) for c in range(k)] for r in range(k)]
            assert _elem(pctx, got[i]) == linalg.det(rows, pctx)
    assert not ext_det_batch(deficient, pctx).any()
    assert not ext_det_batch(zero, pctx).any()


@pytest.mark.parametrize("p,n", [(5, 3), (7, 4), (11, 3), (13, 5)])
def test_stacked_curvature_batch_matches_curvature_at(p, n):
    pctx = make_field(p, 2)
    cases = [make_params(make_field(p), n, kv) for kv in (1, p - 2)]
    cases += [make_params(pctx, n, kap) for kap in _ext_kappas(p, 1, p + n)]
    for params in cases:
        pts = _nonsingular_points(params, 3, 5, pctx)
        Z = points_to_array(pts, pctx)
        for a in range(1, n + 1):
            batch = curvature_batch(params, a, Z, pctx)
            for idx, z in enumerate(pts):
                C = curvature_at(params, a, z)
                assert [[_elem(pctx, x) for x in row] for row in batch[idx]] == C


def test_curvature_batch_raises_on_singular_shift():
    p, n = 5, 4
    pctx = make_field(p, 2)
    params = make_params(pctx, n, pctx.element(2, 3))
    pts = [sample_point(pctx, n, 65537 + t) for t in range(60)]
    Z = points_to_array(pts, pctx)
    mask = _singular_mask(params, Z, p)
    with pytest.raises(SingularPointError):
        for a in range(1, n + 1):
            curvature_batch(params, a, Z[mask], pctx)
