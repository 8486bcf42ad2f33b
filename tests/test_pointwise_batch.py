"""Differential tests of the batched F_{p^2} pointwise layer against a
scalar reference path on field-element matrices: the curvature as a
product of p matrices K_a evaluated from the sparse operator oracle, with
determinants and ranks from the scalar elimination oracle.  The curvature
battery's solution checks as a per-point loop on those ranks, and
``kernel_image_ranks`` on the same scalar path, are the oracles for the
batched ranks."""

import functools
import random

import numpy as np
import pytest

from charp_qkz import linalg
from charp_qkz.ffield import FieldElement, elements, make_field, sample_point
from charp_qkz.hypergeo import extract_solutions
from charp_qkz.linalg import ext_det_batch
from charp_qkz.pcurvature import (
    _nonsingular_points,
    _reduce_batch,
    _singular_mask,
    battery_points,
    curvature_at,
    curvature_batch,
    curvature_stack,
    kernel_image_ranks,
    reduced_curvature_at,
    verify_curvature_battery,
    verify_ext_kappa,
)
from charp_qkz.qkz_core import SingularPointError, _factor_order, make_params
from oracles import linalg as scalar_linalg
from oracles.operators import k_operator, singular_basis
from oracles.solutions import evaluate_solutions

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


_k_operator = functools.cache(k_operator)


def scalar_k_at(params, a, z):
    """K_a(z) from the sparse operator oracle; SingularPointError where an
    R-factor has a pole (u = 1) or degenerates (u = -1)."""
    for j in _factor_order(params.n, a):
        u = z[a - 1] - z[j - 1] - (params.kappa if j < a else 0)
        if u == 1 or u == -1:
            raise SingularPointError(f"u = {u} for the R-factor (a={a}, j={j})")
    return _k_operator(params, a).eval_at(z)


def scalar_curvature_at(params, a, z):
    """C_a(z) as the ordered product of the p scalar matrices K_a(z - m kappa e_a)."""
    n = params.n
    pctx = z[0].ctx
    C = None
    pt = list(z)
    for _ in range(params.p):
        K = scalar_k_at(params, a, pt)
        if C is None:
            C = K
        else:
            C = [
                [sum((K[i][l] * C[l][j] for l in range(n)), pctx.zero()) for j in range(n)]
                for i in range(n)
            ]
        pt[a - 1] = pt[a - 1] - FieldElement(pctx, params.kappa.val)
    return C


def scalar_reduced_curvature_at(params, a, z):
    """hat-C_a(z) = C_a(z) - Id on the scalar path."""
    C = scalar_curvature_at(params, a, z)
    one = z[0].ctx.element(1)
    for i in range(len(C)):
        C[i][i] = C[i][i] - one
    return C


def scalar_kernel_image_ranks(params, z):
    """kernel_image_ranks on the scalar path: images of the zero-sum basis
    under scalar hat-C_a, ranks by the scalar elimination."""
    n = params.n
    pctx = z[0].ctx
    basis = singular_basis(pctx, n)
    out = {}
    all_images = []
    for a in range(1, n + 1):
        H = scalar_reduced_curvature_at(params, a, z)
        images = [
            [sum((H[r][c] * e[c] for c in range(n)), pctx.zero()) for r in range(n)]
            for e in basis
        ]
        rk = scalar_linalg.rank(images, pctx)
        out[a] = {"rank": rk, "kernel_dim": (n - 1) - rk}
        all_images.extend(images)
    out["sum_image_dim"] = scalar_linalg.rank(all_images, pctx)
    return out


def scalar_battery_span_checks(params, npoints, seed, perturb=False):
    """The battery's solution checks as a per-point loop on field elements
    (the fixed-solution test, then rank bound and image-in-span at every
    point): (failures, per-axis ranks, details)."""
    n, p, d = params.n, params.p, params.d
    pctx = make_field(p, 2)
    delta = pctx.nonresidue
    Z = battery_points(params, npoints, seed)
    H = {a: _reduce_batch(curvature_batch(params, a, Z), p) for a in range(1, n + 1)}
    S = evaluate_solutions(extract_solutions(params).arrays, Z, p)
    if perturb:
        S[0, :, 0, 0] = (S[0, :, 0, 0] + 1) % p
    failures, ranks = [], {a: [] for a in range(1, n + 1)}
    for a in range(1, n + 1):
        for s_idx in range(d):
            v = S[s_idx]
            a0, a1 = H[a][..., 0], H[a][..., 1]
            b0, b1 = v[..., 0], v[..., 1]
            r0 = (np.einsum("mij,mj->mi", a0, b0) + delta * np.einsum("mij,mj->mi", a1, b1)) % p
            r1 = (np.einsum("mij,mj->mi", a0, b1) + np.einsum("mij,mj->mi", a1, b0)) % p
            if np.any(r0) or np.any(r1):
                failures.append(("solution not fixed", a, s_idx + 1))
    span_dims, sum_image_dims = [], []
    basis = singular_basis(pctx, n)
    for i in range(npoints):
        span = elements(S[:, i], pctx)
        span_rank = scalar_linalg.rank(span, pctx)
        span_dims.append(span_rank)
        all_images = []
        for a in range(1, n + 1):
            Ha = elements(H[a][i], pctx)
            images = [
                [sum((Ha[r][c] * e[c] for c in range(n)), pctx.zero()) for r in range(n)]
                for e in basis
            ]
            all_images.extend(images)
            rk = scalar_linalg.rank(images, pctx)
            if rk > d:
                failures.append(("rank bound", a, i, rk))
            if scalar_linalg.rank(span + images, pctx) != span_rank:
                failures.append(("image not in span", a, i))
            ranks[a].append(rk)
        sum_image_dims.append(scalar_linalg.rank(all_images, pctx))
    details = {"span_dim": sorted(set(span_dims)), "sum_image_dim": sorted(set(sum_image_dims))}
    return failures, ranks, details


SPAN_CHECKS = ("solution not fixed", "rank bound", "image not in span")
STRICT = [
    (p, n, kv)
    for p in (5, 7, 11, 13)
    for n in range(3, 6)
    if n < p
    for kv in range(1, p)
    if 0 < make_params(make_field(p), n, kv).d < n - 1
]


@pytest.mark.parametrize("p,n,kv", STRICT)
def test_battery_matches_per_point_loop(p, n, kv):
    """The batched span, image and sum ranks give the battery report and
    kernel_image_ranks of the per-point loop, on every triple with
    0 < d < n-1, and under the perturbed-solution control."""
    params = make_params(make_field(p), n, kv)
    Z = battery_points(params, 10, kv)
    C = curvature_stack(params, Z)
    for perturb in (False, True):
        rep = verify_curvature_battery(params, Z, C, perturb_control=perturb)
        failures, ranks, details = scalar_battery_span_checks(params, 10, kv, perturb)
        assert [f for f in rep.failures if f[0] in SPAN_CHECKS] == failures
        per_axis = rep.details["per_axis"]
        assert {a: v["ranks"] for a, v in per_axis.items()} == ranks
        assert rep.details == {"per_axis": per_axis, "points": 10, **details}
        assert rep.passed != perturb
    pctx = make_field(p, 2)
    z = sample_point(pctx, n, kv)
    assert kernel_image_ranks(params, z) == scalar_kernel_image_ranks(params, elements(z, pctx))


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
        z = elements(sample_point(pctx, n, seed * 65537 + attempt), pctx)
        attempt += 1
        try:
            mats = {a: scalar_reduced_curvature_at(params, a, z) for a in range(1, n + 1)}
        except SingularPointError:
            continue
        good += 1
        for a in range(1, n + 1):
            dv = scalar_linalg.det(_scalar_restrict_to_v(mats[a], pctx), pctx)
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
    Z = np.stack([sample_point(pctx, n, 65537 + t) for t in range(60)])
    expected = []
    for z in elements(Z, pctx):
        try:
            for a in range(1, n + 1):
                scalar_reduced_curvature_at(params, a, z)
            expected.append(False)
        except SingularPointError:
            expected.append(True)
    mask = _singular_mask(params, Z)
    assert 0 < sum(expected) < len(Z)
    assert mask.tolist() == expected
    kept = _nonsingular_points(params, 10, 1)
    assert kept.tolist() == [z for z, bad in zip(Z.tolist(), expected) if not bad][:10]


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
    deficient[:, -1] = linalg.ext_mul(coef, deficient[:, :-1], p).sum(axis=1) % p
    sparse = _random_stack(rng, p, 12, k) * (rng.random((12, k, k, 1)) < 0.3)
    zero = np.zeros((3, k, k, 2), dtype=np.int64)
    for M in (rand, deficient, sparse, zero):
        got = ext_det_batch(M, p)
        for i in range(M.shape[0]):
            assert elements(got[i], pctx) == scalar_linalg.det(elements(M[i], pctx), pctx)
    assert not ext_det_batch(deficient, p).any()
    assert not ext_det_batch(zero, p).any()


@pytest.mark.parametrize("p,n", [(5, 3), (7, 4), (11, 3), (13, 5)])
def test_stacked_curvature_batch_matches_curvature_at(p, n):
    pctx = make_field(p, 2)
    cases = [make_params(make_field(p), n, kv) for kv in (1, p - 2)]
    cases += [make_params(pctx, n, kap) for kap in _ext_kappas(p, 1, p + n)]
    for params in cases:
        Z = _nonsingular_points(params, 3, 5)
        for a in range(1, n + 1):
            batch = curvature_batch(params, a, Z)
            for idx, z in enumerate(Z):
                zs = elements(z, pctx)
                C = scalar_curvature_at(params, a, zs)
                assert elements(batch[idx], pctx) == C
                assert curvature_at(params, a, z) == C
                assert reduced_curvature_at(params, a, z) == scalar_reduced_curvature_at(params, a, zs)


def test_curvature_batch_raises_on_singular_shift():
    p, n = 5, 4
    pctx = make_field(p, 2)
    params = make_params(pctx, n, pctx.element(2, 3))
    Z = np.stack([sample_point(pctx, n, 65537 + t) for t in range(60)])
    mask = _singular_mask(params, Z)
    with pytest.raises(SingularPointError):
        for a in range(1, n + 1):
            curvature_batch(params, a, Z[mask])
