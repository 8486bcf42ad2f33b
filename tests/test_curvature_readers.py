"""The readers of the curvature stack against the per-axis oracle.

``pcurvature.curvature_stack`` holds hat-C_a = C_a - Id, and the battery
and the duality check read it as whole (n, npts, ...) stacks.  They are
compared with the per-axis checks of ``oracles.curvature``, which read a
stack of C_a built slot by slot, on every kappa at p in {5, 7, 11, 13},
n <= 5: their reports (passed, failures in order, details) agree with and
without the negative controls, and on stacks with corrupted slots, which
make every kind of failure appear at several points and axes."""

import numpy as np
import pytest

from charp_qkz.ffield import make_field
from charp_qkz.linalg import mod
from charp_qkz.pcurvature import (
    _reduce_batch,
    battery_points,
    curvature_batch,
    curvature_stack,
    verify_curvature_battery,
    verify_duality,
)
from charp_qkz.qkz_core import kappa_shifts, make_params
from oracles import curvature as oracle

PN = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 6) if n < p]
TIER1 = {(5, 2), (5, 3), (5, 4), (7, 3), (11, 5)}


def _tier1_subset(pairs):
    return [(p, n) if (p, n) in TIER1 else pytest.param(p, n, marks=pytest.mark.slow) for p, n in pairs]


def _plus_id(H, p):
    """C_a = hat-C_a + Id for a stack of hat-C_a, as int64."""
    n = H.shape[-2]
    C = H.astype(np.int64)
    C[..., range(n), range(n), 0] = (C[..., range(n), range(n), 0] + 1) % p
    return C


def _corrupted(H, p, rng):
    """A copy of a hat-C_a stack with random matrices in some slots of Z, of
    the shifted sets and of -Z, and one slot of Z set to zero."""
    n, _, npts = H.shape[:3]
    H = H.copy()
    for s in (0, 1, n):
        for a, i in zip(rng.integers(0, n, 3), rng.integers(0, npts, 3)):
            H[a, s, i] = rng.integers(0, p, H.shape[3:], dtype=H.dtype)
    H[rng.integers(0, n), 0, rng.integers(0, npts)] = 0
    return H


def _report(rep):
    return rep.passed, repr(rep.failures), rep.details


@pytest.mark.parametrize("p,n", _tier1_subset(PN))
def test_stack_slots_hold_reduced_curvature(p, n):
    """Slot [a-1, s] of the stack is hat-C_a on its point set: Z, then
    Z - kappa e_b for b != a in increasing order, then -Z."""
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        Z = battery_points(params, 6, kv)
        H = curvature_stack(params, Z)
        assert H.shape == (n, n + 1, len(Z), n, n, 2) and H.dtype == np.min_scalar_type(p - 1)
        shifted = kappa_shifts(params, Z)
        for a in range(1, n + 1):
            sets = [Z, *(shifted[b - 1] for b in range(1, n + 1) if b != a), mod(-Z, p)]
            for s, S in enumerate(sets):
                assert np.array_equal(H[a - 1, s], _reduce_batch(curvature_batch(params, a, S), p)), (kv, a, s)


@pytest.mark.parametrize("p,n", _tier1_subset(PN))
def test_readers_match_per_axis_oracle(p, n):
    ctx = make_field(p)
    rng = np.random.default_rng(p * 10 + n)
    for kv in range(1, p):
        params, pm = make_params(ctx, n, kv), make_params(ctx, n, p - kv)
        Z = battery_points(params, 8, kv)
        H, H_minus = curvature_stack(params, Z), curvature_stack(pm, Z)
        C, C_minus = oracle.curvature_stack(params, Z), oracle.curvature_stack(pm, Z)
        assert np.array_equal(_plus_id(H, p), C) and np.array_equal(_plus_id(H_minus, p), C_minus), kv
        bad, bad_minus = _corrupted(H, p, rng), _corrupted(H_minus, p, rng)
        for h, hm, c, cm in ((H, H_minus, C, C_minus), (bad, bad_minus, _plus_id(bad, p), _plus_id(bad_minus, p))):
            for control in (False, True):
                got = verify_curvature_battery(params, Z, h, perturb_control=control)
                want = oracle.verify_curvature_battery(params, Z, c, perturb_control=control)
                assert _report(got) == _report(want), (kv, control)
                got = verify_duality(params, Z, h, hm, flip_control=control)
                want = oracle.verify_duality(params, Z, c, cm, flip_control=control)
                assert _report(got) == _report(want), (kv, control)
