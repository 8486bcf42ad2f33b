"""Differential test of the two-row-update ``qkz_core.k_matrix_batch``
against the whole-matrix rescaling kernel it replaced (``oracles.kmatrix``):
equal arrays on nonsingular batches, and equal ``SingularPointError``
messages on points whose coordinate differences lie in F_p."""

import random

import numpy as np
import pytest

from charp_qkz.ffield import make_field, sample_point
from charp_qkz.qkz_core import SingularPointError, k_matrix_batch, make_params
from oracles.kmatrix import k_matrix_batch as rescaling_k_matrix_batch

PN = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 6) if n < p]


def _all_params(p, n):
    """Every prime-field kappa, and two kappas outside F_p."""
    ctx, pctx = make_field(p), make_field(p, 2)
    out = [make_params(ctx, n, kv) for kv in range(1, p)]
    out += [make_params(pctx, n, pctx.element(kv, 1 + kv % (p - 1))) for kv in (1, p - 2)]
    return out


def _outcome(kernel, params, a, Z):
    try:
        return kernel(params, a, Z)
    except SingularPointError as exc:
        return f"SingularPointError: {exc}"


def _assert_same(params, a, Z):
    got = _outcome(k_matrix_batch, params, a, Z)
    want = _outcome(rescaling_k_matrix_batch, params, a, Z)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return want
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    return None


def _sweep(p, n, batches, singles, seed):
    """Compare the kernels on ``batches`` nonsingular batches and ``singles``
    single points with all z_i - z_j in F_p, for every kappa and every a.
    Returns the error messages seen."""
    rng = random.Random(seed)
    pctx = make_field(p, 2)
    messages = set()
    for params in _all_params(p, n):
        for a in range(1, n + 1):
            for _ in range(batches):
                npts = rng.randrange(1, 17)
                Z = np.stack([sample_point(pctx, n, rng.randrange(1 << 30)) for _ in range(npts)])
                messages.add(_assert_same(params, a, Z))
            for _ in range(singles):
                Z = np.zeros((1, n, 2), dtype=np.int64)
                Z[0, :, 0] = [rng.randrange(p) for _ in range(n)]
                Z[0, :, 1] = rng.randrange(p)
                messages.add(_assert_same(params, a, Z))
    return messages - {None}


@pytest.mark.parametrize("p,n", PN)
def test_k_matrix_batch_matches_rescaling_kernel(p, n):
    messages = _sweep(p, n, batches=2, singles=6, seed=p * 100 + n)
    assert any(m.startswith("SingularPointError: pole") for m in messages)


@pytest.mark.slow
@pytest.mark.parametrize("p,n", PN)
def test_k_matrix_batch_matches_rescaling_kernel_exhaustive(p, n):
    messages = _sweep(p, n, batches=40, singles=120, seed=p * 1000 + n)
    assert any(m.startswith("SingularPointError: pole") for m in messages)
    assert any(m.startswith("SingularPointError: degenerate") for m in messages)


def test_k_matrix_batch_degenerate_message():
    """A point on u = -1 of the first factor and nowhere on u = 1 raises the
    degenerate message of the replaced kernel."""
    p, n = 7, 3
    params = make_params(make_field(p), n, 2)
    # a = 1, factors j = 2, 3 with u = z_1 - z_j: z_1 - z_2 = -1, z_1 - z_3 = 3
    Z = np.array([[[0, 0], [1, 0], [4, 0]]], dtype=np.int64)
    assert _assert_same(params, 1, Z) == "SingularPointError: degenerate R-factor (a=1, j=2) in the batch"
