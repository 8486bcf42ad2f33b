"""dense_conv against slice accumulation on both sides of its FFT switch,
and its a-priori rounding bound over the default sweep."""

import numpy as np
import pytest

from charp_qkz.cli import DEFAULT_N_RANGE, DEFAULT_PRIMES
from charp_qkz.dense import dense_conv, fft_error_bound


def _slice_accumulation(A, B, p):
    out = np.zeros(tuple(a + b - 1 for a, b in zip(A.shape, B.shape)), dtype=np.int64)
    for idx in np.ndindex(A.shape):
        out[tuple(slice(i, i + s) for i, s in zip(idx, B.shape))] += int(A[idx] % p) * (B % p)
    return out % p


@pytest.fixture
def fft_calls(monkeypatch):
    calls = []
    real = np.fft.rfftn

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", spy)
    return calls


@pytest.mark.parametrize(
    "shape_a,shape_b,uses_fft",
    [
        ((3, 4), (5, 2), False),
        ((1,), (7,), False),
        ((5, 5, 5), (4, 6, 3), False),
        ((40, 40, 3), (40, 40, 3), True),
        ((6,) * 5, (5,) * 5, True),
        ((3000,), (20000,), True),
    ],
)
def test_dense_conv_matches_slice_accumulation(shape_a, shape_b, uses_fft, fft_calls):
    p = 13
    rng = np.random.default_rng(len(shape_a) * 1000 + shape_b[0])
    A = rng.integers(-2 * p, 2 * p, size=shape_a)
    B = rng.integers(-2 * p, 2 * p, size=shape_b)
    got = dense_conv(A, B, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, _slice_accumulation(A, B, p))
    assert bool(fft_calls) == uses_fft


def test_dense_conv_accumulates_when_bound_fails(fft_calls):
    """With entries near 10^6 the rounding bound exceeds 1/2, so the large
    product is accumulated instead of transformed."""
    p = 1_000_003
    rng = np.random.default_rng(5)
    A = rng.integers(0, p, size=(40, 40, 3))
    B = rng.integers(0, p, size=(40, 40, 3))
    assert fft_error_bound(A, B) >= 0.5
    assert np.array_equal(dense_conv(A, B, p), _slice_accumulation(A, B, p))
    assert not fft_calls


def test_fft_error_bound_below_half_on_default_sweep():
    """The orthogonality pairing convolves arrays of shapes (k+1)^n and
    (p-k+1)^n; with every entry p - 1 the bound is largest, and it stays
    below 1/2 at every (p, n, k) of the default sweep."""
    worst = 0.0
    for p in DEFAULT_PRIMES:
        for n in DEFAULT_N_RANGE:
            if n >= p:
                continue
            for k in range(1, p):
                A = np.full((k + 1,) * n, p - 1, dtype=np.int64)
                B = np.full((p - k + 1,) * n, p - 1, dtype=np.int64)
                worst = max(worst, fft_error_bound(A, B))
    assert 0 < worst < 2e-3

