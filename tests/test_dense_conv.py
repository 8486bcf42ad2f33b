"""dense_conv against slice accumulation over every index of A, on small
and large shapes."""

import numpy as np
import pytest

from charp_qkz.dense import dense_conv


def _slice_accumulation(A, B, p):
    out = np.zeros(tuple(a + b - 1 for a, b in zip(A.shape, B.shape)), dtype=np.int64)
    for idx in np.ndindex(A.shape):
        out[tuple(slice(i, i + s) for i, s in zip(idx, B.shape))] += int(A[idx] % p) * (B % p)
    return out % p


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [
        ((3, 4), (5, 2)),
        ((1,), (7,)),
        ((5, 5, 5), (4, 6, 3)),
        ((40, 40, 3), (40, 40, 3)),
        ((6,) * 5, (5,) * 5),
        ((3000,), (20000,)),
    ],
)
def test_dense_conv_matches_slice_accumulation(shape_a, shape_b):
    p = 13
    rng = np.random.default_rng(len(shape_a) * 1000 + shape_b[0])
    A = rng.integers(-2 * p, 2 * p, size=shape_a)
    B = rng.integers(-2 * p, 2 * p, size=shape_b)
    got = dense_conv(A, B, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, _slice_accumulation(A, B, p))
