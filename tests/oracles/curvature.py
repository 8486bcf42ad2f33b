"""The batched p-curvature as it was before it moved to two-row updates on
one running matrix: K_a evaluated at all p shifted copies z - m kappa e_a
of the batch (by the whole-matrix rescaling kernel of ``oracles.kmatrix``),
then the ordered product K_{p-1} ... K_0 taken as a pairwise tree of
``linalg.ext_matmul`` calls, exact by associativity.  Also the sampling
loop of the ``ext_kappa`` points as it was before it drew larger chunks.
And the singular-point mask as a loop over the
n(n-1) R-factors (a, j) before it became the kernel's own per-(factor,
point) test.  The production ``pcurvature.curvature_batch``,
``pcurvature._nonsingular_points`` and ``pcurvature._singular_mask`` are
compared with them."""

from __future__ import annotations

import numpy as np

from charp_qkz import pcurvature
from charp_qkz.ffield import make_field, sample_point
from charp_qkz.linalg import ext_matmul, mod
from charp_qkz.qkz_core import QkzParams
from oracles.kmatrix import k_matrix_batch


def curvature_batch(params: QkzParams, a: int, Z: np.ndarray) -> np.ndarray:
    """C_a over a batch of points (npts, n, 2) -> (npts, n, n, 2); raises
    ``SingularPointError`` if any shifted point is singular."""
    p = params.p
    shifts = np.arange(params.p)[:, None] * params.kappa_pair  # (p, 2)
    Zs = np.broadcast_to(Z, (params.p,) + Z.shape).copy()
    Zs[:, :, a - 1] = (Zs[:, :, a - 1] - shifts[:, None]) % p
    K = k_matrix_batch(params, a, Zs.reshape((-1,) + Z.shape[1:]))
    K = K.reshape((params.p,) + Z.shape[:1] + K.shape[1:])  # K[m] = K_a(z - m kappa e_a)
    while K.shape[0] > 1:
        top = K[-1:] if K.shape[0] % 2 else K[:0]
        K = np.concatenate([ext_matmul(K[1::2], K[0:-1:2], p), top])
    return K[0]


def nonsingular_points(params: QkzParams, npoints: int, seed: int) -> np.ndarray:
    """The sampling loop of the ``ext_kappa`` points before it drew larger
    chunks: the first ``npoints`` nonsingular points among the attempts
    ``sample_point(make_field(p, 2), n, seed * 65537 + t)``, t < 40 *
    npoints, drawn in chunks no larger than the number still missing.  It reads
    ``pcurvature._singular_mask`` through the module, as the production
    loop does."""
    pctx = make_field(params.p, 2)
    Z = np.zeros((0, params.n, 2), dtype=np.int64)
    attempt, budget = 0, npoints * 40
    while len(Z) < npoints and attempt < budget:
        chunk = min(npoints - len(Z), budget - attempt)
        draws = np.stack([sample_point(pctx, params.n, seed * 65537 + attempt + t) for t in range(chunk)])
        attempt += chunk
        Z = np.concatenate([Z, draws[~pcurvature._singular_mask(params, draws)]])
    return Z


def singular_mask(params: QkzParams, Z: np.ndarray) -> np.ndarray:
    """Points (npts, n, 2) at which some C_a is undefined: for some a, some
    shift m in 0..p-1 and some R-factor j of K_a, the factor's
    u = z_a - m kappa - z_j (- kappa if j < a) equals 1 (a pole) or -1 (a
    degeneracy)."""
    p = params.p
    kap = params.kappa_pair
    shifts = np.arange(p)[:, None] * kap  # (p, 2)
    mask = np.zeros(Z.shape[0], dtype=bool)
    for a in range(1, params.n + 1):
        for j in range(1, params.n + 1):
            if j == a:
                continue
            u = Z[:, a - 1] - Z[:, j - 1] - (kap if j < a else 0)
            us = mod(u[:, None] - shifts, p)  # (npts, p, 2)
            hit = (us[..., 1] == 0) & ((us[..., 0] == 1) | (us[..., 0] == p - 1))
            mask |= hit.any(axis=1)
    return mask
