"""The batched K_a kernel as it was before it moved to two-row updates: it
rescales the whole running matrix by u - 1 at every R-factor and divides
by the accumulated denominator once at the end.  The production
``qkz_core.k_matrix_batch`` is compared with it."""

from __future__ import annotations

import numpy as np

from charp_qkz.ffield import FieldCtx
from charp_qkz.linalg import ext_inv, ext_mul
from charp_qkz.qkz_core import QkzParams, SingularPointError, _factor_order


def k_matrix_batch(params: QkzParams, a: int, Z: np.ndarray, pctx: FieldCtx) -> np.ndarray:
    """K_a evaluated on a batch of extension-field points (npts, n, 2)."""
    p = pctx.p
    delta = pctx.nonresidue
    n = params.n
    npts = Z.shape[0]
    kap = np.array([params.kappa.val % p, params.kappa.val // p], dtype=np.int64)
    M = np.zeros((npts, n, n, 2), dtype=np.int64)
    M[:, range(n), range(n), 0] = 1
    den = np.zeros((npts, 2), dtype=np.int64)
    den[:, 0] = 1
    for j in _factor_order(n, a):
        u = (Z[:, a - 1] - Z[:, j - 1]) % p
        if j < a:
            u = (u - kap) % p
        um1 = u.copy()
        um1[:, 0] = (um1[:, 0] - 1) % p
        if np.any(np.all(um1 == 0, axis=1)):
            raise SingularPointError(f"pole of R-factor (a={a}, j={j}) in the batch")
        up1 = u.copy()
        up1[:, 0] = (up1[:, 0] + 1) % p
        if np.any(np.all(up1 == 0, axis=1)):
            raise SingularPointError(f"degenerate R-factor (a={a}, j={j}) in the batch")
        new = ext_mul(um1[:, None, None], M, p, delta)
        scaled = ext_mul(u[:, None, None], M[:, [a - 1, j - 1]], p, delta)
        ai, ji = a - 1, j - 1
        new[:, ai] = (scaled[:, 0] - M[:, ji]) % p
        new[:, ji] = (scaled[:, 1] - M[:, ai]) % p
        M = new
        den = ext_mul(den, um1, p, delta)
    dinv = ext_inv(den, pctx)
    return ext_mul(dinv[:, None, None], M, p, delta)
