"""The batched K_a kernel as it was before it moved to two-row updates: it
rescales the whole running matrix by u - 1 at every R-factor and divides
by the accumulated denominator once at the end.  The production
``qkz_core.k_matrix_batch`` is compared with it.  Also the flatness check
as it was before its K_a products became one kernel call per point set:
a loop over the pairs a < b with one-axis kernel calls, which
``qkz_core.verify_flatness`` is compared with."""

from __future__ import annotations

import numpy as np

from charp_qkz import qkz_core
from charp_qkz.linalg import ext_inv, ext_matmul, ext_mul
from charp_qkz.qkz_core import CheckReport, QkzParams, SingularPointError, _factor_order


def k_matrix_batch(params: QkzParams, a: int, Z: np.ndarray) -> np.ndarray:
    """K_a evaluated on a batch of extension-field points (npts, n, 2)."""
    p = params.p
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
        new = ext_mul(um1[:, None, None], M, p)
        scaled = ext_mul(u[:, None, None], M[:, [a - 1, j - 1]], p)
        ai, ji = a - 1, j - 1
        new[:, ai] = (scaled[:, 0] - M[:, ji]) % p
        new[:, ji] = (scaled[:, 1] - M[:, ai]) % p
        M = new
        den = ext_mul(den, um1, p)
    dinv = ext_inv(den, p)
    return ext_mul(dinv[:, None, None], M, p)


def verify_flatness(params: QkzParams, Z: np.ndarray, unshifted_control: bool = False) -> CheckReport:
    """K_a(z - kappa e_b) K_b(z) = K_b(z - kappa e_a) K_a(z) pair by pair,
    each K_a from its own one-axis call of ``qkz_core.k_matrix_batch``; a
    pair whose shifted factor raises is skipped with the error's text."""
    if not len(Z):
        raise ValueError("flatness needs at least one point")
    p, n = params.p, params.n
    kap = params.kappa_pair
    failures = []
    skipped = []
    K = {a: qkz_core.k_matrix_batch(params, a, Z) for a in range(1, n + 1)}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            Za = Z.copy()
            Za[:, a - 1] = (Za[:, a - 1] - kap) % p
            Zb = Z.copy()
            Zb[:, b - 1] = (Zb[:, b - 1] - kap) % p
            try:
                Kab = K[a] if unshifted_control else qkz_core.k_matrix_batch(params, a, Zb)
                Kba = qkz_core.k_matrix_batch(params, b, Za)
            except SingularPointError as exc:
                skipped.append((a, b, str(exc)))
                continue
            lhs = ext_matmul(Kab, K[b], p)
            rhs = ext_matmul(Kba, K[a], p)
            for i in np.nonzero(np.any(lhs != rhs, axis=(1, 2, 3)))[0]:
                failures.append((a, b, int(i)))
    return CheckReport(
        name=f"discrete flatness p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"skipped": skipped, "points": len(Z)},
    )
