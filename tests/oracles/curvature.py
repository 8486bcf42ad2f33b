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
compared with them.

Also the curvature battery and the duality check as they were when the
curvature stack held C_a rather than hat-C_a = C_a - Id: they reduce each
slot they read, loop over the axes, and the battery's rank verdicts loop
over the points.  ``curvature_stack`` builds their C_a stack slot by slot
with ``pcurvature.curvature_batch``; the production readers of the hat-C_a
stack are compared with them."""

from __future__ import annotations

import numpy as np

from charp_qkz import pcurvature, qkz_core
from charp_qkz.ffield import make_field, sample_point
from charp_qkz.hypergeo import solution_values
from charp_qkz.linalg import ext_matmul, ext_mul, mod
from charp_qkz.pcurvature import _curvature_ranks, _pair_products, _reduce_batch
from charp_qkz.qkz_core import CheckReport, QkzParams, every_axis, kappa_shifts
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


def curvature_stack(params: QkzParams, Z: np.ndarray) -> np.ndarray:
    """C_a(.; kappa), not reduced, for every axis a at the point sets of the
    battery and the duality checks, as an int64 (n, n+1, npts, n, n, 2)
    array of one ``curvature_batch`` call per axis and point set: [a-1, 0]
    is C_a(Z), [a-1, 1:n] C_a(Z - kappa e_b) for b != a in increasing
    order, [a-1, n] C_a(-Z)."""
    p, n = params.p, params.n
    shifted = kappa_shifts(params, Z)
    stacks = []
    for a in range(1, n + 1):
        sets = [Z, *np.delete(shifted, a - 1, axis=0), mod(-Z, p)]
        stacks.append(np.stack([curvature_batch(params, a, S) for S in sets]))
    return np.stack(stacks)


def verify_curvature_battery(
    params: QkzParams, Z: np.ndarray, C: np.ndarray, perturb_control: bool = False
) -> CheckReport:
    """The battery on the C_a stack of ``curvature_stack``, per axis."""
    if params.k is None:
        raise ValueError("battery requires kappa in F_p^x")
    n, p, d, npoints = params.n, params.p, params.d, len(Z)
    C, shifted = C[:, 0].astype(np.int64), C[:, 1:n]
    H = _reduce_batch(C, p)  # C and H: (n, npts, n, n, 2), axis a at a - 1
    K = qkz_core.k_matrix_batch(params, *every_axis(n, Z)).reshape(C.shape)
    failures = []
    per_axis = {}
    degenerate = d in (0, n - 1)
    for a in range(1, n + 1):
        nz = np.any(H[a - 1].reshape(npoints, -1) != 0, axis=1)
        per_axis[a] = {"nonzero_points": int(nz.sum())}
        if degenerate and np.any(nz):
            failures.append(("hatC nonzero in degenerate case", a, int(np.nonzero(nz)[0][0])))
        elif not degenerate and not np.all(nz):
            failures.append(("hatC vanished", a, int(np.nonzero(~nz)[0][0])))
    # nilpotency: hat-C_a hat-C_b = 0 for all pairs (includes a = b); the
    # same products give the commutativity of the C_a
    nonzero, commute = _pair_products(H, p)
    failures += [("nilpotency", a + 1, b + 1) for a, b in zip(*np.triu_indices(n)) if nonzero[a, b]]
    for a in range(1, n + 1):
        # endomorphism: K_b(z) C_a(z) = C_a(z - kappa e_b) K_b(z) for every b != a at once
        others = [b for b in range(1, n + 1) if b != a]
        Kb = K[np.array(others) - 1]
        lhs = ext_matmul(Kb, C[a - 1], p)
        rhs = ext_matmul(shifted[a - 1].astype(np.int64), Kb, p)
        moved = np.any((lhs != rhs).reshape(len(others), -1), axis=1)
        failures += [("endomorphism", a, b) for b, bad in zip(others, moved) if bad]
        failures += [("commutativity", a, b) for b in range(a + 1, n + 1) if not commute[a - 1, b - 1]]
    del lhs, rhs  # not held while the solution values are made
    # solutions fixed by C_a; image and kernel versus the span
    ranks = {}
    if d > 0:
        S = solution_values(params, Z)  # (d, npts, n, 2)
        if perturb_control:
            S[0, :, 0, 0] = (S[0, :, 0, 0] + 1) % p
        # C_a s = s  <=>  hat-C_a s = 0, for the solutions as columns
        moved = np.any(ext_matmul(H, np.moveaxis(S, 0, -2), p), axis=(1, 2, 4))  # (n, d)
        failures += [("solution not fixed", int(a) + 1, int(s) + 1) for a, s in np.argwhere(moved)]
        if not degenerate:
            span_dims, image, joint, sum_image_dims = _curvature_ranks(H, np.swapaxes(S, 0, 1), p)
            for i in range(npoints):
                for a in range(1, n + 1):
                    rk = int(image[a - 1, i])
                    if rk > d:
                        failures.append(("rank bound", a, i, rk))
                    if joint[a - 1, i] != span_dims[i]:
                        failures.append(("image not in span", a, i))
            for a in range(1, n + 1):
                per_axis[a]["ranks"] = image[a - 1].tolist()
            ranks = {
                "span_dim": sorted(set(span_dims.tolist())),
                "sum_image_dim": sorted(set(sum_image_dims.tolist())),
            }
    return CheckReport(
        name=f"curvature battery p={p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"per_axis": per_axis, "points": npoints, **ranks},
    )


def verify_duality(
    params: QkzParams, Z: np.ndarray, C: np.ndarray, C_minus: np.ndarray, flip_control: bool = False
) -> CheckReport:
    """The duality check on the C_a stacks of ``curvature_stack`` for kappa
    and -kappa, per axis."""
    if params.k is None:
        raise ValueError("duality test requires kappa in F_p^x")
    n, p, npoints = params.n, params.p, len(Z)
    Zneg = mod(-Z, p)
    sgn = -1 if flip_control else 1
    failures = []
    for a in range(1, n + 1):
        Hm = _reduce_batch(C_minus[a - 1, 0], p)  # hat-C_a(z; -kappa)
        Hp = _reduce_batch(C[a - 1, n], p)  # hat-C_a(-z; kappa)
        # bilinear residue on the zero-sum space: E^T (Hm^T + Hp) E = 0
        M = mod(np.swapaxes(Hm, 1, 2) + sgn * Hp, p)
        res = _restrict_bilinear(M, p)
        if np.any(res):
            failures.append(("hatC duality", a, int(np.nonzero(np.any(res.reshape(npoints, -1) != 0, axis=1))[0][0])))
        # normalized variant: D_a-scaled with sign (-1)^n
        da_m = d_a_batch(params, a, Z)  # D_a(z; -kappa), the same for every kappa
        da_p = d_a_batch(params, a, Zneg)  # D_a(-z; kappa)
        Tm = ext_mul(da_m[:, None, None], Hm, p)
        Tp = ext_mul(da_p[:, None, None], Hp, p)
        sign_n = 1 if n % 2 == 0 else p - 1
        M2 = mod(np.swapaxes(Tm, 1, 2) - sgn * sign_n * Tp, p)
        res2 = _restrict_bilinear(M2, p)
        if np.any(res2):
            failures.append(("tildeC duality", a))
    return CheckReport(
        name=f"curvature duality p={p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"points": npoints},
    )


def _restrict_bilinear(M: np.ndarray, p: int) -> np.ndarray:
    """E^T M E where E is the e_i = v^(i) - v^(i+1) basis of the zero-sum
    space; batched over leading axes and the component axis."""
    D = mod(M[:, :-1, :, :] - M[:, 1:, :, :], p)
    return mod(D[:, :, :-1, :] - D[:, :, 1:, :], p)


def d_a_batch(params: QkzParams, a: int, Z: np.ndarray) -> np.ndarray:
    """D_a for one axis a on a batch of F_{p^2} points (npts, n, 2) ->
    (npts, 2), by the closed form prod_{j != a} (w_j^p - w_j), w_j = z_a -
    z_j: D_a = (-2)^(n-1) g^(n-1) prod_j w1_j with g^2 = delta."""
    if params.k is None:
        raise ValueError("the closed form of D_a requires kappa in F_p^x")
    p, m = params.p, params.n - 1
    w1 = np.delete(Z[:, a - 1 : a, 1] - Z[:, :, 1], a - 1, axis=1)  # (npts, n-1)
    c = np.full(len(Z), pow(-2, m, p) * pow(make_field(p, 2).nonresidue, m // 2, p) % p, dtype=np.int64)
    for col in w1.T:
        c = c * col % p
    out = np.zeros((len(Z), 2), dtype=np.int64)
    out[:, m % 2] = c
    return out
