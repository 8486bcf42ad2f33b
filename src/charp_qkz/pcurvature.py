"""p-curvature of the qKZ difference connection.

C_a(z) is the ordered product K_a(z-(p-1)kappa e_a) ... K_a(z-kappa e_a)
K_a(z); the reduced operator is hat-C_a = C_a - Id and the normalized
polynomial form is tilde-C_a = D_a (C_a - Id) with
D_a = prod_{j != a} (z_a - z_j - 1; kappa)_p.

Pointwise properties (ranks, kernels, duality, nondegeneracy for kappa
outside the prime field) run batched over F_{p^2} points.  The symbolic
form, for the denominator-cancellation and degree-bound claims, is built
in the n - 1 variables w_j = z_a - z_j, where D_a = prod_{j != a}
(w_j^p - w_j), on dense coefficient arrays by the R-factor kernel of the
qKZ check (``qkz_core.apply_r_factors``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ffield import FieldCtx, FieldElement, elements, make_field, sample_point
from .hypergeo import evaluate_solutions, extract_solutions
from .linalg import ext_det_batch, ext_matmul, ext_mul, ext_rank_batch
from .qkz_core import (
    CheckReport,
    QkzParams,
    SingularPointError,
    apply_r_factors,
    k_matrix_batch,
    k_operator_at,  # noqa: F401  (a binding perfbench/tracer.py rebinds)
    r_factors,
)

__all__ = [
    "CurvatureReport",
    "curvature_at",
    "curvature_batch",
    "reduced_curvature_at",
    "curvature_symbolic",
    "d_a_closed_form",
    "verify_duality",
    "verify_ext_kappa",
    "kernel_image_ranks",
    "verify_curvature_battery",
]


@dataclass
class CurvatureReport:
    """Aggregated outcome of the pointwise curvature battery."""

    params: QkzParams
    points: int
    passed: bool
    failures: list = field(default_factory=list)
    per_axis: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def curvature_at(params: QkzParams, a: int, z: np.ndarray) -> list[list[FieldElement]]:
    """C_a(z) at one F_{p^2} point z (n, 2), as a matrix of field elements."""
    pctx = make_field(params.p, 2)
    return elements(curvature_batch(params, a, z[None], pctx)[0], pctx)


def reduced_curvature_at(params: QkzParams, a: int, z: np.ndarray) -> list[list[FieldElement]]:
    """hat-C_a(z) = C_a(z) - Id at one F_{p^2} point z (n, 2)."""
    pctx = make_field(params.p, 2)
    return elements(_reduce_batch(curvature_batch(params, a, z[None], pctx), pctx.p)[0], pctx)


def curvature_batch(params: QkzParams, a: int, Z: np.ndarray, pctx: FieldCtx) -> np.ndarray:
    """C_a over a batch of points (npts, n, 2) -> (npts, n, n, 2).

    One ``k_matrix_batch`` call evaluates K_a at all p shifted copies
    z - m kappa e_a (m = 0..p-1) of the batch; the ordered product
    K_{p-1} ... K_0 is then taken as a pairwise tree, exact by
    associativity. Raises :class:`SingularPointError` if any shifted point
    is singular.
    """
    p = pctx.p
    shifts = np.arange(params.p)[:, None] * params.kappa_pair  # (p, 2)
    Zs = np.broadcast_to(Z, (params.p,) + Z.shape).copy()
    Zs[:, :, a - 1] = (Zs[:, :, a - 1] - shifts[:, None]) % p
    K = k_matrix_batch(params, a, Zs.reshape((-1,) + Z.shape[1:]), pctx)
    K = K.reshape((params.p,) + Z.shape[:1] + K.shape[1:])  # K[m] = K_a(z - m kappa e_a)
    while K.shape[0] > 1:
        top = K[-1:] if K.shape[0] % 2 else K[:0]
        K = np.concatenate([ext_matmul(K[1::2], K[0:-1:2], p, pctx.nonresidue), top])
    return K[0]


def _reduce_batch(C: np.ndarray, p: int) -> np.ndarray:
    n = C.shape[1]
    H = C.copy()
    H[:, range(n), range(n), 0] = (H[:, range(n), range(n), 0] - 1) % p
    return H


def _w_product(params: QkzParams, a: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """(N - D Id, D) in the box of ``curvature_symbolic``, N the product of
    the numerators of the given R-factors (j, c) of K_a and D of their
    denominators: the p factors of each w_j fit its p + 1 exponents."""
    p, n = params.p, params.n
    D = np.zeros((p + 1,) * (n - 1), dtype=np.int64)
    D.flat[0] = 1
    N = np.zeros((n, n) + D.shape, dtype=np.int64)
    N[range(n), range(n)] = D
    forms = [(j, (j - (j > a) - n,), c) for j, c in factors]  # w_j's negative axis
    D, N = apply_r_factors(D, N, a, forms, p)
    N[range(n), range(n)] -= D
    return N % p, D


def curvature_symbolic(params: QkzParams, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(tilde-C_a, D_a) as dense coefficient arrays, shapes (n, n) + box and
    box = (p + 1)^{n-1}, axes w_j = z_a - z_j for j != a in increasing order.

    C_a is the product of the R-factors of K_a(z - m kappa e_a), m = 0..p-1:
    the factor (j, c_j) of K_a becomes (j, c_j + m kappa), u = w_j - c_j -
    m kappa.  Their denominators give D_a, their numerators D_a C_a, and
    tilde-C_a = D_a C_a - D_a Id.  The w_j are independent linear forms, so
    total degree and top-degree part are those in z.  Prime-field kappa only.
    """
    if params.k is None:
        raise ValueError("the symbolic curvature requires kappa in F_p^x")
    kv = params.kappa.val
    factors = [f for m in range(params.p) for f in r_factors(params, a, m * kv)]
    return _w_product(params, a, factors)


def d_a_closed_form(params: QkzParams, a: int) -> np.ndarray:
    """prod_{j != a} (w_j^p - w_j) as a dense array in the box of
    ``curvature_symbolic``: the denominators of the factors of w_j are
    w_j - c_j - 1 - m kappa, m = 0..p-1, and as m runs over F_p so does
    c_j + 1 + m kappa, so they multiply to prod_{t in F_p} (w_j - t).  The
    same array for every a and kappa; prime-field kappa only."""
    if params.k is None:
        raise ValueError("the closed form of D_a requires kappa in F_p^x")
    p = params.p
    f = np.zeros(p + 1, dtype=np.int64)
    f[1], f[p] = p - 1, 1
    D = np.ones((), dtype=np.int64)
    for _ in range(params.n - 1):
        D = np.multiply.outer(D, f) % p
    return D


def _points_batch(params: QkzParams, npoints: int, seed: int, pctx: FieldCtx) -> np.ndarray:
    """The points (npts, n, 2) of the battery and the duality check."""
    return np.stack([sample_point(pctx, params.n, seed * 10007 + i) for i in range(npoints)])


def verify_curvature_battery(
    params: QkzParams, npoints: int = 50, seed: int = 0, perturb_control: bool = False
) -> CurvatureReport:
    """Pointwise curvature properties at sampled nonsingular F_{p^2} points.

    For 0 < d < n-1: hat-C_a nonzero, nilpotency hat-C_a hat-C_b = 0,
    solutions fixed by C_a, image(hat-C_a) inside the solution span,
    rank/kernel bounds within the zero-sum space, endomorphism and
    commutativity identities.  For d in {0, n-1}: hat-C_a = 0 throughout.

    ``perturb_control`` adds 1 to the first coordinate of the first
    solution's value at every point (negative control: that value is no
    longer fixed by C_a, and the span it enters no longer holds the images).
    """
    if params.k is None:
        raise ValueError("battery requires kappa in F_p^x")
    n, p, d = params.n, params.p, params.d
    pctx = make_field(p, 2)
    delta = pctx.nonresidue
    Z = _points_batch(params, npoints, seed, pctx)
    kap = params.kappa_pair
    C = {a: curvature_batch(params, a, Z, pctx) for a in range(1, n + 1)}
    H = {a: _reduce_batch(C[a], p) for a in range(1, n + 1)}
    K = {a: k_matrix_batch(params, a, Z, pctx) for a in range(1, n + 1)}
    failures = []
    per_axis = {}
    degenerate = d in (0, n - 1)
    for a in range(1, n + 1):
        nz = np.any(H[a].reshape(npoints, -1) != 0, axis=1)
        per_axis[a] = {"nonzero_points": int(nz.sum())}
        if degenerate and np.any(nz):
            failures.append(("hatC nonzero in degenerate case", a, int(np.nonzero(nz)[0][0])))
        elif not degenerate and not np.all(nz):
            failures.append(("hatC vanished", a, int(np.nonzero(~nz)[0][0])))
    # nilpotency: hat-C_a hat-C_b = 0 for all pairs (includes a = b)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            prod = ext_matmul(H[a], H[b], p, delta)
            if np.any(prod):
                failures.append(("nilpotency", a, b))
    # endomorphism and commutativity
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if b == a:
                continue
            Zb = Z.copy()
            Zb[:, b - 1] = (Zb[:, b - 1] - kap) % p
            Cshift = curvature_batch(params, a, Zb, pctx)
            lhs = ext_matmul(K[b], C[a], p, delta)
            rhs = ext_matmul(Cshift, K[b], p, delta)
            if np.any((lhs - rhs) % p):
                failures.append(("endomorphism", a, b))
        for b in range(a + 1, n + 1):
            comm = (ext_matmul(C[a], C[b], p, delta) - ext_matmul(C[b], C[a], p, delta)) % p
            if np.any(comm):
                failures.append(("commutativity", a, b))
    # solutions fixed by C_a; image and kernel versus the span
    ranks = {}
    if d > 0:
        S = evaluate_solutions(extract_solutions(params).arrays, Z, pctx)  # (d, npts, n, 2)
        if perturb_control:
            S[0, :, 0, 0] = (S[0, :, 0, 0] + 1) % p
        for a in range(1, n + 1):
            # C_a s = s  <=>  hat-C_a s = 0, for the solutions as columns
            moved = np.any(ext_matmul(H[a], np.moveaxis(S, 0, -2), p, delta), axis=(0, 1, 3))
            failures += [("solution not fixed", a, int(s) + 1) for s in np.nonzero(moved)[0]]
        if not degenerate:
            span_dims, image, joint, sum_image_dims = _curvature_ranks(
                np.stack(list(H.values())), np.swapaxes(S, 0, 1), pctx
            )
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
    return CurvatureReport(
        params=params,
        points=npoints,
        passed=not failures,
        failures=failures,
        per_axis=per_axis,
        details=ranks,
    )


def _curvature_ranks(H: np.ndarray, span: np.ndarray, pctx: FieldCtx):
    """Ranks at every point of the rows ``span`` (npts, d, n, 2), of each
    image hat-C_a(V) for the reduced curvatures H (n, npts, n, n, 2), of the
    span plus each image, and of the sum of the images: (npts,), (n, npts),
    (n, npts), (npts,).  The image of hat-C_a(V) is spanned by the images of
    the basis e_i = v^(i) - v^(i+1), the differences of adjacent columns."""
    images = np.swapaxes((H[..., :-1, :] - H[..., 1:, :]) % pctx.p, -3, -2)  # rows
    joint = np.concatenate([np.broadcast_to(span, (len(H),) + span.shape), images], axis=2)
    return (
        ext_rank_batch(span, pctx),
        ext_rank_batch(images, pctx),
        ext_rank_batch(joint, pctx),
        ext_rank_batch(np.concatenate(images, axis=1), pctx),
    )


def kernel_image_ranks(params: QkzParams, z: np.ndarray) -> dict:
    """Per-axis (dim ker, rank) of hat-C_a within the zero-sum space at one
    F_{p^2} point z (n, 2), plus the dimension of the sum of all images."""
    if params.d is None or not 0 < params.d < params.n - 1:
        raise ValueError("kernel/image structure requires 0 < d(kappa) < n-1")
    n = params.n
    pctx = make_field(params.p, 2)
    H = np.stack([_reduce_batch(curvature_batch(params, a, z[None], pctx), pctx.p) for a in range(1, n + 1)])
    _, image, _, total = _curvature_ranks(H, np.zeros((1, 0, n, 2), dtype=np.int64), pctx)
    out = {}
    for a in range(1, n + 1):
        rk = int(image[a - 1, 0])
        out[a] = {"rank": rk, "kernel_dim": (n - 1) - rk}
    out["sum_image_dim"] = int(total[0])
    return out


def verify_duality(params: QkzParams, npoints: int = 20, seed: int = 0, flip_control: bool = False) -> CheckReport:
    """Shapovalov duality of the reduced curvature, tested bilinearly on the
    zero-sum basis: S(hat-C_a(z;-kappa) x, y) = -S(x, hat-C_a(-z;kappa) y),
    and the normalized variant with the (-1)^n factor:
    S(tilde-C_a(z;-kappa) x, y) = (-1)^n S(x, tilde-C_a(-z;kappa) y).

    ``flip_control`` negates the expected sign (negative control).
    """
    if params.k is None:
        raise ValueError("duality test requires kappa in F_p^x")
    n, p = params.n, params.p
    pctx = make_field(p, 2)
    delta = pctx.nonresidue
    Z = _points_batch(params, npoints, seed, pctx)
    Zneg = (-Z) % p
    pm = params.minus()
    sgn = -1 if flip_control else 1
    failures = []
    for a in range(1, n + 1):
        Hm = _reduce_batch(curvature_batch(pm, a, Z, pctx), p)  # hat-C_a(z; -kappa)
        Hp = _reduce_batch(curvature_batch(params, a, Zneg, pctx), p)  # hat-C_a(-z; kappa)
        # bilinear residue on the zero-sum space: E^T (Hm^T + Hp) E = 0
        M = (np.swapaxes(Hm, 1, 2) + sgn * Hp) % p
        res = _restrict_bilinear(M, p)
        if np.any(res):
            failures.append(("hatC duality", a, int(np.nonzero(np.any(res.reshape(npoints, -1) != 0, axis=1))[0][0])))
        # normalized variant: D_a-scaled with sign (-1)^n
        da_m = _d_a_batch(pm, a, Z, pctx)  # D_a(z; -kappa)
        da_p = _d_a_batch(params, a, Zneg, pctx)  # D_a(-z; kappa)
        Tm = ext_mul(da_m[:, None, None], Hm, p, delta)
        Tp = ext_mul(da_p[:, None, None], Hp, p, delta)
        sign_n = 1 if n % 2 == 0 else p - 1
        M2 = (np.swapaxes(Tm, 1, 2) - sgn * sign_n * Tp) % p
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
    D = (M[:, :-1, :, :] - M[:, 1:, :, :]) % p
    return (D[:, :, :-1, :] - D[:, :, 1:, :]) % p


def _d_a_batch(params: QkzParams, a: int, Z: np.ndarray, pctx: FieldCtx) -> np.ndarray:
    """D_a on a batch of F_{p^2} points (npts, n, 2) -> (npts, 2), by its
    closed form prod_{j != a} (w_j^p - w_j), w_j = z_a - z_j (see
    ``d_a_closed_form``).  Frobenius sends g to -g, so w^p - w = -2 w1 g for
    w = w0 + w1 g, and D_a = (-2)^(n-1) g^(n-1) prod_j w1_j with g^2 =
    delta.  Prime-field kappa only."""
    if params.k is None:
        raise ValueError("the closed form of D_a requires kappa in F_p^x")
    p, m = pctx.p, params.n - 1
    w1 = np.delete(Z[:, a - 1 : a, 1] - Z[:, :, 1], a - 1, axis=1)  # (npts, n-1)
    c = np.full(len(Z), pow(-2, m, p) * pow(pctx.nonresidue, m // 2, p) % p, dtype=np.int64)
    for col in w1.T:
        c = c * col % p
    out = np.zeros((len(Z), 2), dtype=np.int64)
    out[:, m % 2] = c
    return out


def _restrict_to_v(M: np.ndarray, p: int) -> np.ndarray:
    """Matrices (npts, n, n, 2) of operators that map into the zero-sum
    space V, restricted to V in the basis e_i = v^(i) - v^(i+1):
    (npts, n-1, n-1, 2). Column i is the image of e_i, in coordinates read
    off as partial sums of its first n-1 entries."""
    W = M[:, :, :-1] - M[:, :, 1:]  # images of the e_i
    return np.cumsum(W[:, :-1], axis=1) % p


def _singular_mask(params: QkzParams, Z: np.ndarray, p: int) -> np.ndarray:
    """Points (npts, n, 2) at which some C_a is undefined: for some a, some
    shift m in 0..p-1 and some R-factor j of K_a, the factor's
    u = z_a - m kappa - z_j (- kappa if j < a) equals 1 (a pole) or -1 (a
    degeneracy)."""
    kap = params.kappa_pair
    shifts = np.arange(params.p)[:, None] * kap  # (p, 2)
    mask = np.zeros(Z.shape[0], dtype=bool)
    for a in range(1, params.n + 1):
        for j in range(1, params.n + 1):
            if j == a:
                continue
            u = Z[:, a - 1] - Z[:, j - 1] - (kap if j < a else 0)
            us = (u[:, None] - shifts) % p  # (npts, p, 2)
            hit = (us[..., 1] == 0) & ((us[..., 0] == 1) | (us[..., 0] == p - 1))
            mask |= hit.any(axis=1)
    return mask


def _nonsingular_points(params: QkzParams, npoints: int, seed: int, pctx: FieldCtx) -> np.ndarray:
    """The first ``npoints`` nonsingular points (at most npoints, n, 2) among
    the attempts ``sample_point(pctx, n, seed * 65537 + t)``, t < 40 *
    npoints, drawn in chunks no larger than the number still missing."""
    Z = np.zeros((0, params.n, 2), dtype=np.int64)
    attempt, budget = 0, npoints * 40
    while len(Z) < npoints and attempt < budget:
        chunk = min(npoints - len(Z), budget - attempt)
        draws = np.stack([sample_point(pctx, params.n, seed * 65537 + attempt + t) for t in range(chunk)])
        attempt += chunk
        Z = np.concatenate([Z, draws[~_singular_mask(params, draws, pctx.p)]])
    return Z


def verify_ext_kappa(
    params: QkzParams, npoints: int = 50, seed: int = 0, full_space_control: bool = False
) -> CheckReport:
    """Nondegeneracy for kappa outside F_p: hat-C_a restricted to the
    zero-sum space has nonzero determinant at sampled points for every a
    (on all of K^n the reduced curvature annihilates coordinate sums, so the
    restriction is the meaningful determinant).

    ``full_space_control`` takes the determinant on all of K^n instead,
    which always vanishes (negative control).
    """
    if params.kappa.in_prime_field:
        raise ValueError("this check requires kappa outside F_p")
    n = params.n
    pctx = params.ctx
    if pctx.ext_degree != 2:
        raise ValueError("extension-field context required")
    p = pctx.p
    Z = _nonsingular_points(params, npoints, seed, pctx)
    good = len(Z)
    failures = []
    sample_dets = {}
    if good:
        zero = np.zeros((good, n), dtype=bool)  # zero[i, a-1]: det of hat-C_a vanishes at point i
        for a in range(1, n + 1):
            H = _reduce_batch(curvature_batch(params, a, Z, pctx), p)
            dets = ext_det_batch(H if full_space_control else _restrict_to_v(H, p), pctx)
            zero[:, a - 1] = np.all(dets == 0, axis=-1)
            sample_dets[a] = str(elements(dets[0], pctx))
        for i, a in zip(*np.nonzero(zero)):
            failures.append(("degenerate hatC", int(a) + 1, [str(x) for x in elements(Z[i], pctx)]))
    if good < npoints:
        failures.append(("insufficient nonsingular points", good))
    return CheckReport(
        name=f"ext-kappa nondegeneracy p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"points": good, "sample_dets": sample_dets},
    )

