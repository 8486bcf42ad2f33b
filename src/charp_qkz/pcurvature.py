"""p-curvature of the qKZ difference connection.

C_a(z) is the ordered product K_a(z-(p-1)kappa e_a) ... K_a(z-kappa e_a)
K_a(z); the reduced operator is hat-C_a = C_a - Id and the normalized
polynomial form is tilde-C_a = D_a (C_a - Id) with
D_a = prod_{j != a} (z_a - z_j - 1; kappa)_p.

Pointwise properties (ranks, kernels, duality, nondegeneracy for kappa
outside the prime field) run batched over F_{p^2} points; the symbolic path
is a desk-scale construction used for the denominator-cancellation and
degree-bound claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ffield import FieldCtx, FieldElement, sample_point
from .hypergeo import _elements, evaluate_solutions, extract_solutions
from .linalg import ext_det_batch, ext_matmul, ext_mul
from .mpoly import MPoly
from .qkz_core import (
    CheckReport,
    QkzParams,
    SingularPointError,
    _matmul_poly,
    k_matrix_batch,
    k_operator,
    k_operator_at,
    points_to_array,
    singular_basis,
)

__all__ = [
    "CurvatureReport",
    "curvature_at",
    "curvature_batch",
    "reduced_curvature_at",
    "curvature_symbolic",
    "d_a_poly",
    "verify_d_a_closed_form",
    "verify_duality",
    "verify_ext_kappa",
    "kernel_image_ranks",
    "verify_curvature_battery",
    "curvature_report_json",
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


def curvature_at(params: QkzParams, a: int, z) -> list[list[FieldElement]]:
    """C_a(z) as an exact matrix (scalar reference path)."""
    n = params.n
    pctx = z[0].ctx
    C = None
    pt = list(z)
    for _ in range(params.p):
        K = k_operator_at(params, a, pt)
        if C is None:
            C = K
        else:
            C = [
                [
                    sum((K[i][l] * C[l][j] for l in range(n)), pctx.zero())
                    for j in range(n)
                ]
                for i in range(n)
            ]
        pt[a - 1] = pt[a - 1] - FieldElement(pctx, params.kappa.val)
    return C


def reduced_curvature_at(params: QkzParams, a: int, z) -> list[list[FieldElement]]:
    """hat-C_a(z) = C_a(z) - Id."""
    C = curvature_at(params, a, z)
    pctx = z[0].ctx
    one = pctx.element(1)
    for i in range(len(C)):
        C[i][i] = C[i][i] - one
    return C


def _kappa_pair(params: QkzParams, p: int) -> np.ndarray:
    return np.array([params.kappa.val % p, params.kappa.val // p], dtype=np.int64)


def curvature_batch(params: QkzParams, a: int, Z: np.ndarray, pctx: FieldCtx) -> np.ndarray:
    """C_a over a batch of points (npts, n, 2) -> (npts, n, n, 2).

    One ``k_matrix_batch`` call evaluates K_a at all p shifted copies
    z - m kappa e_a (m = 0..p-1) of the batch; the ordered product
    K_{p-1} ... K_0 is then taken as a pairwise tree, exact by
    associativity. Raises :class:`SingularPointError` if any shifted point
    is singular.
    """
    p = pctx.p
    shifts = np.arange(params.p)[:, None] * _kappa_pair(params, p)  # (p, 2)
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


def d_a_poly(params: QkzParams, a: int) -> MPoly:
    """D_a = prod_{j != a} (z_a - z_j - 1; kappa)_p as a polynomial in z."""
    ctx, n = params.ctx, params.n
    out = MPoly.const(ctx, n, 1)
    base_a = MPoly.variable(ctx, n, a)
    for j in range(1, n + 1):
        if j == a:
            continue
        form = base_a - MPoly.variable(ctx, n, j) - MPoly.const(ctx, n, 1)
        for m in range(params.p):
            out = out * (form - MPoly.const(ctx, n, params.kappa * m))
    return out


def verify_d_a_closed_form(params: QkzParams, a: int) -> CheckReport:
    """D_a equals prod_{j != a} h(z_a - z_j - 1) with h(t) = t^p - kappa^{p-1} t
    (the (t;kappa)_p identity applied factorwise)."""
    ctx, n, p = params.ctx, params.n, params.p
    kpow = params.kappa ** (p - 1)
    expect = MPoly.const(ctx, n, 1)
    for j in range(1, n + 1):
        if j == a:
            continue
        form = MPoly.variable(ctx, n, a) - MPoly.variable(ctx, n, j) - MPoly.const(ctx, n, 1)
        expect = expect * (form ** p - form.scale(kpow))
    got = d_a_poly(params, a)
    return CheckReport(
        name=f"D_a closed form p={p} n={n} a={a}",
        passed=got == expect,
        failures=[] if got == expect else [("mismatch", str(got - expect))],
    )


def curvature_symbolic(params: QkzParams, a: int) -> tuple[list[list[MPoly]], MPoly]:
    """(tilde-C_a, D_a): the normalized curvature as an exact polynomial
    matrix (desk scale: p symbolic matrix products).

    The denominator multiset of the p-fold product is exactly the factor
    list of D_a; this is asserted by comparing the accumulated denominator
    polynomial with D_a, so no division is ever performed.
    """
    ctx, n = params.ctx, params.n
    num = None
    denpoly = MPoly.const(ctx, n, 1)
    for m in range(params.p):
        op = k_operator(params, a)
        shift = -(params.kappa * m)
        num_m = [[e.shift_var(a, shift) for e in row] for row in op.num]
        for formpoly in (fm.as_mpoly(n).shift_var(a, shift) for fm in op.den):
            denpoly = denpoly * formpoly
        num = num_m if num is None else _matmul_poly(num_m, num)
    da = d_a_poly(params, a)
    if denpoly != da:
        raise AssertionError("denominator of the p-fold product differs from D_a")
    for i in range(n):
        num[i][i] = num[i][i] - da
    return num, da


def _points_batch(params: QkzParams, npoints: int, seed: int, pctx: FieldCtx):
    return [sample_point(pctx, params.n, seed * 10007 + i) for i in range(npoints)]


def verify_curvature_battery(
    params: QkzParams, npoints: int = 50, seed: int = 0
) -> CurvatureReport:
    """Pointwise curvature properties at sampled nonsingular F_{p^2} points.

    For 0 < d < n-1: hat-C_a nonzero, nilpotency hat-C_a hat-C_b = 0,
    solutions fixed by C_a, image(hat-C_a) inside the solution span,
    rank/kernel bounds within the zero-sum space, endomorphism and
    commutativity identities.  For d in {0, n-1}: hat-C_a = 0 throughout.
    """
    if params.k is None:
        raise ValueError("battery requires kappa in F_p^x")
    n, p, d = params.n, params.p, params.d
    pctx = FieldCtx(p, 2)
    delta = pctx.nonresidue
    pts = _points_batch(params, npoints, seed, pctx)
    Z = points_to_array(pts, pctx)
    kap = np.array([params.kappa.val % p, 0], dtype=np.int64)
    C = {a: curvature_batch(params, a, Z, pctx) for a in range(1, n + 1)}
    H = {a: _reduce_batch(C[a], p) for a in range(1, n + 1)}
    K = {a: k_matrix_batch(params, a, Z, pctx) for a in range(1, n + 1)}
    failures = []
    per_axis = {}
    degenerate = d in (0, n - 1)
    for a in range(1, n + 1):
        nz = np.any(H[a].reshape(npoints, -1) != 0, axis=1)
        if degenerate:
            if np.any(nz):
                failures.append(("hatC nonzero in degenerate case", a, int(np.nonzero(nz)[0][0])))
            per_axis[a] = {"nonzero_points": int(nz.sum())}
            continue
        if not np.all(nz):
            failures.append(("hatC vanished", a, int(np.nonzero(~nz)[0][0])))
        per_axis[a] = {"nonzero_points": int(nz.sum())}
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
        for a in range(1, n + 1):
            # C_a s = s  <=>  hat-C_a s = 0
            for s_idx in range(d):
                v = S[s_idx]  # (npts, n, 2)
                a0, a1 = H[a][..., 0], H[a][..., 1]
                b0, b1 = v[..., 0], v[..., 1]
                r0 = (np.einsum("mij,mj->mi", a0, b0) + delta * np.einsum("mij,mj->mi", a1, b1)) % p
                r1 = (np.einsum("mij,mj->mi", a0, b1) + np.einsum("mij,mj->mi", a1, b0)) % p
                if np.any(r0) or np.any(r1):
                    failures.append(("solution not fixed", a, s_idx + 1))
        if not degenerate:
            span_dims = []
            sum_image_dims = []
            for i in range(npoints):
                span = [_elements(S[s_idx, i], pctx) for s_idx in range(d)]
                span_rank = linalg.rank(span, pctx)
                span_dims.append(span_rank)
                basis = singular_basis(pctx, n)
                all_images = []
                for a in range(1, n + 1):
                    Ha = [_elements(row, pctx) for row in H[a][i]]
                    images = [
                        [sum((Ha[r][c] * e[c] for c in range(n)), pctx.zero()) for r in range(n)]
                        for e in basis
                    ]
                    all_images.extend(images)
                    rk = linalg.rank(images, pctx)
                    if rk > d:
                        failures.append(("rank bound", a, i, rk))
                    if linalg.rank(span + images, pctx) != span_rank:
                        failures.append(("image not in span", a, i))
                    per_axis.setdefault(a, {}).setdefault("ranks", []).append(rk)
                sum_image_dims.append(linalg.rank(all_images, pctx))
            ranks = {
                "span_dim": sorted(set(span_dims)),
                "sum_image_dim": sorted(set(sum_image_dims)),
            }
    return CurvatureReport(
        params=params,
        points=npoints,
        passed=not failures,
        failures=failures,
        per_axis=per_axis,
        details=ranks,
    )


def kernel_image_ranks(params: QkzParams, z) -> dict:
    """Per-axis (dim ker, rank) of hat-C_a within the zero-sum space at one
    point, plus the dimension of the sum of all images."""
    if params.d is None or not 0 < params.d < params.n - 1:
        raise ValueError("kernel/image structure requires 0 < d(kappa) < n-1")
    n = params.n
    pctx = z[0].ctx
    basis = singular_basis(pctx, n)
    out = {}
    all_images = []
    for a in range(1, n + 1):
        H = reduced_curvature_at(params, a, z)
        images = [
            [sum((H[r][c] * e[c] for c in range(n)), pctx.zero()) for r in range(n)]
            for e in basis
        ]
        rk = linalg.rank(images, pctx)
        out[a] = {"rank": rk, "kernel_dim": (n - 1) - rk}
        all_images.extend(images)
    out["sum_image_dim"] = linalg.rank(all_images, pctx)
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
    pctx = FieldCtx(p, 2)
    delta = pctx.nonresidue
    pts = _points_batch(params, npoints, seed, pctx)
    Z = points_to_array(pts, pctx)
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
    """D_a evaluated on the batch -> (npts, 2)."""
    p, delta = pctx.p, pctx.nonresidue
    kap = _kappa_pair(params, p)
    out = np.zeros((Z.shape[0], 2), dtype=np.int64)
    out[:, 0] = 1
    for j in range(1, params.n + 1):
        if j == a:
            continue
        base = (Z[:, a - 1] - Z[:, j - 1]) % p
        base[:, 0] = (base[:, 0] - 1) % p
        f = base.copy()
        for m in range(params.p):
            if m:
                f = (f - kap) % p
            out = ext_mul(out, f, p, delta)
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
    kap = _kappa_pair(params, p)
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


def _nonsingular_points(params: QkzParams, npoints: int, seed: int, pctx: FieldCtx):
    """The first ``npoints`` nonsingular points among the attempts
    ``sample_point(pctx, n, seed * 65537 + t)``, t < 40 * npoints, drawn in
    chunks no larger than the number still missing."""
    pts = []
    attempt, budget = 0, npoints * 40
    while len(pts) < npoints and attempt < budget:
        chunk = min(npoints - len(pts), budget - attempt)
        draws = [sample_point(pctx, params.n, seed * 65537 + attempt + t) for t in range(chunk)]
        attempt += chunk
        singular = _singular_mask(params, points_to_array(draws, pctx), pctx.p)
        pts.extend(z for z, bad in zip(draws, singular) if not bad)
    return pts


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
    pts = _nonsingular_points(params, npoints, seed, pctx)
    good = len(pts)
    failures = []
    sample_dets = {}
    if pts:
        Z = points_to_array(pts, pctx)
        zero = np.zeros((good, n), dtype=bool)  # zero[i, a-1]: det of hat-C_a vanishes at point i
        for a in range(1, n + 1):
            H = _reduce_batch(curvature_batch(params, a, Z, pctx), p)
            dets = ext_det_batch(H if full_space_control else _restrict_to_v(H, p), pctx)
            zero[:, a - 1] = np.all(dets == 0, axis=-1)
            sample_dets[a] = str(FieldElement(pctx, int(dets[0, 0]) + int(dets[0, 1]) * p))
        for i, a in zip(*np.nonzero(zero)):
            failures.append(("degenerate hatC", int(a) + 1, [str(x) for x in pts[i]]))
    if good < npoints:
        failures.append(("insufficient nonsingular points", good))
    return CheckReport(
        name=f"ext-kappa nondegeneracy p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"points": good, "sample_dets": sample_dets},
    )


def curvature_report_json(rep: CurvatureReport) -> dict:
    return {
        "p": rep.params.p,
        "n": rep.params.n,
        "kappa": str(rep.params.kappa),
        "d": rep.params.d,
        "points": rep.points,
        "passed": rep.passed,
        "failures": [[str(x) for x in f] for f in rep.failures],
        "per_axis": {str(a): v for a, v in rep.per_axis.items()},
        "details": rep.details,
    }
