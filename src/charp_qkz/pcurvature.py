"""p-curvature of the qKZ difference connection.

C_a(z) is the ordered product K_a(z-(p-1)kappa e_a) ... K_a(z-kappa e_a)
K_a(z); the reduced operator is hat-C_a = C_a - Id and the normalized
polynomial form is tilde-C_a = D_a (C_a - Id) with
D_a = prod_{j != a} (z_a - z_j - 1; kappa)_p.

Pointwise properties (ranks, kernels, duality, nondegeneracy for kappa
outside the prime field) run batched over F_{p^2} points.  C_a at a batch
is one run of the R-factor kernel ``qkz_core.k_product_batch``: its p(n-1)
factors each rewrite two rows of one running matrix, and each point carries
its own axis a.  The cost of a call barely depends on the batch size, so
per kappa one call (``curvature_stack``) makes hat-C_a at every axis and
every point set that the battery and the duality checks read; the caller
passes the stacks of kappa and -kappa to the four checks of the pair.  The
zero-sum space is read in the basis e_i = v^(i) - v^(i+1) (``_zero_sum_basis``).
The symbolic form, for the denominator-cancellation and degree-bound
claims, is built in the n - 1 variables w_j = z_a - z_j, where D_a =
prod_{j != a} (w_j^p - w_j), on dense coefficient arrays by the R-factor
kernel of the qKZ check (``qkz_core.apply_r_factors``).
"""

from __future__ import annotations

import numpy as np

from .ffield import FieldElement, elements, make_field, sample_points
from .hypergeo import (
    extract_solutions,  # noqa: F401  (a binding perfbench/tracer.py rebinds)
    solution_values,
)
from .linalg import ext_det_batch, ext_matmul, ext_mul, ext_rank_batch, mod, stack_groups
from .qkz_core import (
    CheckReport,
    QkzParams,
    SingularPointError,
    apply_r_factors,
    every_axis,
    k_matrix_batch,
    k_operator_at,  # noqa: F401  (a binding perfbench/tracer.py rebinds)
    k_product_batch,
    kappa_shifts,
    r_factors,
    singular_factors,
)

__all__ = [
    "battery_points",
    "curvature_at",
    "curvature_batch",
    "curvature_stack",
    "reduced_curvature_at",
    "curvature_symbolic",
    "d_a_closed_form",
    "verify_duality",
    "verify_ext_kappa",
    "kernel_image_ranks",
    "verify_curvature_battery",
]


def curvature_at(params: QkzParams, a: int, z: np.ndarray) -> list[list[FieldElement]]:
    """C_a(z) at one F_{p^2} point z (n, 2), as a matrix of field elements."""
    return elements(curvature_batch(params, a, z[None])[0], make_field(params.p, 2))


def reduced_curvature_at(params: QkzParams, a: int, z: np.ndarray) -> list[list[FieldElement]]:
    """hat-C_a(z) = C_a(z) - Id at one F_{p^2} point z (n, 2)."""
    return elements(_reduce_batch(curvature_batch(params, a, z[None]), params.p)[0], make_field(params.p, 2))


def curvature_batch(params: QkzParams, a, Z: np.ndarray) -> np.ndarray:
    """C_a over a batch of points (npts, n, 2) -> (npts, n, n, 2), one axis a
    for all points or one per point: the p-shift product of
    ``k_product_batch``, its p(n-1) R-factors applied as two-row updates of
    one running matrix.  Raises :class:`SingularPointError` if any shifted
    point is singular."""
    return k_product_batch(params, a, Z, params.p)


def _reduce_batch(C: np.ndarray, p: int) -> np.ndarray:
    """C - Id for stacked matrices (..., n, n, 2), as int64."""
    n = C.shape[-2]
    H = C.astype(np.int64)
    H[..., range(n), range(n), 0] = mod(H[..., range(n), range(n), 0] - 1, p)
    return H


def _pair_products(H: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """For the reduced curvatures H (n, npts, n, n, 2), from the products of
    every ordered pair: whether hat-C_a hat-C_b is nonzero at some point,
    and whether it equals hat-C_b hat-C_a at every point, as (n, n) arrays.
    C_a C_b - C_b C_a = hat-C_a hat-C_b - hat-C_b hat-C_a, so the second
    is the commutativity of the C_a.  One product per group of rows a of
    ``stack_groups``; a group short of all rows also takes the products
    hat-C_b hat-C_a of its columns."""
    n = len(H)
    nonzero, commute = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    for g in stack_groups(n, H.size):
        rows = ext_matmul(H[g, None], H[None, :], p)  # [a, b]: hat-C_a hat-C_b, a in g
        cols = rows.swapaxes(0, 1) if len(rows) == n else ext_matmul(H[None, :], H[g, None], p)
        nonzero[g] = np.any(rows.reshape(len(rows), n, -1), axis=2)
        commute[g] = ~np.any((rows != cols).reshape(len(rows), n, -1), axis=2)
    return nonzero, commute


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


def battery_points(params: QkzParams, npoints: int, seed: int) -> np.ndarray:
    """The points (npts, n, 2) of the battery and the duality check, shared by kappa and -kappa."""
    return sample_points(make_field(params.p, 2), params.n, range(seed * 10007, seed * 10007 + npoints))


def curvature_stack(params: QkzParams, Z: np.ndarray) -> np.ndarray:
    """hat-C_a(.; kappa) = C_a - Id for every axis a at the point sets of
    the battery and the duality checks, as one (n, n+1, npts, n, n, 2) array
    from one ``curvature_batch`` call (per group of axes of
    ``stack_groups``), reduced as it is written: [a-1, 0] is hat-C_a(Z),
    [a-1, 1:n] hat-C_a(Z - kappa e_b) for b != a in increasing order,
    [a-1, n] hat-C_a(-Z).  In the narrowest unsigned dtype that holds F_p."""
    p, n, npts = params.p, params.n, len(Z)
    shifted = kappa_shifts(params, Z)
    negated = mod(-Z, p)
    H = np.empty((n, n + 1, npts, n, n, 2), dtype=np.min_scalar_type(p - 1))
    for g in stack_groups(n, (n + 1) * npts * n * n * 2):
        axes = np.arange(n)[g]
        sets = [S for a in axes for S in [Z, *np.delete(shifted, a, axis=0), negated]]
        stack = curvature_batch(params, np.repeat(axes + 1, (n + 1) * npts), np.concatenate(sets))
        H[g] = _reduce_batch(stack, p).reshape((len(axes),) + H.shape[1:])
    return H


def verify_curvature_battery(
    params: QkzParams, Z: np.ndarray, H: np.ndarray, perturb_control: bool = False
) -> CheckReport:
    """Pointwise curvature properties at the nonsingular F_{p^2} points Z
    (npts, n, 2), given their ``curvature_stack`` H of hat-C_a for this
    kappa.

    For 0 < d < n-1: hat-C_a nonzero, nilpotency hat-C_a hat-C_b = 0,
    solutions fixed by C_a, image(hat-C_a) inside the solution span,
    rank/kernel bounds within the zero-sum space, endomorphism and
    commutativity identities.  For d in {0, n-1}: hat-C_a = 0 throughout.

    ``perturb_control`` adds 1 to the first coordinate of the first
    solution's value at every point (negative control: that value is no
    longer fixed by C_a, and the span it enters no longer holds the images).

    ``details`` holds ``per_axis``, ``points`` and, for 0 < d < n-1, the
    rank sets ``span_dim`` and ``sum_image_dim``.
    """
    if params.k is None:
        raise ValueError("battery requires kappa in F_p^x")
    n, p, d, npoints = params.n, params.p, params.d, len(Z)
    H, shifted = H[:, 0].astype(np.int64), H[:, 1:n]  # H: (n, npts, n, n, 2), axis a at a - 1
    K = k_matrix_batch(params, *every_axis(n, Z)).reshape(H.shape)
    degenerate = d in (0, n - 1)
    live = np.any(H.reshape(n, npoints, -1), axis=2)  # (n, npts): hat-C_a(z) != 0
    per_axis = {a: {"nonzero_points": int(c)} for a, c in enumerate(live.sum(axis=1), start=1)}
    flagged = live if degenerate else ~live
    what = "hatC nonzero in degenerate case" if degenerate else "hatC vanished"
    failures = [(what, int(a) + 1, int(np.argmax(flagged[a]))) for a in np.flatnonzero(flagged.any(axis=1))]
    # nilpotency: hat-C_a hat-C_b = 0 for all pairs (includes a = b); the
    # same products give the commutativity of the C_a
    nonzero, commute = _pair_products(H, p)
    failures += [("nilpotency", a + 1, b + 1) for a, b in zip(*np.triu_indices(n)) if nonzero[a, b]]
    for a in range(1, n + 1):
        # endomorphism: K_b(z) hat-C_a(z) = hat-C_a(z - kappa e_b) K_b(z) for
        # every b != a at once, which is K_b C_a(z) = C_a(z - kappa e_b) K_b
        others = [b for b in range(1, n + 1) if b != a]
        Kb = K[np.array(others) - 1]
        lhs = ext_matmul(Kb, H[a - 1], p)
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
            over, outside = image > d, joint != span_dims  # (n, npts)
            for i, a in np.argwhere((over | outside).T):  # by point, then by axis
                if over[a, i]:
                    failures.append(("rank bound", int(a) + 1, int(i), int(image[a, i])))
                if outside[a, i]:
                    failures.append(("image not in span", int(a) + 1, int(i)))
            for a, r in enumerate(image.tolist(), start=1):
                per_axis[a]["ranks"] = r
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


def _zero_sum_basis(M: np.ndarray, axis: int, p: int) -> np.ndarray:
    """M read against the basis e_i = v^(i) - v^(i+1) of the zero-sum space
    along ``axis``: the differences of adjacent entries there, mod p.  On a
    column axis these are the images of the e_i, on a row axis the
    pairings e_i^T M."""
    return mod(-np.diff(M, axis=axis), p)


def _curvature_ranks(H: np.ndarray, span: np.ndarray, p: int):
    """Ranks at every point of the rows ``span`` (npts, d, n, 2), of each
    image hat-C_a(V) for the reduced curvatures H (n, npts, n, n, 2), of the
    span plus each image, and of the sum of the images: (npts,), (n, npts),
    (n, npts), (npts,).  The image of hat-C_a(V) is spanned by the images of
    the zero-sum basis, taken as rows."""
    images = np.swapaxes(_zero_sum_basis(H, -2, p), -3, -2)
    joint = np.concatenate([np.broadcast_to(span, (len(H),) + span.shape), images], axis=2)
    return (
        ext_rank_batch(span, p),
        ext_rank_batch(images, p),
        ext_rank_batch(joint, p),
        ext_rank_batch(np.concatenate(images, axis=1), p),
    )


def kernel_image_ranks(params: QkzParams, z: np.ndarray) -> dict:
    """Per-axis (dim ker, rank) of hat-C_a within the zero-sum space at one
    F_{p^2} point z (n, 2), plus the dimension of the sum of all images."""
    if params.d is None or not 0 < params.d < params.n - 1:
        raise ValueError("kernel/image structure requires 0 < d(kappa) < n-1")
    n, p = params.n, params.p
    H = _reduce_batch(curvature_batch(params, *every_axis(n, z[None])), p)[:, None]
    _, image, _, total = _curvature_ranks(H, np.zeros((1, 0, n, 2), dtype=np.int64), p)
    out = {a: {"rank": rk, "kernel_dim": (n - 1) - rk} for a, rk in enumerate(image[:, 0].tolist(), start=1)}
    return {**out, "sum_image_dim": int(total[0])}


def verify_duality(
    params: QkzParams, Z: np.ndarray, H: np.ndarray, H_minus: np.ndarray, flip_control: bool = False
) -> CheckReport:
    """Shapovalov duality of the reduced curvature, tested bilinearly on the
    zero-sum basis: S(hat-C_a(z;-kappa) x, y) = -S(x, hat-C_a(-z;kappa) y),
    and the normalized variant with the (-1)^n factor:
    S(tilde-C_a(z;-kappa) x, y) = (-1)^n S(x, tilde-C_a(-z;kappa) y), at
    the points Z, from H[:, n] and H_minus[:, 0] of their
    ``curvature_stack`` of hat-C_a for kappa and for -kappa, every axis at
    once.

    ``flip_control`` negates the expected sign (negative control).
    """
    if params.k is None:
        raise ValueError("duality test requires kappa in F_p^x")
    n, p, npoints = params.n, params.p, len(Z)
    sgn = -1 if flip_control else 1
    sign_n = 1 if n % 2 == 0 else p - 1
    Hm = H_minus[:, 0].astype(np.int64)  # hat-C_a(z; -kappa), (n, npts, n, n, 2)
    Hp = H[:, n].astype(np.int64)  # hat-C_a(-z; kappa)
    # normalized variant: D_a-scaled, D_a(z; -kappa) the same for every kappa
    Tm = ext_mul(_d_a_batch(params, Z)[:, :, None, None], Hm, p)
    Tp = ext_mul(_d_a_batch(params, mod(-Z, p))[:, :, None, None], Hp, p)  # D_a(-z; kappa)

    def residue(Am, Ap, s):  # E^T (Am^T + s Ap) E on the zero-sum space
        return _zero_sum_basis(_zero_sum_basis(mod(np.swapaxes(Am, -3, -2) + s * Ap, p), -3, p), -2, p)

    hat_bad = np.any(residue(Hm, Hp, sgn).reshape(n, npoints, -1), axis=2)  # (n, npts)
    tilde_bad = np.any(residue(Tm, Tp, -sgn * sign_n).reshape(n, -1), axis=1)  # sign (-1)^n
    failures = []
    for a in range(n):
        if hat_bad[a].any():
            failures.append(("hatC duality", a + 1, int(np.argmax(hat_bad[a]))))
        if tilde_bad[a]:
            failures.append(("tildeC duality", a + 1))
    return CheckReport(
        name=f"curvature duality p={p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"points": npoints},
    )


def _d_a_batch(params: QkzParams, Z: np.ndarray) -> np.ndarray:
    """D_a for every axis a on a batch of F_{p^2} points (npts, n, 2) ->
    (n, npts, 2), axis a at a - 1, by its closed form prod_{j != a}
    (w_j^p - w_j), w_j = z_a - z_j (see ``d_a_closed_form``).  Frobenius
    sends g to -g, so w^p - w = -2 w1 g for w = w0 + w1 g, and D_a =
    (-2)^(n-1) g^(n-1) prod_j w1_j with g^2 = delta.  Prime-field kappa
    only."""
    if params.k is None:
        raise ValueError("the closed form of D_a requires kappa in F_p^x")
    p, n, m = params.p, params.n, params.n - 1
    z1 = Z[:, :, 1].T  # (n, npts)
    w1 = z1[:, None] - z1  # [a-1, j-1]: the g-part of w_j for D_a
    w1[range(n), range(n)] = 1  # no factor j = a
    c = np.full((n, len(Z)), pow(-2, m, p) * pow(make_field(p, 2).nonresidue, m // 2, p) % p, dtype=np.int64)
    for col in w1.swapaxes(0, 1):
        c = c * col % p
    out = np.zeros((n, len(Z), 2), dtype=np.int64)
    out[..., m % 2] = c
    return out


def _singular_mask(params: QkzParams, Z: np.ndarray) -> np.ndarray:
    """Points (npts, n, 2) at which some C_a is undefined: some R-factor of
    some shift of K_a has a pole or degenerates there, by the kernel's own
    test (``qkz_core.singular_factors``), every axis in one call."""
    codes = singular_factors(params, *every_axis(params.n, Z), params.p)
    return np.any(codes.reshape(params.n, len(Z)) >= 0, axis=0)


def _nonsingular_points(params: QkzParams, npoints: int, seed: int) -> np.ndarray:
    """The first ``npoints`` nonsingular points (at most npoints, n, 2) among
    the points of the seeds seed * 65537 + t, t < 40 * npoints, in attempt
    order.  A round draws as many attempts as points are missing, or, when
    that is more, half the attempts they need at the rate of nonsingular
    attempts seen so far (as many again as were drawn while none was),
    within the budget, as one ``sample_points`` batch.  Half, so that few
    draws fall past the last attempt kept: the sampler keeps every seed's
    draw it makes."""
    Z = np.zeros((0, params.n, 2), dtype=np.int64)
    attempt, budget = 0, npoints * 40
    while len(Z) < npoints and attempt < budget:
        missing = npoints - len(Z)
        want = -(-missing * attempt // (2 * len(Z))) if len(Z) else attempt
        chunk = min(max(want, missing), budget - attempt)
        seeds = range(seed * 65537 + attempt, seed * 65537 + attempt + chunk)
        draws = sample_points(make_field(params.p, 2), params.n, seeds)
        attempt += chunk
        Z = np.concatenate([Z, draws[~_singular_mask(params, draws)]])
    return Z[:npoints]


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
    n, p, ctx = params.n, params.p, params.ctx
    if ctx.ext_degree != 2:
        raise ValueError("extension-field context required")
    Z = _nonsingular_points(params, npoints, seed)
    good = len(Z)
    failures, sample_dets = [], {}
    if good:
        H = _reduce_batch(curvature_batch(params, *every_axis(n, Z)), p)
        V = np.cumsum(_zero_sum_basis(H, -2, p)[:, :-1], axis=1) % p  # e_i coordinates: partial sums
        dets = ext_det_batch(H if full_space_control else V, p).reshape((n, good, 2))
        sample_dets = {a: str(elements(det, ctx)) for a, det in enumerate(dets[:, 0], start=1)}
        zero = np.all(dets == 0, axis=-1).T  # zero[i, a-1]: det of hat-C_a vanishes at point i
        for i, a in np.argwhere(zero):
            failures.append(("degenerate hatC", int(a) + 1, [str(x) for x in elements(Z[i], ctx)]))
    if good < npoints:
        failures.append(("insufficient nonsingular points", good))
    return CheckReport(
        name=f"ext-kappa nondegeneracy p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"points": good, "sample_dets": sample_dets},
    )

