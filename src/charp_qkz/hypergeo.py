"""Construction of the polynomial solutions of the qKZ difference equations
in characteristic p, and of their differential-KZ companions.

The solution vectors are Pochhammer-basis coefficients of the master-product
vector Q(t,z;kappa): coordinate a is the n-fold Pochhammer product

    Q_a = (prod_{j<a} (t-z_j-kappa;kappa)_k) (t-z_a-kappa;kappa)_{k-1}
          (prod_{j>a} (t-z_j;kappa)_k),

with kappa*k = -1 mod p, and the solution with index ell (1 <= ell <= d =
floor(nk/p)) is the coefficient vector of (t;kappa)_{ell*p-1}.  Construction
runs on the dense numpy kernels; the sparse product formula and the rational
eta_a definition survive as cross-checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import dense, linalg
from .ffield import FieldCtx, FieldElement, sample_point
from .mpoly import MPoly
from .pochhammer import TPoly, binomial_mod, poch_factor
from .qkz_core import (
    CheckReport,
    QkzParams,
    VectorPoly,
    k_operator_at,
    points_to_array,
)

__all__ = [
    "SolutionSet",
    "LeadingTermData",
    "k_from_kappa",
    "d_of_kappa",
    "q_vector",
    "extract_solutions",
    "barq_solutions",
    "evaluate_solutions",
    "leading_term_data",
    "verify_leading_terms",
    "minor",
    "verify_independence",
    "restrict_special",
    "special_restriction_values",
    "verify_restrictions",
    "orthogonality_pairing",
    "verify_orthogonality",
    "quasi_sections_at",
    "verify_quasi_flatness",
    "gram_matrix",
    "gram_det",
    "solution_set_to_json",
    "verify_q_product_formula",
]


def k_from_kappa(ctx: FieldCtx, kappa: FieldElement) -> int:
    """The unique 0 < k < p with kappa*k = -1 mod p."""
    if not kappa or not kappa.in_prime_field:
        raise ValueError("kappa must be a nonzero element of F_p")
    return (-pow(kappa.a0, ctx.p - 2, ctx.p)) % ctx.p


def d_of_kappa(ctx: FieldCtx, n: int, kappa: FieldElement) -> int:
    """d(kappa) = floor(n*k/p), the number of solutions for step kappa."""
    return n * k_from_kappa(ctx, kappa) // ctx.p


@dataclass(eq=False)
class SolutionSet:
    """The solutions for one parameter triple, held as one int64 array of
    shape (d, n, k+1, ..., k+1): entry [ell-1, a-1] is coordinate a of the
    coefficient vector at Pochhammer index ell*p - 1 (monomial index for the
    KZ kind), with array axes z_1..z_n.  Every check reads the arrays;
    ``solutions`` is a sparse view for the library API, built on first use.
    The arrays are read-only: a cached set is shared by every caller."""

    params: QkzParams
    arrays: np.ndarray
    kind: str = "qkz"

    def __post_init__(self):
        self.arrays.flags.writeable = False

    @property
    def d(self) -> int:
        return self.arrays.shape[0]

    @functools.cached_property
    def solutions(self) -> list[VectorPoly]:
        ctx, n = self.params.ctx, self.params.n
        return [
            VectorPoly([dense.dense_to_mpoly(coord, ctx, n) for coord in sol])
            for sol in self.arrays
        ]

    def degrees(self) -> list[int]:
        return _degrees(self.arrays)


def _degrees(arrays: np.ndarray) -> list[int]:
    """Total degree of each solution in a (d, n, ...) stack; -1 for zero."""
    if not arrays.shape[0]:
        return []
    total = np.indices(arrays.shape[2:]).sum(axis=0).ravel()
    support = np.any(arrays != 0, axis=1).reshape(arrays.shape[0], -1)
    return [int(total[row].max()) if row.any() else -1 for row in support]


@dataclass(frozen=True)
class LeadingTermData:
    """Predicted leading term of the solution with index ell: the monomial
    (z_1...z_r)^k z_{r+1}^a times the constant vector u."""

    ell: int
    r: int
    a: int
    u: tuple
    monomial: tuple


def _require_prime_kappa(params: QkzParams):
    if params.k is None:
        raise ValueError("construction requires kappa in F_p^x")


def q_vector(params: QkzParams) -> list[TPoly]:
    """The vector Q(t,z;kappa) from the n-fold Pochhammer product formula
    (sparse reference construction)."""
    _require_prime_kappa(params)
    ctx, n, k = params.ctx, params.n, params.k
    kappa = params.kappa
    out = []
    for a in range(1, n + 1):
        acc = TPoly(ctx, n, [MPoly.const(ctx, n, 1)])
        for j in range(1, n + 1):
            base = MPoly.variable(ctx, n, j)
            if j <= a:
                base = base + MPoly.const(ctx, n, kappa)
            acc = acc * poch_factor(base, kappa, k - 1 if j == a else k)
        out.append(acc)
    return out


def _q_factors(params: QkzParams, a: int) -> list[tuple]:
    """Dense-builder factor list (var, shift, length) for Q_a."""
    k = params.k
    kv = params.kappa.val
    return (
        [(j, kv, k) for j in range(1, a)]
        + [(a, kv, k - 1)]
        + [(j, 0, k) for j in range(a + 1, params.n + 1)]
    )


_solution_cache: dict = {}


def _solution_stack(params: QkzParams) -> np.ndarray:
    """Zeroed (d, n, k+1, ..., k+1) array for a solution set."""
    n = params.n
    return np.zeros((params.d, n) + (params.k + 1,) * n, dtype=np.int64)


def extract_solutions(params: QkzParams) -> SolutionSet:
    """All p-hypergeometric qKZ solutions Q^{ell*p-1}, ell = 1..d(kappa).

    Also asserts the degree-reasons vanishing Q^{ell*p-1} = 0 for
    d(kappa) < ell <= n, the degree law deg Q^{ell*p-1} = nk - ell*p and
    that every solution lies in the zero-sum space.
    """
    _require_prime_kappa(params)
    key = (params.p, params.n, params.kappa.val)
    if key in _solution_cache:
        return _solution_cache[key]
    n, p = params.n, params.p
    k, d = params.k, params.d
    sols = _solution_stack(params)
    for a in range(1, n + 1):
        # the factors list z_1..z_n in order, so the z-axes of arr are too
        arr, _ = dense.build_product_tpoly(params.ctx, params.kappa.val, _q_factors(params, a))
        pc = dense.dense_pochhammer_coeffs(arr, p, params.kappa.val)
        box = tuple(slice(s) for s in pc.shape[1:])
        for ell in range(1, d + 1):
            sols[(ell - 1, a - 1) + box] = pc[ell * p - 1]
        for ell in range(d + 1, n + 1):
            if ell * p - 1 < pc.shape[0] and np.any(pc[ell * p - 1]):
                raise AssertionError(
                    f"vanishing violated at index {ell * p - 1} (a={a})"
                )
    for ell, deg in enumerate(_degrees(sols), start=1):
        if deg != n * k - ell * p:
            raise AssertionError(f"degree law violated for ell={ell}")
    for ell, s in enumerate(sols, start=1):
        if np.any(s.sum(axis=0) % p):
            raise AssertionError(f"solution ell={ell} not in the zero-sum space")
    out = SolutionSet(params, sols, kind="qkz")
    _solution_cache[key] = out
    return out


def barq_solutions(params: QkzParams) -> SolutionSet:
    """KZ companions: coefficients of t^{ell*p-1} in
    bar-Q_a = (t-z_a)^{k-1} prod_{j != a} (t-z_j)^k."""
    _require_prime_kappa(params)
    n, p = params.n, params.p
    k, d = params.k, params.d
    sols = _solution_stack(params)
    for a in range(1, n + 1):
        factors = [(j, 0, k - 1 if j == a else k) for j in range(1, n + 1)]
        arr, _ = dense.build_product_tpoly(params.ctx, 0, factors)
        box = tuple(slice(s) for s in arr.shape[1:])
        for ell in range(1, d + 1):
            sols[(ell - 1, a - 1) + box] = arr[ell * p - 1]
    return SolutionSet(params, sols, kind="kz")


def evaluate_solutions(arrays: np.ndarray, Z: np.ndarray, pctx: FieldCtx) -> np.ndarray:
    """Values of every solution in a (d, n, ...) stack at a batch of
    F_{p^2} points Z (npts, n, 2), as (d, npts, n, 2) (a0, a1) pairs; one
    ``dense_eval_points`` call per (solution, coordinate)."""
    p, delta = pctx.p, pctx.nonresidue
    d, n = arrays.shape[:2]
    out = np.zeros((d, Z.shape[0], n, 2), dtype=np.int64)
    for s_idx, sol in enumerate(arrays):
        for c_idx, coord in enumerate(sol):
            out[s_idx, :, c_idx] = dense.dense_eval_points(coord, Z, p, delta)
    return out


def _elements(v: np.ndarray, pctx: FieldCtx) -> list[FieldElement]:
    """A vector of (a0, a1) pairs as field elements."""
    return [FieldElement(pctx, a0 + a1 * pctx.p) for a0, a1 in v.tolist()]


# -- leading terms and independence -------------------------------------------


def leading_term_data(params: QkzParams, ell: int) -> LeadingTermData:
    """The predicted leading term of Q^{ell*p-1}: monomial
    (z_1...z_r)^k z_{r+1}^a and vector ((-1)^{nk-ell*p}/k) C(k,a)
    (0,..,0,k-a,k,..,k) with k-a at position r+1."""
    _require_prime_kappa(params)
    ctx, n, p, k = params.ctx, params.n, params.p, params.k
    if n % p == 0:
        raise ValueError("leading-term formula requires p not dividing n")
    if not 1 <= ell <= params.d:
        raise ValueError(f"ell must be in 1..{params.d}")
    deg = n * k - ell * p
    r = deg // k
    a = (n - r) * k - ell * p
    if not (r * k <= deg < (r + 1) * k and 0 <= a < k):
        raise AssertionError("pivot bookkeeping failed")
    scale = (
        ctx.element(-1) ** deg
        * ctx.element(k).inv()
        * ctx.element(binomial_mod(k, a, p))
    )
    u = [ctx.zero()] * r + [scale * (k - a)] + [scale * k] * (n - r - 1)
    monomial = tuple([k] * r + [a] + [0] * (n - r - 1))
    return LeadingTermData(ell, r, a, tuple(u), monomial)


def _leading_term(F: np.ndarray, ctx: FieldCtx) -> tuple[tuple, list[FieldElement]]:
    """Vector-valued leading term of a coordinate stack (n, ...): the largest
    (total degree, e_1, ..., e_n) in the support of any coordinate, with the
    column of coefficients there."""
    exps = np.argwhere(np.any(F != 0, axis=0))  # C order: lexicographic
    if not len(exps):
        raise ValueError("leading term of the zero vector")
    total = exps.sum(axis=1)
    mono = tuple(exps[total == total.max()][-1].tolist())
    return mono, [ctx.element(c) for c in F[(slice(None),) + mono].tolist()]


def verify_leading_terms(params: QkzParams, permute_control: bool = False) -> CheckReport:
    """Leading term of every Q^{ell*p-1} equals the closed-form prediction,
    and equals the leading term of the KZ companion bar-Q^{ell*p-1}.

    ``permute_control``: cyclically permute the predicted vector (negative
    control; must fail whenever the prediction has distinct coordinates).
    """
    sols = extract_solutions(params)
    bars = barq_solutions(params)
    failures = []
    for ell in range(1, params.d + 1):
        data = leading_term_data(params, ell)
        u = list(data.u)
        if permute_control:
            u = u[1:] + u[:1]
        mono, vec = _leading_term(sols.arrays[ell - 1], params.ctx)
        if mono != data.monomial or vec != u:
            failures.append(("qkz", ell, mono, [str(v) for v in vec]))
        bmono, bvec = _leading_term(bars.arrays[ell - 1], params.ctx)
        if (bmono, bvec) != (mono, vec):
            failures.append(("barq", ell))
    return CheckReport(
        name=f"leading terms p={params.p} n={params.n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
    )


def _det_mpoly(rows: list[list[MPoly]]) -> MPoly:
    m = len(rows)
    ctx, nv = rows[0][0].ctx, rows[0][0].nvars
    acc = MPoly.zero(ctx, nv)
    for perm in itertools.permutations(range(m)):
        sgn = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sgn = -sgn
        term = MPoly.const(ctx, nv, sgn)
        for i in range(m):
            term = term * rows[i][perm[i]]
        acc = acc + term
    return acc


def minor(params: QkzParams, I, solutions: list[VectorPoly] | None = None) -> MPoly:
    """Determinant of rows I (1-based) of the n x d solution matrix."""
    if solutions is None:
        solutions = extract_solutions(params).solutions
    I = sorted(I)
    if len(I) != len(solutions) or not solutions:
        raise ValueError("index set size must equal the number of solutions")
    rows = [[s.coords[i - 1] for s in solutions] for i in I]
    return _det_mpoly(rows)


def verify_independence(
    params: QkzParams, seed: int = 0, duplicate_control: bool = False
) -> CheckReport:
    """Linear independence: some d x d minor of the solution
    matrix has a nonzero evaluation at a sampled nonsingular point.

    Reports every index set whose minor evaluates nonzero; the predicted
    pivot set {r(ell)+1} is recorded separately.
    """
    sols = extract_solutions(params).arrays
    d = len(sols)
    if duplicate_control and d >= 2:
        sols = sols[[0, 0, *range(2, d)]]
    if d == 0:
        return CheckReport(
            name=f"independence p={params.p} n={params.n} kappa={params.kappa}",
            passed=True,
            details={"d": 0},
        )
    ectx = FieldCtx(params.p, 2)
    z = sample_point(ectx, params.n, seed)
    cols = [_elements(v[0], ectx) for v in evaluate_solutions(sols, points_to_array([z], ectx), ectx)]
    nonzero_sets = []
    for I in itertools.combinations(range(1, params.n + 1), d):
        mat = [[cols[c][i - 1] for c in range(d)] for i in I]
        if linalg.det(mat, ectx):
            nonzero_sets.append(I)
    pivot_guess = tuple(
        sorted(leading_term_data(params, ell).r + 1 for ell in range(1, d + 1))
    ) if params.n % params.p and len(
        {leading_term_data(params, ell).r for ell in range(1, d + 1)}
    ) == d else None
    return CheckReport(
        name=f"independence p={params.p} n={params.n} kappa={params.kappa}",
        passed=bool(nonzero_sets),
        failures=[] if nonzero_sets else [("no nonzero minor", str(z))],
        details={
            "nonzero_index_sets": nonzero_sets,
            "pivot_guess": pivot_guess,
            "pivot_guess_nonzero": pivot_guess in {tuple(s) for s in nonzero_sets}
            if pivot_guess
            else None,
        },
    )


# -- special restrictions -------------------------------------------------------


def special_restriction_values(params: QkzParams, I) -> dict[int, FieldElement]:
    """The substitution z_{i_b} = ((b-1)k - 1) kappa for I = {i_1 < ... < i_m}."""
    _require_prime_kappa(params)
    k = params.k
    return {
        i: params.kappa * ((b - 1) * k - 1) for b, i in enumerate(sorted(I), start=1)
    }


def restrict_special(params: QkzParams, obj, I):
    """Substitute the special values into a VectorPoly, TPoly, or MPoly."""
    vals = special_restriction_values(params, I)
    return obj.substitute(vals)


def verify_restrictions(params: QkzParams, index_sets=None) -> CheckReport:
    """Restriction laws on the special strata: Q(t,z;kappa)|_{S_I} has
    vanishing Pochhammer coefficients below index |I|k - 1 (divisibility by
    (t;kappa)_{|I|k-1}), hence Q^{ell*p-1}|_{S_I} = 0 whenever ell*p < |I|k."""
    _require_prime_kappa(params)
    ctx, n, p, k = params.ctx, params.n, params.p, params.k
    if index_sets is None:
        index_sets = [
            I
            for m in range(1, n + 1)
            for I in itertools.combinations(range(1, n + 1), m)
        ]
    failures = []
    checked = 0
    for I in index_sets:
        vals = special_restriction_values(params, I)
        bound = len(I) * k - 1
        for a in range(1, n + 1):
            factors = []
            for var, shift, m in _q_factors(params, a):
                if var in vals:
                    factors.append((None, (vals[var].val + shift) % p, m))
                else:
                    factors.append((var, shift, m))
            arr, _ = dense.build_product_tpoly(ctx, params.kappa.val, factors)
            pc = dense.dense_pochhammer_coeffs(arr, p, params.kappa.val)
            low = pc[: min(bound, pc.shape[0])]
            if np.any(low):
                bad = int(np.nonzero(np.any(low.reshape(low.shape[0], -1), axis=1))[0][0])
                failures.append((tuple(I), a, bad))
            checked += 1
    return CheckReport(
        name=f"special restrictions p={p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"restrictions_checked": checked},
    )


# -- orthogonality ---------------------------------------------------------------


def orthogonality_pairing(params: QkzParams) -> list[list[MPoly]]:
    """The pairing matrix G[ell-1][m-1] = sum_a Q^{m p-1}_a(-z;-kappa)
    Q^{ell p-1}_a(z;kappa), ell = 1..d(kappa), m = 1..d(-kappa)."""
    _require_prime_kappa(params)
    ctx, n, p = params.ctx, params.n, params.p
    plus = extract_solutions(params).arrays
    minus = extract_solutions(params.minus()).arrays
    out = []
    for sp in plus:
        row = []
        for sm in minus:
            acc = sum(
                dense.dense_conv(sp[a], dense.dense_negate_vars(sm[a], p), p)
                for a in range(n)
            ) % p
            row.append(dense.dense_to_mpoly(acc, ctx, n))
        out.append(row)
    return out


def verify_orthogonality(params: QkzParams) -> CheckReport:
    """Shapovalov orthogonality: every entry of the pairing matrix is the
    zero polynomial when 0 < d(kappa) < n-1."""
    d = params.d
    if d is None or not 0 < d < params.n - 1:
        raise ValueError("orthogonality requires 0 < d(kappa) < n-1")
    G = orthogonality_pairing(params)
    failures = [
        (ell + 1, m + 1)
        for ell, row in enumerate(G)
        for m, g in enumerate(row)
        if not g.is_zero()
    ]
    return CheckReport(
        name=f"orthogonality p={params.p} n={params.n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"shape": (len(G), len(G[0]) if G else 0)},
    )


# -- quasi-hypergeometric sections ------------------------------------------------


def _section_systems(params: QkzParams, Z: np.ndarray, pctx: FieldCtx) -> tuple[np.ndarray, int]:
    """The quasi-section systems at a batch of F_{p^2} points Z (npts, n, 2)
    as (npts, rows, n, 2): rows Q^{m p-1}(-z; -kappa) for m = 1..d(-kappa),
    then (1, ..., 1), then Q^{ell' p-1}(z; kappa) for ell' = 1..d(kappa);
    also returns d(-kappa)."""
    _require_prime_kappa(params)
    n = params.n
    if n % params.p == 0:
        raise ValueError("quasi-sections need p not dividing n")
    minus = evaluate_solutions(extract_solutions(params.minus()).arrays, -Z % pctx.p, pctx)
    plus = evaluate_solutions(extract_solutions(params).arrays, Z, pctx)
    ones = np.broadcast_to(np.array([1, 0], dtype=np.int64), (1,) + plus.shape[1:])
    return np.concatenate([minus, ones, plus]).swapaxes(0, 1), minus.shape[0]


def _solve_sections(system: np.ndarray, dq: int, pctx: FieldCtx) -> list[list[FieldElement]]:
    """T^1..T^dq from one point's section system; ValueError when singular."""
    rows = [_elements(r, pctx) for r in system]
    units = [[pctx.element(int(m == ell)) for m in range(system.shape[1])] for ell in range(dq)]
    return [linalg.solve(rows, rhs, pctx) for rhs in units]


def quasi_sections_at(params: QkzParams, z) -> list[list[FieldElement]]:
    """The d(-kappa) quasi-section values T^ell(z): the unique solutions of
    S(Q^{m p-1}(-z;-kappa), T) = delta_{ell m} subject to sum(T) = 0 and the
    gauge S(Q^{ell' p-1}(z;kappa), T) = 0."""
    pctx = z[0].ctx
    systems, dq = _section_systems(params, points_to_array([z], pctx), pctx)
    return _solve_sections(systems[0], dq, pctx)


def verify_quasi_flatness(params: QkzParams, points, perturb_control: bool = False) -> CheckReport:
    """Flatness modulo the hypergeometric span: at each point,
    K_a(z) T^ell(z) - T^ell(z - kappa e_a) lies in
    span{Q^{ell' p-1}(z - kappa e_a; kappa)}.

    The solutions are evaluated once for the whole batch: every point and
    its n shifts z - kappa e_a.  ``perturb_control`` adds 1 to the first
    coordinate of T^1(z) at every base point (negative control).
    """
    _require_prime_kappa(params)
    n, p = params.n, params.p
    pctx = points[0][0].ctx
    Z = points_to_array(points, pctx)
    # batch row idx*(n+1) is point idx, row idx*(n+1) + a its shift by -kappa e_a
    batch = np.repeat(Z[:, None], n + 1, axis=1)
    for a in range(1, n + 1):
        batch[:, a, a - 1, 0] = (batch[:, a, a - 1, 0] - params.kappa.val) % p
    systems, dq = _section_systems(params, batch.reshape(-1, n, 2), pctx)
    failures = []
    skipped = []
    checked = 0
    for idx, z in enumerate(points):
        base = idx * (n + 1)
        try:
            T = _solve_sections(systems[base], dq, pctx)
        except ValueError:
            skipped.append((idx, "degenerate section system at base point"))
            continue
        if perturb_control:
            T[0][0] = T[0][0] + pctx.element(1)
        for a in range(1, n + 1):
            try:
                Ts = _solve_sections(systems[base + a], dq, pctx)
            except ValueError:
                skipped.append((idx, a))
                continue
            checked += 1
            K = k_operator_at(params, a, z)
            span = [_elements(v, pctx) for v in systems[base + a, dq + 1 :]]
            base_rank = linalg.rank(span, pctx) if span else 0
            for ell in range(len(T)):
                v = [
                    sum((K[i][j] * T[ell][j] for j in range(n)), pctx.zero())
                    - Ts[ell][i]
                    for i in range(n)
                ]
                if any(v):
                    if linalg.rank(span + [v], pctx) != base_rank:
                        failures.append((idx, a, ell + 1))
    return CheckReport(
        name=f"quasi-section flatness p={params.p} n={params.n} kappa={params.kappa}",
        passed=not failures and checked > 0,
        failures=failures if failures else ([("no checkable points", skipped)] if checked == 0 else []),
        details={"points": len(points), "checked": checked, "skipped": skipped},
    )


# -- auxiliary ---------------------------------------------------------------------


def gram_matrix(ctx: FieldCtx, n: int) -> list[list[FieldElement]]:
    """Gram matrix of the dot product on the basis e_i = v^(i) - v^(i+1) of
    the zero-sum space."""
    g = [[ctx.zero() for _ in range(n - 1)] for _ in range(n - 1)]
    for i in range(n - 1):
        g[i][i] = ctx.element(2)
        if i + 1 < n - 1:
            g[i][i + 1] = ctx.element(-1)
            g[i + 1][i] = ctx.element(-1)
    return g


def gram_det(ctx: FieldCtx, n: int) -> FieldElement:
    return linalg.det(gram_matrix(ctx, n), ctx)


def verify_q_product_formula(params: QkzParams, trials: int = 5, seed: int = 0) -> CheckReport:
    """Randomized denominator-cleared cross-check of the product formula
    against the rational definition Phi * eta_a:

    Q_a(t,z) (t - z_a) prod_{j<a}(t - z_j) = Phi(t,z) prod_{j<a}(t - z_j + 1).
    """
    _require_prime_kappa(params)
    ctx, n, k = params.ctx, params.n, params.k
    ectx = FieldCtx(params.p, 2)
    qs = q_vector(params)
    phi = TPoly(ctx, n, [MPoly.const(ctx, n, 1)])
    for j in range(1, n + 1):
        phi = phi * poch_factor(MPoly.variable(ctx, n, j), params.kappa, k)

    def eval_tp(tp: TPoly, tval, zpt):
        acc = ectx.zero()
        for c in reversed(tp.coeffs):
            acc = acc * tval + c.eval(zpt)
        return acc

    failures = []
    for trial in range(trials):
        pt = sample_point(ectx, n + 1, seed * 1000 + trial)
        tval, zpt = pt[0], pt[1:]
        phival = eval_tp(phi, tval, zpt)
        for a in range(1, n + 1):
            lhs = eval_tp(qs[a - 1], tval, zpt) * (tval - zpt[a - 1])
            rhs = phival
            for j in range(a - 1):
                lhs = lhs * (tval - zpt[j])
                rhs = rhs * (tval - zpt[j] + 1)
            if lhs != rhs:
                failures.append((trial, a))
    return CheckReport(
        name=f"product formula vs eta p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
    )


def _render(arrays: np.ndarray, p: int) -> list[list[str]]:
    """Every coordinate polynomial of a (d, n, ...) solution stack as text,
    exactly as ``str(MPoly)`` prints it: terms "c*z1^e1*z2*..." by
    descending (total degree, e_1, ..., e_n), joined by " + "; "0" for the
    zero polynomial."""
    d, n = arrays.shape[:2]
    idx = np.nonzero(arrays)
    exps = idx[2:]
    order = np.lexsort(tuple(-e for e in reversed(exps)) + (-sum(exps), idx[1], idx[0]))
    terms = np.array([str(c) for c in range(p)], dtype=object)[arrays[idx][order]]
    for i, (e, size) in enumerate(zip(exps, arrays.shape[2:]), start=1):
        tokens = np.array(
            [""] + [f"*z{i}"] + [f"*z{i}^{x}" for x in range(2, size)], dtype=object
        )
        terms = terms + tokens[e[order]]
    texts = terms.tolist()
    ends = np.cumsum(np.bincount(idx[0] * n + idx[1], minlength=d * n)).tolist()
    starts = [0] + ends[:-1]
    polys = [" + ".join(texts[b:e]) or "0" for b, e in zip(starts, ends)]
    return [polys[ell * n : (ell + 1) * n] for ell in range(d)]


def solution_set_to_json(ss: SolutionSet) -> dict:
    return {
        "p": ss.params.p,
        "n": ss.params.n,
        "kappa": str(ss.params.kappa),
        "k": ss.params.k,
        "d": ss.d,
        "kind": ss.kind,
        "degrees": ss.degrees(),
        "solutions": _render(ss.arrays, ss.params.p),
    }
