"""Construction of the polynomial solutions of the qKZ difference equations
in characteristic p, and of their differential-KZ companions.

The solution vectors are Pochhammer-basis coefficients of the master-product
vector Q(t,z;kappa): coordinate a is the n-fold Pochhammer product

    Q_a = (prod_{j<a} (t-z_j-kappa;kappa)_k) (t-z_a-kappa;kappa)_{k-1}
          (prod_{j>a} (t-z_j;kappa)_k),

with kappa*k = -1 mod p, and the solution with index ell (1 <= ell <= d =
floor(nk/p)) is the coefficient vector of (t;kappa)_{ell*p-1}.  Construction
and every check run on the dense numpy kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dense, linalg
from .ffield import FieldCtx, FieldElement, elements, make_field, sample_point
from .linalg import ext_det_batch, ext_matmul, ext_solve_batch, mod
from .pochhammer import binomial_mod
from .qkz_core import (
    CheckReport,
    QkzParams,
    k_matrix_batch,
    k_operator_at,  # noqa: F401  (a binding perfbench/tracer.py rebinds)
    kappa_shifts,
)

__all__ = [
    "ArraySizeError",
    "SolutionSet",
    "LeadingTermData",
    "extract_solutions",
    "barq_solutions",
    "solution_values",
    "leading_term_data",
    "verify_leading_terms",
    "verify_independence",
    "special_restriction_values",
    "verify_restrictions",
    "verify_orthogonality",
    "quasi_sections_at",
    "verify_quasi_flatness",
    "gram_matrix",
    "gram_det",
    "solution_set_to_json",
]


@dataclass(eq=False)
class SolutionSet:
    """The solutions for one parameter triple, held as one int64 array of
    shape (d, n, k+1, ..., k+1): entry [ell-1, a-1] is coordinate a of the
    coefficient vector at Pochhammer index ell*p - 1 (monomial index for the
    KZ kind), with array axes z_1..z_n.  Every check reads the arrays, and
    ``dense.render_polynomials`` prints them.  The arrays are read-only: a
    cached set is shared by every caller.  The total degree of each solution
    is taken once, when first asked for, and kept."""

    params: QkzParams
    arrays: np.ndarray
    kind: str = "qkz"
    _degrees: tuple[int, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.arrays.flags.writeable = False

    @property
    def d(self) -> int:
        return self.arrays.shape[0]

    def degrees(self) -> list[int]:
        if self._degrees is None:
            self._degrees = tuple(dense.dense_total_degrees(self.arrays))
        return list(self._degrees)


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


def _q_factors(params: QkzParams, a: int) -> list[tuple]:
    """Dense-builder factor list (var, shift, length) for Q_a."""
    k = params.k
    kv = params.kappa.val
    return (
        [(j, kv, k) for j in range(1, a)]
        + [(a, kv, k - 1)]
        + [(j, 0, k) for j in range(a + 1, params.n + 1)]
    )


# The solution cache evicts least-recently-used sets once their arrays hold
# more than this many bytes (512 MiB), keeping the newest set; a larger
# array is refused (``ArraySizeError``).  The default verify sweep's sets
# total 203 MiB, the largest 57 MiB (p=13, n=5, kappa=1), so no default run
# evicts.
_SOLUTION_CACHE_BYTES = 512 << 20
_solution_cache: dict = {}


class ArraySizeError(ValueError):
    """An int64 array of the construction would exceed ``_SOLUTION_CACHE_BYTES``."""


def _checked_shape(params: QkzParams, what: str, shape: tuple) -> tuple:
    """``shape``, or an ArraySizeError before an int64 array of it is made."""
    nbytes = 8 * math.prod(shape)
    if nbytes > _SOLUTION_CACHE_BYTES:
        raise ArraySizeError(
            f"{what} for p={params.p}, n={params.n}, kappa={params.kappa} would take "
            f"{nbytes / 2**30:.3g} GiB, above the {_SOLUTION_CACHE_BYTES >> 20} MiB limit"
        )
    return shape


def _cache_put(key, ss: "SolutionSet") -> None:
    _solution_cache[key] = ss
    total = sum(s.arrays.nbytes for s in _solution_cache.values())
    while total > _SOLUTION_CACHE_BYTES and len(_solution_cache) > 1:
        total -= _solution_cache.pop(next(iter(_solution_cache))).arrays.nbytes


def _solution_rows(params: QkzParams, kappa: int, factors_of) -> np.ndarray:
    """The (d, n, k+1, ..., k+1) stack of Pochhammer coefficients at
    ell*p - 1, ell = 1..d, of the products ``factors_of(a)``, a = 1..n
    (factor j carries z_j).  Only the product over z_2..z_n is expanded in
    t; the z_1 factor is folded into the row functional."""
    p = params.p
    shape = _checked_shape(params, "the solution arrays", (params.d, params.n) + (params.k + 1,) * params.n)
    sols = np.zeros(shape, dtype=np.int64)
    if not params.d:
        return sols
    rows = tuple(ell * p - 1 for ell in range(1, params.d + 1))
    for a in range(1, params.n + 1):
        factors = factors_of(a)
        arr = dense.build_product_tpoly(params.ctx, kappa, factors[1:])
        out = dense.dense_pochhammer_coeffs(arr, p, kappa, rows=rows, factor=factors[0])
        sols[(slice(None), a - 1) + tuple(slice(s) for s in out.shape[1:])] = out
    return sols


def extract_solutions(params: QkzParams) -> SolutionSet:
    """All p-hypergeometric qKZ solutions Q^{ell*p-1}, ell = 1..d(kappa).

    Q^{ell*p-1} = 0 for ell > d(kappa) by degree: deg_t Q_a = nk - 1, and
    ell*p - 1 <= nk - 1 exactly when ell <= floor(nk/p) = d(kappa).  Asserts
    the degree law deg Q^{ell*p-1} = nk - ell*p and that every solution lies
    in the zero-sum space.
    """
    _require_prime_kappa(params)
    key = (params.p, params.n, params.kappa.val)
    if key in _solution_cache:
        _solution_cache[key] = _solution_cache.pop(key)  # most recently used
        return _solution_cache[key]
    n, p, k = params.n, params.p, params.k
    sols = _solution_rows(params, params.kappa.val, functools.partial(_q_factors, params))
    out = SolutionSet(params, sols, kind="qkz")
    for ell, deg in enumerate(out.degrees(), start=1):
        if deg != n * k - ell * p:
            raise AssertionError(f"degree law violated for ell={ell}")
    for ell, s in enumerate(out.arrays, start=1):
        if np.any(s.sum(axis=0) % p):
            raise AssertionError(f"solution ell={ell} not in the zero-sum space")
    _cache_put(key, out)
    return out


def barq_solutions(params: QkzParams) -> SolutionSet:
    """KZ companions: coefficients of t^{ell*p-1} in
    bar-Q_a = (t-z_a)^{k-1} prod_{j != a} (t-z_j)^k.  With kappa = 0 the
    Pochhammer basis (t; 0)_i = t^i is the monomial basis."""
    _require_prime_kappa(params)
    n, k = params.n, params.k

    def factors_of(a):
        return [(j, 0, k - 1 if j == a else k) for j in range(1, n + 1)]

    return SolutionSet(params, _solution_rows(params, 0, factors_of), kind="kz")


def solution_values(params: QkzParams, Z: np.ndarray) -> np.ndarray:
    """Every solution Q^{ell*p-1}, ell = 1..d, at a batch of F_{p^2} points
    Z (npts, n, 2), as (d, npts, n, 2) (a0, a1) pairs, from the master
    product: Q_a(t, z) is a product of nk - 1 factors t - r over F_{p^2},
    multiplied in for every point and coordinate at once, one per pass, and
    rows ell*p - 1 of the basis matrix read the values off its
    t-coefficients.  A pass takes entries at most b to at most
    b (1 + (p-1)(1+delta)), so they are reduced only before that reaches 2^63."""
    _require_prime_kappa(params)
    n, p, kv = params.n, params.p, params.kappa.val
    delta = make_field(p, 2).nonresidue
    # roots[f, a-1] = (j - 1, c): factor f of Q_a is t - z_j - c
    roots = np.array(
        [[(j - 1, (c + s * kv) % p) for j, c, m in _q_factors(params, a) for s in range(m)] for a in range(1, n + 1)]
    ).swapaxes(0, 1)
    negz = mod(-Z, p)
    P0 = np.zeros((len(roots) + 1, len(Z), n), dtype=np.int64)  # [t-degree, point, coordinate]
    P1 = np.zeros_like(P0)
    P0[0], bound, growth = 1, 1, 1 + (p - 1) * (1 + delta)
    for f, (j, c) in enumerate(roots.transpose(0, 2, 1)):
        if bound * growth >= 1 << 63:
            P0, P1, bound = mod(P0, p), mod(P1, p), p - 1
        s0, s1 = mod(negz[:, j, 0] - c, p), negz[:, j, 1]  # -(z_j + c) per point and coordinate
        A0, A1 = P0[: f + 1], P1[: f + 1]
        T0, T1 = A0 * s0, A0 * s1
        T0 += A1 * (delta * s1)
        T1 += A1 * s0
        T0[1:] += A0[:-1]
        T1[1:] += A1[:-1]
        P0[f + 1], P1[f + 1] = A0[f], A1[f]
        P0[: f + 1], P1[: f + 1], bound = T0, T1, bound * growth
    rows = [ell * p - 1 for ell in range(1, params.d + 1)]
    M = dense._pochhammer_basis_matrix(p, kv, len(P0))[rows]
    values = [M @ mod(P, p).reshape(len(P), -1) for P in (P0, P1)]
    return mod(np.stack(values, axis=-1), p).reshape(len(rows), len(Z), n, 2)


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


def verify_independence(
    params: QkzParams, seed: int = 0, duplicate_control: bool = False
) -> CheckReport:
    """Linear independence: some d x d minor of the solution
    matrix has a nonzero evaluation at a sampled nonsingular point.

    Reports every index set whose minor evaluates nonzero; the predicted
    pivot set {r(ell)+1} is recorded separately.
    """
    d, name = params.d, f"independence p={params.p} n={params.n} kappa={params.kappa}"
    if d == 0:
        return CheckReport(name=name, passed=True, details={"d": 0})
    ectx = make_field(params.p, 2)
    z = sample_point(ectx, params.n, seed)
    vals = solution_values(params, z[None])[:, 0]
    if duplicate_control and d >= 2:
        vals = vals[[0, 0, *range(2, d)]]
    rows = np.swapaxes(vals, 0, 1)  # row i-1: coordinate i of every solution at z
    index_sets = list(itertools.combinations(range(1, params.n + 1), d))
    dets = ext_det_batch(rows[np.array(index_sets) - 1], params.p)
    nonzero_sets = [I for I, dv in zip(index_sets, dets) if dv.any()]
    rs = [leading_term_data(params, ell).r for ell in range(1, d + 1)] if params.n % params.p else []
    pivot_guess = tuple(sorted(r + 1 for r in rs)) if len(set(rs)) == d else None
    return CheckReport(
        name=name,
        passed=bool(nonzero_sets),
        failures=[] if nonzero_sets else [("no nonzero minor", str(elements(z, ectx)))],
        details={
            "nonzero_index_sets": nonzero_sets,
            "pivot_guess": pivot_guess,
            "pivot_guess_nonzero": pivot_guess in nonzero_sets if pivot_guess else None,
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


def verify_restrictions(params: QkzParams, perturb_control: bool = False) -> CheckReport:
    """Restriction laws on the special strata: Q(t,z;kappa)|_{S_I} has
    vanishing Pochhammer coefficients below index |I|k - 1 (divisibility by
    (t;kappa)_{|I|k-1}), hence Q^{ell*p-1}|_{S_I} = 0 whenever ell*p < |I|k.

    ``perturb_control`` adds 1 to the t^0 coefficient of every restricted
    product (negative control): (t;kappa)_i vanishes at t = 0 for i >= 1, so
    exactly the coefficient at index 0 becomes 1.
    """
    _require_prime_kappa(params)
    n, p = params.n, params.p
    index_sets = (I for m in range(1, n + 1) for I in itertools.combinations(range(1, n + 1), m))
    failures = []
    checked = 0
    for I in index_sets:
        for a in range(1, n + 1):
            low = _restriction_rows(params, I, a)
            if perturb_control and len(low):
                low[(0,) * low.ndim] = (low[(0,) * low.ndim] + 1) % p
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


def _restriction_rows(params: QkzParams, I, a: int) -> np.ndarray:
    """Pochhammer coefficients of Q_a|_{S_I} below index |I|k - 1 (axis 0),
    with the axes of the variables left free after it (z_1 first)."""
    p, kappa = params.p, params.kappa.val
    vals = special_restriction_values(params, I)
    factors = [
        (None, (vals[var].val + shift) % p, m) if var in vals else (var, shift, m)
        for var, shift, m in _q_factors(params, a)
    ]
    free = [m + 1 for var, _, m in factors[1:] if var is not None]  # axes after the t-degree
    _checked_shape(params, f"the product restricted to S_{set(I)}", (1 + sum(m for *_, m in factors[1:]), *free))
    arr = dense.build_product_tpoly(params.ctx, kappa, factors[1:])
    rows = range(min(len(I) * params.k - 1, params.n * params.k))  # deg_t Q_a = nk - 1
    return dense.dense_pochhammer_coeffs(arr, p, kappa, rows=rows, factor=factors[0])


# -- orthogonality ---------------------------------------------------------------


def _grid_values(arr: np.ndarray, p: int, n: int) -> np.ndarray:
    """The values of a dense coefficient array (the last n axes z_1..z_n,
    axis size s bounding that degree by s - 1), or of a stack of them along
    the axes before, on the grid (F_p u {inf})^n, as an array of shape
    (*stack, p+1, ..., p+1) with index p for infinity.  Each variable axis
    is contracted in int64 with V[e, x] = x^e mod p (x in F_p) and
    V[s-1, p] = 1, which reads the z^{s-1} coefficient at infinity; every
    partial sum is below (p+1)(p-1)^2."""
    sizes = arr.shape[arr.ndim - n :]
    powers = np.ones((max(sizes), p), dtype=np.int64)  # powers[e, x] = x^e mod p
    for e in range(1, len(powers)):
        powers[e] = powers[e - 1] * np.arange(p) % p
    # the stack axes go last: each step contracts the leading axis and
    # appends its grid axis last, so after n steps the stack leads again
    out = np.moveaxis((arr % p).reshape((-1,) + sizes), 0, -1)
    for s in sizes:
        V = np.hstack([powers[:s], np.eye(s, dtype=np.int64)[:, -1:]])
        out = out.reshape(s, -1).T @ V
        out %= p
    return out.reshape(arr.shape[: arr.ndim - n] + (p + 1,) * n)


def verify_orthogonality(params: QkzParams, unnegated_control: bool = False) -> CheckReport:
    """Shapovalov orthogonality: every entry of the pairing matrix
    G[ell-1][m-1] = sum_a Q^{ell p-1}_a(z;kappa) Q^{m p-1}_a(-z;-kappa),
    ell = 1..d(kappa), m = 1..d(-kappa), is the zero polynomial when
    0 < d(kappa) < n-1.

    Decided exactly on the grid (F_p u {inf})^n.  Per axis, send a
    polynomial of degree <= D <= p to its values at F_p and its z^D
    coefficient at infinity; this map is injective (a zero z^D coefficient
    leaves degree < p, and p roots force zero), so its tensor product over
    the axes is too.  The value at infinity is multiplicative when the
    bounds add: Q^{ell p-1} has box k+1 per axis and Q^{m p-1}(z;-kappa)
    box p-k+1, so the bounds sum to p.  Hence G is zero exactly when
    sum_a of the products of the factors' grid values is zero.

    ``unnegated_control`` pairs with Q^{m p-1}(z;-kappa) in place of
    Q^{m p-1}(-z;-kappa) (negative control).
    """
    d = params.d
    if d is None or not 0 < d < params.n - 1:
        raise ValueError("orthogonality requires 0 < d(kappa) < n-1")
    p = params.p
    plus = extract_solutions(params).arrays
    minus = extract_solutions(params.minus()).arrays
    if any(sp + sm - 2 > p for sp, sm in zip(plus.shape[2:], minus.shape[2:])):
        raise AssertionError("pairing degree exceeds p on an axis")
    # z -> -z scales each coefficient by the sign of its monomial
    sign = 1 if unnegated_control else dense.dense_negate_vars(np.ones(minus.shape[2:], dtype=np.int64), p)
    G = np.zeros((len(plus), len(minus)) + (p + 1,) * params.n, dtype=np.int64)
    for a in range(params.n):
        right = _grid_values(minus[:, a] * sign, p, params.n)
        for ell, left in enumerate(_grid_values(plus[:, a], p, params.n)):
            G[ell] += left * right
    nonzero = np.any(G.reshape(G.shape[:2] + (-1,)) % p, axis=2)
    failures = [(int(ell) + 1, int(m) + 1) for ell, m in np.argwhere(nonzero)]
    return CheckReport(
        name=f"orthogonality p={params.p} n={params.n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"shape": G.shape[:2]},
    )


# -- quasi-hypergeometric sections ------------------------------------------------


def _section_systems(params: QkzParams, Z: np.ndarray) -> tuple[np.ndarray, int]:
    """The quasi-section systems at a batch of F_{p^2} points Z (npts, n, 2)
    as (npts, rows, n, 2): rows Q^{m p-1}(-z; -kappa) for m = 1..d(-kappa),
    then (1, ..., 1), then Q^{ell' p-1}(z; kappa) for ell' = 1..d(kappa);
    also returns d(-kappa)."""
    _require_prime_kappa(params)
    n = params.n
    if n % params.p == 0:
        raise ValueError("quasi-sections need p not dividing n")
    minus = solution_values(params.minus(), mod(-Z, params.p))
    plus = solution_values(params, Z)
    ones = np.broadcast_to(np.array([1, 0], dtype=np.int64), (1,) + plus.shape[1:])
    return np.concatenate([minus, ones, plus]).swapaxes(0, 1), minus.shape[0]


def _invert_sections(systems: np.ndarray, dq: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The first dq + 1 columns of the inverse of every section system
    (..., n, n, 2), and the mask of the invertible ones.  Column ell - 1 is
    T^ell (ell <= dq); a vector lies in the span of the plus solutions (the
    later rows) exactly when it is orthogonal to all dq + 1 columns."""
    n = systems.shape[-2]
    eye = np.zeros((n, dq + 1, 2), dtype=np.int64)
    eye[range(dq + 1), range(dq + 1), 0] = 1
    return ext_solve_batch(systems, eye, p)


def quasi_sections_at(params: QkzParams, z: np.ndarray) -> list[list[FieldElement]]:
    """The d(-kappa) quasi-section values T^ell(z) at one F_{p^2} point z
    (n, 2): the unique solutions of S(Q^{m p-1}(-z;-kappa), T) =
    delta_{ell m} subject to sum(T) = 0 and the gauge
    S(Q^{ell' p-1}(z;kappa), T) = 0."""
    systems, dq = _section_systems(params, z[None])
    X, ok = _invert_sections(systems, dq, params.p)
    if not ok[0]:
        raise ValueError("singular quasi-section system")
    return elements(np.swapaxes(X[0], 0, 1)[:dq], make_field(params.p, 2))


def verify_quasi_flatness(params: QkzParams, Z: np.ndarray, perturb_control: bool = False) -> CheckReport:
    """Flatness modulo the hypergeometric span: at each point z of a batch Z
    (npts, n, 2) of F_{p^2} points, K_a(z) T^ell(z) - T^ell(z - kappa e_a)
    lies in span{Q^{ell' p-1}(z - kappa e_a; kappa)}.

    The solutions are evaluated, and the section systems solved, once for
    the whole batch: every point and its n shifts z - kappa e_a.
    ``perturb_control`` adds 1 to the first coordinate of T^1(z) at every
    base point (negative control).
    """
    _require_prime_kappa(params)
    n, p = params.n, params.p
    # batch row idx*(n+1) is point idx, row idx*(n+1) + a its shift by -kappa e_a
    batch = np.concatenate([Z[None], kappa_shifts(params, Z)]).swapaxes(0, 1)
    systems, dq = _section_systems(params, batch.reshape(-1, n, 2))
    X, ok = _invert_sections(systems.reshape(batch.shape[:2] + systems.shape[1:]), dq, p)
    T = X[:, 0, :, :dq]  # T^ell(z) as columns
    if perturb_control:
        T[:, 0, 0, 0] = (T[:, 0, 0, 0] + 1) % p
    outside = np.zeros((len(Z), n, dq), dtype=bool)  # [idx, a-1, ell-1]
    # every (point, a) with both systems solvable, in one kernel call
    idx, ax = np.nonzero(ok[:, :1] & ok[:, 1:])
    Xs = X[idx, ax + 1]
    K = k_matrix_batch(params, ax + 1, Z[idx])
    v = ext_matmul(K, T[idx], p) - Xs[:, :, :dq]
    coef = ext_matmul(np.swapaxes(v % p, 1, 2), Xs, p)
    outside[idx, ax] = np.any(coef != 0, axis=(2, 3))
    skipped = []
    for idx in range(len(Z)):
        if not ok[idx, 0]:
            skipped.append((idx, "degenerate section system at base point"))
        else:
            skipped += [(idx, a) for a in range(1, n + 1) if not ok[idx, a]]
    checked = int(np.sum(ok[:, :1] & ok[:, 1:]))
    failures = [(int(i), int(a) + 1, int(ell) + 1) for i, a, ell in np.argwhere(outside)]
    return CheckReport(
        name=f"quasi-section flatness p={params.p} n={params.n} kappa={params.kappa}",
        passed=not failures and checked > 0,
        failures=failures if failures else ([("no checkable points", skipped)] if checked == 0 else []),
        details={"points": len(Z), "checked": checked, "skipped": skipped},
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


def solution_set_to_json(ss: SolutionSet) -> dict:
    return {
        "p": ss.params.p,
        "n": ss.params.n,
        "kappa": str(ss.params.kappa),
        "k": ss.params.k,
        "d": ss.d,
        "kind": ss.kind,
        "degrees": ss.degrees(),
        "solutions": dense.render_polynomials(ss.arrays, ss.params.p),
    }
