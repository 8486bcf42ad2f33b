"""Sparse views and constructions of the solutions: ``MPoly`` coordinates
of a solution set, the master-product vector Q(t, z; kappa) as sparse
t-polynomials, minors of the solution matrix, substitution of the special
values, the randomized check of the product formula against the
rational definition Phi * eta_a, and the values of a coefficient-array
stack at points, contracted from the arrays.  The package builds and checks
the solutions on dense arrays, and takes their values at points from the
master product; these are the references it is compared with."""

from __future__ import annotations

import itertools

import numpy as np

from charp_qkz.dense import dense_eval_points, dense_to_mpoly
from charp_qkz.ffield import FieldCtx, elements, sample_point
from charp_qkz.hypergeo import (
    SolutionSet,
    _require_prime_kappa,
    extract_solutions,
    special_restriction_values,
)
from charp_qkz.mpoly import MPoly
from charp_qkz.qkz_core import CheckReport, QkzParams

from .tpoly import TPoly, poch_factor
from .vectors import VectorPoly


def sparse_solutions(ss: SolutionSet) -> list[VectorPoly]:
    """The solutions of a set with one ``MPoly`` per coordinate."""
    ctx, n = ss.params.ctx, ss.params.n
    return [VectorPoly([dense_to_mpoly(coord, ctx, n) for coord in sol]) for sol in ss.arrays]


def evaluate_solutions(arrays: np.ndarray, Z: np.ndarray, p: int) -> np.ndarray:
    """Values of every solution in a (d, n, ...) stack at a batch of
    F_{p^2} points Z (npts, n, 2), as (d, npts, n, 2) (a0, a1) pairs; one
    ``dense_eval_points`` call per (solution, coordinate)."""
    d, n = arrays.shape[:2]
    out = np.zeros((d, Z.shape[0], n, 2), dtype=np.int64)
    for s_idx, sol in enumerate(arrays):
        for c_idx, coord in enumerate(sol):
            out[s_idx, :, c_idx] = dense_eval_points(coord, Z, p)
    return out


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
        solutions = sparse_solutions(extract_solutions(params))
    I = sorted(I)
    if len(I) != len(solutions) or not solutions:
        raise ValueError("index set size must equal the number of solutions")
    rows = [[s.coords[i - 1] for s in solutions] for i in I]
    return _det_mpoly(rows)


def restrict_special(params: QkzParams, obj, I):
    """Substitute the special values into a VectorPoly, TPoly, or MPoly."""
    vals = special_restriction_values(params, I)
    return obj.substitute(vals)


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
        pt = elements(sample_point(ectx, n + 1, seed * 1000 + trial), ectx)
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
