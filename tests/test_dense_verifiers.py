"""The dense solution checks against the sparse references they replaced.

The qKZ/KZ verifiers and the quasi-section evaluations run on the dense
coefficient arrays of ``SolutionSet.arrays``.  The sparse ``MPoly``
implementations they superseded live on here as oracles: the
denominator-cleared equations built from ``k_operator`` /
``gaudin_operator`` products, and quasi-sections from scalar
``MPoly.eval`` calls, K_a from ``k_operator`` and the scalar elimination
of ``oracles.linalg``.  Every report must agree with its oracle in verdict
and in the failure list, on the solutions and on single-coefficient
perturbations of them.
"""

import random

import numpy as np
import pytest

from charp_qkz.cli import _mix
from charp_qkz.dense import dense_to_mpoly, dense_top_degree_part
from charp_qkz.ffield import elements, make_field, sample_point
from charp_qkz.hypergeo import (
    _leading_term,
    barq_solutions,
    evaluate_solutions,
    extract_solutions,
    quasi_sections_at,
    verify_quasi_flatness,
)
from charp_qkz.mpoly import MPoly
from charp_qkz.qkz_core import (
    make_params,
    verify_kz_solution,
    verify_qkz_solution,
)
from oracles import linalg as scalar_linalg
from oracles.operators import k_operator
from oracles.solutions import sparse_solutions
from oracles.vectors import shift_point
from oracles.vectors import VectorPoly, gaudin_operator


# -- sparse oracles ------------------------------------------------------------


def _den_poly(op, ctx, n):
    acc = MPoly.const(ctx, n, 1)
    for form in op.den:
        acc = acc * form.as_mpoly(n)
    return acc


def _apply_num(op, f):
    """Numerator-matrix action on a polynomial vector (no denominator)."""
    out = []
    for row in op.num:
        acc = MPoly.zero(f.ctx, f.coords[0].nvars)
        for entry, coord in zip(row, f.coords):
            if entry and coord:
                acc = acc + entry * coord
        out.append(acc)
    return out


def sparse_qkz_failures(params, f):
    """(a, i) pairs where (prod den_a) f_i(z - kappa e_a) != (num_a f)_i."""
    ctx, n = params.ctx, params.n
    failures = []
    for a in range(1, n + 1):
        op = k_operator(params, a)
        denf = _den_poly(op, ctx, n)
        shifted = f.shift_var(a, -params.kappa)
        rhs = _apply_num(op, f)
        for i in range(n):
            if denf * shifted.coords[i] != rhs[i]:
                failures.append((a, i + 1))
    return failures


def sparse_kz_failures(params, f):
    """(a, i) pairs where kappa (prod den_a) df_i/dz_a != (num(H_a) f)_i."""
    ctx, n = params.ctx, params.n
    failures = []
    for a in range(1, n + 1):
        op = gaudin_operator(params, a)
        denf = _den_poly(op, ctx, n)
        rhs = _apply_num(op, f)
        for i in range(n):
            if (denf * f.coords[i].derivative(a)).scale(params.kappa) != rhs[i]:
                failures.append((a, i + 1))
    return failures


def scalar_quasi_sections_at(params, z):
    n = params.n
    pctx = z[0].ctx
    minus = sparse_solutions(extract_solutions(params.minus()))
    plus = sparse_solutions(extract_solutions(params))
    negz = [-zi for zi in z]
    rows = [[s.coords[a].eval(negz) for a in range(n)] for s in minus]
    rows.append([pctx.element(1)] * n)
    rows += [[s.coords[a].eval(z) for a in range(n)] for s in plus]
    out = []
    for ell in range(len(minus)):
        rhs = [pctx.element(1) if m == ell else pctx.zero() for m in range(n)]
        out.append(scalar_linalg.solve(rows, rhs, pctx))
    return out


def scalar_quasi_flatness(params, points, perturb_control=False):
    """(passed, failures, details) of the per-point scalar quasi check."""
    n = params.n
    plus = sparse_solutions(extract_solutions(params))
    ops = {a: k_operator(params, a) for a in range(1, n + 1)}
    failures, skipped, checked = [], [], 0
    for idx, z in enumerate(points):
        pctx = z[0].ctx
        try:
            T = scalar_quasi_sections_at(params, z)
        except ValueError:
            skipped.append((idx, "degenerate section system at base point"))
            continue
        if perturb_control:
            T[0][0] = T[0][0] + pctx.element(1)
        for a in range(1, n + 1):
            zs = shift_point(z, a, params.kappa)
            try:
                Ts = scalar_quasi_sections_at(params, zs)
            except ValueError:
                skipped.append((idx, a))
                continue
            checked += 1
            K = ops[a].eval_at(z)
            span = [s.eval(zs) for s in plus]
            base_rank = scalar_linalg.rank(span, pctx) if span else 0
            for ell in range(len(T)):
                v = [
                    sum((K[i][j] * T[ell][j] for j in range(n)), pctx.zero()) - Ts[ell][i]
                    for i in range(n)
                ]
                if any(v) and scalar_linalg.rank(span + [v], pctx) != base_rank:
                    failures.append((idx, a, ell + 1))
    if not failures and checked == 0:
        failures = [("no checkable points", skipped)]
    details = {"points": len(points), "checked": checked, "skipped": skipped}
    return not failures and checked > 0, failures, details


# -- helpers -------------------------------------------------------------------


def _sparse(params, F):
    return VectorPoly([dense_to_mpoly(c, params.ctx, params.n) for c in F])


def _perturb(F, p, rng):
    """A copy of F with one seeded coefficient moved by a nonzero amount."""
    out = F.copy()
    cell = tuple(rng.randrange(s) for s in F.shape)
    out[cell] = (out[cell] + rng.randrange(1, p)) % p
    return out


def _triples(primes, ns):
    return [(p, n, kv) for p in primes for n in ns if n < p for kv in range(1, p)]


# -- symbolic verifiers ----------------------------------------------------------


@pytest.mark.parametrize("p,n", [(p, n) for p in (5, 7, 11) for n in (2, 3, 4) if n < p])
def test_dense_verifiers_match_sparse_oracle(p, n):
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        if params.d == 0:
            continue
        rng = random.Random(_mix("oracle", p, n, kv))
        cases = [
            (verify_qkz_solution, sparse_qkz_failures, extract_solutions(params).arrays),
            (verify_kz_solution, sparse_kz_failures, barq_solutions(params).arrays),
        ]
        for verify, oracle, arrays in cases:
            for ell, F in enumerate(arrays, start=1):
                for G in (F, _perturb(F, p, rng)):
                    rep = verify(params, G)
                    expect = oracle(params, _sparse(params, G))
                    assert (rep.passed, rep.failures) == (not expect, expect), (
                        verify.__name__, p, n, kv, ell,
                    )
                assert rep.failures, ("perturbation went unnoticed", p, n, kv, ell)


def test_verifiers_accept_any_padding():
    """The arrays may carry zero margins beyond the support."""
    params = make_params(make_field(7), 4, 2)
    F = extract_solutions(params).arrays[0]
    wide = np.zeros((4,) + tuple(s + 3 for s in F.shape[1:]), dtype=np.int64)
    wide[(slice(None),) + tuple(slice(s) for s in F.shape[1:])] = F
    assert verify_qkz_solution(params, wide).passed
    assert verify_kz_solution(params, wide).failures == verify_kz_solution(params, F).failures
    assert verify_kz_solution(params, barq_solutions(params).arrays[0]).passed


def test_verifiers_reject_mismatched_arrays():
    params = make_params(make_field(5), 3, 1)
    F = extract_solutions(params).arrays[0]
    with pytest.raises(ValueError):
        verify_qkz_solution(params, F[:2])
    with pytest.raises(ValueError):
        verify_kz_solution(params, F[0])


# -- top-degree parts and leading terms -----------------------------------------


@pytest.mark.parametrize("p", (5, 7))
def test_top_degree_and_leading_terms_match_sparse(p):
    """The array top-degree part and leading term equal the VectorPoly ones
    on every solution of the test sweep (both kinds), and on a perturbation
    of each."""
    ctx = make_field(p)
    for _, n, kv in _triples((p,), (2, 3, 4, 5)):
        params = make_params(ctx, n, kv)
        if params.d == 0:
            continue
        rng = random.Random(_mix("leading", p, n, kv))
        for ss in (extract_solutions(params), barq_solutions(params)):
            for ell, F in enumerate(ss.arrays, start=1):
                for G in (F, _perturb(F, p, rng)):
                    f = _sparse(params, G)
                    assert _leading_term(G, ctx) == f.leading_term(), (p, n, kv, ell)
                    top = dense_top_degree_part(G)
                    assert _sparse(params, top) == f.top_degree_part(), (p, n, kv, ell)


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError):
        _leading_term(np.zeros((3, 2, 2, 2), dtype=np.int64), make_field(5))


# -- quasi-sections ---------------------------------------------------------------


def test_evaluate_solutions_matches_scalar_eval():
    params = make_params(make_field(7), 4, 2)
    pctx = make_field(7, 2)
    ss = extract_solutions(params)
    Z = np.stack([sample_point(pctx, 4, 100 + i) for i in range(5)])
    vals = evaluate_solutions(ss.arrays, Z, pctx)
    assert vals.shape == (ss.d, 5, 4, 2)
    for s_idx, sol in enumerate(sparse_solutions(ss)):
        for i, z in enumerate(elements(Z, pctx)):
            assert elements(vals[s_idx, i], pctx) == sol.eval(z)


@pytest.mark.parametrize("p,n", [(5, 3), (5, 4), (7, 3), (7, 4)])
def test_quasi_flatness_matches_scalar_oracle(p, n):
    """Reports equal the per-point scalar evaluation at the CLI's sample
    points, for every kappa with sections on both sides; at p=5 also under
    the perturbation control."""
    ctx, pctx = make_field(p), make_field(p, 2)
    compared = 0
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        if params.d == 0 or params.minus().d == 0:
            continue
        Z = np.stack([sample_point(pctx, n, _mix(1, "quasi", p, n, kv, i)) for i in range(6)])
        for perturb in (False, True) if p == 5 else (False,):
            rep = verify_quasi_flatness(params, Z, perturb_control=perturb)
            passed, failures, details = scalar_quasi_flatness(params, elements(Z, pctx), perturb)
            assert (rep.passed, rep.failures, rep.details) == (passed, failures, details)
            assert rep.passed != perturb, (p, n, kv)
            compared += 1
        assert quasi_sections_at(params, Z[0]) == scalar_quasi_sections_at(params, elements(Z[0], pctx))
    assert compared


def test_quasi_flatness_skips_singular_systems_like_oracle():
    """At p=5, n=3, kappa=2 the section system is singular at z = (0, 6, 13)
    (values as integers a0 + 5*a1), a point off every singular hyperplane;
    (2, 6, 13) is regular but its shift z - kappa e_1 is that point."""
    params = make_params(make_field(5), 3, 2)
    pctx = make_field(5, 2)
    singular = np.array([[0, 0], [1, 1], [3, 2]])
    assert [x.val for x in elements(singular, pctx)] == [0, 6, 13]
    with pytest.raises(ValueError):
        scalar_quasi_sections_at(params, elements(singular, pctx))
    with pytest.raises(ValueError):
        quasi_sections_at(params, singular)
    Z = np.stack([singular, [[2, 0]] + singular[1:].tolist(), sample_point(pctx, 3, 7)])
    rep = verify_quasi_flatness(params, Z)
    assert (rep.passed, rep.failures, rep.details) == scalar_quasi_flatness(params, elements(Z, pctx))
    assert rep.details["skipped"][:2] == [(0, "degenerate section system at base point"), (1, 1)]
