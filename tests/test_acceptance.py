"""Acceptance battery: fifteen criteria, each one test emitting a single
pass/fail line.  All comparisons are exact (finite-field equality); the
timed criteria assert their wall-clock budgets.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion,
or with ``-s`` to see the explicit [PASS] lines.
"""

import random
import time
from contextlib import contextmanager
from math import comb

import numpy as np
import pytest

from charp_qkz import hypergeo
from charp_qkz.dense import dense_eval_points, dense_to_mpoly, dense_top_degree_part, dense_total_degrees
from charp_qkz.ffield import elements, make_field, sample_point
from charp_qkz.hypergeo import (
    barq_solutions,
    extract_solutions,
    leading_term_data,
    quasi_sections_at,
    verify_independence,
    verify_leading_terms,
    verify_orthogonality,
    verify_restrictions,
)
from charp_qkz.linalg import ext_rank_batch
from charp_qkz.mpoly import MPoly
from charp_qkz.pcurvature import (
    curvature_symbolic,
    verify_curvature_battery,
    verify_duality,
    verify_ext_kappa,
)
from charp_qkz.pochhammer import pochhammer_identity_suite
from charp_qkz.qkz_core import (
    make_params,
    verify_flatness,
    verify_kz_solution,
    verify_qkz_solution,
    verify_rmatrix_identities,
)
from oracles.operators import d_a_poly
from oracles.solutions import sparse_solutions
from oracles.vectors import shapovalov
from oracles.zbox import w_to_z

SWEEP_PRIMES = (5, 7, 11, 13)
SWEEP_N = (2, 3, 4, 5)


def sweep_triples():
    for p in SWEEP_PRIMES:
        for n in SWEEP_N:
            if n >= p:
                continue
            for kv in range(1, p):
                yield p, n, kv


@contextmanager
def criterion(num, desc, budget=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.time() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    stamp = f" ({elapsed:.1f}s)" if budget is not None else ""
    print(f"[PASS] criterion {num}: {desc}{stamp}")


def test_criterion_01_pochhammer_identity_suite():
    with criterion(1, "Pochhammer identity suite, p in {3,5,7,11,13}, lengths to 2p", budget=10):
        rng = random.Random(1)
        for p in (3, 5, 7, 11, 13):
            ctx = make_field(p)
            kappas = list(range(1, p))
            rng.shuffle(kappas)
            for kv in kappas[:10]:
                rep = pochhammer_identity_suite(ctx, ctx.element(kv))
                assert rep.passed, (p, kv, rep.failures[:3])


def test_criterion_02_rmatrix_unitarity_yang_baxter():
    with criterion(2, "R-matrix unitarity and Yang-Baxter, p in {3,5,7}", budget=5):
        for p in (3, 5, 7):
            rep = verify_rmatrix_identities(make_field(p))
            assert rep.passed, (p, rep.failures)


def test_criterion_03_discrete_flatness():
    with criterion(3, "discrete flatness at >= 20 extension-field points", budget=60):
        for p in (5, 7, 11):
            ctx = make_field(p)
            pctx = make_field(p, 2)
            for n in SWEEP_N:
                if n >= p:
                    continue
                Z = np.stack([sample_point(pctx, n, 9000 + 37 * n + i) for i in range(20)])
                for kv in range(1, p):
                    rep = verify_flatness(make_params(ctx, n, kv), Z)
                    assert rep.passed, (p, n, kv, rep.failures[:3])


def test_criterion_04_qkz_solutions_symbolic():
    with criterion(4, "every extracted solution satisfies qKZ symbolically, full sweep", budget=300):
        for p, n, kv in sweep_triples():
            params = make_params(make_field(p), n, kv)
            ss = extract_solutions(params)
            assert ss.d == params.d
            for ell, F in enumerate(ss.arrays, start=1):
                rep = verify_qkz_solution(params, F)
                assert rep.passed, (p, n, kv, ell, rep.failures[:2])


def test_criterion_05_golden_values():
    with criterion(5, "golden values at p=5, n=2: explicit solution and quasi-section"):
        ctx = make_field(5)
        params = make_params(ctx, 2, 3)
        ss = extract_solutions(params)
        z1 = MPoly.variable(ctx, 2, 1)
        z2 = MPoly.variable(ctx, 2, 2)
        assert ss.d == 1
        assert sparse_solutions(ss)[0].coords[0] == z1.scale(-2) + z2.scale(2) + MPoly.const(ctx, 2, 2)
        assert sparse_solutions(ss)[0].coords[1] == z1.scale(2) + z2.scale(-2) + MPoly.const(ctx, 2, -2)
        assert str(sparse_solutions(ss)[0].coords[0]) == "3*z1 + 2*z2 + 2"

        params2 = make_params(ctx, 2, 2)
        assert params2.d == 0
        assert sparse_solutions(extract_solutions(params2)) == []
        dual = sparse_solutions(extract_solutions(params2.minus()))[0]
        pctx = make_field(5, 2)
        three = pctx.element(3)
        for seed in range(3):
            z = sample_point(pctx, 2, seed)
            (T,) = quasi_sections_at(params2, z)
            z = elements(z, pctx)
            two = pctx.element(2)
            assert T[0] == three / (two * z[0] - two * z[1] + two)
            assert T[1] == three / (-(two * z[0]) + two * z[1] - two)
            qdual = dual.eval([-v for v in z])
            # the two pairing contributions are each 3, and 3 + 3 = 1 mod 5
            assert [qdual[i] * T[i] for i in range(2)] == [three, three]
            assert shapovalov(qdual, T) == pctx.one()


def test_criterion_06_d_complement_law():
    with criterion(6, "d(kappa) + d(-kappa) = n - 1 across the sweep"):
        for p, n, kv in sweep_triples():
            ctx = make_field(p)
            kappa = ctx.element(kv)
            assert make_params(ctx, n, kappa).d + make_params(ctx, n, -kappa).d == n - 1


def test_criterion_07_leading_terms():
    with criterion(7, "closed-form leading terms across sweep, incl. n=3 branches at p=7"):
        for p, n, kv in sweep_triples():
            params = make_params(make_field(p), n, kv)
            if params.d == 0:
                continue
            rep = verify_leading_terms(params)
            assert rep.passed, (p, n, kv, rep.failures[:3])

        ctx = make_field(7)
        # branch p/2 < k < 2p/3 at k=4 (kappa=5): L = z1^k z2^(2k-p) c (0, p-k, k)
        params = make_params(ctx, 3, 5)
        assert params.k == 4
        mono, vec = sparse_solutions(extract_solutions(params))[0].leading_term()
        assert mono == (4, 1, 0)
        scale = vec[2] / ctx.element(4)
        assert [v / scale for v in vec] == [ctx.element(c) for c in (0, 3, 4)]
        assert vec[1] == ctx.element((-1) ** (3 * 4 - 7) * comb(4, 1) * 3) / ctx.element(4)
        # branch p/3 < k < p/2 at k=3 (kappa=2): L = z1^(3k-p) c' (p-2k, k, k)
        params = make_params(ctx, 3, 2)
        assert params.k == 3
        mono, vec = sparse_solutions(extract_solutions(params))[0].leading_term()
        assert mono == (2, 0, 0)
        scale = vec[1] / ctx.element(3)
        assert [v / scale for v in vec] == [ctx.element(c) for c in (1, 3, 3)]
        # vector-leading-term equality with the differential companion
        for kv in (5, 2):
            params = make_params(ctx, 3, kv)
            q = sparse_solutions(extract_solutions(params))[0]
            bar = sparse_solutions(barq_solutions(params))[0]
            assert q.leading_term() == bar.leading_term()


def test_criterion_08_nonzero_minor():
    with criterion(8, "a nonzero d x d minor exists for every sweep triple"):
        for p, n, kv in sweep_triples():
            params = make_params(make_field(p), n, kv)
            if params.d == 0:
                continue
            rep = verify_independence(params, seed=5)
            assert rep.passed, (p, n, kv, rep.failures[:3])


def test_criterion_09_orthogonality():
    with criterion(9, "pairing matrix identically zero for 0 < d < n-1", budget=300):
        checked = set()
        for p, n, kv in sweep_triples():
            params = make_params(make_field(p), n, kv)
            if not 0 < params.d < n - 1:
                continue
            rep = verify_orthogonality(params)
            assert rep.passed, (p, n, kv, rep.failures[:3])
            checked.add((p, n))
        # the named instances are present in the sweep
        assert (5, 3) in checked
        for n in (3, 4, 5):
            assert (7, n) in checked


def test_criterion_10_restriction_vanishing():
    with criterion(10, "restriction vanishing and Pochhammer divisibility, sweep-wide"):
        for p, n, kv in sweep_triples():
            params = make_params(make_field(p), n, kv)
            if params.d == 0:
                continue
            rep = verify_restrictions(params)
            assert rep.passed, (p, n, kv, rep.failures[:3])


def test_criterion_11_curvature_battery():
    with criterion(11, "curvature battery at >= 50 points per triple, plus duality", budget=300):
        for p, n, kv in sweep_triples():
            params = make_params(make_field(p), n, kv)
            rep = verify_curvature_battery(params, npoints=50, seed=7)
            assert rep.passed, (p, n, kv, rep.failures[:3])
            dual = verify_duality(params, npoints=50, seed=7)
            assert dual.passed, (p, n, kv, dual.failures[:3])


def test_criterion_12_symbolic_curvature():
    with criterion(12, "symbolic curvature at p=5, n=3: polynomial, degree <= 5, top rank <= 1", budget=120):
        ctx = make_field(5)
        pctx = make_field(5, 2)
        Z = np.stack([sample_point(pctx, 3, 1200 + seed) for seed in range(5)])
        for kv in (1, 2, 3, 4):
            params = make_params(ctx, 3, kv)
            for a in range(1, 4):
                # built in w_j = z_a - z_j, expanded exactly into z
                Ctil, Da = (w_to_z(arr, a, 3, 5) for arr in curvature_symbolic(params, a))
                assert dense_to_mpoly(Da, ctx, 3) == d_a_poly(params, a)
                entries = Ctil.reshape((9,) + Ctil.shape[2:])
                assert dense_total_degrees(entries[None])[0] <= 5
                top = dense_top_degree_part(entries)
                M = np.stack([dense_eval_points(e, Z, 5, pctx.nonresidue) for e in top], axis=1)
                assert np.all(ext_rank_batch(M.reshape(5, 3, 3, 2), pctx) <= 1)


def test_criterion_13_ext_kappa_nondegeneracy():
    with criterion(13, "nonzero curvature determinant for kappa outside F_p, 50 points"):
        rng = random.Random(13)
        for p in (5, 7):
            ectx = make_field(p, 2)
            for n in (2, 3):
                for _ in range(5):
                    kappa = ectx.element(rng.randrange(p), rng.randrange(1, p))
                    params = make_params(ectx, n, kappa)
                    rep = verify_ext_kappa(params, npoints=50, seed=rng.randrange(10**6))
                    assert rep.passed, (p, n, str(kappa), rep.failures[:2])


def test_criterion_14_kz_side():
    with criterion(14, "differential companions: identity, top-degree equality, top-part check"):
        for p, n, kv in sweep_triples():
            params = make_params(make_field(p), n, kv)
            if params.d == 0:
                continue
            bars = barq_solutions(params)
            qkz = extract_solutions(params)
            for ell, (bar, sol) in enumerate(zip(sparse_solutions(bars), sparse_solutions(qkz)), start=1):
                rep = verify_kz_solution(params, bars.arrays[ell - 1])
                assert rep.passed, ("bar", p, n, kv, ell, rep.failures[:2])
                top = sol.top_degree_part()
                assert top == bar, ("top-degree", p, n, kv, ell)
                top_arr = dense_top_degree_part(qkz.arrays[ell - 1])
                assert [dense_to_mpoly(c, params.ctx, n) for c in top_arr] == top.coords
                rep = verify_kz_solution(params, top_arr)
                assert rep.passed, ("top", p, n, kv, ell, rep.failures[:2])
            # the sweep holds one triple's sets at a time, not every set it has read
            hypergeo._solution_cache.clear()


def test_criterion_15_harness_falsifiability():
    with criterion(15, "negative controls fail their suites"):
        ctx = make_field(5)
        # mutated R-matrix breaks unitarity/Yang-Baxter
        assert not verify_rmatrix_identities(ctx, mutate=True).passed
        # mutated product-rule coefficient breaks the identity suite
        assert not pochhammer_identity_suite(ctx, ctx.element(2), mutate=True).passed
        # permuted leading vectors break the leading-term comparison
        params = make_params(make_field(7), 5, 2)
        assert params.d >= 2
        assert not verify_leading_terms(params, permute_control=True).passed
        # duplicated solution column breaks independence
        assert not verify_independence(params, seed=3, duplicate_control=True).passed
        # sign-flipped duality residue is nonzero
        params = make_params(make_field(7), 4, 2)
        assert not verify_duality(params, npoints=10, seed=3, flip_control=True).passed
