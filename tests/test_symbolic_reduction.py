"""The symbolic qKZ and KZ checks on int16 stacks, reduced after every
factor, against the int64 kernels with the tracked 2^62 bound that they
replaced (``oracles.symbolic``): equal reports on every solution and on its
``--sabotage`` copy, for every kappa, and equal symbolic curvature arrays."""

import numpy as np
import pytest

from charp_qkz import pcurvature
from charp_qkz.cli import _perturbed
from charp_qkz.ffield import make_field
from charp_qkz.hypergeo import barq_solutions, extract_solutions
from charp_qkz.qkz_core import make_params, verify_kz_solution, verify_qkz_solution
from oracles import symbolic

FAST = [(p, n) for p in (5, 7) for n in (2, 3, 4)]
SLOW = [(p, n) for p in (11, 13) for n in (2, 3, 4, 5)]


def _report(rep):
    return rep.passed, rep.failures, rep.details


def _assert_reports_match(p, n, kappas):
    for kv in kappas:
        params = make_params(make_field(p), n, kv)
        if params.d == 0:
            continue
        cases = [
            (verify_qkz_solution, symbolic.verify_qkz_solution, extract_solutions(params).arrays),
            (verify_kz_solution, symbolic.verify_kz_solution, barq_solutions(params).arrays),
        ]
        for verify, oracle, arrays in cases:
            for ell, F in enumerate(arrays, start=1):
                for G in (F, _perturbed(F, p)):
                    got = _report(verify(params, G))
                    assert got == _report(oracle(params, G)), (verify.__name__, p, n, kv, ell)
                assert not got[0], ("the sabotaged copy passed", verify.__name__, p, n, kv, ell)


@pytest.mark.parametrize("p,n", FAST + [pytest.param(p, n, marks=pytest.mark.slow) for p, n in SLOW])
def test_symbolic_checks_match_int64_oracle(p, n):
    _assert_reports_match(p, n, range(1, p))


def test_symbolic_checks_match_int64_oracle_at_11_5():
    """One kappa at (11, 5), with two solutions: 0 < d < n - 1."""
    _assert_reports_match(11, 5, [2])


@pytest.mark.parametrize(
    "p,n,kappas",
    [(7, 4, range(1, 7)), (11, 5, (1, 2)), pytest.param(11, 5, range(3, 11), marks=pytest.mark.slow)],
)
def test_symbolic_curvature_matches_int64_oracle(p, n, kappas, monkeypatch):
    """tilde-C_a and D_a equal, as integers, the arrays built by the int64
    kernel, for a in {1, n}: every kappa at (7, 4); at (11, 5) one kappa
    with d = n - 1 and one with 0 < d < n - 1, the rest under ``slow``."""
    ctx = make_field(p)
    cases = [(make_params(ctx, n, kv), a) for kv in kappas for a in (1, n)]
    got = [pcurvature.curvature_symbolic(params, a) for params, a in cases]
    monkeypatch.setattr(pcurvature, "apply_r_factors", symbolic.apply_r_factors)
    for (params, a), (C, D) in zip(cases, got):
        refC, refD = pcurvature.curvature_symbolic(params, a)
        assert refD.dtype == np.int64 and C.dtype == np.int16
        assert np.array_equal(C, refC) and np.array_equal(D, refD), (params.kappa, a)
