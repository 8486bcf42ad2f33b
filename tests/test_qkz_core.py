"""Difference operators: R-matrix identities, weight-space restriction
consistency, discrete flatness, and pairing periodicity."""

import itertools

import numpy as np
import pytest

from charp_qkz.ffield import elements, make_field, sample_point
from charp_qkz.linalg import ext_matmul
from charp_qkz.mpoly import MPoly
from charp_qkz.qkz_core import (
    SingularPointError,
    k_matrix_batch,
    k_operator_at,
    make_params,
    verify_flatness,
    verify_rmatrix_identities,
)
from oracles.operators import k_operator, singular_basis
from oracles.solutions import sparse_solutions
from oracles.vectors import (
    VectorPoly,
    is_quasi_constant,
    negate_z,
    pairing_polynomial,
    shapovalov,
    shift_point,
    sparse_rmatrix_identities,
    verify_pairing_periodicity,
)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rmatrix_unitarity_yang_baxter(p):
    ctx = make_field(p)
    rep = verify_rmatrix_identities(ctx)
    assert rep.passed, rep.failures


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rmatrix_matches_sparse_oracle(p):
    """The integer coefficient-matrix check gives the report of the MPoly
    matrix products it replaced, witnesses included, with and without the
    mutation."""
    ctx = make_field(p)
    for mutate in (False, True):
        rep = verify_rmatrix_identities(ctx, mutate=mutate)
        ref = sparse_rmatrix_identities(ctx, mutate=mutate)
        assert (rep.name, rep.passed, rep.failures) == (ref.name, ref.passed, ref.failures)
        assert rep.passed != mutate


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rmatrix_mutation_breaks_unitarity_at_every_p(p):
    """The mutated numerator fails unitarity at every supported p, p = 3
    included: (D - P)^2 = Id - D is no scalar."""
    rep = verify_rmatrix_identities(make_field(p), mutate=True)
    tags = {f[0] for f in rep.failures}
    assert not rep.passed and "unitarity" in tags


def test_rmatrix_negative_control():
    ctx = make_field(5)
    rep = verify_rmatrix_identities(ctx, mutate=True)
    assert not rep.passed


def test_make_params_validation():
    ctx = make_field(5)
    with pytest.raises(ValueError):
        make_params(ctx, 1, 2)  # n too small
    with pytest.raises(ValueError):
        make_params(ctx, 5, 2)  # needs n < p
    with pytest.raises(ValueError):
        make_params(ctx, 3, 0)  # kappa must be nonzero
    params = make_params(ctx, 3, 3)
    assert params.k == 3 and params.d == 1  # 3*3 = 9 = -1 mod 5; floor(9/5)
    ectx = make_field(5, 2)
    params = make_params(ectx, 3, ectx.element(1, 2))
    assert params.k is None and params.d is None


@pytest.mark.parametrize("p,n", [(5, 3), (7, 4)])
def test_k_operator_three_way_consistency(p, n):
    """Symbolic K_a, its pointwise evaluation, and the batched kernel agree."""
    ctx = make_field(p)
    pctx = make_field(p, 2)
    for kv in (1, p - 1):
        params = make_params(ctx, n, kv)
        Z = np.stack([sample_point(pctx, n, 100 + i) for i in range(3)])
        for a in range(1, n + 1):
            op = k_operator(params, a)
            batch = k_matrix_batch(params, a, Z)
            for idx, z in enumerate(elements(Z, pctx)):
                direct = k_operator_at(params, a, z)
                sym = op.eval_at(z)
                for r in range(n):
                    for c in range(n):
                        assert direct[r][c] == sym[r][c]
                        b = batch[idx, r, c]
                        assert direct[r][c] == pctx.element(int(b[0]), int(b[1]))


def test_k_operator_preserves_zero_sum():
    """Columns of K_a sum to 1: K_a maps K^n into itself respecting the
    coordinate-sum functional, so V (zero-sum vectors) is invariant."""
    ctx = make_field(7)
    pctx = make_field(7, 2)
    params = make_params(ctx, 4, 2)
    z = elements(sample_point(pctx, 4, 5), pctx)
    for a in range(1, 5):
        K = k_operator_at(params, a, z)
        for c in range(4):
            s = sum((K[r][c] for r in range(4)), pctx.zero())
            assert s == pctx.one()


def test_k_operator_at_singular_point_raises():
    ctx = make_field(5)
    params = make_params(ctx, 3, 2)
    z = [ctx.element(0), ctx.element(1), ctx.element(3)]  # z1 - z2 = -1
    with pytest.raises(SingularPointError):
        k_operator_at(params, 1, z)


def test_k_operator_at_on_prime_field_points():
    """At F_p points K_a is a matrix over F_p equal to the sparse oracle's,
    and exactly the points where an R-factor has u = 1 or u = -1 raise."""
    ctx = make_field(7)
    params = make_params(ctx, 3, 3)
    ops = {a: k_operator(params, a) for a in range(1, 4)}
    regular = 0
    for vals in itertools.product([0], range(7), range(7)):
        z = [ctx.element(v) for v in vals]
        for a in range(1, 4):
            us = [z[a - 1] - z[j - 1] - (params.kappa if j < a else 0) for j in range(1, 4) if j != a]
            if any(u == 1 or u == -1 for u in us):
                with pytest.raises(SingularPointError):
                    k_operator_at(params, a, z)
                continue
            K = k_operator_at(params, a, z)
            assert K == ops[a].eval_at(z)
            assert all(x.ctx is ctx for row in K for x in row)
            regular += 1
    assert regular
    with pytest.raises(ValueError, match="point length mismatch"):
        k_operator_at(params, 1, z[:2])


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flatness_sweep(p, n):
    if n >= p:
        pytest.skip("requires n < p")
    ctx = make_field(p)
    pctx = make_field(p, 2)
    Z = np.stack([sample_point(pctx, n, 1000 * n + i) for i in range(5)])
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        rep = verify_flatness(params, Z)
        assert rep.passed, (p, n, kv, rep.failures[:3])


def test_flatness_rejects_an_empty_batch():
    """No point means no check: an empty batch raises instead of passing."""
    params = make_params(make_field(7), 3, 2)
    with pytest.raises(ValueError, match="at least one point"):
        verify_flatness(params, np.zeros((0, 3, 2), dtype=np.int64))


def test_flatness_definition_spot_check():
    """K_a(z - kappa e_b) K_b(z) = K_b(z - kappa e_a) K_a(z) re-derived
    from the sparse operator oracle (independent of the batch path)."""
    ctx = make_field(7)
    pctx = make_field(7, 2)
    params = make_params(ctx, 3, 3)
    z = elements(sample_point(pctx, 3, 9), pctx)
    a, b = 1, 3
    za = shift_point(z, a, params.kappa)
    zb = shift_point(z, b, params.kappa)
    Ka = k_operator(params, a).eval_at(z)
    Kb = k_operator(params, b).eval_at(z)
    Kab = k_operator(params, a).eval_at(zb)
    Kba = k_operator(params, b).eval_at(za)

    def matmul(A, B):
        n = len(A)
        return [
            [sum((A[i][l] * B[l][j] for l in range(n)), pctx.zero()) for j in range(n)]
            for i in range(n)
        ]

    assert matmul(Kab, Kb) == matmul(Kba, Ka)


def test_shapovalov_and_pairing():
    ctx = make_field(5)
    x = [ctx.element(v) for v in (1, 2, 3)]
    y = [ctx.element(v) for v in (2, 0, 4)]
    assert shapovalov(x, y) == ctx.element((1 * 2 + 2 * 0 + 3 * 4) % 5)
    f = VectorPoly([MPoly.variable(ctx, 2, 1), MPoly.variable(ctx, 2, 2)])
    g = VectorPoly([MPoly.const(ctx, 2, 1), MPoly.const(ctx, 2, 2)])
    pairing = pairing_polynomial(f, g)
    z = [ctx.element(3), ctx.element(4)]
    assert pairing.eval(z) == shapovalov(f.eval(z), g.eval(z))


def test_negate_z_is_involution():
    ctx = make_field(7)
    f = (
        MPoly.variable(ctx, 2, 1) ** 2
        + MPoly.variable(ctx, 2, 2).scale(3)
        + MPoly.const(ctx, 2, 5)
    )
    assert negate_z(negate_z(f)) == f
    z = [ctx.element(2), ctx.element(6)]
    zn = [-v for v in z]
    assert negate_z(f).eval(z) == f.eval(zn)


def test_singular_basis_spans_zero_sum():
    ctx = make_field(7)
    basis = singular_basis(ctx, 4)
    assert len(basis) == 3
    for v in basis:
        assert sum((x for x in v), ctx.zero()) == ctx.zero()


def test_is_quasi_constant():
    ctx = make_field(5)
    kappa = ctx.element(2)
    t = MPoly.variable(ctx, 1, 1)
    invariant = t**5 - t.scale(kappa**4)
    assert is_quasi_constant(invariant, kappa)
    assert is_quasi_constant(invariant * invariant + invariant.scale(3), kappa)
    assert not is_quasi_constant(t, kappa)


@pytest.mark.parametrize("p,n,kv", [(5, 3, 2), (7, 4, 3)])
def test_pairing_periodicity(p, n, kv):
    """S(Q(-z;-kappa), Q'(z;kappa)) is invariant under every step shift,
    hence quasi-constant in each variable."""
    from charp_qkz.hypergeo import extract_solutions

    ctx = make_field(p)
    pctx = make_field(p, 2)
    params = make_params(ctx, n, kv)
    plus = sparse_solutions(extract_solutions(params))
    minus = sparse_solutions(extract_solutions(params.minus()))
    assert plus and minus
    pts = [elements(sample_point(pctx, n, 77 + i), pctx) for i in range(3)]
    for f in plus:
        for g in minus:
            rep = verify_pairing_periodicity(params, f, g, pts)
            assert rep.passed, rep.failures[:3]
