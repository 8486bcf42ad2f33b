"""Sparse multivariate polynomials: ring axioms, shifts, evaluation,
leading terms, and the linear forms of the operator oracle."""

from hypothesis import given, settings, strategies as st

from charp_qkz.ffield import make_field
from charp_qkz.mpoly import MPoly
from oracles.operators import LinearForm


def random_mpoly(ctx, nvars, rng, max_terms=6, max_deg=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        terms[e] = rng.randrange(ctx.order)
    return MPoly.from_terms(ctx, nvars, terms.items())


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([5, 7]), seed=st.integers(0, 10**6))
def test_ring_axioms(p, seed):
    import random

    rng = random.Random(seed)
    ctx = make_field(p)
    n = rng.randrange(1, 4)
    f = random_mpoly(ctx, n, rng)
    g = random_mpoly(ctx, n, rng)
    h = random_mpoly(ctx, n, rng)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == MPoly.zero(ctx, n)
    one = MPoly.const(ctx, n, 1)
    assert f * one == f


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([5, 7, 11]), seed=st.integers(0, 10**6))
def test_eval_is_homomorphism(p, seed):
    import random

    rng = random.Random(seed)
    ctx = make_field(p, 2)
    n = rng.randrange(1, 4)
    f = random_mpoly(ctx, n, rng)
    g = random_mpoly(ctx, n, rng)
    z = [ctx.element(rng.randrange(p), rng.randrange(p)) for _ in range(n)]
    assert (f + g).eval(z) == f.eval(z) + g.eval(z)
    assert (f * g).eval(z) == f.eval(z) * g.eval(z)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([5, 7]), seed=st.integers(0, 10**6))
def test_shift_var_matches_eval(p, seed):
    """f.shift_var(a, delta) evaluated at z equals f at z with z_a += delta."""
    import random

    rng = random.Random(seed)
    ctx = make_field(p)
    n = rng.randrange(1, 4)
    f = random_mpoly(ctx, n, rng)
    a = rng.randrange(1, n + 1)
    delta = ctx.element(rng.randrange(p))
    z = [ctx.element(rng.randrange(p)) for _ in range(n)]
    zs = list(z)
    zs[a - 1] = zs[a - 1] + delta
    assert f.shift_var(a, delta).eval(z) == f.eval(zs)
    # shifting by zero is the identity, and shifts compose additively
    assert f.shift_var(a, 0) == f
    assert f.shift_var(a, delta).shift_var(a, -delta) == f


def test_leading_term_multiplicative():
    ctx = make_field(7)
    f = MPoly.variable(ctx, 2, 1) ** 2 + MPoly.variable(ctx, 2, 2)
    g = MPoly.variable(ctx, 2, 1) * MPoly.variable(ctx, 2, 2) + MPoly.const(ctx, 2, 3)
    mf, cf = f.leading_term()
    mg, cg = g.leading_term()
    mfg, cfg = (f * g).leading_term()
    assert mfg == tuple(a + b for a, b in zip(mf, mg))
    assert cfg == cf * cg


def test_top_degree_part():
    ctx = make_field(5)
    z1 = MPoly.variable(ctx, 2, 1)
    z2 = MPoly.variable(ctx, 2, 2)
    f = z1**2 + z1 * z2 + z2 + MPoly.const(ctx, 2, 1)
    assert f.top_degree_part() == z1**2 + z1 * z2


def test_derivative_leibniz():
    ctx = make_field(11)
    import random

    rng = random.Random(3)
    f = random_mpoly(ctx, 2, rng, max_terms=5)
    g = random_mpoly(ctx, 2, rng, max_terms=5)
    for a in (1, 2):
        assert (f * g).derivative(a) == f.derivative(a) * g + f * g.derivative(a)


def test_linear_form_eval():
    ctx = make_field(7)
    form = LinearForm(1, 3, ctx.element(2))  # z_1 - z_3 - 2
    z = [ctx.element(v) for v in (6, 0, 1)]
    assert form.eval(z) == ctx.element(3)
    assert form.as_mpoly(3).eval(z) == ctx.element(3)


def test_substitute_partial():
    ctx = make_field(5)
    z1 = MPoly.variable(ctx, 3, 1)
    z2 = MPoly.variable(ctx, 3, 2)
    z3 = MPoly.variable(ctx, 3, 3)
    f = z1 * z2 + z3
    g = f.substitute({2: ctx.element(4)})
    assert g == z1.scale(4) + z3
