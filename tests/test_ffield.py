"""Field arithmetic: axioms, Frobenius, and nonsingular point sampling."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charp_qkz import ffield
from charp_qkz.ffield import FieldCtx, FieldElement, SamplingError, make_field, sample_point

PRIMES = [3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ext", [1, 2])
def test_constructs(p, ext):
    ctx = make_field(p, ext)
    assert ctx.p == p
    assert ctx.order == p**ext


def test_rejects_composite():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(1)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    ext=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_field_axioms(p, ext, data):
    ctx = make_field(p, ext)
    q = ctx.order
    a = FieldElement(ctx, data.draw(st.integers(0, q - 1)))
    b = FieldElement(ctx, data.draw(st.integers(0, q - 1)))
    c = FieldElement(ctx, data.draw(st.integers(0, q - 1)))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero() == a
    assert a * ctx.one() == a
    assert a + (-a) == ctx.zero()
    if a:
        assert a * a.inv() == ctx.one()
        assert a / a == ctx.one()


@pytest.mark.parametrize("p", PRIMES)
def test_multiplicative_order_ext(p):
    """x^(p^2 - 1) = 1 for every nonzero x in the quadratic extension."""
    ctx = make_field(p, 2)
    q = p * p
    for v in range(1, q):
        x = FieldElement(ctx, v)
        assert x ** (q - 1) == ctx.one()


@pytest.mark.parametrize("p", PRIMES)
def test_frobenius_additive_multiplicative(p):
    ctx = make_field(p, 2)
    xs = [FieldElement(ctx, v) for v in range(ctx.order)]
    for a in xs[:: max(1, len(xs) // 20)]:
        for b in xs[:: max(1, len(xs) // 20)]:
            assert (a + b) ** p == a**p + b**p
            assert (a * b) ** p == a**p * b**p
    # Frobenius fixes exactly the prime field
    for a in xs:
        assert (a**p == a) == a.in_prime_field


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sample_point_nonsingular(p, n):
    ctx = make_field(p, 2)
    z = sample_point(ctx, n, 42)
    assert z.shape == (n, 2) and z.dtype == np.int64
    assert np.all((0 <= z) & (z < p))
    # z_i - z_j lies in F_p iff the g-components coincide
    assert len(set(z[:, 1].tolist())) == n
    zs = ffield.elements(z, ctx)
    for i in range(n):
        for j in range(i + 1, n):
            assert not (zs[i] - zs[j]).in_prime_field


def test_sample_point_deterministic():
    ctx = make_field(7, 2)
    assert np.array_equal(sample_point(ctx, 4, 1), sample_point(ctx, 4, 1))
    assert not np.array_equal(sample_point(ctx, 4, 1), sample_point(ctx, 4, 2))


def _uncached_sample(p, n, rng_seed, max_tries=10000):
    """The rejection loop of ``sample_point`` on a fresh ``random.Random``,
    as (a0, a1) pairs, or None when the budget runs out."""
    rng = random.Random(rng_seed)
    for _ in range(max_tries):
        vals = [rng.randrange(p * p) for _ in range(n)]
        if len({v // p for v in vals}) == n:
            return [[v % p, v // p] for v in vals]
    return None


@pytest.mark.parametrize("p", PRIMES)
def test_sample_point_matches_uncached_draws(p):
    """Cached or not, every draw equals the uncached rejection loop, also
    when the same (p, n, seed) is asked for again."""
    ctx = make_field(p, 2)
    for n in range(1, min(p, 6) + 1):
        for seed in list(range(40)) + [10007 * 3 + 5, 65537 * 7 + 11]:
            want = _uncached_sample(p, n, seed)
            for _ in range(2):
                z = sample_point(ctx, n, seed)
                assert z.dtype == np.int64
                assert z.tolist() == want


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 29, 101])
def test_sample_points_matches_uncached_draws(p):
    """A batch holds, seed by seed, the points of the uncached loop on
    ``random.Random(seed).randrange``, also for a seed repeated within the
    batch; an empty seed list gives an empty batch."""
    ctx = make_field(p, 2)
    for n in range(1, min(p, 6) + 1):
        seeds = [3, 10007 * 2 + 1, 3, 65537 * 5 + 9, 0] + list(range(100, 120))
        Z = ffield.sample_points(ctx, n, seeds)
        assert Z.shape == (len(seeds), n, 2) and Z.dtype == np.int64
        assert Z.tolist() == [_uncached_sample(p, n, seed) for seed in seeds]
        assert ffield.sample_points(ctx, n, []).shape == (0, n, 2)
        assert sample_point(ctx, n, seeds[1]).tolist() == Z[1].tolist()


def test_sample_point_cache_is_bounded():
    assert ffield._seed_draw.cache_info().maxsize == 1 << 14


def test_sample_point_returns_read_only_array():
    """A returned point is shared by every caller, so it cannot be written;
    a copy can, and a later draw is unchanged."""
    ctx = make_field(7, 2)
    z = sample_point(ctx, 4, 123)
    want = z.tolist()
    assert isinstance(z, np.ndarray) and not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 0
    w = z.copy()
    w[0, 0] = (w[0, 0] + 1) % 7
    assert sample_point(ctx, 4, 123).tolist() == want


def test_sampling_error_propagates_uncached():
    """n > p leaves no nonsingular point; the error reaches the caller on
    every call and is never stored."""
    ctx = make_field(3, 2)
    before = ffield._seed_draw.cache_info()
    for _ in range(2):
        with pytest.raises(SamplingError):
            sample_point(ctx, 4, 5)
    after = ffield._seed_draw.cache_info()
    assert after.misses - before.misses == 2
    assert after.hits == before.hits
    assert after.currsize == before.currsize


@pytest.mark.parametrize("p", [3, 5, 7])
def test_elements_reads_every_pair(p):
    """``elements`` turns (a0, a1) pairs into FieldElement(ctx, a0 + a1*p)
    on all of F_{p^2}, in the array's shape: one element for a single pair,
    nested lists otherwise.  It does not reduce, so a comparison against it
    still sees a pair outside 0 <= a0, a1 < p."""
    ctx = make_field(p, 2)
    pairs = np.array([[a0, a1] for a1 in range(p) for a0 in range(p)], dtype=np.int64)
    want = [FieldElement(ctx, a0 + a1 * p) for a0, a1 in pairs.tolist()]
    got = ffield.elements(pairs, ctx)
    assert got == want
    assert all(x.ctx is ctx and x.val == w.val for x, w in zip(got, want))
    assert [ffield.elements(v, ctx) for v in pairs] == want
    grid = ffield.elements(pairs.reshape(p, p, 2), ctx)
    assert grid == [want[i * p : (i + 1) * p] for i in range(p)]
    for pair in ([p, 0], [-1, 0], [0, p], [1, -1]):
        assert ffield.elements(np.array(pair), ctx).val == pair[0] + pair[1] * p


def test_element_two_component_encoding():
    ctx = make_field(5, 2)
    g = ctx.gen()
    x = ctx.element(2, 3)
    assert x == ctx.element(2) + g * 3
    assert (x.a0, x.a1) == (2, 3)
    assert not x.in_prime_field
    assert ctx.element(4, 0).in_prime_field
