"""Solution construction: extraction, golden values, leading terms,
independence, restrictions, orthogonality, and quasi-sections."""

import numpy as np
import pytest

from charp_qkz import dense, hypergeo
from charp_qkz.cli import main
from charp_qkz.ffield import elements, make_field, sample_point
from charp_qkz.hypergeo import (
    ArraySizeError,
    barq_solutions,
    extract_solutions,
    gram_det,
    gram_matrix,
    leading_term_data,
    quasi_sections_at,
    solution_set_to_json,
    special_restriction_values,
    verify_independence,
    verify_leading_terms,
    verify_orthogonality,
    verify_quasi_flatness,
    verify_restrictions,
)
from charp_qkz.mpoly import MPoly
from charp_qkz.qkz_core import make_params, verify_qkz_solution
from oracles.solutions import (
    minor,
    q_vector,
    restrict_special,
    sparse_solutions,
    verify_q_product_formula,
)
from oracles.tpoly import to_pochhammer_basis
from oracles.vectors import pairing_polynomial, shapovalov

SWEEP = [
    (p, n, kv)
    for p in (5, 7)
    for n in (2, 3, 4, 5)
    if n < p
    for kv in range(1, p)
]


def test_k_and_d():
    ctx = make_field(5)
    assert make_params(ctx, 2, ctx.element(3)).k == 3  # 3*3 = 9 = -1 mod 5
    assert make_params(ctx, 2, ctx.element(2)).k == 2  # 2*2 = 4 = -1 mod 5
    assert make_params(ctx, 2, ctx.element(3)).d == 1
    assert make_params(ctx, 2, ctx.element(2)).d == 0
    with pytest.raises(ValueError):
        make_params(ctx, 2, ctx.zero())


def test_golden_solution_p5_n2():
    """p=5, n=2, kappa=3: the unique solution is
    Q^4 = (-2 z1 + 2 z2 + 2, 2 z1 - 2 z2 - 2)."""
    ctx = make_field(5)
    params = make_params(ctx, 2, 3)
    ss = extract_solutions(params)
    assert ss.d == 1
    z1 = MPoly.variable(ctx, 2, 1)
    z2 = MPoly.variable(ctx, 2, 2)
    expected0 = z1.scale(-2) + z2.scale(2) + MPoly.const(ctx, 2, 2)
    expected1 = z1.scale(2) + z2.scale(-2) + MPoly.const(ctx, 2, -2)
    assert sparse_solutions(ss)[0].coords[0] == expected0
    assert sparse_solutions(ss)[0].coords[1] == expected1


def test_golden_empty_set_p5_n2_kappa2():
    ctx = make_field(5)
    params = make_params(ctx, 2, 2)
    assert params.d == 0
    ss = extract_solutions(params)
    assert sparse_solutions(ss) == []


def test_golden_quasi_section_p5_n2_kappa2():
    """p=5, n=2, kappa=2: T^1 = (3/(2z1-2z2+2), 3/(-2z1+2z2-2)), and the
    Shapovalov pairing with Q^4(-z;-kappa) contributes 3 + 3 = 1 mod 5."""
    ctx = make_field(5)
    pctx = make_field(5, 2)
    params = make_params(ctx, 2, 2)
    dual = sparse_solutions(extract_solutions(params.minus()))  # step -2 = 3
    assert len(dual) == 1
    for seed in range(4):
        z = sample_point(pctx, 2, seed)
        T = quasi_sections_at(params, z)
        assert len(T) == 1
        z1, z2 = z = elements(z, pctx)
        three = pctx.element(3)
        two = pctx.element(2)
        assert T[0][0] == three / (two * z1 - two * z2 + two)
        assert T[0][1] == three / (-(two * z1) + two * z2 - two)
        # per-coordinate pairing contributions are each 3; total 3+3 = 1
        qdual = [c.eval([-v for v in z]) for c in dual[0].coords]
        terms = [qdual[i] * T[0][i] for i in range(2)]
        assert terms == [three, three]
        assert shapovalov(qdual, T[0]) == pctx.one()


@pytest.mark.parametrize("p,n,kv", SWEEP)
def test_solutions_satisfy_qkz(p, n, kv):
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    ss = extract_solutions(params)
    assert ss.d == params.d
    for ell, sol in enumerate(sparse_solutions(ss), start=1):
        assert sol.degree() == n * params.k - ell * p
        assert sol.is_singular_vector()
        rep = verify_qkz_solution(params, ss.arrays[ell - 1])
        assert rep.passed, (p, n, kv, ell, rep.failures[:2])


@pytest.mark.parametrize("p,n,kv", SWEEP)
def test_d_sum_complement(p, n, kv):
    ctx = make_field(p)
    kappa = ctx.element(kv)
    assert make_params(ctx, n, kappa).d + make_params(ctx, n, -kappa).d == n - 1


@pytest.mark.parametrize("p,n,kv", [(5, 3, 1), (7, 4, 2), (7, 5, 3)])
def test_sparse_dense_extraction_agree(p, n, kv):
    """The dense fast path used by extract_solutions matches coefficients of
    the sparse product construction."""
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    ss = extract_solutions(params)
    qs = q_vector(params)
    for ell, sol in enumerate(sparse_solutions(ss), start=1):
        idx = ell * p - 1
        for a in range(n):
            pf = to_pochhammer_basis(qs[a], params.kappa)
            assert pf.coeff(idx) == sol.coords[a]


@pytest.mark.parametrize("p,n,kv", SWEEP)
def test_leading_terms(p, n, kv):
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    if params.d == 0:
        pytest.skip("empty solution set")
    rep = verify_leading_terms(params)
    assert rep.passed, rep.failures[:3]


def test_leading_terms_negative_control():
    ctx = make_field(7)
    params = make_params(ctx, 5, 2)  # d = 2: permuting u_ell is detectable
    assert params.d >= 2
    rep = verify_leading_terms(params, permute_control=True)
    assert not rep.passed


def test_leading_term_n3_branches_at_p7():
    """n=3, d=1 closed forms: for p/2 < k < 2p/3 the leading term is
    z1^k z2^(2k-p) * c * (0, p-k, k); for p/3 < k < p/2 it is
    z1^(3k-p) * c' * (p-2k, k, k).  Instantiated at p=7 with k=4 and k=3."""
    from math import comb

    ctx = make_field(7)
    # k=4: kappa = 5 (5*4 = 20 = -1 mod 7)
    params = make_params(ctx, 3, 5)
    assert params.k == 4 and params.d == 1
    lt = leading_term_data(params, 1)
    assert lt.monomial == (4, 1, 0)  # z1^k z2^(2k-p)
    sol = sparse_solutions(extract_solutions(params))[0]
    mono, vec = sol.leading_term()
    assert mono == lt.monomial and tuple(vec) == lt.u
    # direction (0, p-k, k) = (0, 3, 4)
    scale = vec[2] / ctx.element(4)
    assert [v / scale for v in vec] == [ctx.element(0), ctx.element(3), ctx.element(4)]
    assert vec[2] == ctx.element((-1) ** (3 * 4 - 7) * pow(4, 5, 7) * comb(4, 1) * 4)

    # k=3: kappa = 2 (2*3 = 6 = -1 mod 7)
    params = make_params(ctx, 3, 2)
    assert params.k == 3 and params.d == 1
    lt = leading_term_data(params, 1)
    assert lt.monomial == (2, 0, 0)  # z1^(3k-p)
    sol = sparse_solutions(extract_solutions(params))[0]
    mono, vec = sol.leading_term()
    assert mono == lt.monomial and tuple(vec) == lt.u
    # direction (p-2k, k, k) = (1, 3, 3)
    scale = vec[1] / ctx.element(3)
    assert [v / scale for v in vec] == [ctx.element(1), ctx.element(3), ctx.element(3)]


@pytest.mark.parametrize("p,n,kv", SWEEP)
def test_independence_nonzero_minor(p, n, kv):
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    if params.d == 0:
        pytest.skip("empty solution set")
    rep = verify_independence(params, seed=11)
    assert rep.passed, rep.failures[:3]


def test_independence_negative_control():
    ctx = make_field(7)
    params = make_params(ctx, 5, 2)
    assert params.d >= 2
    rep = verify_independence(params, seed=11, duplicate_control=True)
    assert not rep.passed


def test_minor_predicted_pivot_rows():
    """The row set {r(ell) + 1} predicted by the leading-term formula gives a
    symbolically nonzero minor."""
    ctx = make_field(7)
    params = make_params(ctx, 4, 2)  # k=3, d=1
    sols = sparse_solutions(extract_solutions(params))
    rows = sorted({leading_term_data(params, ell).r + 1 for ell in range(1, params.d + 1)})
    assert len(rows) == params.d
    assert not minor(params, rows, sols).is_zero()


@pytest.mark.parametrize("p,n,kv", SWEEP)
def test_restriction_vanishing(p, n, kv):
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    if params.d == 0:
        pytest.skip("empty solution set")
    rep = verify_restrictions(params)
    assert rep.passed, rep.failures[:3]


def test_restricted_products_are_sized_before_they_are_built(monkeypatch):
    """The guard is asked about the shape each restricted product comes out
    with; a limit one byte below the largest refuses that product before it
    is built, and the CLI turns the refusal into exit 2."""
    params = make_params(make_field(7), 4, 2)
    checked, built = [], []
    real_check, real_build = hypergeo._checked_shape, dense.build_product_tpoly

    def check(params, what, shape):
        checked.append(shape)
        return real_check(params, what, shape)

    def build(*args):
        arr = real_build(*args)
        built.append(arr.shape)
        return arr

    monkeypatch.setattr(hypergeo, "_checked_shape", check)
    monkeypatch.setattr(dense, "build_product_tpoly", build)
    assert verify_restrictions(params).passed
    assert checked == built and len(built) == 4 * 15
    largest = max(8 * np.prod(shape) for shape in built)
    monkeypatch.setattr(hypergeo, "_SOLUTION_CACHE_BYTES", int(largest) - 1)
    checked.clear()
    built.clear()
    with pytest.raises(ArraySizeError, match=r"^the product restricted to S_\{.*\} for p=7, n=4, kappa=2"):
        verify_restrictions(params)
    assert len(checked) == len(built) + 1
    assert main(["verify", "--p", "7", "--n", "4", "--kappa", "2", "--suites", "restrict"]) == 2


def test_solution_arrays_are_sized_before_they_are_allocated(monkeypatch):
    """The largest default solution stack, (13, 5, 1) at 56.7 MiB, is built
    at a limit of exactly its size and refused one byte below it."""
    params = make_params(make_field(13), 5, 1)
    nbytes = 8 * params.d * params.n * (params.k + 1) ** params.n
    assert nbytes == 59_406_880
    monkeypatch.setattr(hypergeo, "_SOLUTION_CACHE_BYTES", nbytes - 1)
    with pytest.raises(ArraySizeError, match="^the solution arrays for p=13, n=5, kappa=1 would take 0.0553 GiB"):
        extract_solutions(params)
    with pytest.raises(ArraySizeError):
        barq_solutions(params)
    monkeypatch.setattr(hypergeo, "_SOLUTION_CACHE_BYTES", nbytes)
    assert extract_solutions(params).arrays.nbytes == nbytes


def test_restriction_values_formula():
    ctx = make_field(7)
    params = make_params(ctx, 4, 2)  # k = 3
    vals = special_restriction_values(params, [2, 4])
    # z_{i_b} = ((b-1)k - 1) kappa
    assert vals[2] == ctx.element(-1) * params.kappa
    assert vals[4] == ctx.element(3 - 1) * params.kappa


def test_restrict_special_substitutes():
    ctx = make_field(5)
    params = make_params(ctx, 3, 3)
    sol = sparse_solutions(extract_solutions(params))[0]
    restricted = restrict_special(params, sol, [1, 2, 3])
    # |I| = n: ell*p = 5 < |I|*k = 9, so the full restriction vanishes
    assert restricted.is_zero()


@pytest.mark.parametrize(
    "p,n,kv",
    [(5, 3, 2), (5, 3, 3), (7, 3, 5), (7, 4, 2), (7, 4, 5), (7, 5, 3), (7, 5, 4)],
)
def test_orthogonality(p, n, kv):
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    assert 0 < params.d < n - 1
    rep = verify_orthogonality(params)
    assert rep.passed, rep.failures[:3]
    minus = sparse_solutions(extract_solutions(params.minus()))
    G = [[pairing_polynomial(f, g) for g in minus] for f in sparse_solutions(extract_solutions(params))]
    assert len(G) == params.d and all(len(row) == params.minus().d for row in G)
    assert all(entry.is_zero() for row in G for entry in row)


def test_orthogonality_requires_intermediate_d():
    ctx = make_field(5)
    params = make_params(ctx, 3, 1)  # d = 2 = n - 1
    with pytest.raises(ValueError):
        verify_orthogonality(params)


@pytest.mark.parametrize("p,n,kv", [(5, 3, 2), (7, 4, 3), (7, 3, 5)])
def test_quasi_flatness(p, n, kv):
    ctx = make_field(p)
    pctx = make_field(p, 2)
    params = make_params(ctx, n, kv)
    assert params.d > 0 and params.minus().d > 0
    Z = np.stack([sample_point(pctx, n, 31 + i) for i in range(5)])
    rep = verify_quasi_flatness(params, Z)
    assert rep.passed, rep.failures[:3]
    assert rep.details["checked"] > 0


def test_quasi_flatness_fails_on_an_empty_batch():
    """No point means no check: an empty batch fails instead of passing."""
    params = make_params(make_field(5), 3, 2)
    rep = verify_quasi_flatness(params, np.zeros((0, 3, 2), dtype=np.int64))
    assert not rep.passed
    assert rep.failures == [("no checkable points", [])]
    assert rep.details == {"points": 0, "checked": 0, "skipped": []}


def test_quasi_sections_duality():
    """S(Q^{mp-1}(-z;-kappa), T^ell(z)) = delta_{ell,m} at sample points."""
    ctx = make_field(7)
    pctx = make_field(7, 2)
    params = make_params(ctx, 4, 3)
    dual = sparse_solutions(extract_solutions(params.minus()))
    assert len(dual) >= 2
    z = sample_point(pctx, 4, 8)
    T = quasi_sections_at(params, z)
    zneg = elements(-z % 7, pctx)
    for ell in range(len(T)):
        for m in range(len(dual)):
            val = shapovalov(dual[m].eval(zneg), T[ell])
            expected = pctx.one() if ell == m else pctx.zero()
            assert val == expected


@pytest.mark.parametrize("p,n", [(5, 2), (5, 4), (7, 3), (7, 5), (11, 4)])
def test_gram_det_equals_n(p, n):
    ctx = make_field(p)
    G = gram_matrix(ctx, n)
    assert len(G) == n - 1
    assert gram_det(ctx, n) == ctx.element(n)


@pytest.mark.parametrize("p,n,kv", [(5, 3, 3), (7, 4, 2)])
def test_product_formula_cross_check(p, n, kv):
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    rep = verify_q_product_formula(params, trials=4, seed=2)
    assert rep.passed, rep.failures[:2]


def test_barq_solutions_structure():
    ctx = make_field(7)
    params = make_params(ctx, 3, 5)  # k = 4
    bars = barq_solutions(params)
    assert bars.kind == "kz"
    assert bars.d == params.d
    for ell, sol in enumerate(sparse_solutions(bars), start=1):
        assert sol.degree() == 3 * params.k - ell * 7


def test_solution_set_json_shape():
    ctx = make_field(5)
    params = make_params(ctx, 2, 3)
    payload = solution_set_to_json(extract_solutions(params))
    assert payload["p"] == 5 and payload["n"] == 2
    assert payload["d"] == 1 and payload["k"] == 3
    assert payload["degrees"] == [1]
    assert len(payload["solutions"]) == 1


def test_solution_cache_evicts_least_recently_used(monkeypatch):
    """Past the byte limit the least recently used set goes first, and a hit
    counts as a use.  A set over the limit is refused before it is built,
    and the cache keeps what it holds."""
    from charp_qkz import hypergeo

    ctx = make_field(7)
    params = {kv: make_params(ctx, 4, kv) for kv in (2, 3, 4)}  # d = 1, 1, 2
    hypergeo._solution_cache.clear()
    size = {kv: extract_solutions(pr).arrays.nbytes for kv, pr in params.items()}
    assert all(size.values())
    hypergeo._solution_cache.clear()
    monkeypatch.setattr(hypergeo, "_SOLUTION_CACHE_BYTES", size[2] + size[4])
    first = extract_solutions(params[2])
    extract_solutions(params[3])
    assert extract_solutions(params[2]) is first
    extract_solutions(params[4])
    assert list(hypergeo._solution_cache) == [(7, 4, 2), (7, 4, 4)]
    assert extract_solutions(params[2]) is first
    monkeypatch.setattr(hypergeo, "_SOLUTION_CACHE_BYTES", 1)
    with pytest.raises(hypergeo.ArraySizeError):
        extract_solutions(params[3])
    assert list(hypergeo._solution_cache) == [(7, 4, 4), (7, 4, 2)]
    hypergeo._solution_cache.clear()
