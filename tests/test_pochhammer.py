"""Pochhammer polynomials, Stirling numbers mod p, basis conversion (the
sparse oracle in ``oracles.tpoly``), and the symbolic identity battery
(the loop it replaced in ``oracles.identities``)."""

import random
from math import comb, factorial

import numpy as np
import pytest

from charp_qkz import dense
from charp_qkz.ffield import make_field
from charp_qkz.mpoly import MPoly
from charp_qkz.pochhammer import binomial_mod, pochhammer_identity_suite, stirling
from oracles import identities
from oracles.identities import factorial_mod
from oracles.tpoly import (
    TPoly,
    from_pochhammer_basis,
    poch_factor,
    poch_poly,
    to_pochhammer_basis,
)

PRIMES = [3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", PRIMES)
def test_poch_poly_product_definition(p):
    """(t; kappa)_m is the product of the m shifted linear factors."""
    ctx = make_field(p)
    for kv in range(1, p):
        kappa = ctx.element(kv)
        for m in range(0, 2 * p + 1, max(1, p // 2)):
            f = poch_poly(kappa, m)
            assert f.deg_t == m
            assert f.coeff(m).constant_term() == ctx.one()  # monic
            for tv in range(p):
                expected = ctx.one()
                for i in range(m):
                    expected = expected * (ctx.element(tv) - kappa * i)
                assert f.eval_t(ctx.element(tv)).constant_term() == expected


@pytest.mark.parametrize("p", [5, 7, 11])
def test_stirling_against_integer_recurrences(p):
    """Both kinds match exact-integer Stirling values reduced mod p."""
    ctx = make_field(p)
    max_m = 2 * p

    s1 = [[0] * (max_m + 1) for _ in range(max_m + 1)]
    s2 = [[0] * (max_m + 1) for _ in range(max_m + 1)]
    s1[0][0] = s2[0][0] = 1
    for m in range(max_m):
        for l in range(m + 1):
            s1[m + 1][l + 1] += s1[m][l]
            s1[m + 1][l] -= m * s1[m][l]
            s2[m + 1][l + 1] += s2[m][l]
            s2[m + 1][l] += l * s2[m][l]
    for m in range(max_m + 1):
        for l in range(m + 1):
            assert stirling(1, m, l, ctx).val == s1[m][l] % p
            assert stirling(2, m, l, ctx).val == s2[m][l] % p


def _stirling_per_call(kind, m, l, p):
    """The triangle rebuilt up to row m for a single entry."""
    row = [1]
    for mm in range(m):
        new = [0] * (mm + 2)
        for ll in range(mm + 1):
            new[ll + 1] = (new[ll + 1] + row[ll]) % p
            if kind == 1:
                new[ll] = (new[ll] - mm * row[ll]) % p
            else:
                new[ll] = (new[ll] + ll * row[ll]) % p
        row = new
    return row[l]


@pytest.mark.parametrize("p", PRIMES)
def test_stirling_table_matches_per_call_recurrence(p):
    """The cached triangle (rows up to 2p, extended beyond) gives every
    entry of the per-call recurrence."""
    ctx = make_field(p)
    for kind in (1, 2):
        for m in range(2 * p + 3):
            for l in range(m + 1):
                assert stirling(kind, m, l, ctx).val == _stirling_per_call(kind, m, l, p)


def test_stirling_rejects_bad_args():
    ctx = make_field(5)
    with pytest.raises(ValueError):
        stirling(3, 2, 1, ctx)
    with pytest.raises(ValueError):
        stirling(1, 2, 3, ctx)


def test_binomial_factorial_mod():
    """binomial_mod, and factorial_mod that only the loop oracle reads."""
    assert binomial_mod(10, 3, 7) == 120 % 7
    assert binomial_mod(5, 9, 7) == 0
    assert factorial_mod(6, 7) == 720 % 7
    assert factorial_mod(7, 7) == 0


@pytest.mark.parametrize("p", [5, 7, 11])
def test_basis_round_trip(p):
    """to_pochhammer_basis and from_pochhammer_basis are mutually inverse,
    including for coefficients that are genuine polynomials in z."""
    ctx = make_field(p)
    rng = random.Random(p)
    for kv in (1, p - 1, p // 2):
        kappa = ctx.element(kv)
        for _ in range(5):
            deg = rng.randrange(1, 2 * p)
            coeffs = []
            for _ in range(deg + 1):
                c = MPoly.from_terms(
                    ctx,
                    1,
                    [((rng.randrange(3),), rng.randrange(p)) for _ in range(2)],
                )
                coeffs.append(c)
            f = TPoly(ctx, 1, coeffs)
            pf = to_pochhammer_basis(f, kappa)
            assert from_pochhammer_basis(pf) == f


@pytest.mark.parametrize("p", [5, 7])
def test_basis_round_trip_ext_field(p):
    ctx = make_field(p, 2)
    kappa = ctx.element(1, 1)
    rng = random.Random(17)
    coeffs = [MPoly.const(ctx, 0, rng.randrange(ctx.order)) for _ in range(p + 2)]
    f = TPoly(ctx, 0, coeffs)
    assert from_pochhammer_basis(to_pochhammer_basis(f, kappa)) == f


def test_poch_factor_with_variable_base():
    """(t - z_1; kappa)_m specializes correctly under z_1 -> value."""
    ctx = make_field(7)
    kappa = ctx.element(3)
    base = MPoly.variable(ctx, 1, 1)
    f = poch_factor(base, kappa, 4)
    for zv in range(7):
        spec = f.substitute({1: ctx.element(zv)})
        direct = poch_factor(MPoly.const(ctx, 1, zv), kappa, 4)
        assert spec == direct


@pytest.mark.parametrize("p", PRIMES)
def test_identity_suite_all_kappa(p):
    ctx = make_field(p)
    for kv in range(1, p):
        rep = pochhammer_identity_suite(ctx, ctx.element(kv))
        assert rep.passed, rep.failures[:5]


def test_identity_suite_negative_control():
    ctx = make_field(7)
    rep = pochhammer_identity_suite(ctx, ctx.element(3), mutate=True)
    assert not rep.passed
    assert all(f[0] == "product-rule" for f in rep.failures)


def _m_set(report, key):
    return {f[1] for f in report.failures if f[0] == key}


def _assert_matches_loop_oracle(p, kappas):
    """The table form gives the loop's report, less its ``stirling-2``
    entries, whose m-set is that of ``basis-round-trip``."""
    ctx = make_field(p)
    for kv in kappas:
        for mutate in (False, True):
            rep = pochhammer_identity_suite(ctx, ctx.element(kv), mutate=mutate)
            ref = identities.pochhammer_identity_suite(ctx, ctx.element(kv), mutate=mutate)
            assert _m_set(ref, "stirling-2") == _m_set(ref, "basis-round-trip")
            kept = [f for f in ref.failures if f[0] != "stirling-2"]
            assert (rep.passed, rep.failures, rep.name) == (not kept, kept, ref.name), (kv, mutate)


@pytest.mark.parametrize("p", PRIMES)
def test_identity_suite_matches_loop_oracle(p):
    _assert_matches_loop_oracle(p, range(1, p))


@pytest.mark.slow
@pytest.mark.parametrize("p", [17, 19, 23, 29, 31, 53, 101])
def test_identity_suite_matches_loop_oracle_sweep(p):
    """Every kappa up to p = 31; kappa = 1, 2 at p = 53 and 101."""
    _assert_matches_loop_oracle(p, range(1, p) if p <= 31 else (1, 2))


def _perturb(table, p):
    """A copy of a coefficient table with its first entry raised by 1 mod p."""
    out = np.array(table, dtype=np.int64)
    out.flat[0] = (out.flat[0] + 1) % p
    return out


def _perturb_rows(table, p, rows, col):
    """A copy of a triangle with entry ``col`` of each of ``rows`` raised by 1 mod p."""
    out = np.array(table, dtype=np.int64)
    for m in rows:
        out[m, col] = (out[m, col] + 1) % p
    return out


@pytest.mark.parametrize(
    "shift,with_var,m,expected",
    [
        (3, False, 2, [("shift-down", 2)]),
        (4, False, 5, [("shift-up", 5)]),
        (0, True, 3, [("binomial-convolution", 3)]),
        (0, True, 7, [("binomial-convolution", 7), ("additivity-p",)]),
    ],
)
def test_identity_suite_reads_each_factor_table(monkeypatch, shift, with_var, m, expected):
    """One perturbed factor table (p = 7, kappa = 3: row m of the triangle
    of (t - kappa; kappa)_m or of (t + kappa; kappa)_m, or the two-variable
    table of (t + z; kappa)_m gathered from row m of P) fails exactly the
    laws that read it, at that m."""
    if with_var:
        real = dense._with_var

        def spy(row, p, x):
            table = real(row, p, x)
            return _perturb(table, p) if len(row) == m + 1 else table

        monkeypatch.setattr(dense, "_with_var", spy)
    else:
        real = dense._pochhammer_rows

        def spy(p, kappa, sh, rows):
            table = real(p, kappa, sh, rows)
            return _perturb_rows(table, p, [m], 0) if sh % p == shift else table

        monkeypatch.setattr(dense, "_pochhammer_rows", spy)
    ctx = make_field(7)
    assert pochhammer_identity_suite(ctx, ctx.element(3)).failures == expected


def test_identity_suite_reads_the_first_kind_triangle(monkeypatch):
    real = dense._stirling_rows

    def spy(kind, p, rows):
        table = real(kind, p, rows)
        return _perturb_rows(table, p, [4], 0) if kind == 1 else table

    monkeypatch.setattr(dense, "_stirling_rows", spy)
    ctx = make_field(7)
    assert pochhammer_identity_suite(ctx, ctx.element(3)).failures == [("stirling-1", 4)]


def test_identity_suite_reads_the_basis_matrix_entries(monkeypatch):
    real = dense._pochhammer_basis_matrix

    def spy(p, kappa, tlen):
        M = real(p, kappa, tlen).copy()
        M[1, 6] = (M[1, 6] + 1) % p
        return M

    monkeypatch.setattr(dense, "_pochhammer_basis_matrix", spy)
    ctx = make_field(7)
    assert pochhammer_identity_suite(ctx, ctx.element(3)).failures == [("basis-round-trip", 6)]


def test_identity_suite_closed_forms_read_the_pochhammer_table(monkeypatch):
    """The closed form and the quasi-constant law read only the rows p and
    2p of P: raising their t-coefficient fails each of them (among the other
    laws that read those rows)."""
    real = dense._pochhammer_rows

    def spy(p, kappa, shift, rows):
        table = real(p, kappa, shift, rows)
        return _perturb_rows(table, p, (p, 2 * p), 1) if shift == 0 else table

    monkeypatch.setattr(dense, "_pochhammer_rows", spy)
    ctx = make_field(7)
    failures = pochhammer_identity_suite(ctx, ctx.element(3)).failures
    assert ("closed-form-p",) in failures
    for mult in (1, 2):
        assert ("quasi-constant-power", mult) in failures
        assert ("quasi-constant-shift", mult) in failures


def test_identity_suite_reads_the_pascal_triangle(monkeypatch):
    """A perturbed entry C(4, 2) of Pascal's triangle (p = 7, kappa = 3)
    fails exactly the laws that read it: the binomial convolution at m = 4
    (its right side) and at the m >= 4 whose (t + z; kappa)_m, gathered
    with C, has a nonzero t^4 coefficient, and the product rule at the pairs
    with i or j = 4.  The binomial matrix of the quasi-constant shift is the
    triangle scaled by -kappa, which the perturbation leaves alone."""
    real = dense._pascal

    def spy(p, rows, x=1):
        table = real(p, rows, x)
        return _perturb_rows(table, p, [4], 2) if x == 1 else table

    monkeypatch.setattr(dense, "_pascal", spy)
    ctx = make_field(7)
    failures = pochhammer_identity_suite(ctx, ctx.element(3)).failures
    assert {f[0] for f in failures} == {"binomial-convolution", "product-rule"}
    assert ("binomial-convolution", 4) in failures and ("product-rule", 4, 4) in failures
    assert all(f[1] >= 4 for f in failures if f[0] == "binomial-convolution")
    assert all(4 in f[1:] for f in failures if f[0] == "product-rule")


def test_product_rule_reads_the_pochhammer_table_through_both_products(monkeypatch):
    """With the t-coefficient of rows 2, 7 and 13 of P raised (p = 7,
    kappa = 3), the product rule fails at exactly the pairs i <= j <= 2p at
    which the perturbed table breaks it: its left sides (the product kernel
    of the solutions) and its right sides (the windows of P) both read the
    perturbed rows."""
    p, kv, rows = 7, 3, (2, 7, 13)
    real = dense._pochhammer_rows

    def spy(p, kappa, shift, nrows):
        table = real(p, kappa, shift, nrows)
        return _perturb_rows(table, p, rows, 1) if shift % p == 0 else table

    P = spy(p, kv, 0, 4 * p)
    expected = []
    for i in range(2 * p + 1):
        for j in range(i, 2 * p + 1):
            lhs = np.convolve(P[i, : i + 1], P[j, : j + 1]) % p
            rhs = sum(
                comb(i, l) * comb(j, l) * factorial(l) * kv**l % p * P[i + j - l, : i + j + 1]
                for l in range(i + 1)
            ) % p
            if not np.array_equal(lhs, rhs):
                expected.append(("product-rule", i, j))
    assert expected
    monkeypatch.setattr(dense, "_pochhammer_rows", spy)
    ctx = make_field(p)
    failures = pochhammer_identity_suite(ctx, ctx.element(kv)).failures
    assert [f for f in failures if f[0] == "product-rule"] == expected


def test_identity_suite_builds_each_triangle_once(monkeypatch):
    """One battery call (p = 13) asks for the triangle of (t - shift; kappa)_m
    once for each of its shifts 0, kappa and -kappa, whatever m it reads, and
    leaves the cached factor tables of the solutions alone."""
    p = 13
    ctx = make_field(p)
    calls = []
    real = dense._pochhammer_rows

    def spy(p, kappa, shift, rows):
        calls.append((kappa, shift % p, rows))
        return real(p, kappa, shift, rows)

    def no_factor_table(*args, **kw):
        raise AssertionError("the battery fills the factor-table cache")

    monkeypatch.setattr(dense, "_pochhammer_rows", spy)
    monkeypatch.setattr(dense, "_factor_table", no_factor_table)
    for kv in range(1, p):
        calls.clear()
        assert pochhammer_identity_suite(ctx, ctx.element(kv)).passed
        assert sorted(calls) == sorted([(kv, 0, 4 * p), (kv, kv, 2 * p), (kv, p - kv, 2 * p)])


def test_identity_suite_rejects_ext_kappa():
    ctx = make_field(5, 2)
    with pytest.raises(ValueError):
        pochhammer_identity_suite(ctx, ctx.element(1, 1))


def test_tpoly_shift_t():
    ctx = make_field(5)
    f = poch_poly(ctx.element(2), 6)
    g = f.shift_t(3)
    for tv in range(5):
        assert g.eval_t(ctx.element(tv)) == f.eval_t(ctx.element(tv) + 3)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_basis_matrix_matches_sparse_conversion(p):
    """Column m of the basis matrix the solutions are built with holds the
    Pochhammer coefficients of t^m, as the sparse conversion gives them."""
    import numpy as np

    from charp_qkz import dense

    ctx = make_field(p)
    tlen = 2 * p + 1
    for kv in range(1, p):
        kappa = ctx.element(kv)
        M = dense._pochhammer_basis_matrix(p, kv, tlen).astype(np.int64)
        for m in range(tlen):
            tm = TPoly(ctx, 0, [MPoly.zero(ctx, 0)] * m + [MPoly.const(ctx, 0, 1)])
            conv = to_pochhammer_basis(tm, kappa)
            assert [conv.coeff(l).constant_term().val for l in range(tlen)] == M[:, m].tolist()


def test_identities_suite_reads_the_basis_matrix(monkeypatch):
    """verify --suites identities checks the cached basis matrix that
    dense_pochhammer_coeffs applies, once per (p, kappa)."""
    import contextlib
    import io

    from charp_qkz import dense
    from charp_qkz.cli import main

    calls = []
    real = dense._pochhammer_basis_matrix

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dense, "_pochhammer_basis_matrix", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--p", "5", "--p", "7", "--suites", "identities", "--format", "json"])
    assert code == 0
    assert calls == [(5, kv, 11) for kv in range(1, 5)] + [(7, kv, 15) for kv in range(1, 7)]
