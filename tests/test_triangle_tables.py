"""The triangular tables mod p, all rescaled rows of the one recurrence
``dense._triangle``, against the loops they replaced (``oracles.tables``):
the factor tables of (t - w - shift; kappa)_m with and without the
variable, the (t; kappa)_m rows, both Stirling triangles, and the binomial
matrix of ``dense_shift_var``; and the recurrence runs only for the base
triangles of each prime."""

import numpy as np
import pytest

from charp_qkz import dense, hypergeo
from charp_qkz.cli import main
from oracles.tables import (
    _stirling_table,
    factor_table_by_products,
    pochhammer_scalar_coeffs,
    shift_matrix_by_pascal_loop,
)

PRIMES = [3, 5, 7, 11, 13]


def _assert_factor_tables(p, kappas, shifts):
    """Every m <= 2p, with and without the variable, for each kappa and each
    shift in ``shifts(kappa)``."""
    for kv in kappas:
        for shift in shifts(kv):
            for m in range(2 * p + 1):
                for with_var in (False, True):
                    got = dense._factor_table(p, kv, m, shift, with_var=with_var)
                    assert not got.flags.writeable
                    assert np.array_equal(got, factor_table_by_products(p, kv, m, shift, with_var)), (
                        p, kv, shift, m, with_var,
                    )


@pytest.mark.parametrize("p", PRIMES)
def test_factor_tables_match_products(p):
    _assert_factor_tables(p, range(p), lambda kv: range(p))


@pytest.mark.slow
@pytest.mark.parametrize("p", [17, 19, 23, 29, 31, 53, 101])
def test_factor_tables_match_products_sweep(p):
    """Every kappa up to p = 31, kappa = 1, 2 at p = 53 and 101; every
    shift, as the restricted products read them."""
    kappas = range(1, p) if p <= 31 else (1, 2)
    _assert_factor_tables(p, kappas, lambda kv: range(p))


@pytest.mark.parametrize("p", PRIMES + [pytest.param(q, marks=pytest.mark.slow) for q in (31, 53, 101)])
def test_pochhammer_rows_match_scalar_coeffs(p):
    """Rows 0..4p of (t; kappa)_m, the table P the battery reads."""
    for kv in range(p) if p <= 31 else (1, 2):
        P = dense._pochhammer_rows(p, kv, 0, 4 * p)
        assert P.shape == (4 * p + 1, 4 * p + 1) and not P.flags.writeable
        for m, row in enumerate(pochhammer_scalar_coeffs(p, kv, 4 * p)):
            assert P[m, : m + 1].tolist() == row and not P[m, m + 1 :].any(), (p, kv, m)


@pytest.mark.parametrize("p", PRIMES + [pytest.param(q, marks=pytest.mark.slow) for q in (31, 53, 101)])
def test_stirling_rows_match_tuple_triangle(p):
    """Both kinds, past row 2p."""
    rows = 2 * p + 3
    for kind in (1, 2):
        ref = np.zeros((rows + 1, rows + 1), dtype=np.int64)
        for m, row in enumerate(_stirling_table(kind, p, rows)):
            ref[m, : m + 1] = row
        assert np.array_equal(dense._stirling_rows(kind, p, rows)[: rows + 1, : rows + 1], ref), (p, kind)


@pytest.mark.parametrize("p", PRIMES)
def test_shift_matrix_matches_pascal_loop(p):
    """The binomial matrix of z -> z + shift for every shift and size
    d <= 2p + 1, and dense_shift_var along each axis of a random array."""
    rng = np.random.default_rng(p)
    for shift in range(p):
        for d in range(1, 2 * p + 2):
            S = dense._pascal(p, d - 1, shift)[:d, :d]
            assert np.array_equal(S, shift_matrix_by_pascal_loop(d, shift, p)), (p, shift, d)
        arr = rng.integers(-p, 2 * p, size=(4, 1, 2 * p + 1))
        for axis, d in enumerate(arr.shape):
            S = shift_matrix_by_pascal_loop(d, shift, p)
            expected = np.moveaxis(np.tensordot(arr % p, S, axes=([axis], [0])), -1, axis) % p
            assert np.array_equal(dense.dense_shift_var(arr, axis, shift, p), expected), (p, shift, axis)


def test_triangles_are_shared_read_only_and_bounded():
    """One base table per (p, c) and block of p rows, whatever rows a
    caller asks for within it (s1 is the triangle of (t; 1)_m, and
    (t - s; 0)_m = (t - s)^m is Pascal's triangle rescaled by -s); the
    cache holds at most 64 base tables, and a rescaled table is a fresh
    read-only array with the same entries on every read; the factor tables
    they feed are copies, so they do not keep an evicted triangle alive."""
    assert dense._recurrence.cache_info().maxsize == 64
    p = 7
    T = dense._pochhammer_rows(p, 3, 0, 2)
    assert T.shape == (p + 1, p + 1) and not T.flags.writeable
    again = dense._pochhammer_rows(p, 3 + p, -p, p)
    assert np.array_equal(again, T) and not again.flags.writeable
    assert dense._pochhammer_rows(p, 3, 0, p + 1).shape == (2 * p + 1, 2 * p + 1)
    assert dense._stirling_rows(1, p, 5) is dense._pochhammer_rows(p, 1, 0, 0)
    shifted = dense._pochhammer_rows(p, 0, 2, 3)
    assert np.array_equal(shifted, dense._pascal(p, 5, -2)) and not shifted.flags.writeable
    for with_var in (False, True):
        assert not np.shares_memory(dense._factor_table(p, 3, 4, 0, with_var=with_var), T)


def test_solve_builds_only_base_triangles(monkeypatch, capsys):
    """Solving every kappa of (11, 3) and (7, 4) runs the recurrence only
    for base triangles of the prime: Pascal's (c = 1), the second-kind
    (c = l) and the (u - s; 1)_m (c = -s - m) for the shifts s = 0 and 1
    the solutions read, never with cm = -kappa for kappa not in {0, 1};
    every kappa is a rescale of them."""
    calls = set()
    real = dense._recurrence

    def spy(p, rows, c0, cm, cl):
        calls.add((p, c0, cm, cl))
        return real(p, rows, c0, cm, cl)

    monkeypatch.setattr(dense, "_recurrence", spy)
    for cached in (dense._factor_table, dense._row_functional):
        cached.cache_clear()
    for p, n in ((11, 3), (7, 4)):
        for kv in range(1, p):
            hypergeo._solution_cache.clear()
            assert main(["solve", "--p", str(p), "--n", str(n), "--kappa", str(kv), "--format", "json"]) == 0
            capsys.readouterr()
        bases = {(1, 0, 0), (0, 0, 1), (0, p - 1, 0), (p - 1, p - 1, 0)}
        assert {c[1:] for c in calls if c[0] == p} == bases, p
    hypergeo._solution_cache.clear()
