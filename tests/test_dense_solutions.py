"""Dense solution sets: the cached Pochhammer basis matrix against the
digit-plus-triangular elimination it replaced, the row fold against the
full t-expansion it replaced, the array renderer against ``str(MPoly)``,
``SolutionSet.arrays`` against sparse constructions, and ``solve`` output
against the recorded reference digests."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os

import numpy as np
import pytest

from charp_qkz import dense
from charp_qkz.cli import main
from charp_qkz.dense import dense_pochhammer_coeffs, mpoly_to_dense, pochhammer_scalar_coeffs
from charp_qkz.ffield import make_field
from charp_qkz.hypergeo import (
    _q_factors,
    _render,
    _restriction_rows,
    barq_solutions,
    extract_solutions,
    q_vector,
    solution_set_to_json,
    special_restriction_values,
)
from charp_qkz.mpoly import MPoly
from charp_qkz.pochhammer import TPoly, poch_factor, to_pochhammer_basis
from charp_qkz.qkz_core import make_params

REFERENCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "solve_reference.json",
)


def _elimination_oracle(arr: np.ndarray, p: int, kappa: int) -> np.ndarray:
    """The per-row basis change: split off base-h digits with
    h(t) = t^p - kappa^{p-1} t, then eliminate each digit against the monic
    (t; kappa)_r, r < p, from the top down."""
    kpow = pow(kappa, p - 1, p) if kappa % p else 0
    work = arr % p
    tlen = work.shape[0]
    digits = []
    while work.shape[0] > p:
        tl = work.shape[0]
        quot = np.zeros((tl - p,) + work.shape[1:], dtype=np.int64)
        work = work.copy()
        for d in range(tl - 1, p - 1, -1):
            top = work[d]
            quot[d - p] = top
            if kpow:
                work[d - p + 1] = (work[d - p + 1] + kpow * top) % p
            work[d] = 0
        digits.append(work[:p])
        work = quot % p
    digits.append(work)
    pochs = pochhammer_scalar_coeffs(p, kappa, p - 1)
    out = np.zeros((tlen,) + arr.shape[1:], dtype=np.int64)
    for a, g in enumerate(digits):
        g = g.copy()
        for r in range(g.shape[0] - 1, -1, -1):
            c = g[r]
            if a * p + r < tlen:
                out[a * p + r] = c
            if r and np.any(c):
                for l in range(r):
                    if pochs[r][l]:
                        g[l] = (g[l] - pochs[r][l] * c) % p
    return out % p


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pochhammer_matrix_matches_elimination(p):
    rng = np.random.default_rng(p)
    for kappa in range(p):
        for tlen in (1, 2, p - 1, p, p + 1, 2 * p, 3 * p + 2, 5 * p):
            for extra in range(4):
                shape = (tlen,) + tuple(int(s) for s in rng.integers(1, 5, size=extra))
                arr = rng.integers(-2 * p, 2 * p, size=shape)
                got = dense_pochhammer_coeffs(arr, p, kappa)
                assert got.shape == arr.shape and got.dtype == np.int64
                assert np.array_equal(got, _elimination_oracle(arr, p, kappa)), (
                    p, kappa, tlen, extra,
                )


def test_pochhammer_blocks_agree(monkeypatch):
    """Products split over many column blocks give the unsplit result."""
    p, kappa = 11, 4
    arr = np.random.default_rng(0).integers(0, p, size=(3 * p, 5, 7))
    whole = dense_pochhammer_coeffs(arr, p, kappa)
    monkeypatch.setattr(dense, "_GEMM_MADDS", 3 * (3 * p) ** 2)
    assert np.array_equal(dense_pochhammer_coeffs(arr, p, kappa), whole)
    assert np.array_equal(whole, _elimination_oracle(arr, p, kappa))


def test_pochhammer_matrix_refuses_inexact_size():
    with pytest.raises(AssertionError):
        dense_pochhammer_coeffs(np.zeros((1 << 40, 0), dtype=np.int64), 101, 1)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_row_fold_matches_full_product(p):
    """Requested rows of arr * (t - w - shift; kappa)_m equal the same rows
    of the explicitly expanded product after the full basis change."""
    rng = np.random.default_rng(100 + p)
    for kappa in range(p):
        for var in (1, None):
            for m in (0, 1, p - 1, p + 2):
                shift = int(rng.integers(p))
                tlen = int(rng.integers(1, 3 * p))
                arr = rng.integers(-p, 2 * p, size=(tlen, 2, 3))
                F = dense._factor_table(p, kappa, m, shift, with_var=var is not None)
                full = np.zeros((tlen + m, F.shape[1], 2, 3), dtype=np.int64)
                for dt in range(m + 1):
                    for e in range(F.shape[1]):
                        full[dt : dt + tlen, e] += F[dt, e] * (arr % p)
                if var is None:
                    full = full[:, 0]
                rows = sorted(rng.choice(tlen + m, size=int(rng.integers(tlen + m + 1)), replace=False))
                got = dense_pochhammer_coeffs(arr, p, kappa, rows=rows, factor=(var, shift, m))
                expected = dense_pochhammer_coeffs(full, p, kappa)[rows]
                assert got.shape == expected.shape and got.dtype == np.int64
                assert np.array_equal(got, expected), (p, kappa, var, m, rows)


def test_row_fold_refuses_inexact_size():
    with pytest.raises(AssertionError):
        dense_pochhammer_coeffs(
            np.zeros((1 << 40, 0), dtype=np.int64), 101, 1, rows=(99,), factor=(1, 0, 5)
        )


def _full_product_rows(ctx, kappa: int, factors, rows) -> np.ndarray:
    """The construction path the row fold replaced: the whole t-expansion
    of the product, the full basis change ((t; 0)_i = t^i needs none), then
    the requested rows."""
    arr, _ = dense.build_product_tpoly(ctx, kappa, factors)
    pc = dense_pochhammer_coeffs(arr, ctx.p, kappa) if kappa else arr
    return pc[list(rows)]


def _full_product_stack(params, kappa: int, factors_of) -> np.ndarray:
    p, n, k, d = params.p, params.n, params.k, params.d
    sols = np.zeros((d, n) + (k + 1,) * n, dtype=np.int64)
    for a in range(1, n + 1):
        pc = _full_product_rows(params.ctx, kappa, factors_of(a), range(n * k))
        # deg_t Q_a = nk - 1, so index ell*p - 1 exists exactly for ell <= d
        assert pc.shape[0] == n * k and (d + 1) * p - 1 >= n * k
        box = tuple(slice(s) for s in pc.shape[1:])
        for ell in range(1, d + 1):
            sols[(ell - 1, a - 1) + box] = pc[ell * p - 1]
    return sols


def _assert_rows_match_full_products(p, n):
    ctx = make_field(p)
    for kv in range(1, p):
        params = make_params(ctx, n, kv)
        k = params.k
        qkz = _full_product_stack(params, kv, functools.partial(_q_factors, params))
        assert np.array_equal(extract_solutions(params).arrays, qkz), kv

        def bar_factors(a):
            return [(j, 0, k - 1 if j == a else k) for j in range(1, n + 1)]

        assert np.array_equal(barq_solutions(params).arrays, _full_product_stack(params, 0, bar_factors)), kv
        for size in range(1, n + 1):
            for I in itertools.combinations(range(1, n + 1), size):
                vals = special_restriction_values(params, I)
                for a in range(1, n + 1):
                    factors = [
                        (None, (vals[var].val + shift) % p, m) if var in vals else (var, shift, m)
                        for var, shift, m in _q_factors(params, a)
                    ]
                    rows = range(min(size * k - 1, n * k))
                    expected = _full_product_rows(ctx, kv, factors, rows)
                    assert np.array_equal(_restriction_rows(params, I, a), expected), (kv, I, a)


_FOLD_SWEEP = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 6) if n < p]
_FOLD_SLOW = {(11, 5), (13, 5)}


@pytest.mark.parametrize("p,n", [pn for pn in _FOLD_SWEEP if pn not in _FOLD_SLOW])
def test_solution_rows_match_full_products(p, n):
    """extract_solutions, barq_solutions and every restriction's rows equal
    the full-product path, for every kappa."""
    _assert_rows_match_full_products(p, n)


@pytest.mark.slow
@pytest.mark.parametrize("p,n", sorted(_FOLD_SLOW))
def test_solution_rows_match_full_products_slow(p, n):
    _assert_rows_match_full_products(p, n)


@pytest.mark.parametrize("p,n", [(7, 5), (11, 4), (13, 3), (19, 3)])
def test_renderer_matches_mpoly_str(p, n):
    ctx = make_field(p)
    for kv in range(1, p):
        ss = extract_solutions(make_params(ctx, n, kv))
        payload = solution_set_to_json(ss)
        assert payload["solutions"] == [[str(c) for c in s.coords] for s in ss.solutions]
        assert payload["degrees"] == [s.degree() for s in ss.solutions]


def test_renderer_zero_polynomials():
    arr = np.zeros((2, 3, 4, 4, 4), dtype=np.int64)
    assert _render(arr, 7) == [["0"] * 3, ["0"] * 3]
    arr[1, 2, 3, 0, 1] = 5
    arr[1, 2, 0, 0, 0] = 1
    expected = str(MPoly(make_field(7), 3, {(3, 0, 1): 5, (0, 0, 0): 1}))
    assert _render(arr, 7) == [["0"] * 3, ["0", "0", expected]]
    assert _render(np.zeros((0, 2, 3, 3), dtype=np.int64), 5) == []


def _boxed(f: MPoly, box: tuple) -> np.ndarray:
    return dense.pad_to_shape(mpoly_to_dense(f), box)


def _barq_sparse(params, a: int):
    """bar-Q_a = (t-z_a)^{k-1} prod_{j != a} (t-z_j)^k, as a sparse TPoly."""
    ctx, n, k = params.ctx, params.n, params.k
    acc = TPoly(ctx, n, [MPoly.const(ctx, n, 1)])
    for j in range(1, n + 1):
        acc = acc * poch_factor(MPoly.variable(ctx, n, j), ctx.zero(), k - 1 if j == a else k)
    return acc


@pytest.mark.parametrize("p,n,kv", [(5, 3, 1), (7, 3, 1), (7, 4, 2), (11, 3, 2)])
def test_arrays_match_sparse_constructions(p, n, kv):
    params = make_params(make_field(p), n, kv)
    box = (params.k + 1,) * n
    qkz, kz = extract_solutions(params), barq_solutions(params)
    assert qkz.arrays.shape == kz.arrays.shape == (params.d, n) + box
    assert qkz.arrays.dtype == kz.arrays.dtype == np.int64
    qs = q_vector(params)
    for a in range(1, n + 1):
        pf = to_pochhammer_basis(qs[a - 1], params.kappa)
        bar = _barq_sparse(params, a)
        for ell in range(1, params.d + 1):
            idx = ell * p - 1
            assert np.array_equal(qkz.arrays[ell - 1, a - 1], _boxed(pf.coeff(idx), box))
            assert np.array_equal(kz.arrays[ell - 1, a - 1], _boxed(bar.coeff(idx), box))
    for ss in (qkz, kz):
        assert len(ss.solutions) == ss.d
        assert ss.degrees() == [s.degree() for s in ss.solutions]
        for ell, sol in enumerate(ss.solutions):
            for a, coord in enumerate(sol.coords):
                assert np.array_equal(ss.arrays[ell, a], _boxed(coord, box))


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_solve_json_reproduces_reference_digests():
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    assert len(reference) == 196
    for key, digest in reference.items():
        p, n, kv = key.split(",")
        code, out = _run(["solve", "--p", p, "--n", n, "--kappa", kv, "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


@pytest.mark.parametrize("p,n,kv", [(5, 2, 3), (5, 2, 2), (7, 4, 1), (11, 3, 2)])
def test_solve_text_matches_sparse_rendering(p, n, kv):
    params = make_params(make_field(p), n, kv)
    ss = extract_solutions(params)
    lines = [f"p={p} n={n} kappa={kv} k={params.k} d(kappa)={params.d}"]
    if ss.d == 0:
        lines.append("d(kappa)=0: no p-hypergeometric solutions for this step")
    for ell, sol in enumerate(ss.solutions, start=1):
        lines.append(f"Q^({ell}p-1), degree {sol.degree()}:")
        lines += [f"  [{i}] {c}" for i, c in enumerate(sol.coords, start=1)]
    code, out = _run(["solve", "--p", str(p), "--n", str(n), "--kappa", str(kv)])
    assert code == 0
    assert out == "\n".join(lines) + "\n"
