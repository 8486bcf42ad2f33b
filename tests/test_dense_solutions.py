"""Dense solution sets: the cached Pochhammer basis matrix against the
digit-plus-triangular elimination it replaced, the array renderer against
``str(MPoly)``, ``SolutionSet.arrays`` against sparse constructions, and
``solve`` output against the recorded reference digests."""

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from charp_qkz import dense
from charp_qkz.cli import main
from charp_qkz.dense import dense_pochhammer_coeffs, mpoly_to_dense, pochhammer_scalar_coeffs
from charp_qkz.ffield import make_field
from charp_qkz.hypergeo import (
    _render,
    barq_solutions,
    extract_solutions,
    q_vector,
    solution_set_to_json,
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
