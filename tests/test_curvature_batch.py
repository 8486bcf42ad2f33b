"""Differential tests of the p-curvature kernel and the point sampling of
the ``ext_kappa`` check against the paths they replaced
(``oracles.curvature``): ``curvature_batch``, two-row R-factor updates on
one running matrix, against K_a at the p shifted points multiplied as a
pairwise tree; ``_nonsingular_points``, larger chunks, against the loop
that drew at most the missing number of points per round.  Also the
sweep of a kappa pair and ``linalg.mod`` against ``%``."""

import json
import random

import numpy as np
import pytest

from charp_qkz import pcurvature
from charp_qkz.ffield import make_field, sample_point
from charp_qkz.linalg import mod
from charp_qkz.pcurvature import (
    _nonsingular_points,
    curvature_batch,
)
from charp_qkz.qkz_core import SingularPointError, make_params
from oracles.curvature import curvature_batch as tree_curvature_batch
from oracles.curvature import nonsingular_points as chunked_by_missing

PN = [(p, n) for p in (5, 7, 11, 13) for n in range(2, 6) if n < p]


def _ext_kappas(p, count, seed):
    rng = random.Random(seed)
    ctx = make_field(p, 2)
    out = []
    while len(out) < count:
        kap = ctx.element(rng.randrange(p), rng.randrange(1, p))
        if kap not in out:
            out.append(kap)
    return out


def _outcome(kernel, params, a, Z):
    try:
        return kernel(params, a, Z)
    except SingularPointError as exc:
        return f"SingularPointError: {exc}"


def _assert_same(params, a, Z):
    """Equal arrays, or the same SingularPointError message on both sides;
    returns the message, or None."""
    got = _outcome(curvature_batch, params, a, Z)
    want = _outcome(tree_curvature_batch, params, a, Z)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return want
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    return None


def _singular_point(params, z):
    """A point with some shifted R-factor of some C_a undefined: for
    prime-field kappa, z_2 given the g-component of z_1 (then u runs over
    all of F_p as the shift does); otherwise the first attempt the
    singular-point mask rejects."""
    if params.k is not None:
        s = z.copy()
        s[1, 1] = s[0, 1]
        return s
    t = 0
    while True:
        cand = sample_point(make_field(params.p, 2), params.n, 7919 + t)[None]
        if pcurvature._singular_mask(params, cand)[0]:
            return cand[0]
        t += 1


def _sweep(p, n, kappas, npts, seed):
    """Compare the kernels for every a on a nonsingular batch and on that
    batch with one singular point inserted, for each kappa given as an int
    (prime field) or an F_{p^2} element."""
    pctx = make_field(p, 2)
    for kap in kappas:
        params = make_params(make_field(p) if isinstance(kap, int) else pctx, n, kap)
        Z = chunked_by_missing(params, npts, seed)
        assert len(Z) == npts
        bad = np.insert(Z, npts // 2, _singular_point(params, Z[0]), axis=0)
        messages = []
        for a in range(1, n + 1):
            assert _assert_same(params, a, Z) is None
            messages.append(_assert_same(params, a, bad))
        assert any(m is not None for m in messages), (p, n, kap)


@pytest.mark.parametrize("p,n", PN)
def test_curvature_batch_matches_the_pairwise_tree(p, n):
    _sweep(p, n, [1, p - 1] + _ext_kappas(p, 1, p * 10 + n), npts=6, seed=p + n)


@pytest.mark.slow
@pytest.mark.parametrize("p,n", PN)
def test_curvature_batch_matches_the_pairwise_tree_every_kappa(p, n):
    _sweep(p, n, list(range(1, p)) + _ext_kappas(p, 3, p * 100 + n), npts=17, seed=p * n)


@pytest.mark.parametrize("kappas", [["2"], ["2", "3"]])
def test_a_kappa_pair_is_checked_from_one_stack_each(kappas, monkeypatch, capsys):
    """At p = 5, kappa = 2 and -kappa = 3 form a pair.  Swept alone (its
    partner not swept) or with its partner, each curvature entry equals the
    one of the full sweep; the battery runs once per swept kappa, and the
    stacks of both members are made once, for the duality check."""
    from charp_qkz import cli

    base = ["verify", "--p", "5", "--n", "3", "--n", "4", "--suites", "curvature", "--points", "4", "--seed", "3"]
    base += ["--format", "json"]
    assert cli.main(base) == 0
    full = json.loads(capsys.readouterr().out)["curvature"]
    batteries, stacks = [], []
    real_battery, real_batch = cli.verify_curvature_battery, pcurvature.curvature_batch

    def battery(params, *args, **kwargs):
        batteries.append((params.n, params.kappa.val))
        return real_battery(params, *args, **kwargs)

    def batch(params, a, Z):
        stacks.append((params.n, params.kappa.val))
        return real_batch(params, a, Z)

    monkeypatch.setattr(cli, "verify_curvature_battery", battery)
    monkeypatch.setattr(pcurvature, "curvature_batch", batch)
    assert cli.main(base + [arg for k in kappas for arg in ("--kappa", k)]) == 0
    got = json.loads(capsys.readouterr().out)["curvature"]
    keys = [f"{check}p=5,n={n},kappa={k}" for n in (3, 4) for k in kappas for check in ("", "duality,")]
    assert sorted(got) == sorted(keys)
    assert got == {key: full[key] for key in keys}
    assert batteries == [(n, int(k)) for n in (3, 4) for k in kappas]
    assert sorted(stacks) == [(n, k) for n in (3, 4) for k in (2, 3)]


def _count_rounds(monkeypatch):
    rounds = []
    real = pcurvature._singular_mask

    def spy(params, Z):
        rounds.append(len(Z))
        return real(params, Z)

    monkeypatch.setattr(pcurvature, "_singular_mask", spy)
    return rounds


@pytest.mark.parametrize("p", [5, 7, 11])
def test_nonsingular_points_match_the_old_loop(p, monkeypatch):
    """The same points in the same order, in no more rounds."""
    rounds = _count_rounds(monkeypatch)
    pctx = make_field(p, 2)
    new = old = 0
    for n in range(2, min(p, 5)):
        for kap in _ext_kappas(p, 3, p * 10 + n):
            params = make_params(pctx, n, kap)
            for seed in range(5):
                npoints = 3 + 11 * seed
                got = _nonsingular_points(params, npoints, seed)
                new, rounds[:] = new + len(rounds), []
                want = chunked_by_missing(params, npoints, seed)
                old, rounds[:] = old + len(rounds), []
                assert got.shape == want.shape == (npoints, n, 2) and got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
    assert new < old


@pytest.mark.parametrize("accept", ["none", "rare"])
def test_nonsingular_points_exhaust_the_budget(accept, monkeypatch):
    """With almost every attempt rejected, both loops stop at 40 * npoints
    attempts with the same (too few) points."""
    real = pcurvature._singular_mask

    def mask(params, Z):
        if accept == "none":
            return np.ones(len(Z), dtype=bool)
        return real(params, Z) | np.any(Z[:, 0] != 0, axis=1)  # z_1 = 0 only: ~1/p^2 of attempts

    monkeypatch.setattr(pcurvature, "_singular_mask", mask)
    pctx = make_field(5, 2)
    params = make_params(pctx, 3, pctx.element(2, 3))
    got = _nonsingular_points(params, 10, 4)
    want = chunked_by_missing(params, 10, 4)
    assert len(got) < 10 and (len(got) > 0) == (accept == "rare")
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16])
def test_mod_matches_remainder(dtype):
    info = np.iinfo(dtype)
    edges = [0, 1, -1, 2, -2, info.min, info.min + 1, info.max, info.max - 1]
    if dtype is np.int64:
        edges += [s * (2**62) + d for s in (1, -1) for d in (-3, -1, 0, 1, 3)]
    rand = np.random.default_rng(7).integers(info.min, info.max, size=2000, dtype=dtype, endpoint=True)
    x = np.concatenate([np.array(edges, dtype=dtype), rand])
    for p in (2, 3, 5, 13, 101, 32749, 2**31 - 1):
        if p > info.max:
            continue
        got = mod(x, p)
        assert got.dtype == x.dtype
        np.testing.assert_array_equal(got, x % p)
