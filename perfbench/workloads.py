"""Workload definitions: the requests one benchmark pass sends to
``charp_qkz.cli.main``, and the import of the package from the checkout.

A pass is the unit of measurement. It runs in a fresh worker process, so
every pass starts with the program's in-process caches empty, just as a new
``charp-qkz`` invocation would.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("solve-grid", "verify-sweep", "curvature-points")

# One cheap solve before the first measured request; (5, 2, 3) lies outside
# the solve grid, so it never warms a measured key.
WARMUP_ARGV = ["solve", "--p", "5", "--n", "2", "--kappa", "3", "--format", "json"]

# (p, n) strata of the solve grid; each stratum contributes every kappa in
# 1..p-1. Strata whose keys cost more than about a second each ((13, 4),
# (17, 4), (29, 3)) are left out: a handful of them would dominate a pass.
SOLVE_STRATA = (
    (7, 2), (7, 3), (7, 4), (7, 5),
    (11, 2), (11, 3), (11, 4),
    (13, 2), (13, 3),
    (17, 2), (17, 3),
    (19, 2), (19, 3),
    (23, 2),
    (29, 2),
)

# All ten suites over p = 5, n in {2, 3, 4}, default point count.
VERIFY_SWEEP_ARGV = ["verify", "--p", "5", "--n", "2", "--n", "3", "--n", "4"]

# The pointwise F_{p^2} suites at 100 points per check.
CURVATURE_POINTS_ARGV = [
    "verify", "--p", "7", "--p", "11", "--n", "3",
    "--suites", "rmatrix", "curvature", "ext_kappa", "--points", "100",
]


def solve_grid_keys() -> list[tuple[int, int, int]]:
    return [(p, n, kv) for p, n in SOLVE_STRATA for kv in range(1, p)]


def solve_argv(p: int, n: int, kv: int) -> list[str]:
    return ["solve", "--p", str(p), "--n", str(n), "--kappa", str(kv), "--format", "json"]


def requests(workload: str, seed: int, pass_index: int) -> list[tuple[str, list[str]]]:
    """The (key, argv) requests of one pass, in order.

    solve-grid: every grid key once, shuffled by (seed, pass_index); no key
    repeats within a pass, so the program's solution cache never hits.
    The verify workloads: one verify call whose sample points and
    extension-field kappas come from the seed.
    """
    if workload == "solve-grid":
        keys = solve_grid_keys()
        random.Random(seed * 1_000_003 + pass_index).shuffle(keys)
        return [(f"{p},{n},{kv}", solve_argv(p, n, kv)) for p, n, kv in keys]
    if workload == "verify-sweep":
        base = VERIFY_SWEEP_ARGV
    elif workload == "curvature-points":
        base = CURVATURE_POINTS_ARGV
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [(workload, base + ["--seed", str(seed), "--format", "json"])]


def import_cli():
    """Import ``charp_qkz.cli`` from the checkout's ``src`` directory.

    Raises ImportError when the checkout holds no program, or when the
    import would resolve to a copy installed elsewhere.
    """
    if not os.path.isfile(os.path.join(SRC, "charp_qkz", "__init__.py")):
        raise ImportError(f"no charp_qkz package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import charp_qkz.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"charp_qkz resolved to {cli.__file__}, not the checkout")
    return cli
