"""Workload inputs depend only on the seed, and the solve grid never repeats a key."""

import workloads


def test_solve_grid_order_is_seeded_and_keys_distinct():
    a = workloads.requests("solve-grid", 1, 0)
    assert a == workloads.requests("solve-grid", 1, 0)
    keys = [k for k, _ in a]
    assert len(set(keys)) == len(keys) == len(workloads.solve_grid_keys())
    b = workloads.requests("solve-grid", 2, 0)
    assert sorted(keys) == sorted(k for k, _ in b) and keys != [k for k, _ in b]
    assert "5,2,3" not in keys  # the warm-up key


def test_verify_workloads_pass_the_seed():
    for w in ("verify-sweep", "curvature-points"):
        (key, argv), = workloads.requests(w, 7, 0)
        assert argv[0] == "verify" and argv[-4:] == ["--seed", "7", "--format", "json"]
