"""The output checks reject wrong solve output and sabotaged verify runs."""

import checks
import worker
import workloads


def test_solve_digest_matches_and_corruption_fails():
    cli = workloads.import_cli()
    reference = checks.load_reference()
    rc, out, _ = worker.call(cli, workloads.solve_argv(7, 3, 2))
    expected = reference["7,3,2"]
    assert checks.check_solve(rc, checks.digest(out), expected)
    i = out.index('"solutions"') + 20
    corrupted = out[:i] + ("1" if out[i] != "1" else "2") + out[i + 1:]
    assert not checks.check_solve(rc, checks.digest(corrupted), expected)
    assert not checks.check_solve(1, checks.digest(out), expected)
    assert not checks.check_solve(rc, checks.digest(out), None)


def test_reference_covers_the_grid():
    keys = {f"{p},{n},{kv}" for p, n, kv in workloads.solve_grid_keys()}
    assert set(checks.load_reference()) == keys


def test_verify_counts_entries():
    cli = workloads.import_cli()
    argv = ["verify", "--p", "5", "--n", "3", "--suites", "identities", "rmatrix", "--format", "json"]
    rc, out, _ = worker.call(cli, argv)
    attempted, failed = checks.verify_counts(rc, out)
    assert rc == 0 and failed == 0 and attempted > 1
    rc, out, _ = worker.call(cli, argv + ["--sabotage"])
    attempted_s, failed_s = checks.verify_counts(rc, out)
    assert rc == 1 and 0 < failed_s <= attempted_s
    assert checks.verify_counts(0, "not json") == (1, 1)


def test_sabotaged_pass_reports_failed_operations(monkeypatch):
    cli = workloads.import_cli()
    argv = ["verify", "--p", "5", "--n", "3", "--suites", "identities", "rmatrix", "leading",
            "--sabotage", "--format", "json"]
    monkeypatch.setattr(workloads, "requests", lambda w, s, i: [("tiny", argv)])
    report = worker.run_pass(cli, "verify-sweep", 1, 0)
    assert report["failed"] > 0
    assert report["attempted"] >= report["failed"]
