"""Command-line interface: subcommands, exit codes, determinism, and the
sabotage falsifiability switch."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from charp_qkz.cli import ALL_SUITES, main, parse_kappa
from charp_qkz.ffield import make_field
from charp_qkz.qkz_core import make_params


def run_cli(args, tmp_path=None):
    """Invoke the entry point in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_parse_kappa_prime_field():
    ctx = make_field(7)
    assert parse_kappa(ctx, "3") == ctx.element(3)
    assert parse_kappa(ctx, "10") == ctx.element(3)


def test_parse_kappa_extension():
    ctx = make_field(5, 2)
    assert parse_kappa(ctx, "2+3*g") == ctx.element(2, 3)
    assert parse_kappa(ctx, "0+1*g") == ctx.element(0, 1)
    assert parse_kappa(ctx, "g") == ctx.element(0, 1)
    with pytest.raises(ValueError):
        parse_kappa(ctx, "2~g")


def test_parse_kappa_accepted_spellings():
    """Every spelling read so far still gives the same element, in F_p and
    lifted to F_{p^2} from a prime-field context."""
    ctx = make_field(5)
    cases = {
        "-2": (3, 0), " 4 ": (4, 0), "g": (0, 1), "3*g": (0, 3), "-1*g": (0, 4),
        "1+g": (1, 1), "1+2*g": (1, 2), "1+2g": (1, 2), "-1+-2*g": (4, 3), "4 + 3 * g": (4, 3),
    }
    for text, (a0, a1) in cases.items():
        got = parse_kappa(ctx, text)
        assert (got.a0, got.a1) == (a0, a1), text
        assert got.ctx.ext_degree == (2 if "g" in text else 1), text


@pytest.mark.parametrize("text", ["1+g*2", "g+1", "1+*g", "1-2*g", "+g", "1+2+3*g", "x", ""])
def test_parse_kappa_names_the_forms(text):
    with pytest.raises(ValueError, match=r"^cannot parse kappa .*; use 'c' or 'a\+b\*g'$"):
        parse_kappa(make_field(5), text)


@pytest.mark.parametrize("text", ["1+g*2", "g+1", "1+*g"])
def test_bad_kappa_spelling_exits_2_with_the_forms(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "5", "--n", "3", "--kappa", text, "--suites", "ext_kappa"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: cannot parse kappa {text!r}; use 'c' or 'a+b*g'\n"


def test_solve_golden(capsys):
    code = main(["solve", "--p", "5", "--n", "2", "--kappa", "3", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["schema"] == "charp-qkz/1"
    assert out["d"] == 1 and out["k"] == 3
    assert out["solutions"] == [["3*z1 + 2*z2 + 2", "2*z1 + 3*z2 + 3"]]


def test_solve_empty_set(capsys):
    code = main(["solve", "--p", "5", "--n", "2", "--kappa", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["d"] == 0 and out["solutions"] == []
    assert "d(kappa)=0" in out["message"]


def test_solve_rejects_composite_p(capsys):
    code = main(["solve", "--p", "4", "--n", "2", "--kappa", "1"])
    assert code == 2


def test_solve_rejects_bad_n(capsys):
    code = main(["solve", "--p", "5", "--n", "7", "--kappa", "1"])
    assert code == 2


def test_verify_small_sweep_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--p", "5",
            "--n", "2",
            "--n", "3",
            "--points", "5",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "charp-qkz/1"
    assert payload["passed"] is True
    for suite in ("identities", "rmatrix", "solutions", "curvature", "kz"):
        assert suite in payload


def test_verify_json_byte_stable(tmp_path):
    args = [
        "verify",
        "--p", "5",
        "--n", "3",
        "--suites", "solutions", "leading", "quasi",
        "--points", "4",
        "--seed", "9",
        "--format", "json",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_sabotage_fails_with_witness(tmp_path):
    out = tmp_path / "sab.json"
    code = main(
        [
            "verify",
            "--p", "5",
            "--n", "3",
            "--suites", "identities", "rmatrix", "leading", "curvature",
            "--points", "4",
            "--sabotage",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    witnessed = [
        key
        for suite in ("identities", "rmatrix", "leading", "curvature")
        for key, entry in payload[suite].items()
        if entry.get("witnesses")
    ]
    assert witnessed


def test_verify_skips_n_at_least_p(capsys):
    code = main(
        ["verify", "--p", "5", "--n", "6", "--suites", "identities", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["skipped_pairs"] == [{"p": 5, "n": 6, "reason": "requires n < p"}]


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--p", "5", "--suites", "nonsense"])


def test_report_table(capsys):
    code = main(["report", "--p", "5", "--n", "3", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = out["rows"]
    assert len(rows) == 4  # kappa = 1..4
    for row in rows:
        assert row["d"] + row["d_minus"] == 2
        assert row["gram_det_equals_n"] is True


def test_ortho_subcommand(capsys):
    code = main(["ortho", "--p", "5", "--n", "3", "--kappa", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True


def test_curvature_subcommand(capsys):
    code = main(
        ["curvature", "--p", "5", "--n", "3", "--kappa", "2", "--points", "5", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True


def test_ext_kappa_routing(capsys):
    """An explicit extension-field kappa runs only through the ext suite."""
    code = main(
        [
            "verify",
            "--p", "5",
            "--n", "2",
            "--kappa", "1+2*g",
            "--suites", "ext_kappa", "solutions",
            "--points", "5",
            "--format", "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert any("1+2*g" in k or "2*g" in k for k in out["ext_kappa"])
    # no prime-field kappa values: the solutions suite has nothing to run
    assert out.get("solutions", {}) == {}


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "charp_qkz.cli", "solve", "--p", "5", "--n", "2", "--kappa", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "d(kappa)=1" in proc.stdout


def test_verify_sabotage_fails_ext_kappa(capsys):
    """Negative control: the determinant on all of K^n always vanishes."""
    code = main(
        ["verify", "--p", "5", "--n", "3", "--suites", "ext_kappa", "--points", "4",
         "--sabotage", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["passed"] is False
    assert all(entry["passed"] is False for entry in out["ext_kappa"].values())


def test_verify_without_checks_exits_2(capsys):
    """An extension-field kappa leaves the per-triple suites no triple."""
    code = main(["verify", "--p", "7", "--n", "3", "--kappa", "1+g", "--suites", "solutions"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no check ran" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "5", "--n", "3", "--kappa", "0"],
        ["verify", "--p", "5", "--n", "3", "--kappa", "5"],
        ["verify", "--p", "5", "--p", "7", "--n", "3", "--kappa", "2", "--kappa", "14", "--suites", "rmatrix"],
        ["verify", "--p", "7", "--n", "3", "--kappa", "0*g", "--suites", "ext_kappa"],
        ["report", "--p", "5", "--n", "3", "--kappa", "10"],
    ],
)
def test_kappa_zero_mod_a_swept_prime_exits_2(argv, capsys):
    """A --kappa entry that is 0 mod one of the primes is a usage error, as
    solve --kappa 0 is, not a filter that drops to no kappa and lets only
    the per-prime suites run."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: kappa must be nonzero")


def test_solve_above_prime_cap_exits_2(capsys):
    code = main(["solve", "--p", "103", "--n", "3", "--kappa", "2"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_unsampleable_points_exit_2(capsys):
    """With n near p the sampler finds no point off the singular hyperplanes;
    the sweep ends with one error line, not a traceback."""
    code = main(["verify", "--p", "23", "--n", "20", "--suites", "rmatrix"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: could not find a nonsingular point for p=23, n=20\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--p", "23", "--n", "20"],
        ["verify", "--p", "23", "--n", "20", "--suites", "solutions"],
        ["solve", "--p", "23", "--n", "20", "--kappa", "1"],
    ],
)
def test_oversized_solution_arrays_exit_2(argv, capsys):
    """Solution arrays above the 512 MiB limit are refused before they are
    allocated: one error line, no traceback, within a second."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: the solution arrays for p=23, n=20, kappa=1 would take 4.86e+21 GiB, above the 512 MiB limit\n"
    )
    assert elapsed < 1


def test_too_many_points_exit_2(capsys):
    """A --points count whose int64 curvature stack (n, n+1, points, n, n, 2)
    at the largest swept n < p passes the 512 MiB limit is refused before
    any point is drawn: one error line, within a second.  At p = 5, n = 3 a
    point takes 16 * 27 * 4 = 1728 bytes, so 310689 points fit."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "5", "--n", "3", "--n", "7", "--points", "310690", "--suites", "ext_kappa"])
    elapsed = time.perf_counter() - start
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --points 310690 is too many: the curvature stack for n=3 would take 512.001 MiB, "
        "above the 512 MiB limit\n"
    )
    assert elapsed < 1


@pytest.mark.parametrize("count", ["100000000", "5"])
def test_report_takes_no_points(count, capsys):
    """report draws one point per row, so it takes no --points: a count
    that would pass the curvature-stack bound, and one that would not,
    both end in argparse's usage message."""
    with pytest.raises(SystemExit) as exc:
        main(["report", "--p", "5", "--n", "3", "--points", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: charp-qkz ")
    assert captured.err.endswith(f"error: unrecognized arguments: --points {count}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "5", "--n", "3", "--points", "310689"],
        ["verify"],
        ["verify", "--points", "100"],
        ["verify", "--p", "7", "--p", "11", "--n", "3", "--suites", "rmatrix", "curvature", "ext_kappa", "--points", "100"],
        ["verify", "--p", "5", "--n", "3", "--points", "310690", "--suites", "solutions", "restrict", "quasi"],
    ],
)
def test_points_within_the_limit_or_not_drawn_are_kept(argv):
    """Counts that fit pass, and so does any count when no selected suite
    draws --points points at once (quasi draws at most 10)."""
    from charp_qkz.cli import _config_from_args, _parser

    cfg = _config_from_args(_parser().parse_args(argv))
    assert cfg.point_count == (int(argv[argv.index("--points") + 1]) if "--points" in argv else 50)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "103"],
        ["verify", "--p", "4"],
        ["verify", "--p", "5", "--n", "1"],
        ["verify", "--p", "5", "--points", "0"],
        ["verify", "--p", "5", "--kappa", "x"],
        ["verify", "--p", "5", "--kappa", "3+0*g", "--suites", "ext_kappa"],
        ["verify", "--p", "5", "--suites", "nonsense"],
    ],
)
def test_verify_bad_input_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "5", "--n", "3", "--kappa", "2"],
        ["solve", "--p", "5", "--n", "3", "--kappa", "2", "--format", "json"],
        ["verify", "--p", "5", "--n", "3", "--suites", "identities"],
    ],
)
@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_exits_2(argv, target, tmp_path, capsys, monkeypatch):
    """A report path that cannot be opened (a missing directory, or a
    directory itself) is a usage error, not a traceback and not a failed
    check.  It is found before any construction or check runs, and no file
    is left behind."""
    import charp_qkz.cli as cli

    def ran(*args, **kwargs):
        raise AssertionError("work ran before the --out check")

    monkeypatch.setattr(cli, "extract_solutions", ran)
    monkeypatch.setattr(cli, "pochhammer_identity_suite", ran)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    reason = "Is a directory" if target == "." else "No such file or directory"
    assert captured.err.rstrip().endswith(reason)
    assert not any(tmp_path.iterdir())


def test_duplicate_kappa_filter_runs_once(capsys):
    code = main(
        ["verify", "--p", "7", "--n", "3", "--kappa", "3", "--kappa", "10",
         "--kappa", "1+2*g", "--kappa", "1+2*g", "--suites", "identities", "ext_kappa",
         "--points", "3", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(out["identities"]) == ["p=7,kappa=3"]
    assert list(out["ext_kappa"]) == ["p=7,n=3,kappa=1+2*g"]


def test_ext_kappas_drawn_without_replacement():
    """Seeded draws never repeat; a seed whose first draws are distinct keeps
    exactly those draws."""
    import random

    from charp_qkz.cli import RunConfig, _ext_kappas, _mix

    repeated = 0
    for seed in range(40):
        cfg = RunConfig(seed=seed)
        kaps = _ext_kappas(cfg, 5)
        assert len(set(kaps)) == len(kaps) == 3
        rng = random.Random(_mix(seed, 5, "ext"))
        first = [(rng.randrange(5), rng.randrange(1, 5)) for _ in range(3)]
        if len(set(first)) == 3:
            assert [(k.a0, k.a1) for k in kaps] == first
        else:
            repeated += 1
    assert repeated  # the redraw path is exercised


def test_record_refuses_repeated_key():
    from charp_qkz.cli import RunConfig, SuiteRunner

    runner = SuiteRunner(RunConfig())
    runner.record("ext_kappa", "p=5,n=2,kappa=g", {"passed": True})
    with pytest.raises(ValueError):
        runner.record("ext_kappa", "p=5,n=2,kappa=g", {"passed": True})


def test_sweep_pairs_survive_an_extension_only_kappa_filter():
    """The (p, n) pairs with n < p do not depend on the prime-field kappa
    values, so an extension-field-only filter leaves them for ext_kappa."""
    from charp_qkz.cli import RunConfig, SuiteRunner

    runner = SuiteRunner(RunConfig(primes=[5, 7], n_range=[2, 5, 7], kappa_filter=["1+2*g"]))
    triples, pairs, skipped = runner.sweep()
    assert triples == []
    assert pairs == [(5, 2), (7, 2), (7, 5)]
    assert [(s["p"], s["n"]) for s in skipped] == [(5, 5), (5, 7), (7, 7)]


def test_parser_built_once_without_shared_state():
    from charp_qkz import cli

    assert cli._parser() is cli._parser()
    base = ["verify", "--suites", "identities", "--format", "json"]
    code, out = run_cli(base + ["--p", "5", "--p", "7", "--n", "2", "--kappa", "1"])
    assert code == 0
    first = json.loads(out)["config"]
    code, out = run_cli(base + ["--p", "11", "--n", "3", "--n", "4", "--kappa", "2", "--kappa", "3"])
    assert code == 0
    second = json.loads(out)["config"]
    assert (first["primes"], first["n_range"], first["kappa_filter"]) == ([5, 7], [2], ["1"])
    assert (second["primes"], second["n_range"], second["kappa_filter"]) == ([11], [3, 4], ["2", "3"])


def _verify_references():
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    return [
        entry
        for name in ("verify_reference.json", "verify_extra_reference.json")
        for entry in json.loads((data / name).read_text())
    ]


@pytest.mark.parametrize(
    "entry", _verify_references(), ids=lambda e: e["argv"].replace(" ", "")
)
def test_verify_reproduces_reference_digest(entry):
    """The CLI's exit code and its report are byte-identical to frozen
    ones (digests in tests/data, read only): the benchmark's verify
    configurations, and configurations whose output carries sample points
    or curvature ranks (the sabotaged sweeps' ext_kappa and independence
    witnesses, report, a pointwise sweep with quasi and solutions), a
    text report whose line order is the sweep order of a kappa pair, and
    the identity battery at p = 7, 11 and 13, plain and sabotaged."""
    import hashlib

    code, out = run_cli(entry["argv"].split())
    assert code == entry.get("exit", 0)
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


def _is_flatness_witness(w):
    return isinstance(w, list) and len(w) == 3 and all(isinstance(x, int) for x in w)


@pytest.mark.parametrize(
    "suite,names_check",
    [
        ("solutions", lambda w: w[0] == "qkz"),
        ("kz", lambda w: w[0] == "kz"),
        ("quasi", _is_flatness_witness),
    ],
)
def test_verify_sabotage_fails_rewritten_checks(suite, names_check, capsys):
    """Negative controls: a perturbed solution coefficient (solutions, kz)
    or quasi-section value (quasi) fails every entry that runs the check,
    with a witness from the perturbed check itself."""
    code = main(
        ["verify", "--p", "5", "--n", "3", "--suites", suite, "--sabotage", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["passed"] is False
    checked = [
        entry
        for entry in out[suite].values()
        if not entry.get("skipped") and entry.get("details", {}).get("d") != 0
    ]
    assert checked
    for entry in checked:
        assert entry["passed"] is False
        assert any(names_check(w) for w in entry["witnesses"])


def test_solutions_entry_ties_the_arrays_to_the_pointwise_values(monkeypatch):
    """The solutions entry evaluates its printed arrays at the independence
    point and requires the values the pointwise suites read: with
    ``solution_values`` off by one there, every entry with solutions fails,
    naming each (ell, a) as a "values" witness; otherwise the report is
    unchanged."""
    from charp_qkz import cli

    argv = ["verify", "--p", "7", "--n", "3", "--suites", "solutions", "--format", "json"]
    code, out = run_cli(argv)
    assert code == 0
    real = cli.solution_values

    def off_by_one(params, Z):
        vals = real(params, Z)
        vals[..., 0] = (vals[..., 0] + 1) % params.p
        return vals

    monkeypatch.setattr(cli, "solution_values", off_by_one)
    code, bad = run_cli(argv)
    assert code == 1
    checked = 0
    for key, entry in json.loads(bad)["solutions"].items():
        good = json.loads(out)["solutions"][key]
        d = good["details"]["d"]
        if d == 0:
            assert entry == good
            continue
        assert entry["passed"] is False and entry["details"] == good["details"]
        assert entry["witnesses"] == [["values", ell, a] for ell in range(1, d + 1) for a in range(1, 4)]
        checked += 1
    assert checked


def test_verify_sabotage_fails_restrict(capsys):
    """Negative control: 1 added to the t^0 coefficient of each restricted
    product shows up at Pochhammer index 0 and fails every checked entry."""
    code = main(
        ["verify", "--p", "5", "--n", "3", "--suites", "restrict", "--sabotage", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["passed"] is False
    checked = [entry for entry in out["restrict"].values() if not entry.get("skipped")]
    assert checked
    for entry in checked:
        assert entry["passed"] is False
        assert all(w[2] == 0 for w in entry["witnesses"])


def test_rmatrix_sabotage_fails_identities_at_p3(capsys):
    """At p = 3 the sabotaged rmatrix suite fails its identities entry, not
    only the flatness entries."""
    code = main(
        ["verify", "--p", "3", "--n", "2", "--suites", "rmatrix", "--sabotage", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    entry = out["rmatrix"]["p=3"]
    assert entry["passed"] is False and entry["witnesses"]


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_every_suite_fails_under_sabotage(suite, capsys):
    """Each suite run alone with --sabotage at p=5, n=4 exits 1 with a
    failing entry.  The flatness mutation fails every flatness entry, the
    unnegated pairing every orthogonality entry, and the perturbed solution
    value every curvature battery with 0 < d < n-1, both in the fixed
    solution and in the image-in-span check."""
    code = main(
        ["verify", "--p", "5", "--n", "4", "--suites", suite, "--sabotage", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["passed"] is False
    block = out[suite]
    assert any(entry.get("passed") is False and entry.get("witnesses") for entry in block.values())
    if suite == "rmatrix":
        flat = [e for key, e in block.items() if key.startswith("flatness,")]
        assert len(flat) == 4 and not any(e["passed"] for e in flat)
    if suite == "ortho":
        checked = [e for e in block.values() if not e.get("skipped")]
        assert checked and not any(e["passed"] for e in checked)
    if suite == "curvature":
        ctx = make_field(5)
        strict = [kv for kv in range(1, 5) if 0 < make_params(ctx, 4, kv).d < 3]
        assert strict
        for kv in strict:
            entry = block[f"p=5,n=4,kappa={kv}"]
            names = {w[0] for w in entry["witnesses"]}
            assert entry["passed"] is False
            assert {"solution not fixed", "image not in span"} <= names


_VERIFY_ALL = ["verify", "--p", "5", "--n", "2", "--n", "3", "--n", "4", "--format", "json"]


@pytest.mark.parametrize(
    "argv",
    [
        _VERIFY_ALL,
        _VERIFY_ALL + ["--sabotage"],
        ["solve", "--p", "7", "--n", "4", "--kappa", "2", "--format", "json"],
        ["solve", "--p", "5", "--n", "2", "--kappa", "3"],
        ["report", "--p", "5", "--n", "3", "--n", "4", "--format", "json"],
        ["curvature", "--p", "5", "--n", "4", "--points", "5", "--format", "json"],
        ["ortho", "--p", "7", "--n", "4", "--format", "json"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a in ("--sabotage",) or not a.startswith("-"))[:40],
)
def test_cli_builds_no_mpoly(argv, monkeypatch):
    """Every CLI path runs on the dense kernels: with MPoly construction
    made to raise, each command gives the same exit code and output."""
    from charp_qkz.mpoly import MPoly

    expected = run_cli(argv)

    def refuse(self, *args, **kwargs):
        raise AssertionError("MPoly constructed")

    monkeypatch.setattr(MPoly, "__init__", refuse)
    assert run_cli(argv) == expected


def test_repeated_suite_names_run_once():
    """A suite named twice in --suites runs once, in first-seen order."""
    args = ["verify", "--p", "5", "--n", "3", "--format", "json", "--suites"]
    code, once = run_cli(args + ["leading"])
    assert code == 0
    assert run_cli(args + ["leading", "leading"]) == (0, once)
    code, out = run_cli(args + ["ortho", "leading", "ortho"])
    assert code == 0
    assert list(json.loads(out)["config"]["suites"]) == ["ortho", "leading"]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--p", "3", "--n", "3"],
        ["report", "--p", "5", "--n", "3", "--kappa", "1+g", "--format", "json"],
    ],
)
def test_empty_report_exits_2(argv, capsys):
    """A report sweep without a (p, n, kappa) row prints no report."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: no (p, n, kappa) row")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("suite", ["curvature", "ortho"])
def test_one_suite_subcommands_print_the_verify_report(suite, fmt):
    args = ["--p", "5", "--n", "3", "--n", "4", "--points", "5", "--seed", "1", "--format", fmt]
    expected = run_cli(["verify", "--suites", suite] + args)
    assert expected[0] == 0
    assert run_cli([suite] + args) == expected


@pytest.mark.parametrize("suite", ["curvature", "ortho"])
def test_one_suite_subcommands_take_sabotage(suite, capsys):
    """Both one-suite subcommands take verify's hidden --sabotage and fail."""
    code = main([suite, "--p", "5", "--n", "3", "--points", "5", "--sabotage", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["config"]["sabotage"] is True
    assert [key for key, entry in out[suite].items() if entry.get("passed") is False]


def test_duality_reuses_the_battery_curvatures(monkeypatch):
    """Each C_a at each of the battery's point sets is made once per verify
    call, by one call per kappa over every axis a and the stacked sets: the
    points, the points shifted by -kappa e_b for each b != a, and the
    negated points.  The duality checks for kappa and -kappa read the same
    stacks."""
    from charp_qkz import pcurvature

    npts, n = 5, 3
    argv = ["verify", "--p", "5", "--n", str(n), "--suites", "curvature", "--points", str(npts), "--format", "json"]
    expected = run_cli(argv)
    calls, keys = [], []
    real = pcurvature.curvature_batch

    def spy(params, a, Z):
        calls.append(params.kappa.val)
        axes = np.broadcast_to(a, len(Z)).reshape(-1, npts)
        assert np.all(axes == axes[:, :1])  # each point set lies on one axis
        sets = Z.reshape((-1, npts) + Z.shape[1:])
        keys.extend((params.kappa.val, int(ax[0]), S.tobytes()) for ax, S in zip(axes, sets))
        return real(params, a, Z)

    monkeypatch.setattr(pcurvature, "curvature_batch", spy)
    assert run_cli(argv) == expected
    assert len(calls) == len(set(calls)) == 4
    # per kappa: n products at the points, n(n-1) at shifted and n at negated points
    assert len(keys) == len(set(keys)) == 4 * (3 + 6 + 3)


CLI_CHECKS = (
    "barq_solutions",
    "extract_solutions",
    "gram_det",
    "verify_independence",
    "verify_leading_terms",
    "verify_orthogonality",
    "verify_quasi_flatness",
    "verify_restrictions",
    "kernel_image_ranks",
    "verify_curvature_battery",
    "verify_duality",
    "verify_ext_kappa",
    "pochhammer_identity_suite",
    "verify_flatness",
    "verify_kz_solution",
    "verify_qkz_solution",
    "verify_rmatrix_identities",
)


def test_checks_are_read_from_the_module_at_call_time(monkeypatch):
    """Every check the CLI imports runs through the binding on the cli
    module (the benchmark's tracer rebinds them there): with each replaced
    by a counting spy, all ten suites and report call every spy, and print
    what they print without it."""
    from charp_qkz import cli

    argvs = [
        ["verify", "--p", "5", "--n", "4", "--points", "3", "--format", "json"],
        ["report", "--p", "5", "--n", "4", "--format", "json"],
    ]
    expected = [run_cli(argv) for argv in argvs]
    calls = dict.fromkeys(CLI_CHECKS, 0)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in CLI_CHECKS:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    assert [run_cli(argv) for argv in argvs] == expected
    assert [name for name, count in calls.items() if not count] == []
