"""Command-line interface: subcommands, exit codes, determinism, and the
sabotage falsifiability switch."""

import json
import subprocess
import sys

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
    code = main(["verify", "--p", "7", "--n", "3", "--kappa", "7", "--suites", "solutions"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no check ran" in captured.err


def test_solve_above_prime_cap_exits_2(capsys):
    code = main(["solve", "--p", "103", "--n", "3", "--kappa", "2"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


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
    """The CLI's exit code and its JSON report are byte-identical to frozen
    ones (digests in tests/data, read only): the benchmark's verify
    configurations, and configurations whose output carries sample points
    or curvature ranks (the sabotaged sweeps' ext_kappa and independence
    witnesses, report, a pointwise sweep with quasi and solutions)."""
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
