"""Command-line front end: parameter sweeps, suite execution, golden-example
checks, and machine-readable reports.

Subcommands: solve | verify | curvature | ortho | report.  All JSON output
carries "schema": "charp-qkz/1" and is byte-stable for a fixed configuration
and seed.  ``verify`` exits 0 when every executed check passes, 1 when
one fails, and 2 on a bad invocation or when no check ran.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dense import dense_top_degree_part
from .ffield import FieldCtx, FieldElement, make_field, sample_point
from .hypergeo import (
    barq_solutions,
    d_of_kappa,
    extract_solutions,
    gram_det,
    solution_set_to_json,
    verify_independence,
    verify_leading_terms,
    verify_orthogonality,
    verify_quasi_flatness,
    verify_restrictions,
)
from .pcurvature import (
    kernel_image_ranks,
    verify_curvature_battery,
    verify_duality,
    verify_ext_kappa,
)
from .pochhammer import pochhammer_identity_suite
from .qkz_core import (
    CheckReport,
    QkzParams,
    SingularPointError,
    make_params,
    verify_flatness,
    verify_kz_solution,
    verify_qkz_solution,
    verify_rmatrix_identities,
)

SCHEMA = "charp-qkz/1"
ALL_SUITES = (
    "identities",
    "rmatrix",
    "solutions",
    "leading",
    "ortho",
    "restrict",
    "curvature",
    "ext_kappa",
    "quasi",
    "kz",
)
DEFAULT_PRIMES = (5, 7, 11, 13)
DEFAULT_N_RANGE = (2, 3, 4, 5)


@dataclass
class RunConfig:
    primes: list = field(default_factory=lambda: list(DEFAULT_PRIMES))
    n_range: list = field(default_factory=lambda: list(DEFAULT_N_RANGE))
    kappa_filter: Optional[list] = None  # None means all; entries are strings
    suites: list = field(default_factory=lambda: list(ALL_SUITES))
    seed: int = 0
    point_count: int = 50
    format: str = "text"
    out_path: Optional[str] = None
    sabotage: bool = False


def _mix(*parts) -> int:
    """Deterministic 31-bit seed derived from the given labels (unlike
    hash(), stable across interpreter runs)."""
    return zlib.crc32(repr(parts).encode()) & 0x7FFFFFFF


def _usage_error(message: str):
    """Report a bad invocation on stderr and exit 2 (exit 1 means a failed
    check)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_kappa(ctx: FieldCtx, text: str) -> FieldElement:
    """Parse "c" (element of F_p) or "a+b*g" (element of F_{p^2})."""
    s = text.replace(" ", "")
    if "g" in s:
        if ctx.ext_degree != 2:
            ctx = make_field(ctx.p, 2)
        a, b = 0, 1
        if s == "g":
            pass
        elif "+" in s:
            left, right = s.split("+", 1)
            a = int(left)
            b = int(right[: -2]) if right.endswith("*g") else (1 if right == "g" else int(right[:-1]))
        elif s.endswith("*g"):
            b = int(s[:-2])
        else:
            raise ValueError(f"cannot parse kappa {text!r}; use 'c' or 'a+b*g'")
        return ctx.element(a % ctx.p, b % ctx.p)
    return ctx.element(int(s) % ctx.p)


def _kappa_values(cfg: RunConfig, p: int) -> list[int]:
    """Prime-field kappa sweep for one p (ext entries are handled by the
    ext_kappa suite and skipped here)."""
    if cfg.kappa_filter is None:
        return list(range(1, p))
    out = []
    for s in cfg.kappa_filter:
        if "g" in s:
            continue
        v = int(s) % p
        if v and v not in out:
            out.append(v)
    return out


def _ext_kappas(cfg: RunConfig, p: int, count: int = 3) -> list[FieldElement]:
    """Extension-field kappa values, each once in first-seen order: explicit
    filter entries, else a seeded sample of elements of F_{p^2} outside F_p
    drawn without replacement (a repeated draw is rejected and redrawn)."""
    ctx = make_field(p, 2)
    out = []
    if cfg.kappa_filter is not None:
        for s in cfg.kappa_filter:
            if "g" in s:
                kap = parse_kappa(ctx, s)
                if kap not in out:
                    out.append(kap)
        return out
    import random

    rng = random.Random(_mix(cfg.seed, p, "ext"))
    while len(out) < count:
        a, b = rng.randrange(p), rng.randrange(1, p)
        kap = ctx.element(a, b)
        if kap not in out:
            out.append(kap)
    return out


def _perturbed(F: np.ndarray, p: int) -> np.ndarray:
    """A copy of a solution array with the constant coefficient of its first
    coordinate raised by one (negative control for the equation checks)."""
    out = F.copy()
    out.flat[0] = (out.flat[0] + 1) % p
    return out


def _jsonable(obj):
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return str(obj)


def _report_entry(rep: CheckReport) -> dict:
    out = {"passed": rep.passed}
    if rep.failures:
        out["witnesses"] = _jsonable(rep.failures[:10])
        out["failure_count"] = len(rep.failures)
    if rep.details:
        out["details"] = _jsonable(rep.details)
    return out


def _skip_entry(reason: str) -> dict:
    return {"skipped": True, "reason": reason}


class SuiteRunner:
    """Executes the selected suites over the configured sweep, collecting
    results keyed suite -> parameter label -> entry."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.results: dict = {}
        self.all_passed = True
        self.checks_run = 0
        self._params_cache: dict = {}

    def record(self, suite: str, key: str, entry: dict):
        block = self.results.setdefault(suite, {})
        if key in block:
            raise ValueError(f"duplicate report key {key!r} in suite {suite!r}")
        block[key] = entry
        if entry.get("skipped"):
            return
        self.checks_run += 1
        if not entry.get("passed", True):
            self.all_passed = False

    def params_for(self, p: int, n: int, kv: int) -> QkzParams:
        key = (p, n, kv)
        if key not in self._params_cache:
            self._params_cache[key] = make_params(make_field(p), n, kv)
        return self._params_cache[key]

    def sweep(self):
        """(p, n, kappa_value) triples with n < p; out-of-range pairs are
        logged once per suite run."""
        skipped = []
        triples = []
        for p in self.cfg.primes:
            for n in self.cfg.n_range:
                if n >= p:
                    skipped.append((p, n, "requires n < p"))
                    continue
                for kv in _kappa_values(self.cfg, p):
                    triples.append((p, n, kv))
        return triples, skipped

    def run(self):
        cfg = self.cfg
        triples, skipped = self.sweep()
        if skipped:
            self.results["skipped_pairs"] = [
                {"p": p, "n": n, "reason": r} for p, n, r in skipped
            ]
        for suite in cfg.suites:
            getattr(self, f"suite_{suite}")(triples)
        return self.results

    # -- per-prime suites -------------------------------------------------

    def suite_identities(self, triples):
        for p in self.cfg.primes:
            ctx = make_field(p)
            for kv in _kappa_values(self.cfg, p):
                rep = pochhammer_identity_suite(
                    ctx, ctx.element(kv), mutate=self.cfg.sabotage
                )
                self.record("identities", f"p={p},kappa={kv}", _report_entry(rep))

    def suite_rmatrix(self, triples):
        for p in self.cfg.primes:
            ctx = make_field(p)
            rep = verify_rmatrix_identities(ctx, mutate=self.cfg.sabotage)
            self.record("rmatrix", f"p={p}", _report_entry(rep))
        # discrete flatness of the K-operators at extension-field points
        npts = max(20, self.cfg.point_count)
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            pctx = make_field(p, 2)
            pts = [
                sample_point(pctx, n, _mix(self.cfg.seed, "flat", p, n, kv, i))
                for i in range(npts)
            ]
            rep = verify_flatness(params, pts, pctx)
            self.record("rmatrix", f"flatness,p={p},n={n},kappa={kv}", _report_entry(rep))

    # -- per-triple suites --------------------------------------------------

    def suite_solutions(self, triples):
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            key = f"p={p},n={n},kappa={kv}"
            # p never divides n in-sweep (n < p), so the complement law applies
            dsum_ok = params.d + d_of_kappa(params.ctx, n, -params.kappa) == n - 1
            if params.d == 0:
                entry = {"passed": dsum_ok, "details": {"d": 0, "note": "empty solution set"}}
                self.record("solutions", key, entry)
                continue
            ss = extract_solutions(params)
            failures = []
            for ell, F in enumerate(ss.arrays, start=1):
                if self.cfg.sabotage:
                    F = _perturbed(F, p)
                rep = verify_qkz_solution(params, F)
                if not rep.passed:
                    failures.append(("qkz", ell, _jsonable(rep.failures[:3])))
            ind = verify_independence(
                params, seed=self.cfg.seed, duplicate_control=self.cfg.sabotage
            )
            if not ind.passed:
                failures.append(("independence", _jsonable(ind.failures[:3])))
            if not dsum_ok:
                failures.append(("d-sum", params.d))
            entry = {"passed": not failures, "details": {"d": ss.d, "degrees": ss.degrees()}}
            if failures:
                entry["witnesses"] = _jsonable(failures)
            self.record("solutions", key, entry)

    def suite_leading(self, triples):
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            key = f"p={p},n={n},kappa={kv}"
            if params.d == 0:
                self.record("leading", key, _skip_entry("d(kappa)=0"))
                continue
            rep = verify_leading_terms(params, permute_control=self.cfg.sabotage)
            self.record("leading", key, _report_entry(rep))

    def suite_ortho(self, triples):
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            key = f"p={p},n={n},kappa={kv}"
            if not 0 < params.d < n - 1:
                self.record("ortho", key, _skip_entry(f"d={params.d} not in (0, n-1)"))
                continue
            rep = verify_orthogonality(params)
            self.record("ortho", key, _report_entry(rep))

    def suite_restrict(self, triples):
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            key = f"p={p},n={n},kappa={kv}"
            if params.d == 0:
                self.record("restrict", key, _skip_entry("d(kappa)=0"))
                continue
            rep = verify_restrictions(params)
            self.record("restrict", key, _report_entry(rep))

    def suite_curvature(self, triples):
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            key = f"p={p},n={n},kappa={kv}"
            rep = verify_curvature_battery(
                params, npoints=self.cfg.point_count, seed=self.cfg.seed
            )
            entry = {"passed": rep.passed, "per_axis": _jsonable(rep.per_axis)}
            if rep.failures:
                entry["witnesses"] = _jsonable(rep.failures[:10])
            self.record("curvature", key, entry)
            dual = verify_duality(
                params,
                npoints=self.cfg.point_count,
                seed=self.cfg.seed,
                flip_control=self.cfg.sabotage,
            )
            self.record("curvature", f"duality,{key}", _report_entry(dual))

    def suite_ext_kappa(self, triples):
        # pairs come from the sweep directly: this suite has its own kappa
        # values, so an empty prime-field kappa list must not empty it
        pairs = sorted(
            {
                (p, n)
                for p in self.cfg.primes
                for n in self.cfg.n_range
                if n < p
            }
        )
        if self.cfg.kappa_filter is not None and not any(
            "g" in s for s in self.cfg.kappa_filter
        ):
            # explicit prime-field-only kappa filter: nothing to do here
            return
        for p, n in pairs:
            ctx = make_field(p, 2)
            for kap in _ext_kappas(self.cfg, p):
                params = make_params(ctx, n, kap)
                rep = verify_ext_kappa(
                    params,
                    npoints=self.cfg.point_count,
                    seed=self.cfg.seed,
                    full_space_control=self.cfg.sabotage,
                )
                self.record("ext_kappa", f"p={p},n={n},kappa={kap}", _report_entry(rep))

    def suite_quasi(self, triples):
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            key = f"p={p},n={n},kappa={kv}"
            if params.d == 0 or d_of_kappa(params.ctx, n, -params.kappa) == 0:
                self.record("quasi", key, _skip_entry("no sections: d=0 on one side"))
                continue
            pctx = make_field(p, 2)
            pts = [
                sample_point(pctx, n, _mix(self.cfg.seed, "quasi", p, n, kv, i))
                for i in range(min(self.cfg.point_count, 10))
            ]
            rep = verify_quasi_flatness(params, pts, perturb_control=self.cfg.sabotage)
            self.record("quasi", key, _report_entry(rep))

    def suite_kz(self, triples):
        for p, n, kv in triples:
            params = self.params_for(p, n, kv)
            key = f"p={p},n={n},kappa={kv}"
            if params.d == 0:
                self.record("kz", key, _skip_entry("d(kappa)=0"))
                continue
            failures = []
            bars = barq_solutions(params)
            for ell, B in enumerate(bars.arrays, start=1):
                if self.cfg.sabotage:
                    B = _perturbed(B, p)
                rep = verify_kz_solution(params, B)
                if not rep.passed:
                    failures.append(("kz", ell, _jsonable(rep.failures[:3])))
            qkz = extract_solutions(params)
            for ell, (F, B) in enumerate(zip(qkz.arrays, bars.arrays), start=1):
                top = dense_top_degree_part(F)
                if not np.array_equal(top, B):
                    failures.append(("top-degree-mismatch", ell))
                    continue
                rep = verify_kz_solution(params, top)
                if not rep.passed:
                    failures.append(("kz-top", ell, _jsonable(rep.failures[:3])))
            entry = {"passed": not failures}
            if failures:
                entry["witnesses"] = _jsonable(failures)
            self.record("kz", key, entry)


# -- output ------------------------------------------------------------------


def emit(payload: dict, cfg_format: str, out_path: Optional[str]) -> None:
    if cfg_format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = render_text(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def render_text(payload: dict) -> str:
    lines = []
    for suite, block in payload.items():
        if suite in ("schema", "config", "elapsed_seconds", "passed"):
            continue
        if suite == "skipped_pairs":
            for item in block:
                lines.append(f"SKIP p={item['p']} n={item['n']}: {item['reason']}")
            continue
        if isinstance(block, dict):
            for key, entry in block.items():
                if isinstance(entry, dict) and entry.get("skipped"):
                    lines.append(f"[skip] {suite} {key}: {entry['reason']}")
                elif isinstance(entry, dict):
                    tag = "PASS" if entry.get("passed") else "FAIL"
                    lines.append(f"[{tag}] {suite} {key}")
                    for w in entry.get("witnesses", [])[:5]:
                        lines.append(f"        witness: {w}")
        else:
            lines.append(f"{suite}: {block}")
    if "passed" in payload:
        lines.append("overall: " + ("PASS" if payload["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------------


def cmd_solve(args) -> int:
    try:
        ctx = make_field(args.p)
        kappa = parse_kappa(ctx, args.kappa)
        if not kappa.in_prime_field:
            print("error: solve requires kappa in F_p (construction is prime-field)", file=sys.stderr)
            return 2
        params = make_params(ctx, args.n, kappa)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ss = extract_solutions(params)
    payload = {"schema": SCHEMA, **solution_set_to_json(ss)}
    if ss.d == 0:
        payload["message"] = "d(kappa)=0: no p-hypergeometric solutions for this step"
    if args.format == "json":
        emit(payload, "json", args.out)
    else:
        lines = [
            f"p={params.p} n={params.n} kappa={kappa} k={params.k} d(kappa)={params.d}"
        ]
        if ss.d == 0:
            lines.append(payload["message"])
        for ell, (deg, coords) in enumerate(
            zip(payload["degrees"], payload["solutions"]), start=1
        ):
            lines.append(f"Q^({ell}p-1), degree {deg}:")
            for i, c in enumerate(coords, start=1):
                lines.append(f"  [{i}] {c}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.p:
        cfg.primes = sorted(set(args.p))
    if args.n:
        cfg.n_range = sorted(set(args.n))
    if args.kappa:
        cfg.kappa_filter = args.kappa
    if getattr(args, "suites", None):
        bad = [s for s in args.suites if s not in ALL_SUITES]
        if bad:
            _usage_error(f"unknown suite(s): {', '.join(bad)}")
        cfg.suites = list(args.suites)
    cfg.seed = args.seed
    cfg.point_count = args.points
    cfg.format = args.format
    cfg.out_path = args.out
    cfg.sabotage = bool(getattr(args, "sabotage", False))
    if cfg.point_count < 1:
        _usage_error(f"--points must be positive, got {cfg.point_count}")
    if min(cfg.n_range) < 2:
        _usage_error(f"need n >= 2, got n={min(cfg.n_range)}")
    for p in cfg.primes:
        try:
            ctx = make_field(p)
            for s in cfg.kappa_filter or ():
                if parse_kappa(ctx, s).in_prime_field and "g" in s:
                    raise ValueError(f"kappa {s!r} lies in F_{p}; give it as 'c'")
        except ValueError as exc:
            _usage_error(str(exc))
    return cfg


def _finish(runner: SuiteRunner, payload: dict, cfg: RunConfig) -> int:
    """Emit the report and return the exit code: 0 when every executed check
    passed, 1 when one failed, 2 (without a report) when no check ran."""
    if not runner.checks_run:
        print(
            "error: no check ran for this configuration "
            "(every entry was skipped or filtered out)",
            file=sys.stderr,
        )
        return 2
    emit(payload, cfg.format, cfg.out_path)
    return 0 if runner.all_passed else 1


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    start = time.time()
    runner = SuiteRunner(cfg)
    results = runner.run()
    payload = {
        "schema": SCHEMA,
        "config": {
            "primes": cfg.primes,
            "n_range": cfg.n_range,
            "kappa_filter": cfg.kappa_filter,
            "suites": cfg.suites,
            "seed": cfg.seed,
            "point_count": cfg.point_count,
            "sabotage": cfg.sabotage,
        },
        "passed": runner.all_passed,
        **results,
    }
    # determinism: wall-clock info only in the text report
    if cfg.format == "text":
        payload["elapsed_seconds"] = round(time.time() - start, 2)
    return _finish(runner, payload, cfg)


def cmd_curvature(args) -> int:
    cfg = _config_from_args(args)
    cfg.suites = ["curvature"]
    runner = SuiteRunner(cfg)
    results = runner.run()
    payload = {"schema": SCHEMA, "passed": runner.all_passed, **results}
    return _finish(runner, payload, cfg)


def cmd_ortho(args) -> int:
    cfg = _config_from_args(args)
    cfg.suites = ["ortho"]
    runner = SuiteRunner(cfg)
    results = runner.run()
    payload = {"schema": SCHEMA, "passed": runner.all_passed, **results}
    return _finish(runner, payload, cfg)


def cmd_report(args) -> int:
    cfg = _config_from_args(args)
    rows = []
    skipped = []
    for p in cfg.primes:
        ctx = make_field(p)
        for n in cfg.n_range:
            if n >= p:
                skipped.append({"p": p, "n": n, "reason": "requires n < p"})
                continue
            gram_ok = gram_det(ctx, n).val == n % p
            for kv in _kappa_values(cfg, p):
                params = make_params(ctx, n, kv)
                dm = d_of_kappa(ctx, n, -params.kappa)
                row = {
                    "p": p,
                    "n": n,
                    "kappa": kv,
                    "k": params.k,
                    "d": params.d,
                    "d_minus": dm,
                    "gram_det_equals_n": gram_ok,
                }
                if params.d:
                    ss = extract_solutions(params)
                    row["degrees"] = ss.degrees()
                    row["ortho"] = (
                        "zero-pairing" if 0 < params.d < n - 1 else "not applicable"
                    )
                else:
                    row["degrees"] = []
                    row["ortho"] = "not applicable"
                if 0 < params.d < n - 1:
                    pctx = make_field(p, 2)
                    z = sample_point(pctx, n, _mix(cfg.seed, "report", p, n, kv))
                    try:
                        ranks = kernel_image_ranks(params, z)
                        row["curvature_ranks"] = {
                            str(a): v["rank"] for a, v in ranks.items() if a != "sum_image_dim"
                        }
                        row["sum_image_dim"] = ranks["sum_image_dim"]
                    except SingularPointError:
                        row["curvature_ranks"] = None
                rows.append(row)
    payload = {"schema": SCHEMA, "rows": rows}
    if skipped:
        payload["skipped_pairs"] = skipped
    if cfg.format == "json":
        emit(payload, "json", cfg.out_path)
    else:
        lines = [
            "p  n  kappa  k  d  d(-k)  degrees          gram  ortho",
        ]
        for r in rows:
            lines.append(
                f"{r['p']:<3}{r['n']:<3}{r['kappa']:<7}{r['k']:<3}{r['d']:<3}"
                f"{r['d_minus']:<7}{str(r['degrees']):<17}"
                f"{'ok' if r['gram_det_equals_n'] else 'BAD':<6}{r['ortho']}"
            )
        for s in skipped:
            lines.append(f"SKIP p={s['p']} n={s['n']}: {s['reason']}")
        text = "\n".join(lines) + "\n"
        if cfg.out_path:
            with open(cfg.out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charp-qkz",
        description=(
            "Construct and verify p-hypergeometric solutions of rational sl2 "
            "qKZ difference equations over fields of characteristic p."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, multi_p=True):
        if multi_p:
            sp.add_argument("--p", type=int, action="append", help="prime(s) to sweep")
            sp.add_argument("--n", type=int, action="append", help="tensor length(s)")
            sp.add_argument(
                "--kappa", action="append", help="step value(s): 'c' or 'a+b*g'"
            )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--points", type=int, default=50, help="points per pointwise suite")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("solve", help="construct the solution set for one (p, n, kappa)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kappa", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="run verification suites over a sweep")
    common(sp)
    sp.add_argument(
        "--suites",
        nargs="+",
        metavar="SUITE",
        help=f"subset of: {', '.join(ALL_SUITES)}",
    )
    sp.add_argument(
        "--sabotage",
        action="store_true",
        help="inject known-bad mutations (harness falsifiability check)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("curvature", help="p-curvature battery over a sweep")
    common(sp)
    sp.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("ortho", help="orthogonality pairing over a sweep")
    common(sp)
    sp.set_defaults(func=cmd_ortho)

    sp = sub.add_parser("report", help="summary table of invariants per (p, n, kappa)")
    common(sp)
    sp.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves no state in it (appended
    options start from a fresh list in every namespace)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
