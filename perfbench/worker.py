"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py '<json spec>'

The spec holds ``workload``, ``seed``, ``pass_index``, ``trace`` (0 or 1),
``probe`` (set up and exit) and, when tracing, ``spans_path``. The worker
imports the package, sends the warm-up request, then sends the pass's
requests to ``charp_qkz.cli.main`` one after another, capturing their
output in memory. Each output is checked after its request returns, outside
the timed call. The last line of standard output is one JSON object
describing the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import checks
import workloads


def call(cli, argv):
    """(exit code or None if it raised, captured stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - t0


def run_pass(cli, workload: str, seed: int, pass_index: int, tracer=None) -> dict:
    reference = checks.load_reference() if workload == "solve-grid" else None
    latencies, digests = [], []
    attempted = failed = 0
    if tracer is not None:
        tracer.install()
    try:
        for op_id, (key, argv) in enumerate(workloads.requests(workload, seed, pass_index)):
            if tracer is not None:
                tracer.op_id = op_id
            rc, out, dt = call(cli, argv)
            # checked between requests, outside the timed call
            latencies.append(dt)
            digests.append(checks.digest(out))
            if reference is None:
                a, f = checks.verify_counts(rc, out)
            else:
                a, f = 1, int(not checks.check_solve(rc, digests[-1], reference.get(key)))
            attempted += a
            failed += f
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"latencies": latencies, "digests": digests, "attempted": attempted, "failed": failed}


def main(spec: dict) -> dict:
    cli = workloads.import_cli()
    call(cli, workloads.WARMUP_ARGV)
    report = {"ready_at": time.monotonic()}
    if not spec.get("probe"):
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
        report.update(run_pass(cli, spec["workload"], spec["seed"], spec["pass_index"], tracer))
        if tracer is not None:
            report["layers"] = tracer.metrics()
            tracer.write_spans(spec["spans_path"])
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
