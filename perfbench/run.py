"""charp-qkz benchmark.

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Each pass runs in a fresh worker process
(perfbench/worker.py) that sends its requests to charp_qkz.cli.main, one at
a time (a closed loop with one client). Passes repeat while a pass of the
run's median length still ends within --seconds. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs one untraced and one
traced pass of the same requests and reports the per-layer metrics and the
tracing overhead. Every output is checked outside the timed calls; the last
line of standard output is one JSON object, and the exit code is 1 when any
output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracer import UNITS

WORKER = os.path.join(workloads.HERE, "worker.py")
OUT_DIR = os.path.join(workloads.HERE, "out")
RUN_BUDGET_S = 170.0
MIN_SETUP_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "results_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# Single-threaded numeric libraries: the load comes from one thread.
WORKER_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def run_worker(spec: dict, deadline: float) -> dict:
    """Run one worker to completion; adds ``setup_s`` (spawn to ready)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=workloads.ROOT,
            env=WORKER_ENV,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run budget: {spec}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {spec}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_at"] - spawned
    report["wall_s"] = time.monotonic() - spawned
    return report


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, deadline: float) -> tuple[dict, int, int]:
    base = {"workload": args.workload, "seed": args.seed, "trace": 0}
    end = time.monotonic() + args.seconds
    passes = []
    # start a pass only when a typical pass still ends within the window
    while not passes or time.monotonic() + statistics.median(p["wall_s"] for p in passes) <= end:
        passes.append(run_worker({**base, "pass_index": len(passes)}, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_worker({**base, "probe": True}, deadline)["setup_s"])
    pass_s = [sum(p["latencies"]) for p in passes]
    latencies = [x for p in passes for x in p["latencies"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(pass_s),
        "results_per_s": statistics.median(p["attempted"] / s for p, s in zip(passes, pass_s)),
        "req_p50_ms": 1e3 * percentile(latencies, 50),
        "req_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_frac": 1 - failed / attempted,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return metrics, attempted, failed


def per_layer(args, deadline: float) -> tuple[dict, int, int]:
    os.makedirs(OUT_DIR, exist_ok=True)
    base = {"workload": args.workload, "seed": args.seed, "pass_index": 0}
    plain = run_worker({**base, "trace": 0}, deadline)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = run_worker({**base, "trace": 1, "spans_path": spans_path}, deadline)
    # tracing must not change a single output byte
    a, b = plain["digests"], traced["digests"]
    mismatched = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"] + mismatched
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = sum(traced["latencies"]) / sum(plain["latencies"]) - 1
    metrics = {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[1]]} for k, v in values.items()}
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "charp_qkz", "__init__.py")):
        print(f"error: no charp_qkz package under {workloads.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
