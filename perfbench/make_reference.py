"""Regenerate perfbench/solve_reference.json: the SHA-256 of the
``solve --format json`` output for every solve-grid key.

    python3 perfbench/make_reference.py

The table was generated once from the commit that added the benchmark; a
later change to the grid must regenerate it from a commit whose solve
output is trusted.
"""

from __future__ import annotations

import json

import checks
import workloads
from worker import call


def main() -> None:
    cli = workloads.import_cli()
    table = {}
    for p, n, kv in workloads.solve_grid_keys():
        rc, out, _ = call(cli, workloads.solve_argv(p, n, kv))
        if rc != 0:
            raise SystemExit(f"solve {p},{n},{kv} exited {rc}")
        table[f"{p},{n},{kv}"] = checks.digest(out)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
