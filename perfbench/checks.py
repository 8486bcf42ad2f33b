"""Output checks, applied outside the timed calls.

solve-grid: each response's SHA-256 must equal the reference digest for its
(p, n, kappa) key, so the table serves any request order. verify workloads:
the call must exit 0 with ``"passed": true``; every report entry with
``"passed": false`` is one failed check.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "solve_reference.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict[str, str]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_solve(rc, out_digest: str, expected) -> bool:
    """True when the solve exited 0 and its output matches the reference."""
    return rc == 0 and expected is not None and out_digest == expected


def verify_counts(rc, out: str) -> tuple[int, int]:
    """(checks attempted, checks failed) for one verify call's JSON report.

    Skipped entries are not checks. A call that exits non-zero or reports
    ``"passed": false`` without any failed entry, or whose output does not
    parse, counts as one failed check.
    """
    try:
        payload = json.loads(out)
    except ValueError:
        return 1, 1
    if not isinstance(payload, dict):
        return 1, 1
    attempted = failed = 0
    for block in payload.values():
        if not isinstance(block, dict):
            continue
        for entry in block.values():
            if isinstance(entry, dict) and "passed" in entry and not entry.get("skipped"):
                attempted += 1
                failed += entry["passed"] is not True
    if failed == 0 and (rc != 0 or payload.get("passed") is not True):
        failed = 1
    return max(attempted, 1), failed
