"""Pin the reference that every benchmark sample is checked against.

    python3 perfbench/pin.py

Runs each workload once, untraced, and writes ``perfbench/reference.json``:
the sha256 of each workload's stdout, the status and digest of every check
report, and the digests of the two rank-14 polynomials.  ``check_all`` is also
run in a shuffled order, and pinning fails unless every per-id report is the
same in both orders, because the benchmark compares permuted seeds per id.
Pin only from code whose verdicts are known to be right; the reference was
pinned from the code this benchmark was introduced with.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, WORKLOADS, BenchError, sample

SHUFFLED_SEED = 1


def main() -> int:
    deadline = time.perf_counter() + 3600
    reference = {}
    try:
        for workload in WORKLOADS:
            found = sample(workload, 0, deadline, pin=True)["digests"]
            entry = {"stdout_sha256": found["stdout_sha256"]}
            if "polys" in found:
                entry["polys"] = found["polys"]
            else:
                entry["reports"] = {r["id"]: {"status": r["status"], "sha256": r["sha256"]}
                                    for r in found["reports"]}
            reference[workload] = entry
        shuffled = sample("check_all", SHUFFLED_SEED, deadline, pin=True)["digests"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    per_id = {r["id"]: {"status": r["status"], "sha256": r["sha256"]} for r in shuffled["reports"]}
    if per_id != reference["check_all"]["reports"]:
        print("error: check reports depend on the order the checks run in", file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"pinned {sum(len(e.get('reports', e.get('polys'))) for e in reference.values())} verdicts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
