"""One sample of one workload, in a fresh interpreter.

``run.py`` starts this file as a new process for every sample, so every
``lru_cache`` and ``registry._POLY_CACHE`` starts cold, as it does for a CLI
user.  The first statements import ``artifact.cli`` (which builds the registry)
so that set-up time is measured from interpreter start to the end of that
import.  The last line of stdout is one JSON object with the sample's results.

    python3 perfbench/worker.py --workload check_all --seed 0 --t0 <perf_counter> [--trace] [--pin]
    python3 perfbench/worker.py --setup-only --t0 <perf_counter>
"""

import time

import artifact.cli  # noqa: E402  (set-up ends when this import returns)

SETUP_DONE = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import artifact.registry as registry  # noqa: E402
from artifact.recurrences import recurrence_poly  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
RECUR_RANK = 14
SERIES_ID = "typeB-alt-even"
SERIES_ORDER = 8


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(report: dict) -> str:
    return _sha256(json.dumps(report, sort_keys=True, separators=(",", ":")))


def check_order(seed: int) -> list[str]:
    """Seed 0 keeps catalogue order; any other seed is a fixed shuffle of it."""
    ids = list(registry.CHECK_IDS)
    if seed:
        random.Random(seed).shuffle(ids)
    return ids


def _cli(argv: list[str], out: io.StringIO) -> None:
    # the exit code is not needed: a failed check or a disagreement shows in stdout
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        artifact.cli.main(argv)


# ----------------------------------------------------------------------
# workloads: each runs the timed calls and returns (seconds, stdout)
# ----------------------------------------------------------------------
def run_check_all(seed: int):
    out = io.StringIO()
    start = time.perf_counter()
    if seed == 0:
        _cli(["check", "--all", "--format", "json", "--jobs", "1"], out)
    else:
        reports = registry.run_all(ids=check_order(seed), jobs=1)
        out.write(json.dumps(reports, indent=2) + "\n")  # as `check --format json` prints
    return time.perf_counter() - start, out.getvalue()


def run_recur_r14(seed: int):
    out = io.StringIO()
    start = time.perf_counter()
    for group in ("B", "D"):
        _cli(["compare", "--group", group, "--n", str(RECUR_RANK),
              "--methods", "recurrence,hyatt", "--jobs", "1"], out)
    return time.perf_counter() - start, out.getvalue()


def run_series_o8(seed: int):
    out = io.StringIO()
    start = time.perf_counter()
    _cli(["check", "--id", SERIES_ID, "--order", str(SERIES_ORDER),
          "--format", "json", "--jobs", "1"], out)
    return time.perf_counter() - start, out.getvalue()


WORKLOADS = {
    "check_all": run_check_all,
    "recur_r14": run_recur_r14,
    "series_o8": run_series_o8,
}


# ----------------------------------------------------------------------
# digests and their comparison with the pinned reference
# ----------------------------------------------------------------------
def digests(workload: str, seed: int, stdout: str) -> dict:
    """What the reference pins for this workload, computed from one sample."""
    found: dict = {}
    if workload == "recur_r14":
        found["stdout_sha256"] = _sha256(stdout)
        # both routes agreeing is the verdict; the digest of the polynomial they
        # agree on catches a kernel that is wrong the same way on both routes
        found["polys"] = {
            group: _sha256(json.dumps(recurrence_poly(group, RECUR_RANK).to_json_dict()))
            for group in ("B", "D")
        }
        found["agreed"] = [
            group for group in ("B", "D")
            if f"methods agree for {group}_{RECUR_RANK}: recurrence, hyatt\n" in stdout
        ]
        return found
    if workload == "check_all" and seed:
        found["order"] = check_order(seed)  # stdout was printed here, not by the CLI
    else:
        found["stdout_sha256"] = _sha256(stdout)
    parsed = json.loads(stdout)
    reports = parsed if isinstance(parsed, list) else [parsed]
    found["reports"] = [
        {"id": r.get("id"), "status": r.get("status"), "sha256": _report_digest(r)}
        for r in reports
    ]
    return found


def compare(workload: str, seed: int, found: dict, reference: dict) -> tuple[int, int, list[str]]:
    """Return (verdicts, wrong, reasons) for one sample against the reference."""
    ref = reference[workload]
    wrong, reasons = 0, []
    if "stdout_sha256" in found and found["stdout_sha256"] != ref["stdout_sha256"]:
        wrong += 1
        reasons.append("stdout digest differs")
    if workload == "recur_r14":
        for group, digest in ref["polys"].items():
            if found["polys"][group] != digest or group not in found["agreed"]:
                wrong += 1
                reasons.append(f"{group}_{RECUR_RANK}: routes disagree or polynomial differs")
        return len(ref["polys"]), wrong, reasons
    expected_ids = check_order(seed) if workload == "check_all" else [SERIES_ID]
    got = {r["id"]: r for r in found["reports"]}
    order = [r["id"] for r in found["reports"]]
    verdicts = len(expected_ids)
    for pos, check_id in enumerate(expected_ids):
        pinned = ref["reports"][check_id]
        report = got.get(check_id)
        if report is None or pos >= len(order) or order[pos] != check_id:
            wrong += 1
            reasons.append(f"{check_id}: missing or out of order")
        elif report["status"] != pinned["status"] or report["sha256"] != pinned["sha256"]:
            wrong += 1
            reasons.append(f"{check_id}: report differs ({report['status']})")
    return verdicts, wrong, reasons


def leftover_wrappers() -> list[str]:
    """Names in the artifact package still bound to a tracing wrapper."""
    seen: set[int] = set()
    left = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "artifact" and not mod_name.startswith("artifact."):
            continue
        for owner in [module] + [obj for obj in vars(module).values() if isinstance(obj, type)]:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            left += [f"{owner.__name__}.{attr}" for attr, value in vars(owner).items()
                     if getattr(value, "perfbench_wrapper", False)]
    return left


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pin", action="store_true", help="print digests instead of comparing them")
    args = parser.parse_args()

    src = Path(artifact.cli.__file__).resolve().parent.parent
    if src != HERE.parent / "src":
        print(f"error: imported artifact from {src}, not from this checkout", file=sys.stderr)
        return 2
    result: dict = {"setup_s": SETUP_DONE - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        seconds, stdout = WORKLOADS[args.workload](args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["wall_s"] = seconds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
        result["leftover_wrappers"] = leftover_wrappers()

    found = digests(args.workload, args.seed, stdout)
    if args.pin:
        result["digests"] = found
    else:
        reference = json.loads(REFERENCE.read_text())
        result["verdicts"], result["wrong"], result["reasons"] = compare(
            args.workload, args.seed, found, reference)
        if result.get("leftover_wrappers"):
            result["wrong"] += 1
            result["reasons"].append("wrappers left installed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
