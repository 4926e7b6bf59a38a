"""Benchmark of the exact verifier: cold-process workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload check_all --seed 0 --seconds 30 --trace 0

Every sample is a fresh interpreter (``perfbench/worker.py``) at ``jobs=1``,
so the program's caches start cold as they do for a CLI user.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced sample and reports the per-layer metrics.
The last line of stdout is the JSON result; the lines before it name every
metric with its unit, the sample counts and the machine.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("check_all", "recur_r14", "series_o8")
SETUP_SAMPLES = 7  # set-up-only interpreters per untraced run, besides each sample's own
DEADLINE_S = 170.0  # a run must end within 180 s


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.startswith("registry.check.s."):
        return "s"
    if name.endswith(".hit_ratio"):
        return "ratio"
    if name.endswith(".den_qdeg.max"):
        return "degree"
    return "count"


class BenchError(Exception):
    """A sample could not be taken; the run ends without a result."""


def calibration_probe() -> float:
    """Median seconds of a fixed pure-Python dict loop: context for reading drift."""
    def once() -> float:
        start = time.perf_counter()
        acc: dict[tuple[int, int], int] = {}
        for i in range(200_000):
            key = (i % 101, i % 7)
            acc[key] = acc.get(key, 0) + i * i
        return time.perf_counter() - start
    return statistics.median(once() for _ in range(3))


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            model = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "calibration_s": round(calibration_probe(), 6),
    }


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for another sample")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample(workload: str, seed: int, deadline: float, trace: bool = False, pin: bool = False) -> dict:
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--trace"] * trace + ["--pin"] * pin
    return spawn(args, deadline)


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    """Samples until the next one would overrun ``seconds``; at least one."""
    setups = [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(sample(workload, seed, deadline))
        setups.append(samples[-1]["setup_s"])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "verdicts": (samples[0]["verdicts"], "count"),
    }
    notes = [f"wall_s is the median of {len(samples)} sample(s): "
             + ", ".join(f"{s['wall_s']:.3f}" for s in samples),
             f"setup_s is the median of {len(setups)} interpreter start(s)"]
    return samples, metrics, notes


def run_traced(workload: str, seed: int, deadline: float):
    """One untraced and one traced sample: per-layer metrics and tracing overhead."""
    plain = sample(workload, seed, deadline)
    traced = sample(workload, seed, deadline, trace=True)
    metrics = {name: (value, layer_unit(name)) for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    notes = [f"traced wall_s {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s",
             f"{len(traced['spans'])} coarse spans written"]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(traced["spans"]))
    return [plain, traced], metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "artifact" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'artifact'} is missing", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    info = machine()
    try:
        if args.trace:
            samples, metrics, notes = run_traced(args.workload, args.seed, deadline)
        else:
            samples, metrics, notes = run_untraced(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["verdicts"] for s in samples)
    failed = sum(s["wrong"] for s in samples)
    print("machine: " + json.dumps(info))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    print(f"verdicts {attempted}, verdicts_wrong {failed}")
    for sample_result in samples:
        for reason in sample_result["reasons"]:
            print(f"wrong: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
