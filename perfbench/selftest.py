"""Self-test of the benchmark's tracing and checking.

    python3 perfbench/selftest.py

1. In one process, on small inputs: the tracer counts what it should
   (int-times-polynomial scaling stays out of ``term_pairs``, a recursive call
   is one call) and every wrapper is gone after ``uninstall``.
2. Two traced samples each of ``recur_r14`` and ``series_o8`` reproduce the
   pinned digests, leave no wrapper installed, and give identical counts.
   Takes about two minutes.
"""

from __future__ import annotations

import sys
import time

from run import SRC, layer_unit, sample

sys.path.insert(0, str(SRC))

import artifact.recurrences as recurrences  # noqa: E402
from artifact.extension import QFraction  # noqa: E402
from artifact.polynomials import LaurentPoly  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import leftover_wrappers  # noqa: E402

REPEATED = ("recur_r14", "series_o8")


def check_tracer_in_process() -> None:
    p = LaurentPoly.variable("s") + LaurentPoly.variable("q", 2)
    r = LaurentPoly.one() - LaurentPoly.variable("t") + LaurentPoly.variable("q")

    tracer = Tracer()
    patched = tracer.install()
    try:
        assert len(leftover_wrappers()) == len(patched), "every installed wrapper is findable"
        product, scaled, total = p * r, 3 * p, p + r
    finally:
        tracer.uninstall()
    assert product == r * p and scaled == p + p + p and total == r + p
    assert tracer.sums["polynomials.mul.calls"] == 2
    assert tracer.sums["polynomials.mul.term_pairs"] == 6, "int scaling is not a term product"
    assert tracer.sums["polynomials.mul.out_terms"] == 6 + 2
    assert tracer.sums["polynomials.add.calls"] == 1
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert not leftover_wrappers(), leftover_wrappers()

    recurrences.recur_B.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        frac = QFraction(p, LaurentPoly.variable("q") + 1) + QFraction(r, 2)
        recurrences.recurrence_poly("B", 4)
    finally:
        tracer.uninstall()
    assert not frac.is_zero
    assert tracer.sums["recurrences.recur.calls"] == 1, "a recursive recur_B counts once"
    assert tracer.sums["extension.qfrac.add.calls"] == 1
    assert tracer.maxima["extension.qfrac.den_qdeg.max"] == 1
    assert not leftover_wrappers(), leftover_wrappers()
    print("in-process tracer checks: ok")


def check_traced_runs_repeat() -> None:
    deadline = time.perf_counter() + 1800
    for workload in REPEATED:
        runs = [sample(workload, 0, deadline, trace=True) for _ in range(2)]
        for run in runs:
            assert run["wrong"] == 0, (workload, run["reasons"])
            assert not run["leftover_wrappers"], run["leftover_wrappers"]
        counts = [{k: v for k, v in run["layers"].items() if layer_unit(k) != "s"} for run in runs]
        assert counts[0] == counts[1], (workload, counts)
        print(f"{workload}: two traced runs match the reference and give identical counts "
              f"(polynomials.mul.calls {counts[0]['polynomials.mul.calls']}, "
              f"term_pairs {counts[0]['polynomials.mul.term_pairs']}, "
              f"den_qdeg.max {counts[0]['extension.qfrac.den_qdeg.max']}, "
              f"words {counts[0]['enumeration.numpy.words'] + counts[0]['enumeration.python.words']}, "
              f"brute.misses {counts[0]['registry.brute.misses']})")


if __name__ == "__main__":
    check_tracer_in_process()
    check_traced_runs_repeat()
    print("selftest passed")
