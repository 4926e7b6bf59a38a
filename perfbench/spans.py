"""Per-layer spans and counters, recorded from outside the program.

A :class:`Tracer` replaces the public entry points of each ``artifact`` module
with timing wrappers, at the places where callers look them up, and puts the
originals back on :meth:`Tracer.uninstall`.  Nothing inside ``src/artifact``
is edited.

Rules the wrappers follow:

* A call made while another call of the same layer operation is open (a
  recursive ``recur_B``, or the direct route that the numpy route delegates to
  below rank 2) is passed straight through: its time and counts belong to the
  outer call, so no time is counted twice.
* A call that returns ``NotImplemented`` (an operator deferring to the other
  operand's type) did no work and is not counted.
* Counters are updated after the clock stops, so the cost of counting falls
  into the enclosing span's self time, not into the layer being measured.
* Only coarse spans (checks, enumeration, recurrences, series build/verify,
  the CLI) are kept as span records; arithmetic operators, called hundreds of
  thousands of times, only update counters.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import artifact.cli as cli
import artifact.enumeration as enumeration
import artifact.recurrences as recurrences
import artifact.registry as registry
from artifact.extension import ExtElement, QFraction
from artifact.polynomials import LaurentPoly
from artifact.series import TruncatedSeries


def _wraps(fn):
    """functools.wraps, plus the mark by which a wrapper left installed is found."""
    def mark(wrapper):
        wrapper = functools.wraps(fn)(wrapper)
        wrapper.perfbench_wrapper = True
        return wrapper
    return mark


def _q_degree(poly: LaurentPoly) -> int:
    return max(exp[2] for exp in poly.terms) if poly.terms else 0


def _num_terms(frac: QFraction) -> int:
    return sum(len(part.terms) for part in frac.num.parts.values())


class Tracer:
    """Wraps the layer entry points, accumulates metrics, restores on exit."""

    def __init__(self) -> None:
        self.sums: Counter = Counter()
        self.maxima: Counter = Counter()
        self.spans: list[dict] = []
        self._open: set[str] = set()
        # one frame per open span: [seconds spent in wrapped children, span record index]
        self._stack: list[list] = [[0.0, None]]
        self._routes: list[str | None] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span core
    # ------------------------------------------------------------------
    def _run(self, op: str, label, fn, args, kwargs):
        """Call fn inside a span; return (result, seconds, self seconds, record index).

        Seconds are None for a call nested in an open call of the same op.
        ``label`` names a kept span record, or is None for counter-only ops.
        """
        if op in self._open:
            return fn(*args, **kwargs), None, None, None
        self._open.add(op)
        parent = self._stack[-1]
        index = None
        if label is not None:
            index = len(self.spans)
            self.spans.append({"name": label, "parent": parent[1]})
        frame = [0.0, index if index is not None else parent[1]]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            parent[0] += elapsed
            self._open.discard(op)
        if index is not None:
            self.spans[index].update(start=start, seconds=elapsed)
        return result, elapsed, elapsed - frame[0], index

    def _add(self, name: str, seconds: float) -> None:
        self.sums[name + ".calls"] += 1
        self.sums[name + ".s"] += seconds

    def _max(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # ------------------------------------------------------------------
    # wrappers, one per kind of entry point
    # ------------------------------------------------------------------
    def _timed(self, fn, name: str, label: str | None = None, after=None, op: str | None = None):
        tracer = self
        op = op or name

        @_wraps(fn)
        def wrapper(*args, **kwargs):
            result, seconds, _, _ = tracer._run(op, label, fn, args, kwargs)
            if seconds is not None and result is not NotImplemented:
                tracer._add(name, seconds)
                if after is not None:
                    after(args, result)
            return result

        return wrapper

    def _poly_mul_counts(self, args, result) -> None:
        a, b = args
        if isinstance(b, LaurentPoly):  # int scaling is not a term product
            self.sums["polynomials.mul.term_pairs"] += len(a.terms) * len(b.terms)
            self._max("polynomials.mul.max_terms", len(b.terms))
        out = len(result.terms)
        self.sums["polynomials.mul.out_terms"] += out
        self._max("polynomials.mul.max_terms", max(out, len(a.terms)))

    def _qfrac_counts(self, args, result) -> None:
        self._max("extension.qfrac.den_qdeg.max", _q_degree(result.den))
        self._max("extension.qfrac.num_terms.max", _num_terms(result))

    def _check(self, fn):
        tracer = self

        @_wraps(fn)
        def wrapper(check_id, *args, **kwargs):
            label = "registry.check." + check_id
            result, seconds, own, _ = tracer._run(label, label, fn, (check_id, *args), kwargs)
            tracer.sums["registry.check.s." + check_id.replace("/", "-")] += seconds
            tracer.sums["registry.self.s"] += own
            return result

        return wrapper

    def _brute(self, fn):
        tracer = self

        @_wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(registry._POLY_CACHE)
            result = fn(*args, **kwargs)
            tracer.sums["registry.brute.requests"] += 1
            tracer.sums["registry.brute.misses"] += len(registry._POLY_CACHE) - before
            return result

        return wrapper

    def _poly_group(self, fn):
        tracer = self

        @_wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._routes.append(None)
            try:
                result, seconds, _, index = tracer._run(
                    "enumeration", "enumeration", fn, args, kwargs)
            finally:
                route = tracer._routes.pop()
            if seconds is not None:
                name = "enumeration." + route
                tracer._add(name, seconds)
                tracer.sums[name + ".words"] += sum(result.terms.values())
                tracer.spans[index]["name"] = name
            return result

        return wrapper

    def _route(self, fn, route: str):
        tracer = self

        @_wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._routes and tracer._routes[-1] is None:
                tracer._routes[-1] = route  # the outermost route taken names the call
            return fn(*args, **kwargs)

        return wrapper

    def _cli_main(self, fn):
        tracer = self

        @_wraps(fn)
        def wrapper(*args, **kwargs):
            result, _, own, _ = tracer._run("cli", "cli.main", fn, args, kwargs)
            tracer.sums["cli.self.s"] += own
            return result

        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every traced entry point where callers look it up.

        Returns the (owner, attribute, original) triples that were replaced.
        """
        mul = self._timed(LaurentPoly.__mul__, "polynomials.mul", after=self._poly_mul_counts)
        add = self._timed(LaurentPoly.__add__, "polynomials.add")
        for attr, fn in (("__mul__", mul), ("__rmul__", mul), ("__add__", add), ("__radd__", add)):
            self._patch(LaurentPoly, attr, fn)

        qadd = self._timed(QFraction.__add__, "extension.qfrac.add", after=self._qfrac_counts)
        qmul = self._timed(QFraction.__mul__, "extension.qfrac.mul", after=self._qfrac_counts)
        for attr, fn in (("__add__", qadd), ("__radd__", qadd), ("__mul__", qmul), ("__rmul__", qmul)):
            self._patch(QFraction, attr, fn)
        emul = self._timed(ExtElement.__mul__, "extension.ext.mul")
        self._patch(ExtElement, "__mul__", emul)
        self._patch(ExtElement, "__rmul__", emul)

        # TruncatedSeries.__rmul__ delegates to self.__mul__, so one patch covers both
        self._patch(TruncatedSeries, "__mul__", self._timed(TruncatedSeries.__mul__, "series.mul"))
        for attr in ("series_make", "series_from_polys"):
            self._patch(registry, attr, self._timed(getattr(registry, attr), "series.build", "series.build"))
        self._patch(registry, "verify_fraction_identity",
                    self._timed(registry.verify_fraction_identity, "series.verify", "series.verify"))

        for owner in (registry, cli):
            self._patch(owner, "poly_group", self._poly_group(owner.poly_group))
        self._patch(enumeration, "poly_group_numpy", self._route(enumeration.poly_group_numpy, "numpy"))
        self._patch(enumeration, "poly_group_python", self._route(enumeration.poly_group_python, "python"))
        self._patch(registry, "_brute", self._brute(registry._brute))

        # recur_B/recur_D recurse, and hyatt_plus calls them, through the recurrences
        # globals; sharing one op keeps those inner calls inside the outer span
        for owner in (recurrences, registry):
            for attr in ("recur_B", "recur_D"):
                self._patch(owner, attr, self._timed(
                    getattr(owner, attr), "recurrences.recur", "recurrences." + attr, op="recurrences"))
        for owner in (registry, cli):
            self._patch(owner, "hyatt_plus", self._timed(
                owner.hyatt_plus, "recurrences.hyatt", "recurrences.hyatt", op="recurrences"))

        # run_all calls run_check through the registry globals; `check --id` through cli's
        for owner in (registry, cli):
            self._patch(owner, "run_check", self._check(owner.run_check))
        self._patch(cli, "main", self._cli_main(cli.main))
        return list(self._patches)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every per-layer metric by name; layers a workload never touches read 0."""
        out: dict[str, float] = {}
        for name in COUNTED:
            out[name] = self.sums[name]
        for name in MAXIMA:
            out[name] = self.maxima[name]
        requests = self.sums["registry.brute.requests"]
        misses = self.sums["registry.brute.misses"]
        out["registry.brute.hit_ratio"] = (requests - misses) / requests if requests else 0.0
        for check_id in registry.CHECK_IDS:
            name = "registry.check.s." + check_id.replace("/", "-")
            out[name] = self.sums[name]
        return out


COUNTED = (
    "polynomials.mul.calls", "polynomials.mul.s", "polynomials.mul.term_pairs",
    "polynomials.mul.out_terms", "polynomials.add.calls", "polynomials.add.s",
    "extension.qfrac.add.calls", "extension.qfrac.add.s",
    "extension.qfrac.mul.calls", "extension.qfrac.mul.s",
    "extension.ext.mul.calls", "extension.ext.mul.s",
    "series.mul.calls", "series.mul.s", "series.build.s", "series.verify.s",
    "enumeration.numpy.calls", "enumeration.numpy.s", "enumeration.numpy.words",
    "enumeration.python.calls", "enumeration.python.s", "enumeration.python.words",
    "recurrences.recur.calls", "recurrences.recur.s", "recurrences.hyatt.s",
    "registry.brute.requests", "registry.brute.misses", "registry.self.s",
    "cli.self.s",
)
MAXIMA = (
    "polynomials.mul.max_terms", "extension.qfrac.den_qdeg.max",
    "extension.qfrac.num_terms.max",
)
