"""The benchmark's tracer still finds, wraps and restores every entry point.

``perfbench/spans.py`` replaces module attributes of the package by name.  A
refactor that renames or drops one of them would only surface when the
benchmark runs with tracing on; this test makes it fail here instead.
"""

from pathlib import Path

from artifact.polynomials import LaurentPoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_the_live_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    x = LaurentPoly.variable("s") + LaurentPoly.variable("q")
    tracer = spans.Tracer()
    try:
        patches = tracer.install()  # a name it cannot find raises KeyError here
        assert patches
        for owner, attr, original in patches:
            assert getattr(vars(owner)[attr], "perfbench_wrapper", False), (owner, attr)
        assert x * x == LaurentPoly.monomial(1, s=2) + 2 * LaurentPoly.monomial(1, s=1, q=1) \
            + LaurentPoly.monomial(1, q=2)
    finally:
        tracer.uninstall()
    assert tracer.sums["polynomials.mul.calls"] >= 1
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
