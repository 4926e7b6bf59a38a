"""Failure reports of the polynomial, X-lemma, sign-flip and snake-number checks, pinned exactly.

At their default bounds these checks pass, so nothing else reaches the branch
that builds their failure witnesses.  Each test here corrupts one brute-force
polynomial (through ``registry._brute``) or the stream of group words (through
``registry.word_arrays``, for the sign-flip laws and the snake numbers); both
names are looked up when a check runs.  It then pins the first failing entry
literally and the whole report by the sha256 of its JSON, in the layout
``check --format json`` prints.  A change to how any of these checks reports a
failure shows here.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import artifact.registry as registry
from artifact.polynomials import LaurentPoly

BUMP = LaurentPoly.monomial(1, s=1, t=1, q=1)


def corrupt_brute(monkeypatch, group: str, n: int, weight: str | None = None) -> None:
    """Add BUMP to the brute-force polynomial of ``group`` at rank ``n``."""
    real = registry._brute

    def fake(g, rank, weight_="biv", i=None, method="auto"):
        poly = real(g, rank, weight_, i=i, method=method)
        if (g, rank) == (group, n) and weight in (None, weight_):
            return poly + BUMP
        return poly

    monkeypatch.setattr(registry, "_brute", fake)


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def first_failure(cases: list[dict]) -> dict:
    return next(c for c in cases if c["status"] == "fail")


def poly_failure(identity_id: str, n: int, monomial: str, lhs: str, rhs: str) -> dict:
    return {"identity_id": identity_id, "n": n, "status": "fail",
            "witness_monomial": monomial, "lhs_coef": lhs, "rhs_coef": rhs}


@pytest.mark.parametrize("check_id, max_n, target, expected, sha", [
    ("corollary-2.2", 3, ("B", 1),
     poly_failure("corollary-2.2[n=1,r=0]", 1, "s*t*q", "0", "1"),
     "4c661d2f96b5c628323af5f36983d29246295d5d7023c0c772c8a6f4a1b60769"),
    ("corollary-3.2/3.3", 3, ("D", 2),
     poly_failure("corollary-3.2/3.3[n=2,r=0]", 2, "s*t*q", "0", "1"),
     "3a7e54ab77a16c306976af17dea598b10d1448a2f52592d60b593fce1d106f80"),
    ("typeB-minus-symmetry", 4, ("B-", 3),
     poly_failure("typeB-minus-symmetry", 3, "s*t*q", "1", "0"),
     "59e37ee69d60f4fe88622d384a9cca82ecf6733e337383f8179da3fb2bc39804"),
    ("typeD-minus-symmetry", 4, ("D-", 3),
     poly_failure("typeD-minus-symmetry", 3, "s*t*q", "1", "0"),
     "d8be01d54e68d452201b34b7aa6957688241dd0393909ae483d3d74bd8fba3b4"),
    ("typeB-reciprocal", 4, ("B", 2),
     poly_failure("typeB-reciprocal", 2, "q^3", "0", "1"),
     "8f119eb9db439bee41bd75b61d03e73bd151b946d5d60cca8ba7d437fcd18091"),
    ("typeD-reciprocal", 4, ("D", 3),
     poly_failure("typeD-reciprocal", 3, "s*t*q", "1", "0"),
     "5f934af75b73da9c53a22ed8bc1f4fe53c0a0d075de72804d744dd19643b9116"),
    ("typeB-hyatt", 4, ("B+", 2),
     poly_failure("typeB-hyatt", 2, "s*t*q", "1", "0"),
     "cfd7bdd880222f70ed07a7ebd0398b148517458962a4a01ecac37d72ca1b608b"),
    ("typeD-hyatt", 4, ("D+", 3),
     poly_failure("typeD-hyatt", 3, "s*t*q", "1", "0"),
     "bc8737a9cbe1b95c5d58910a0f8c0fc77d4b5681672dd3a8af39bcf64352e16a"),
    ("typeB-recurrence", 4, ("B", 3),
     poly_failure("typeB-recurrence", 3, "s*t*q", "1", "0"),
     "802b1673d15d7177123ba0740633634941cfab5215d8f5024849e133c3a0068b"),
    ("passing-G", 4, ("G", 3),
     poly_failure("passing-G[n=3,i=0]", 3, "s^2*t*q", "0", "-1"),
     "fe5c3deac196ff7b78c3fe190ad29385bb36060228df7805787a81f41ce8fe5a"),
])
def test_corrupted_polynomial_report(monkeypatch, check_id, max_n, target, expected, sha):
    corrupt_brute(monkeypatch, *target)
    report = registry.run_check(check_id, max_n=max_n)
    assert report["status"] == "fail"
    assert first_failure(report["cases"]) == expected
    assert digest(report) == sha


@pytest.mark.parametrize("check_id, max_n, target, expected, sha", [
    ("typeD-recurrence", 4, ("D", 4), {
        "derived": poly_failure("typeD-recurrence", 4, "s*t*q", "1", "0"),
        "printed-literal": poly_failure("typeD-recurrence", 2, "t", "0", "1"),
    }, "2024ce694bd89902240102435e6e50911a3ca355cebad7999d512011e46338f2"),
    ("passing-H", 4, ("H", 3), {
        "from-i=2": poly_failure("passing-H[n=3,i=2]", 3, "s^2*t*q", "0", "-1"),
        "from-i=1": poly_failure("passing-H[n=2,i=1]", 2, "t*q", "2", "3"),
    }, "bc6450317c8946b315faf0b980b6537e624f65d277d5d65cbaf10bfc363fbb3a"),
])
def test_corrupted_polynomial_readings(monkeypatch, check_id, max_n, target, expected, sha):
    corrupt_brute(monkeypatch, *target)
    report = registry.run_check(check_id, max_n=max_n)
    assert report["status"] == "fail"
    assert {r["reading"]: first_failure(r["cases"]) for r in report["readings"]} == expected
    assert digest(report) == sha


def test_x_lemma_report_prints_the_difference_of_the_two_fractions(monkeypatch):
    """The witness is ``str(lhs - rhs)``: a fraction printed in its cross-multiplied form."""
    corrupt_brute(monkeypatch, "X", 3)
    report = registry.run_check("X-lemma", max_n=4)
    assert report["status"] == "fail"
    assert [c["status"] for c in report["cases"]] == ["pass", "fail", "pass"]
    assert first_failure(report["cases"]) == {
        "identity_id": "X-lemma", "n": 3, "status": "fail",
        "witness_monomial": "(s*t*q + 3*s*t*q^2 + 4*s*t*q^3 + 3*s*t*q^4 + s*t*q^5) / (1 + 3*q + 4*q^2 + 3*q^3 + q^4)"}
    assert digest(report) == "6583f6d1eba41e518b2e5af7f64796b3e9fb59c3e4f76aee2f347dba90f3bd56"


@pytest.mark.parametrize("family, verified, sha", [
    ("B", [[1], [1], [], [2]], "36df8cbeb21cb1098ac10c64af081d109b05c68f1f0d8965eb0ebdeddf9ba7b5"),
    ("D", [[0], [], [1]], "13cd5402c6589bd18d27317e23c14d6d9a042f9bcb214c02c82aac9d34391f17"),
])
def test_corrupted_power_relation_report(monkeypatch, family, verified, sha):
    corrupt_brute(monkeypatch, family, 3, weight="hat")
    report = registry.run_check(f"hat{family}-power-relation", max_n=4)
    assert report["status"] == "fail"
    assert [c["verified_exponents"] for c in report["cases"]] == verified
    assert report["cases"][verified.index([])] == {
        "n": 3, "candidate_exponents": [1, 2], "verified_exponents": []}
    assert digest(report) == sha


@pytest.mark.parametrize("family, sha", [
    ("B", "b3ee6cf924d9c37dc4eea1a259ef44c8b7d5226e0f84a87792b6cf504aedc862"),
    ("D", "5ae00e9e6a6f8bdc40e950aacca2385a302df3ece0177a25d11d581a0424bd6f"),
])
def test_signflip_report_names_the_first_bad_word(monkeypatch, family, sha):
    real = registry.word_arrays

    def with_bogus_word(group, n, rows, i=None):
        blocks = real(group, n, rows, i)
        first = next(blocks)
        # a repeated entry breaks the constant sums from rank 2 on
        yield np.concatenate([np.ones((1, n), dtype=first.dtype), first])
        yield from blocks

    monkeypatch.setattr(registry, "word_arrays", with_bogus_word)
    report = registry.run_check(f"signflip-{family}", max_n=3)
    assert report["status"] == "fail"
    assert first_failure(report["cases"]) == {
        "identity_id": f"signflip-{family}", "n": 2, "status": "fail", "witness_monomial": "1,1"}
    assert digest(report) == sha


@pytest.mark.parametrize("check_id, family", [("corollary-2.2", "_B"), ("corollary-3.2/3.3", "_D")])
def test_corollary_names_the_first_prefix_whose_insertion_sum_breaks(check_id, family):
    """Only a wrong closed form reaches the per-prefix witness, so corrupt it at r = 2."""
    fam = getattr(registry, family)

    def wrong_coeff(n, r):
        good = fam.coeff(n, r)
        return good + LaurentPoly.monomial(1, q=n) if r == 2 else good

    report = registry._corollary(check_id, dataclasses.replace(fam, coeff=wrong_coeff), max_n=3)
    assert report["status"] == "fail"
    assert [c for c in report["cases"] if c["status"] == "fail"] == [
        {"identity_id": f"{check_id}[n=2,r=2]", "n": 2, "status": "fail", "witness_monomial": "prefix "},
        {"identity_id": f"{check_id}[n=3,r=2]", "n": 3, "status": "fail", "witness_monomial": "prefix 1"},
    ]


@pytest.fixture
def one_rank3_snake_dropped(monkeypatch):
    """Make ``word_arrays`` lose the first snake of rank 3."""
    real = registry.word_arrays

    def without_first_snake(group, n, rows, i=None):
        blocks = real(group, n, rows, i)
        if group.startswith("snake") and n == 3:
            yield next(blocks)[1:]
        yield from blocks

    monkeypatch.setattr(registry, "word_arrays", without_first_snake)


def test_snake_number_report_names_the_first_wrong_power(one_rank3_snake_dropped):
    report = registry.run_check("springer-B-q1")
    assert list(report) == ["id", "label", "parameters", "status", "counts", "u_power", "residual"]
    assert report["status"] == "fail"
    assert report["counts"] == [1, 1, 3, 10, 57, 361, 2763]
    assert (report["u_power"], report["residual"]) == (3, "(-1) / (6)")
    assert digest(report) == "2c33858481aae6972660613a4cfd2fcfca1608654b2ce1f608f48462f074679c"


def test_type_d_snake_number_report_fails_only_the_odd_part(one_rank3_snake_dropped):
    report = registry.run_check("springer-D-q1")
    assert list(report) == ["id", "label", "parameters", "status", "counts", "even", "odd"]
    assert report["status"] == "fail"
    assert report["counts"] == [1, 1, 1, 4, 23, 151, 1141]
    assert report["even"]["status"] == "pass"
    assert report["odd"] == {"status": "fail", "u_power": 3, "residual": "(1) / (6)"}
    assert digest(report) == "e27b5d217377973d71e47a1384762a6a652f24399e0a0d4eb764ecf742ee2a78"
