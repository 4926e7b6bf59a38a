"""The identity-check catalog: ids, report shapes, and reading outcomes.

Several closed forms admit more than one plausible reading; the registry
runs every candidate and records which ones verify.  These tests pin both
the accepted readings and the failure witnesses of the rejected ones, so
any change to either side is loud.
"""

import json

import pytest

from artifact.registry import CHECK_IDS, list_checks, run_all, run_check

EXPECTED_IDS = (
    "typeA-pentavar",
    "typeB-biv-even",
    "typeB-biv-odd",
    "typeB-biv-q1-classical",
    "typeB-alt-even",
    "typeB-alt-odd",
    "typeB-biv-altdesc-corollary",
    "typeB-fivevar",
    "typeB-recurrence",
    "typeB-hyatt",
    "typeB-minus-symmetry",
    "typeB-reciprocal",
    "reiner-egf",
    "reiner-recurrence",
    "lemma-2.1",
    "corollary-2.2",
    "passing-G",
    "signflip-B",
    "typeD-biv-even",
    "typeD-biv-odd",
    "typeD-alt-even",
    "typeD-alt-odd",
    "typeD-fivevar",
    "typeD-recurrence",
    "typeD-hyatt",
    "typeD-minus-symmetry",
    "typeD-reciprocal",
    "lemma-3.1",
    "corollary-3.2/3.3",
    "X-lemma",
    "passing-H",
    "signflip-D",
    "snakes-B-q",
    "snakes-D-q",
    "springer-B-q1",
    "springer-D-q1",
    "hatB-power-relation",
    "hatD-power-relation",
)


def reading(report: dict, name: str) -> dict:
    match = [r for r in report["readings"] if r["reading"] == name]
    assert match, f"no reading {name!r} in {[r['reading'] for r in report['readings']]}"
    return match[0]


@pytest.fixture(scope="module")
def quick():
    """Each check run once at reduced bounds; wrong readings still fail by u^3."""
    reports = {}
    for cid in CHECK_IDS:
        reports[cid] = run_check(cid, order=4, max_n=4)
    return reports


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------
def test_catalog_is_frozen():
    assert CHECK_IDS == EXPECTED_IDS
    listed = list_checks()
    assert [c["id"] for c in listed] == list(EXPECTED_IDS)
    for c in listed:
        assert c["label"]
        assert set(c["parameters"]) & {"order", "max_n"}


def test_unknown_check_id():
    with pytest.raises(KeyError, match="typeA-pentavar"):
        run_check("no-such-check")


def test_run_all_subset_preserves_order():
    ids = ["typeB-recurrence", "typeA-pentavar"]
    reports = run_all(ids=ids, order=3, max_n=3)
    assert [r["id"] for r in reports] == ids


def test_run_all_validates_every_check_before_running_any(monkeypatch):
    import artifact.registry as registry

    ran = []
    monkeypatch.setattr(registry, "run_check", lambda cid, **kw: ran.append(cid))
    with pytest.raises(ValueError, match="check 'typeD-recurrence' sweeps ranks from 2"):
        run_all(max_n=1)
    with pytest.raises(KeyError, match="no-such-check"):
        run_all(ids=["typeB-recurrence", "no-such-check"])
    assert ran == []


def test_every_check_passes_at_reduced_bounds(quick):
    for cid, report in quick.items():
        assert report["status"] == "pass", (cid, report)


def test_reports_echo_parameters(quick):
    for cid, report in quick.items():
        assert report["id"] == cid
        params = report["parameters"]
        assert params.get("order", 4) == 4
        assert params.get("max_n", 4) == 4


# ---------------------------------------------------------------------------
# readings with recorded rejections: the one-variable egf
# ---------------------------------------------------------------------------
def test_reiner_egf_readings(quick):
    report = quick["reiner-egf"]
    assert reading(report, "mixed-exponentials")["status"] == "pass"
    exp_b = reading(report, "both-exp-B")
    assert (exp_b["status"], exp_b["u_power"]) == ("fail", 1)
    assert exp_b["residual"] == "(t*q - t^2*q) / (1 + q)"
    plain = reading(report, "both-plain-e_q")
    assert (plain["status"], plain["u_power"]) == ("fail", 1)
    assert plain["residual"] == "(-q + 2*t*q - t^2*q) / (1 + q)"


# ---------------------------------------------------------------------------
# alternating-descent closed forms
# ---------------------------------------------------------------------------
def test_b_alternating_even_readings(quick):
    report = quick["typeB-alt-even"]
    assert reading(report, "free-sines")["status"] == "pass"
    literal = reading(report, "literal-i-sines")
    assert (literal["status"], literal["u_power"]) == ("fail", 2)


def test_b_alternating_odd_readings(quick):
    report = quick["typeB-alt-odd"]
    assert reading(report, "balanced-free-sines")["status"] == "pass"
    literal = reading(report, "balanced-literal-sines")
    assert (literal["status"], literal["u_power"]) == ("fail", 1)
    unbalanced = reading(report, "unbalanced-free-sines")
    assert (unbalanced["status"], unbalanced["u_power"]) == ("fail", 0)
    assert unbalanced["residual"] == "(s)*M"


def test_b_alternating_corollary(quick):
    report = quick["typeB-biv-altdesc-corollary"]
    assert report["combined"]["status"] == "pass"
    single = report["single-parameter"]
    assert reading(single, "denominator-2t")["status"] == "pass"
    literal = reading(single, "denominator-2s-literal")
    assert (literal["status"], literal["u_power"]) == ("fail", 0)
    assert literal["residual"] == "-2*t + 2*s"


def test_d_alternating_readings(quick):
    even = quick["typeD-alt-even"]
    assert reading(even, "derived-free-sines")["status"] == "pass"
    assert reading(even, "printed-literal")["u_power"] == 2
    odd = quick["typeD-alt-odd"]
    assert reading(odd, "derived-free-sines")["status"] == "pass"
    assert reading(odd, "printed-literal")["u_power"] == 1


def test_d_fivevar_readings(quick):
    report = quick["typeD-fivevar"]
    derived = reading(report, "derived")
    assert derived["status"] == "pass"
    assert derived["even"]["status"] == "pass"
    assert derived["odd"]["status"] == "pass"
    literal = reading(report, "printed-literal")
    assert literal["status"] == "fail"
    assert literal["even"]["u_power"] == 2
    assert literal["odd"]["u_power"] == 3


# ---------------------------------------------------------------------------
# snakes and their alternating-descent generating functions
# ---------------------------------------------------------------------------
def test_snakes_b_readings(quick):
    report = quick["snakes-B-q"]
    assert reading(report, "plus-free-sines")["status"] == "pass"
    minus = reading(report, "printed-minus-free-sines")
    assert (minus["status"], minus["u_power"]) == ("fail", 1)
    assert minus["residual"] == "(2) / (1 + q)"


def test_snakes_d_readings(quick):
    report = quick["snakes-D-q"]
    even = report["even"]
    assert reading(even, "corrected-free-sines")["status"] == "pass"
    literal = reading(even, "printed-literal-free-sines")
    assert (literal["status"], literal["u_power"]) == ("fail", 0)
    assert literal["residual"] == "2"
    odd = report["odd"]
    assert reading(odd, "free-sines")["status"] == "pass"
    literal_i = reading(odd, "literal-i-sines")
    assert (literal_i["status"], literal_i["u_power"]) == ("fail", 1)
    assert literal_i["residual"] == "-1 + (1)*i"


def test_snake_counts_at_full_order():
    b = run_check("springer-B-q1", order=6)
    assert b["status"] == "pass"
    assert b["counts"] == [1, 1, 3, 11, 57, 361, 2763]
    d = run_check("springer-D-q1", order=6)
    assert d["status"] == "pass"
    assert d["counts"] == [1, 1, 1, 5, 23, 151, 1141]
    even = d["even"]
    assert reading(even, "with-constant-term")["status"] == "pass"
    literal = reading(even, "literal")
    assert (literal["status"], literal["u_power"], literal["residual"]) == ("fail", 0, "1")
    assert d["odd"]["status"] == "pass"


# ---------------------------------------------------------------------------
# recurrences and expansions with per-rank witnesses
# ---------------------------------------------------------------------------
def test_d_recurrence_readings(quick):
    report = quick["typeD-recurrence"]
    derived = reading(report, "derived")
    assert derived["status"] == "pass"
    assert all(c["status"] == "pass" for c in derived["cases"])
    literal = reading(report, "printed-literal")
    assert literal["status"] == "fail"
    first = literal["cases"][0]
    assert first["n"] == 2
    assert first["witness_monomial"] == "t"
    assert (first["lhs_coef"], first["rhs_coef"]) == ("0", "1")


def test_passing_h_readings(quick):
    report = quick["passing-H"]
    assert reading(report, "from-i=2")["status"] == "pass"
    wrong = reading(report, "from-i=1")
    assert wrong["status"] == "fail"
    failures = [c for c in wrong["cases"] if c["status"] == "fail"]
    assert failures
    witness = failures[0]
    assert witness["n"] == 2
    assert witness["witness_monomial"] == "t*q"
    assert (witness["lhs_coef"], witness["rhs_coef"]) == ("2", "3")


def test_passing_g_case_labels(quick):
    cases = quick["passing-G"]["cases"]
    assert all(c["status"] == "pass" for c in cases)
    assert cases[0]["identity_id"] == "passing-G[n=1,i=0]"


def test_hat_power_exponents(quick):
    for cid, shift in (("hatB-power-relation", 1), ("hatD-power-relation", -1)):
        for case in quick[cid]["cases"]:
            n = case["n"]
            assert case["verified_exponents"] == [(n + shift) // 2], (cid, n)


def test_hyatt_reports_include_classic_specialization(quick):
    report = quick["typeB-hyatt"]
    assert all(c["status"] == "pass" for c in report["cases"])
    assert all(c["status"] == "pass" for c in report["classic"])
    assert report["classic"][0]["identity_id"] == "typeB-hyatt-classic"


# first rank of every rank sweep: a max_n below it would check nothing
FIRST_RANK = {
    "typeB-recurrence": 0, "typeB-hyatt": 1, "typeB-minus-symmetry": 1, "typeB-reciprocal": 1,
    "reiner-recurrence": 1, "lemma-2.1": 0, "corollary-2.2": 0, "passing-G": 1, "signflip-B": 1,
    "typeD-recurrence": 2, "typeD-hyatt": 1, "typeD-minus-symmetry": 2, "typeD-reciprocal": 2,
    "lemma-3.1": 0, "corollary-3.2/3.3": 0, "X-lemma": 2, "passing-H": 2, "signflip-D": 2,
    "springer-B-q1": 0, "springer-D-q1": 0, "hatB-power-relation": 1, "hatD-power-relation": 2,
}


def test_every_rank_sweep_has_a_first_rank():
    swept = [c["id"] for c in list_checks() if "max_n" in c["parameters"]]
    assert swept == list(FIRST_RANK)


@pytest.mark.parametrize("cid", list(FIRST_RANK))
def test_max_n_below_the_first_rank_is_refused(cid):
    first = FIRST_RANK[cid]
    message = f"check '{cid}' sweeps ranks from {first}, so max_n must be at least {first}, got {first - 1}"
    with pytest.raises(ValueError) as excinfo:
        run_check(cid, max_n=first - 1)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("cid", list(FIRST_RANK))
def test_the_first_rank_alone_is_checked(cid):
    report = run_check(cid, max_n=FIRST_RANK[cid])
    assert report["status"] == "pass"
    for part in report.get("readings", [report]):
        if part.get("intended", True):
            assert part.get("cases") or part.get("counts"), part


SERIES_IDS = [c["id"] for c in list_checks() if "order" in c["parameters"]]


def test_every_series_check_passes_at_order_one():
    for cid in SERIES_IDS:
        assert run_check(cid, order=1)["status"] == "pass", cid


def test_series_checks_read_brute_force_only_through_egf(monkeypatch):
    import artifact.registry as registry

    open_egfs = [0]
    real_egf, real_brute = registry._egf, registry._brute

    def egf(*args, **kwargs):
        open_egfs[0] += 1
        try:
            return real_egf(*args, **kwargs)
        finally:
            open_egfs[0] -= 1

    def brute(*args, **kwargs):
        assert open_egfs[0], f"brute force {args} read outside _egf"
        return real_brute(*args, **kwargs)

    monkeypatch.setattr(registry, "_egf", egf)
    monkeypatch.setattr(registry, "_brute", brute)
    assert len(SERIES_IDS) == 16
    for cid in SERIES_IDS:
        assert run_check(cid, order=3)["status"] == "pass", cid


@pytest.mark.parametrize("order", range(1, 9))
def test_q_one_left_sides_equal_their_former_constructions(order):
    """The q = 1 left sides, as the egf substituted at q = 1, equal the tables they replaced.

    The q1-classical sides substituted q = 1 into each polynomial and each
    Poincaré denominator; the corollary's sides put the polynomials at q = 1
    over n!, which is the q = 1 egf (over 2^n n!) with u -> 2u.
    """
    from math import factorial

    import artifact.registry as registry
    from artifact.polynomials import LaurentPoly, poincare
    from artifact.series import series_from_polys

    def at_q1(poly):
        return poly.substitute("q", "value", 1)

    def same(new, old):
        assert new == old
        assert [str(c) for c in new.coeffs] == [str(c) for c in old.coeffs]

    for parity in ("even", "odd"):
        old = series_from_polys(lambda n: at_q1(registry._brute("B", n, "biv")),
                                lambda n: at_q1(poincare("B", n)), parity, order)
        same(registry._egf("B", "biv", parity, order).substitute("q", "value", 1), old)
    for to_t in (False, True):
        def hat(n):
            poly = at_q1(registry._brute("B", n, "hat"))
            return poly.rename_variables({"s": "t"}) if to_t else poly

        old = series_from_polys(hat, lambda n: LaurentPoly.constant(factorial(n)), "all", order, start=0)
        same(registry._egf("B", "hat", "all", order, to_t=to_t).substitute("q", "value", 1).scale_u(2), old)


@pytest.mark.parametrize("order", range(11))
@pytest.mark.parametrize("m", [1, 2])
def test_classical_families_match_the_taylor_table(m, order):
    """``_classical`` at q = 1 is cos, sin, cosh and sinh of m u, by an independent table."""
    import artifact.registry as registry
    from artifact.extension import QFraction
    from artifact.series import TruncatedSeries

    from oracles import trig_taylor

    def table(coeffs):
        return TruncatedSeries(order, [QFraction(c.numerator, c.denominator) for c in coeffs])

    for trig, hyperbolic in (("cos", "cosh"), ("sin", "sinh")):
        coeffs = trig_taylor(trig, m, order)
        assert registry._classical(f"{trig}_q", m, order) == table(coeffs)
        assert registry._classical(f"{hyperbolic}_q", m, order) == table(map(abs, coeffs))


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("cid", SERIES_IDS)
def test_order_below_one_is_refused(cid, order):
    message = f"check '{cid}' verifies from u^1, so order must be at least 1, got {order}"
    with pytest.raises(ValueError) as excinfo:
        run_check(cid, order=order)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("cid", SERIES_IDS)
def test_an_order_past_the_ceiling_is_refused_before_any_series_is_built(monkeypatch, cid):
    import artifact.registry as registry
    from artifact.enumeration import BoundExceeded

    def no_series(*args, **kwargs):
        raise AssertionError(f"{cid} built a series before reading its brute-force side")

    monkeypatch.setattr(registry, "series_make", no_series)
    monkeypatch.setenv("ARTIFACT_MAX_N", "3")
    registry.clear_cache()
    with pytest.raises(BoundExceeded, match="at rank [45] "):  # rank 5 where only odd ranks are read
        run_check(cid, order=6)


def test_run_all_refuses_a_low_order_before_running_any(monkeypatch):
    import dataclasses

    import artifact.registry as registry

    ran = []
    for cid in CHECK_IDS:
        check = dataclasses.replace(registry._REGISTRY[cid], runner=lambda **params: ran.append(params))
        monkeypatch.setitem(registry._REGISTRY, cid, check)
    with pytest.raises(ValueError, match="check 'typeB-fivevar' verifies from u\\^1"):
        run_all(order=0, ids=["typeB-recurrence", "lemma-2.1", "typeB-fivevar"])
    with pytest.raises(ValueError, match="check 'typeA-pentavar' verifies from u\\^1"):
        run_all(order=-1)
    assert ran == []


def test_parametrized_case_identity_ids(quick):
    assert quick["lemma-2.1"]["cases"][0]["identity_id"] == "lemma-2.1[n=0,r=0]"
    assert quick["corollary-3.2/3.3"]["cases"][0]["identity_id"] == "corollary-3.2/3.3[n=0,r=0]"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_reports_are_deterministic_and_jobs_changes_nothing():
    """Repeated runs give the same reports, and ``jobs=2`` is accepted and gives them too."""
    ids = ["typeB-biv-even", "typeB-recurrence", "snakes-B-q", "lemma-2.1"]
    first = json.dumps(run_all(ids=ids, order=3, max_n=3, jobs=1), sort_keys=True)
    second = json.dumps(run_all(ids=ids, order=3, max_n=3, jobs=1), sort_keys=True)
    parallel = json.dumps(run_all(ids=ids, order=3, max_n=3, jobs=2), sort_keys=True)
    assert first == second == parallel


# ---------------------------------------------------------------------------
# routing of the fraction products
# ---------------------------------------------------------------------------
def test_fraction_products_stay_off_the_schoolbook_loop(monkeypatch):
    """The cross-multiplications of the fivevar checks take the product kernel.

    A count of term pairs rather than a wall-clock budget: it fails when the
    kernel silently stops taking these products, whatever the host's speed.
    """
    import artifact.polynomials as polynomials
    import artifact.registry as registry

    schoolbook = polynomials._schoolbook_product
    largest = {}
    for cid in ("typeB-fivevar", "typeD-fivevar", "typeA-pentavar"):
        pairs = [0]

        def recording(a, b):
            pairs.append(len(a) * len(b))
            return schoolbook(a, b)

        monkeypatch.setattr(polynomials, "_schoolbook_product", recording)
        registry.clear_cache()
        assert run_check(cid)["status"] == "pass"
        largest[cid] = max(pairs)
    assert all(count < 10_000 for count in largest.values()), largest


def test_every_check_builds_its_fractions_over_factored_denominators(monkeypatch):
    """No fraction of the catalogue is built over a non-constant polynomial or
    holds a rest: a caller left on a polynomial denominator would quietly send
    ``QFraction.sum_of_products`` to the pairwise fold."""
    from artifact.extension import QFraction, _has_rest
    from artifact.polynomials import LaurentPoly

    init, assign = QFraction.__init__, QFraction._assign
    strays = []

    def watched_init(self, num, den=1):
        if isinstance(den, LaurentPoly) and any(exp[2] for exp in den.terms):
            strays.append(f"built over {den}")
        init(self, num, den)

    def watched_assign(self, num, content, fac, path):
        if _has_rest(fac) or _has_rest(path):
            strays.append(f"a rest in {sorted(map(str, fac))} or {sorted(map(str, path))}")
        assign(self, num, content, fac, path)

    monkeypatch.setattr(QFraction, "__init__", watched_init)
    monkeypatch.setattr(QFraction, "_assign", watched_assign)
    reports = run_all() + [run_check(cid, order=8) for cid in ("typeB-biv-q1-classical", "typeB-biv-altdesc-corollary")]
    assert all(report["status"] == "pass" for report in reports)
    assert not strays, strays[:3]
