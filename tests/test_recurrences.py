"""Recurrence-computed polynomials against brute force and closed forms."""

import pytest

from artifact.enumeration import poly_group
from artifact.polynomials import LaurentPoly, one_minus, poincare, qfact
from artifact.recurrences import (
    c_coeff,
    cd_coeff,
    classic_plus_B,
    hyatt_plus,
    pd_product,
    reciprocal_transform,
    recur_B,
    recur_D,
    recurrence_poly,
    reiner_poly,
    reiner_recurrence_rhs,
)
from artifact.registry import run_check

S = LaurentPoly.variable("s")
T = LaurentPoly.variable("t")
Q = LaurentPoly.variable("q")


# ---------------------------------------------------------------------------
# the recurrences agree with brute force
# ---------------------------------------------------------------------------
def test_recur_b_pinned_values():
    assert recur_B(0) == LaurentPoly.one()
    assert recur_B(1) == 1 + S * Q
    assert recur_B(2) == 1 + (S + T) * (Q + Q**2 + Q**3) + S * T * Q**4


def test_recur_b_matches_brute_force():
    for n in range(0, 6):
        assert recur_B(n) == poly_group("B", n, "biv"), n


def test_recur_d_pinned_base():
    assert recur_D(2) == (1 + T * Q) ** 2


def test_recur_d_matches_brute_force():
    for n in range(2, 6):
        assert recur_D(n) == poly_group("D", n, "biv"), n


def test_recurrence_totals_are_poincare_series():
    for n in range(0, 7):
        assert recur_B(n).subs_values({"s": 1, "t": 1}) == poincare("B", n)
    for n in range(2, 7):
        assert recur_D(n).subs_values({"s": 1, "t": 1}) == poincare("D", n)


def test_recurrence_poly_dispatch():
    assert recurrence_poly("B", 3) == recur_B(3)
    assert recurrence_poly("D", 3) == recur_D(3)
    with pytest.raises(ValueError):
        recurrence_poly("E", 3)
    # ranks 0 and 1 are trivial groups; negatives are rejected
    assert recur_D(0) == LaurentPoly.one()
    assert recur_D(1) == LaurentPoly.one()
    with pytest.raises(ValueError):
        recur_D(-1)


# ---------------------------------------------------------------------------
# signed-subset coefficient polynomials
# ---------------------------------------------------------------------------
def test_coefficients_match_lemma_closed_forms():
    """The lemma closed forms are the Poincare-polynomial ratios."""
    for n in range(0, 7):
        for j in range(0, n + 1):
            assert c_coeff(n, j) * poincare("B", n - j) * qfact(j) == poincare("B", n)
            d_ratio = cd_coeff(n, j) * poincare("D", n - j) * qfact(j)
            assert d_ratio == (2 if j == n > 0 else 1) * poincare("D", n), (n, j)


def test_coefficient_pinned_strings():
    assert str(c_coeff(3, 2)) == "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + 2*q^5 + q^6 + q^7"
    assert str(cd_coeff(3, 2)) == "1 + 2*q + 3*q^2 + 3*q^3 + 2*q^4 + q^5"


def test_pd_product_expansion():
    expected = LaurentPoly.one()
    for i in range(1, 4):
        expected = expected * (1 + LaurentPoly.monomial(1, q=i))
    assert pd_product(4) == expected


# ---------------------------------------------------------------------------
# positive-last-entry expansions
# ---------------------------------------------------------------------------
def test_hyatt_plus_matches_brute_force():
    for n in range(1, 6):
        assert hyatt_plus("B", n) == poly_group("B+", n, "biv"), n
    for n in range(2, 6):
        assert hyatt_plus("D", n) == poly_group("D+", n, "biv"), n


@pytest.mark.parametrize("family", ["B", "D"])
def test_recurrence_matches_subset_expansion_at_high_rank(family):
    """The two closed routes of ``compare`` agree well past the brute-force ceiling."""
    for n in range(12, 15):
        plus = hyatt_plus(family, n)
        assert recurrence_poly(family, n) == plus + reciprocal_transform(family, n, plus), n


def test_hyatt_plus_specializes_to_classic_recurrence():
    """At q = 1 with one descent variable, the binomial-sum recurrence holds."""
    for n in range(1, 11):
        lhs = hyatt_plus("B", n).subs_values({"q": 1}).rename_variables({"s": "t"})
        assert lhs == classic_plus_B(n), n


def test_classic_plus_pinned():
    # rank 2: of the positive-last words (1,2),(2,1),(-1,2),(-2,1),
    # only the first is descent-free
    assert classic_plus_B(2) == 1 + 3 * T


# ---------------------------------------------------------------------------
# the unrefined descent recurrence
# ---------------------------------------------------------------------------
def test_reiner_poly_forgets_parity():
    for n in range(0, 5):
        expected = poly_group("B", n, "biv").rename_variables({"s": "t"})
        assert reiner_poly(n) == expected


def test_reiner_recurrence_holds():
    for n in range(1, 6):
        assert reiner_poly(n) == reiner_recurrence_rhs(n), n


def test_reiner_recurrence_detects_wrong_inputs():
    """Feeding a corrupted rank-0 polynomial must break the identity."""
    def corrupted(n):
        return reiner_poly(n) + (1 if n == 0 else 0)

    assert reiner_poly(2) != reiner_recurrence_rhs(2, polys=corrupted)


def test_reiner_recurrence_rejects_rank_zero():
    with pytest.raises(ValueError):
        reiner_recurrence_rhs(0)


# ---------------------------------------------------------------------------
# symmetry transforms
# ---------------------------------------------------------------------------
def test_minus_transform_pinned_rank_one():
    plus = poly_group("B+", 1, "biv")
    assert plus == LaurentPoly.one()
    assert reciprocal_transform("B", 1, plus) == S * Q
    assert reciprocal_transform("B", 1, plus) == poly_group("B-", 1, "biv")


def test_reciprocal_transform_pinned_rank_two():
    b2 = poly_group("B", 2, "biv")
    assert reciprocal_transform("B", 2, b2) == b2
    d2 = poly_group("D", 2, "biv")
    assert reciprocal_transform("D", 2, d2) == d2


def test_symmetry_check_passes_small_ranks():
    """The minus-symmetry and reciprocity checks cover ranks 1-5 (B) and 2-5 (D)."""
    for family, first in (("B", 1), ("D", 2)):
        for law in ("minus-symmetry", "reciprocal"):
            report = run_check(f"type{family}-{law}", max_n=5)
            assert report["status"] == "pass"
            assert [case["n"] for case in report["cases"]] == list(range(first, 6))
