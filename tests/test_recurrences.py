"""Recurrence-computed polynomials against brute force and closed forms."""

import hashlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact.polynomials as polynomials
from artifact.enumeration import WEIGHTS, poly_group, weight_image
from artifact.polynomials import LaurentPoly, one_minus, poincare, q_ratio_row, qbinom, qfact
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
from oracles import (
    assert_form_agrees,
    c_coeff_product,
    cd_coeff_product,
    hyatt_plus_blocks,
    is_decoded,
    one_plus_q_run,
    qbinom_pascal,
    recur_B_blocks,
    recur_D_blocks,
    reflect_terms,
    reiner_rhs_blocks,
)

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


# The first 16 hex digits of the sha256 of each polynomial's printed form, as
# the even/odd-body recurrences printed it (ranks 0-16; ranks 15 and 16 as the
# recurrences printed them before they summed their products in one packing;
# ranks 17 and 18, whose sums take 9-byte slots, as the two-factor packing
# printed them); a rewrite of the recurrences must keep every term and its
# printed order.
RECUR_DIGESTS = {
    "B": ["6b86b273ff34fce1", "3df05dbd84e3d9a7", "1d6742ec8cd8543e", "e7cd5ff53015d1b7",
          "4c72d6f1fba375f9", "7a57d06b76d74930", "6cd0cbe6caf2584f", "4f12b5e06f98c0f8",
          "8d03fa3d4b75a13e", "56ea2e23c13af91b", "273b40c27cb009b2", "e2809c4f07995de5",
          "6266caad7b73f18f", "ed6526afae166a22", "edb3f01e4576fdf1", "c17ea5047c56f23c",
          "9f5af9ecf6b6c379", "877a8a17147c3189", "ba640b0a4e771940"],
    "D": ["6b86b273ff34fce1", "6b86b273ff34fce1", "150195dddf6c19a2", "6fe17e4b15d82d59",
          "7b6152f281de53b8", "aaeb738df8679865", "8aefa1a956c748e5", "09218c644b682d1e",
          "5836a0c3297921ae", "af9be0a3ba3ee1be", "f6e001eede2b10f4", "428cc948e8ad54f6",
          "7ac85efa57c78f2c", "40b33f47b4a419ca", "4685d90eb6cde132", "d3be949b4f54a214",
          "f4e50dd40b4201d7", "9a9007fd8b63de92", "fcf2e8ca8f7908d9"],
}
HYATT_DIGESTS = {  # ranks 1..12
    "B": ["6b86b273ff34fce1", "ea4c06e7beda9bb2", "5e9746d05b8215f9", "d6177427bd2898e5",
          "276e468bac35bce9", "7fee1ff34180983b", "cde745e034a4d2ac", "2f2b3c66c11e3059",
          "55fe54cb1a7c5797", "ce49b129fcee1bca", "12c8f5dd1eb9103c", "d1fc9f95bbac124d"],
    "D": ["6b86b273ff34fce1", "5c2d89d26b8aefd7", "6240d5a7184f811d", "57054674547a8a99",
          "3ca6407daa21cf6a", "13513fbc45abf2a8", "2ef8d27d0e91391c", "7c556c5f1e87a045",
          "716d5c9b85ebcdb1", "31324d11b861ca04", "6f3c2a426302019f", "68d9e326b073415f"],
}


def digest(poly):
    return hashlib.sha256(str(poly).encode()).hexdigest()[:16]


@pytest.mark.parametrize("family", ["B", "D"])
def test_recurrences_keep_their_pinned_digests(family):
    assert [digest(recurrence_poly(family, n)) for n in range(19)] == RECUR_DIGESTS[family]
    assert [digest(hyatt_plus(family, n)) for n in range(1, 13)] == HYATT_DIGESTS[family]


@pytest.mark.parametrize("n", range(13))
def test_linked_sums_equal_the_whole_block_factors(n):
    """Each rank of the recurrences, the subset expansion and the unrefined
    right side, summed with one link per block size, equals the same sum
    with each block's factors in s and t multiplied out, over the same lower
    ranks."""
    assert recur_B(n) == recur_B_blocks(n, recur_B)
    if n >= 2:
        assert recur_D(n) == recur_D_blocks(n, recur_D)
    if n >= 1:
        assert hyatt_plus("B", n) == hyatt_plus_blocks(n, recur_B)
        assert reiner_recurrence_rhs(n) == reiner_rhs_blocks(n, reiner_poly)
    if n >= 2:
        assert hyatt_plus("D", n) == hyatt_plus_blocks(n, recur_D)


def test_lower_ranks_stay_undecoded_kernel_results(monkeypatch):
    """recur_B(12) from a cold cache packs every lower rank from its form and
    builds none of their dicts; each result's terms then agree with its form."""
    results = []
    kernel = polynomials._kronecker_sum
    monkeypatch.setattr(polynomials, "_kronecker_sum", lambda *args: results.append(kernel(*args)) or results[-1])
    recur_B.cache_clear()
    recur_B(12)
    from_kernel = [k for k in range(13) if any(recur_B(k) is r for r in results)]
    assert from_kernel[0] <= 5 and from_kernel == list(range(from_kernel[0], 13))
    assert not any(is_decoded(recur_B(k)) for k in range(from_kernel[0], 12))
    assert all(is_decoded(recur_B(k)) for k in range(from_kernel[0]))  # below the kernel's pair gate
    for k in from_kernel:
        assert_form_agrees(recur_B(k))
    assert [digest(recur_B(k)) for k in range(13)] == RECUR_DIGESTS["B"][:13]
    recur_B.cache_clear()


def test_every_rank_builds_its_kernel_form_once(monkeypatch):
    """A rank below the kernel's pair gate comes back from the operators as a
    term dict and is held with its form, so a cold recur_B(14) builds each
    such form once (50 builds when later ranks rebuilt them) and no other."""
    built = []
    exponent_array = polynomials._exponent_array
    monkeypatch.setattr(polynomials, "_exponent_array", lambda terms: built.append(1) or exponent_array(terms))
    recur_B.cache_clear()
    c_coeff.cache_clear()  # a q-coefficient whose terms an earlier caller read holds no form either
    recur_B(14)
    ranks = [recur_B(n) for n in range(1, 15)]  # rank 0 is a module constant, held at import
    assert all(p._form is not None for p in ranks)
    assert 0 < len(built) == sum(map(is_decoded, ranks)) <= 5
    recur_B.cache_clear()


@pytest.mark.parametrize("weight", WEIGHTS)
def test_the_recurrences_map_to_every_weight(weight):
    """easc = E - edes and oasc = O - odes, with E and O the even and odd
    positions, so each weight of B and D is an exponent map of recur_B and
    recur_D, at every rank from 0 to 7."""
    for family, recur in (("B", recur_B), ("D", recur_D)):
        for n in range(8):
            assert weight_image(recur(n), family, n, weight) == poly_group(family, n, weight), (family, n)


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


def assert_rows_match_products(n, j):
    assert qbinom(n, j) == qbinom_pascal(n, j), (n, j)
    assert c_coeff(n, j) == c_coeff_product(n, j), (n, j)
    assert cd_coeff(n, j) == cd_coeff_product(n, j), (n, j)


def test_coefficient_rows_match_their_product_formulas():
    """Every ratio-step coefficient through rank 24 is the product it was
    first stated as: q-Pascal for qbinom, qbinom times a run of (1 + q^i)
    for c_coeff and cd_coeff, and the run alone for pd_product."""
    for n in range(25):
        for j in range(n + 1):
            assert_rows_match_products(n, j)
        assert pd_product(n) == one_plus_q_run(1, n - 1), n


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@settings(max_examples=40, deadline=None)
def test_coefficient_rows_match_their_product_formulas_at_drawn_ranks(nj):
    assert_rows_match_products(*nj)


def test_a_ratio_step_that_leaves_a_remainder_is_refused():
    q_ratio_row(3, lambda m: ((m, -1),))  # the q-binomial row divides exactly
    with pytest.raises(ArithmeticError, match="1 - q\\^1 does not divide step 1 of the rank-3 row"):
        q_ratio_row(3, lambda m: ())


_SHALLOW_CALL = """
import sys
from artifact.polynomials import qbinom
from artifact.recurrences import hyatt_plus, recur_B, recur_D

frame, depth = sys._getframe(), 0
while frame is not None:
    frame, depth = frame.f_back, depth + 1
sys.setrecursionlimit(depth + 20)
assert {call}
"""


@pytest.mark.parametrize("call", ["recur_B(12)", "recur_D(12)", 'hyatt_plus("D", 12)', "qbinom(80, 40)"])
def test_cold_ranks_fill_bottom_up_without_deep_recursion(call):
    """No rank cache recurses once per rank: in a fresh process, with room
    for only 20 more frames, each call succeeds from cold caches."""
    code = _SHALLOW_CALL.format(call=call)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


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


@pytest.mark.parametrize("family", ["B", "D"])
def test_reciprocal_transform_maps_the_full_group_polynomial_to_itself(family):
    """At every rank, 0 and 1 included, where a type D word has no descent position."""
    for n in range(9):
        whole = recurrence_poly(family, n)
        assert reciprocal_transform(family, n, whole) == whole, n


@pytest.mark.parametrize("family", ["B", "D"])
def test_reflection_maps_the_kernel_form_like_the_terms(family):
    """The reflection maps the rows of the kernel form: an undecoded kernel
    result stays undecoded, and the image holds only its form, whose terms
    are those of the term-by-term map."""
    mapped = 0
    for n in range(2, 13):
        plus = hyatt_plus(family, n)
        undecoded = not is_decoded(plus)
        image = reciprocal_transform(family, n, plus)
        assert not is_decoded(image) and is_decoded(plus) != undecoded, n
        mapped += undecoded
        assert image == reflect_terms(family, n, plus), n
    assert mapped >= 5  # every rank from the kernel's pair gate on


def test_symmetry_check_passes_small_ranks():
    """The minus-symmetry and reciprocity checks cover ranks 1-5 (B) and 2-5 (D)."""
    for family, first in (("B", 1), ("D", 2)):
        for law in ("minus-symmetry", "reciprocal"):
            report = run_check(f"type{family}-{law}", max_n=5)
            assert report["status"] == "pass"
            assert [case["n"] for case in report["cases"]] == list(range(first, 6))
