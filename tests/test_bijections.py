"""Juxtaposition maps, their inverses, and the signed-subset inversion sums."""

import math
import random

import numpy as np
import pytest

from artifact.bijections import (
    juxtapose_array,
    map_f,
    map_fD,
    map_fpp,
    relabel,
    signed_subsets,
)
from artifact.permutations import in_type_d, inv_B, inv_D, iterate_group
from artifact.polynomials import LaurentPoly, qbinom, qint
from artifact.recurrences import c_coeff, cd_coeff
from oracles import (
    iterate_descending_suffix,
    lemma_sum,
    map_f_inverse,
    map_fD_inverse,
    map_fpp_inverse,
    plain_subsets,
)

Q = LaurentPoly.variable("q")


# ---------------------------------------------------------------------------
# the juxtaposition maps on pinned inputs
# ---------------------------------------------------------------------------
def test_map_f_worked_example():
    sigma = (-2, 1, 3)
    subset = (-6, -4, 1, 5)
    assert map_f(sigma, subset, 7) == (-3, 2, 7, -6, -4, 1, 5)


def test_map_f_with_empty_prefix_is_ascending_subset():
    assert map_f((), (1, 2, 3), 3) == (1, 2, 3)
    assert map_f((), (-3, -2, -1), 3) == (-3, -2, -1)


def test_map_f_size_mismatch_rejected():
    with pytest.raises(ValueError):
        map_f((1,), (2,), 4)
    with pytest.raises(ValueError):
        map_f((1,), (1, -1), 3)  # repeated magnitude inside the subset
    with pytest.raises(ValueError):
        map_f((1,), (3,), 2)  # subset value outside [n]


def test_map_fd_parity_flip():
    # odd number of negatives in the subset flips the first prefix entry
    flipped = map_fD((1, 2), (-3,), 3)
    assert flipped == (-1, 2, -3)
    assert in_type_d(flipped)
    unflipped = map_fD((1, 2), (3,), 3)
    assert unflipped == (1, 2, 3)


def test_map_fd_rejects_odd_prefix():
    with pytest.raises(ValueError):
        map_fD((-1, 2), (3,), 3)


def test_map_fpp_appends_descending_positive():
    assert map_fpp((), (1, 2, 3, 4), 4) == (4, 3, 2, 1)
    assert map_fpp((1,), (2, 3), 3) == (1, 3, 2)
    with pytest.raises(ValueError):
        map_fpp((1,), (-2,), 2)


def test_relabel_preserves_order_and_signs():
    assert relabel((-2, 1, 3), (2, 3, 7)) == (-3, 2, 7)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------
def test_map_f_round_trips_random():
    rng = random.Random(20260814)
    for _ in range(500):
        n = rng.randint(1, 7)
        r = rng.randint(0, n)
        k = n - r
        sigma = tuple(
            x * rng.choice((1, -1))
            for x in rng.sample(range(1, k + 1), k)
        )
        subset = rng.choice(list(signed_subsets(n, r)) or [()])
        word = map_f(sigma, subset, n)
        assert map_f_inverse(word, r) == (sigma, subset)


def test_map_fd_round_trips_exhaustive():
    for n in range(2, 5):
        for r in range(0, n + 1):
            k = n - r
            prefixes = list(iterate_group("D", k)) if k >= 2 else [tuple(range(1, k + 1))]
            for sigma in prefixes:
                for subset in signed_subsets(n, r):
                    word = map_fD(sigma, subset, n)
                    back_sigma, back_subset = map_fD_inverse(word, r)
                    assert (back_sigma, back_subset) == (sigma, subset)


def test_map_fpp_round_trips_exhaustive():
    for n in range(1, 6):
        for r in range(0, n + 1):
            k = n - r
            for sigma in iterate_group("B", k):
                for subset in plain_subsets(n, r):
                    word = map_fpp(sigma, subset, n)
                    assert map_fpp_inverse(word, r) == (sigma, subset)


# ---------------------------------------------------------------------------
# image characterizations
# ---------------------------------------------------------------------------
def test_map_f_image_is_increasing_tail_family():
    for n in range(1, 6):
        for i in range(0, n):
            r = n - i
            image = {
                map_f(sigma, subset, n)
                for sigma in iterate_group("B", i)
                for subset in signed_subsets(n, r)
            }
            expected = set(iterate_group("G", n, i=i))
            assert image == expected
            assert len(image) == 2**n * math.comb(n, i) * math.factorial(i)


def test_map_fd_image_is_increasing_tail_family():
    for n in range(2, 6):
        for i in range(2, n):
            r = n - i
            image = {
                map_fD(sigma, subset, n)
                for sigma in iterate_group("D", i)
                for subset in signed_subsets(n, r)
            }
            expected = set(iterate_group("H", n, i=i))
            assert image == expected


def test_map_fpp_image_is_descending_suffix_family():
    for n in range(1, 6):
        for k in range(0, n):
            r = k + 1
            image = {
                map_fpp(sigma, subset, n)
                for sigma in iterate_group("B", n - r)
                for subset in plain_subsets(n, r)
            }
            expected = set(iterate_descending_suffix("B", n, k))
            assert image == expected


def test_map_f_inversion_additivity():
    """Juxtaposition adds the prefix inversions to the subset-only count."""
    for n in range(1, 6):
        for i in range(0, n):
            for subset in signed_subsets(n, n - i):
                base = inv_B(map_f(tuple(range(1, i + 1)), subset, n))
                for sigma in iterate_group("B", i):
                    assert inv_B(map_f(sigma, subset, n)) == inv_B(sigma) + base


# ---------------------------------------------------------------------------
# lemma sums against closed forms
# ---------------------------------------------------------------------------
def test_lemma21_sum_matches_closed_form():
    for n in range(0, 8):
        for r in range(0, n + 1):
            assert lemma_sum(map_f, inv_B, n, r) == c_coeff(n, r), (n, r)


def test_lemma31_sum_matches_closed_form():
    for n in range(0, 8):
        for r in range(0, n + 1):
            assert lemma_sum(map_fD, inv_D, n, r) == cd_coeff(n, r), (n, r)


def test_lemma21_pinned_values():
    assert lemma_sum(map_f, inv_B, 1, 1) == 1 + Q
    assert lemma_sum(map_f, inv_B, 3, 0) == LaurentPoly.one()
    assert lemma_sum(map_f, inv_B, 2, 1) == qbinom(2, 1) * (1 + Q**2)


def test_lemma31_pinned_values():
    assert lemma_sum(map_fD, inv_D, 2, 0) == LaurentPoly.one()
    assert lemma_sum(map_fD, inv_D, 2, 1) == (1 + Q) * (1 + Q)
    assert lemma_sum(map_fD, inv_D, 3, 2) == qbinom(3, 2) * (1 + Q**2) * (1 + Q)


def test_closed_forms_expand_to_stated_products():
    """qbinom(n,r) times the descending run of (1+q^k) factors."""
    for n in range(0, 7):
        for r in range(0, n + 1):
            expected21 = qbinom(n, r)
            for x in range(r):
                expected21 = expected21 * (1 + LaurentPoly.monomial(1, q=n - x))
            assert c_coeff(n, r) == expected21
            expected31 = qbinom(n, r)
            for x in range(1, r + 1):
                expected31 = expected31 * (1 + LaurentPoly.monomial(1, q=n - x))
            assert cd_coeff(n, r) == expected31


# ---------------------------------------------------------------------------
# the juxtaposition over word arrays
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family, scalar", [("B", map_f), ("D", map_fD)])
def test_juxtapose_array_matches_the_scalar_maps(family, scalar):
    for n in range(6):
        for r in range(n + 1):
            prefixes = list(iterate_group(family, n - r))
            subsets = list(signed_subsets(n, r))
            out = juxtapose_array(
                np.array(prefixes, dtype=np.int16).reshape(len(prefixes), n - r),
                np.array(subsets, dtype=np.int16).reshape(len(subsets), r),
                n,
                family,
            )
            assert out.shape == (len(prefixes), len(subsets), n)
            for i, sigma in enumerate(prefixes):
                for j, subset in enumerate(subsets):
                    assert tuple(out[i, j].tolist()) == scalar(sigma, subset, n), (sigma, subset)


def test_juxtapose_array_rejects_what_the_scalar_maps_reject():
    subsets = np.array([[1]], dtype=np.int16)
    with pytest.raises(ValueError, match="sizes must add to 3"):
        juxtapose_array(np.array([[1]], dtype=np.int16), subsets, 3, "B")
    with pytest.raises(ValueError, match=r"prefix not in the even-signed group: \(-1, 2\)"):
        juxtapose_array(np.array([[1, 2], [-1, 2]], dtype=np.int16), subsets, 3, "D")
