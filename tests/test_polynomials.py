"""Exact sparse Laurent-polynomial arithmetic and the q-combinatorics helpers."""

import math
import tracemalloc
from functools import reduce
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

import artifact.polynomials as polynomials
from artifact import registry
from artifact.enumeration import poly_group
from artifact.polynomials import (
    NVARS,
    VARIABLES,
    LaurentPoly,
    _kronecker_sum,
    _schoolbook_product,
    _size,
    cyclotomic,
    first_difference,
    monomial_name,
    one_minus,
    poincare,
    poincare_factors,
    qbinom,
    qfact,
    qint,
    sum_of_products,
)
from oracles import assert_form_agrees, cyclotomic_factors_by_division, is_decoded

S = LaurentPoly.variable("s")
T = LaurentPoly.variable("t")
Q = LaurentPoly.variable("q")


# ---------------------------------------------------------------------------
# hypothesis strategy: small random Laurent polynomials
# ---------------------------------------------------------------------------
exponents = st.tuples(*[st.integers(-2, 3) for _ in VARIABLES])
terms = st.dictionaries(exponents, st.integers(-9, 9), max_size=5)
polys = terms.map(LaurentPoly)


@given(polys, polys)
@settings(max_examples=200)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
@settings(max_examples=200)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
@settings(max_examples=200)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
@settings(max_examples=200)
def test_distributive_law(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys)
@settings(max_examples=100)
def test_additive_inverse(a):
    assert a - a == LaurentPoly.zero()
    assert a + (-a) == LaurentPoly.zero()


@given(polys)
@settings(max_examples=100)
def test_multiplicative_identity_and_annihilator(a):
    assert a * LaurentPoly.one() == a
    assert a * LaurentPoly.zero() == LaurentPoly.zero()


@given(polys, st.integers(0, 4))
@settings(max_examples=100)
def test_power_is_repeated_product(a, k):
    expected = LaurentPoly.one()
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(polys)
@settings(max_examples=100)
def test_reciprocal_substitution_is_involutive(a):
    flipped = a.substitute("q", "reciprocal")
    assert flipped.substitute("q", "reciprocal") == a


@given(polys)
@settings(max_examples=100)
def test_json_round_trip(a):
    assert LaurentPoly.from_json_dict(a.to_json_dict()) == a


def test_substitutions_store_no_zero_term():
    assert (S - T).rename_variables({"s": "t"}).terms == {}
    assert (1 + Q).substitute("q", "value", -1).terms == {}


# ---------------------------------------------------------------------------
# the Kronecker product kernel against the schoolbook reference
# ---------------------------------------------------------------------------
_WORD_EDGES = [2**62, 2**63, 2**64]
coefficients = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda edge, d, sign: sign * (edge + d),
              st.sampled_from(_WORD_EDGES), st.integers(-1, 1), st.sampled_from([-1, 1])),
    st.integers(-(2**1000), 2**1000),
).filter(bool)


@st.composite
def dense_pairs(draw, count=2):
    """Two (or ``count``) operands in all seven variables, each filling its own exponent box.

    The operands spread over the same one to three variables (at most four
    exponents each) and sit at independent offsets, negative ones included, in
    every variable; the product box of two then has at most 3.2 slots per
    operand term.
    """
    spread = draw(st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=3, unique=True))

    def operand():
        offset = draw(st.lists(st.integers(-5, 5), min_size=NVARS, max_size=NVARS))
        sizes = [draw(st.integers(1, 4)) for _ in spread]
        terms = {}
        for point in range(math.prod(sizes)):
            exp = list(offset)
            for var, size in zip(spread, sizes):
                point, digit = divmod(point, size)
                exp[var] += digit
            terms[tuple(exp)] = draw(coefficients)
        return terms

    return tuple(LaurentPoly(operand()) for _ in range(count))


def _sorted(products):
    """The kernel's sum of these products, which must take the sorted path."""
    with mock.patch.object(polynomials, "_sorted_sum", wraps=polynomials._sorted_sum) as spy:
        out = _kronecker_sum(products)
    assert spy.call_count == 1
    return out


def _box_slots(products):
    """The number of slots of the exponent box the kernel shares among these products: in each
    variable, from the least sum of a product's factors' minima to the greatest sum of their maxima."""
    def corners(pick):
        return [[sum(pick(e[j] for e in f.terms) for f in p) for j in range(NVARS)] for p in products]
    tops, lows = zip(*corners(max)), zip(*corners(min))
    return math.prod(max(top) - min(low) + 1 for top, low in zip(tops, lows))


def _is_sparse(products):
    """Whether the box has more slots than 8 per term of the products' first two factors: too sparse to pack."""
    return _box_slots(products) > 8 * sum(len(a.terms) + len(b.terms) for a, b, *_ in products)


def _coefficient_bound(products):
    """max|a| max|b| min(|a|, |b|) times each further factor's sum of |coefficients|, summed over the products."""
    def top(f):
        return max(map(abs, f.terms.values()))
    return sum(top(a) * top(b) * min(len(a.terms), len(b.terms)) * math.prod(sum(map(abs, f.terms.values())) for f in more)
               for a, b, *more in products)


def _assert_sparse_matches(products):
    """A sum of products on a box too sparse to pack, against the schoolbook fold.

    The sorted path takes it while a slot index and the coefficient bound fit
    in int64; past either, the kernel declines and the operators take it.
    """
    assert _is_sparse(products)
    expected = _schoolbook_sum(products)
    if _box_slots(products) < 2**61 and _coefficient_bound(products) < 2**63:
        out = _sorted(products)
        assert out.terms == expected
        assert all(out.terms.values())
    else:
        assert _kronecker_sum(products) is None
    assert sum_of_products(products).terms == expected


def _assert_kernel_matches(a, b):
    out = _kronecker_sum([(a, b)])
    assert out is not None  # a dense box takes the kernel
    assert out.terms == _schoolbook_product(a.terms, b.terms)
    assert all(out.terms.values())  # no stored zero: __eq__ compares dicts


@given(dense_pairs())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_schoolbook(pair):
    _assert_kernel_matches(*pair)


@given(dense_pairs(), coefficients)
@settings(max_examples=100, deadline=None)
def test_kernel_scaling_by_a_constant_and_by_one(pair, k):
    a, _ = pair
    _assert_kernel_matches(a, LaurentPoly.constant(k))
    _assert_kernel_matches(a, LaurentPoly.one())


@given(st.integers(1, 80), coefficients, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_kernel_cancellation_leaves_no_zero_terms(k, c, shift):
    """(1 - q) [k]_q = 1 - q^k, and (1 - s)(1 + s) = 1 - s^2, at any scale."""
    left = c * (LaurentPoly.one() - Q) * LaurentPoly.monomial(1, q=shift, t0=-1)
    right = c * qint(k)
    expected = c * c * (LaurentPoly.one() - LaurentPoly.variable("q", k))
    expected = expected * LaurentPoly.monomial(1, q=shift, t0=-1)
    _assert_kernel_matches(left, right)
    assert left * right == expected
    _assert_kernel_matches(c * (1 - S) * qint(k), (1 + S) * qint(k))


def test_kernel_decodes_in_chunks(monkeypatch):
    a = (1 + S - 2**70 * T) * qint(40)
    b = (1 - S + Q * T) * qint(30)
    monkeypatch.setattr(polynomials, "_DECODE_CHUNK", 7)
    _assert_kernel_matches(a, b)
    assert len(_kronecker_sum([(a, b)]).terms) > 7


@given(polys, polys, st.integers(-(2**70), 2**70))
@settings(max_examples=200, deadline=None)
def test_product_operator_equals_schoolbook(a, b, k):
    """Sparse random operands take the fallback; either path gives the same terms."""
    assert (a * b).terms == _schoolbook_product(a.terms, b.terms)
    assert (a * k).terms == _schoolbook_product(a.terms, LaurentPoly.constant(k).terms)
    assert a * LaurentPoly.zero() == LaurentPoly.zero() == LaurentPoly.zero() * a
    assert a * LaurentPoly.one() == a == LaurentPoly.one() * a
    assert a * 0 == LaurentPoly.zero()


def test_sparse_box_takes_the_fallback():
    """Both operands move in the sparse variable s: the box is too sparse to pack, and the sorted path takes it."""
    a = sum((LaurentPoly.monomial(3, s=10 * i, q=i) for i in range(10)), LaurentPoly.zero())
    b = sum((LaurentPoly.monomial(-5, s=100 * j, q=j) for j in range(10)), LaurentPoly.zero())
    assert _sorted([(a, b)]).terms == _schoolbook_product(a.terms, b.terms)
    assert (a * b).terms == _schoolbook_product(a.terms, b.terms)
    assert len((a * b).terms) == 100


def test_private_variables_take_the_sorted_path():
    """s, t1, q against q alone: sparse in all seven variables; 310 product terms, either way round."""
    a = sum((LaurentPoly.monomial(3, s=10 * i, t1=-i) for i in range(10)), LaurentPoly.zero()) * (1 + Q)
    b = -5 * qint(30)
    expected = _schoolbook_product(a.terms, b.terms)
    assert _sorted([(a, b)]).terms == _sorted([(b, a)]).terms == expected
    assert len(expected) == 310
    assert (a * b).terms == expected


@pytest.mark.parametrize("shift", [2**61 - 1, 2**61, -(2**62), 2**70])
def test_product_with_exponents_beyond_the_kernel_range(shift):
    """Exponents near or past 64 bits give exact terms, on whichever path runs."""
    a = (1 + S) ** 6 * qint(20) * LaurentPoly.monomial(1, t=shift)
    b = (1 - S) ** 5 * qint(30) * LaurentPoly.monomial(-1, t=shift)
    product = a * b
    assert product.terms == _schoolbook_product(a.terms, b.terms)
    assert product.coefficient(t=2 * shift) == -1
    assert (_kronecker_sum([(a, b)]) is None) == (abs(shift) >= polynomials._EXP_LIMIT)


# ---------------------------------------------------------------------------
# the sparse box: slot indices summed by sorting
# ---------------------------------------------------------------------------
_Q = VARIABLES.index("q")
_NOT_Q = [j for j in range(NVARS) if j != _Q]
small_coefficients = st.one_of(st.integers(-9, 9), st.integers(-(2**24), 2**24)).filter(bool)


@st.composite
def private_pairs(draw, shape):
    """Two operands whose seven-variable box is too sparse to pack.

    An operand is a sum over its two or more classes of x^v * Q(q), where
    x^v is a monomial in the operand's private variables (those the other
    operand does not move in) and Q has a full run of nonzero coefficients;
    an operand with no private variable is Q(q) alone.

    - "q-only": a q-polynomial against an operand with 2 to 4 private
      variables, both moving in q: the shape of a fraction's numerator
      brought over a larger denominator;
    - "q-only-sparse": as "q-only", with private exponents spaced up to 1000
      apart, shifted below zero, or both;
    - "both": each operand has 1 to 3 private variables;
    - "sparse": as "both", spaced and shifted as "q-only-sparse".
    """
    free = draw(st.permutations(_NOT_Q))
    one_sided = shape.startswith("q-only")
    if one_sided:
        private_a, private_b = [], free[:draw(st.integers(2, 4))]
    else:
        k = draw(st.integers(1, 3))
        private_a, private_b = free[:k], free[k:k + draw(st.integers(1, 3))]
    step = {var: 1 for var in free}
    offset = {var: 0 for var in free}
    if shape.endswith("sparse"):
        kind = draw(st.sampled_from(["sparse", "negative", "both"]))
        for var in free:
            if kind != "negative":
                step[var] = draw(st.integers(2, 1000))
            if kind != "sparse":
                offset[var] = draw(st.integers(-2000, -1))

    def operand(private):
        points = draw(st.lists(st.tuples(*[st.integers(0, 4)] * len(private)),
                               min_size=2 if private else 1, max_size=8 if private else 1, unique=True))
        start, length = draw(st.integers(-3, 3)), draw(st.integers(2 if one_sided else 1, 6))
        terms = {}
        for point in points:
            for k in range(length):
                exp = [0] * NVARS
                exp[_Q] = start + k
                for var, digit in zip(private, point):
                    exp[var] = offset[var] + step[var] * digit
                terms[tuple(exp)] = draw(small_coefficients)
        return LaurentPoly(terms)

    a, b = operand(private_a), operand(private_b)
    assume(_is_sparse([(a, b)]))
    return a, b


@pytest.mark.parametrize("shape", ["q-only", "q-only-sparse", "both", "sparse"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_shapes_match_schoolbook(shape, data):
    """Operands with private variables, on one side or on both, take the sorted path either way round."""
    a, b = data.draw(private_pairs(shape))
    _assert_sparse_matches([(a, b)])
    _assert_sparse_matches([(b, a)])
    assert (a * b).terms == (b * a).terms == _schoolbook_product(a.terms, b.terms)


def test_fivevar_numerator_times_q_integers_takes_the_sorted_path(monkeypatch):
    """The shape of a QFraction sum: a numerator in q, s0, s1, t0, t1 times [2]_q...[10]_q."""
    num = poly_group("B", 5, "fivevar")
    den = poincare("B", 5)
    assert {VARIABLES[j] for exp in num.terms for j, e in enumerate(exp) if e} == {"q", "s0", "s1", "t0", "t1"}
    expected = _schoolbook_product(num.terms, den.terms)
    monkeypatch.setattr(polynomials, "_DECODE_CHUNK", 7)
    assert _sorted([(num, den)]).terms == _sorted([(den, num)]).terms == expected
    monkeypatch.setattr(polynomials, "_schoolbook_product", None)  # unreachable here
    assert (num * den).terms == (den * num).terms == expected


def test_sparse_sums_and_products_of_three_factors_take_the_sorted_path():
    """Private variables on both sides or on neither, three variables shared,
    a sum, and a third factor: every sparse shape takes the one sorted path."""
    num, den = poly_group("B", 5, "fivevar"), poincare("B", 5)
    spread = sum((LaurentPoly.monomial(3, s=10 * i, q=i) for i in range(10)), LaurentPoly.zero())
    shapes = [
        [(spread, sum((LaurentPoly.monomial(-5, t=10 * j, t1=j) for j in range(10)), LaurentPoly.zero()))],
        [(spread, sum((LaurentPoly.monomial(-5, s=100 * j, q=j) for j in range(10)), LaurentPoly.zero()))],
        [(num, 1 - LaurentPoly.monomial(1, q=1, s0=1, t0=1))],
        [(num, den), (num, -den)],  # cancels to zero
        [(num, den), (den, num, 1 - LaurentPoly.monomial(1, s0=3, t1=-2))],
        [(num, den, spread, 1 + T)],
    ]
    for products in shapes:
        expected = _schoolbook_sum(products)
        assert _sorted(products).terms == expected
        assert sum_of_products(products).terms == expected
    assert _schoolbook_sum(shapes[3]) == {}


def test_no_large_product_of_the_catalogue_takes_the_schoolbook_loop(monkeypatch):
    """At order 8, across the whole catalogue, a product of two operands of more
    than one term each and at least 512 term pairs never reaches the
    schoolbook loop; the sparse ones, the fivevar checks' among them, take
    the sorted path."""
    loop, sorted_sum = polynomials._schoolbook_product, polynomials._sorted_sum
    large, sparse = [], []

    def schoolbook(a, b):
        if min(len(a), len(b)) > 1 and len(a) * len(b) >= polynomials._KRONECKER_MIN_PAIRS:
            large.append((len(a), len(b)))
        return loop(a, b)

    monkeypatch.setattr(polynomials, "_schoolbook_product", schoolbook)
    monkeypatch.setattr(polynomials, "_sorted_sum", lambda *args: sparse.append(1) or sorted_sum(*args))
    registry.clear_cache()
    reports = registry.run_all(order=8)
    assert all(report["status"] == "pass" for report in reports)
    assert large == []
    assert sparse


def test_sorted_path_refuses_slot_indices_beyond_int64():
    """Five classes 2^40 apart in s and t: a box of about 2^86 slots, whose indices are past int64."""
    a = sum((LaurentPoly.monomial(c + k + 1, s=c * 2**40, t=(c % 3) * 2**40, q=k)
             for c in range(5) for k in range(8)), LaurentPoly.zero())
    b = qint(30)
    assert _kronecker_sum([(a, b)]) is None
    assert (a * b).terms == _schoolbook_product(a.terms, b.terms)


@st.composite
def sparse_sums(draw):
    """One to three products of two to four factors on a box too sparse to pack.

    Every factor holds one to six terms in the same one to four variables,
    at exponents an offset (negative ones included) plus a step of up to
    1000 times a digit below 5; its coefficients lie within ±2**12, so the
    coefficient bound stays inside int64 and, with at most 16,001 exponents
    per variable, so do the slot indices.  At random, a product is made to
    cancel within itself, (x - y)(x + y) for two of its terms, or every
    product is repeated with its first factor negated, so the sum cancels to
    zero.
    """
    spread = draw(st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=4, unique=True))
    step = {var: draw(st.integers(1, 1000)) for var in spread}

    def factor():
        offset = {var: draw(st.integers(-2000, 2000)) for var in spread}
        terms = {}
        for _ in range(draw(st.integers(1, 6))):
            exp = [0] * NVARS
            for var in spread:
                exp[var] = offset[var] + step[var] * draw(st.integers(0, 4))
            terms[tuple(exp)] = draw(st.integers(-(2**12), 2**12).filter(bool))
        return LaurentPoly(terms)

    products = [tuple(factor() for _ in range(draw(st.integers(2, 4)))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        x, y = factor(), factor()
        products[0] = (x - y, x + y, *products[0][2:])
    if draw(st.booleans()):
        products += [(-a, *rest) for a, *rest in products]
    products = [p for p in products if all(p)]
    assume(products and _is_sparse(products))
    return products


@given(sparse_sums())
@settings(max_examples=200, deadline=None)
def test_sorted_path_matches_schoolbook(products):
    """Single products, sums, and products of three and four factors, cancellation to zero included."""
    expected = _schoolbook_sum(products)
    out = _sorted(products)
    assert out.terms == expected
    assert all(out.terms.values())
    assert sum_of_products(products).terms == expected


@given(st.integers(1, 2**20), st.integers(-2, 2), st.integers(0, 2**62), st.integers(0, 2**62))
@settings(max_examples=100, deadline=None)
def test_sorted_path_at_the_slot_limit(side, offset, cut_s, cut_t):
    """A box of side x (about 2^61 / side) slots, within two of 2^61: the sorted
    path takes it below 2^61 slots and the kernel declines it at or above."""
    other = -(-(2**61) // side) + offset
    slots = side * other
    ra, ua = cut_s % side, cut_t % other
    rb, ub = side - 1 - ra, other - 1 - ua
    assume(max(ua, ub) < polynomials._EXP_LIMIT)
    a = LaurentPoly({(0,) * NVARS: 3, (ra,) + (0,) * (NVARS - 1): -2, (0, ua) + (0,) * (NVARS - 2): 5})
    b = LaurentPoly({(0,) * NVARS: 7, (rb, ub) + (0,) * (NVARS - 2): 1, (0, ub) + (0,) * (NVARS - 2): -4})
    assert _box_slots([(a, b)]) == slots
    if slots < 2**61:
        assert _sorted([(a, b)]).terms == _schoolbook_product(a.terms, b.terms)
    else:
        assert _kronecker_sum([(a, b)]) is None
    assert (a * b).terms == _schoolbook_product(a.terms, b.terms)


@given(st.integers(2, 8), st.integers(1, 2**31), st.integers(-3, 3), st.lists(st.sampled_from([1, -1]), min_size=16, max_size=16))
@settings(max_examples=200, deadline=None)
def test_sorted_path_at_the_int64_coefficient_bound(m, top_a, offset, signs):
    """m terms each, whose coefficients are ±A and ±B, with A B m within three
    of 2^63 - 1 or of 2^63: when every sign agrees a product coefficient is
    exactly A B m.  Below 2^63 the sorted path takes the product; at or above
    it the kernel declines, and the product is still exact."""
    edge = 2**63 - 1 if offset < 0 else 2**63
    top_b = (edge - offset * top_a * m) // (top_a * m)
    assume(top_b > 0)
    if signs[-1] > 0:
        signs = [signs[0]] * 16
    a = LaurentPoly({(1000 * i, 0, i, 0, 0, 0, 0): signs[i] * top_a for i in range(m)})
    b = LaurentPoly({(1000 * j, 0, j, 0, 0, 0, 0): signs[8 + j] * top_b for j in range(m)})
    expected = _schoolbook_product(a.terms, b.terms)
    if top_a * top_b * m < 2**63:
        assert _sorted([(a, b)]).terms == expected
    else:
        assert _kronecker_sum([(a, b)]) is None
    assert (a * b).terms == expected


def test_a_sparse_product_forms_its_pairs_in_blocks():
    """10^6 term pairs that sum into 3,781 terms.  Formed at once, their keys and
    coefficients alone would take 16 bytes per pair, and sorting them about 40;
    formed in blocks of 2**18 pairs, the peak stays under 12, the operands' forms
    included (10.8 measured)."""
    a = LaurentPoly({(1000 * i, 0, j, 0, 0, 0, 0): 1 + i + j for i in range(10) for j in range(100)})
    b = LaurentPoly({(1000 * i, 0, j, 0, 0, 0, 0): 20 - i for i in range(1, 11) for j in range(100)})
    pairs = len(a.terms) * len(b.terms)
    tracemalloc.start()
    try:
        out = _sorted([(a, b)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == 10**6 and _size(out) == 3781
    assert peak < 12 * pairs, f"{peak / pairs:.1f} bytes per pair"
    assert out.subs_values({"s": 1, "q": 1}) == sum(a.terms.values()) * sum(b.terms.values())


def test_product_with_a_monomial_skips_the_kernel(monkeypatch):
    """A 1,000-term operand times one term, either way round, never packs."""
    big = (1 + S) ** 9 * (1 - T) ** 9 * qint(10)
    mono = LaurentPoly.monomial(-7, s=-2, q=3, t1=1)
    assert len(big.terms) == 1000
    calls = []
    monkeypatch.setattr(polynomials, "_kronecker_sum", lambda *args: calls.append(args))
    assert (big * mono).terms == _schoolbook_product(big.terms, mono.terms)
    assert (mono * big).terms == _schoolbook_product(mono.terms, big.terms)
    assert calls == []


def test_product_by_a_constant_only_scales(monkeypatch):
    big = (1 + S) ** 9 * (1 - T) ** 9 * qint(10)
    monkeypatch.setattr(polynomials, "_schoolbook_product", None)  # unreachable here
    monkeypatch.setattr(polynomials, "_kronecker_sum", None)
    for k in (-3, 1):
        constant = LaurentPoly.constant(k)
        assert (big * constant).terms == (constant * big).terms == {e: k * c for e, c in big.terms.items()}


def test_large_dense_product_takes_the_kernel(monkeypatch):
    a = (1 + S) ** 6 * (1 + T) * qint(20)
    b = (1 - S) ** 5 * (1 - T) * qint(30)
    assert len(a.terms) * len(b.terms) >= polynomials._KRONECKER_MIN_PAIRS
    monkeypatch.setattr(polynomials, "_schoolbook_product", None)  # unreachable here
    product = a * b
    assert product.terms == _schoolbook_product(a.terms, b.terms)


# ---------------------------------------------------------------------------
# sums of products in one shared box, and the byte-wide slots
# ---------------------------------------------------------------------------
@st.composite
def product_sums(draw):
    """Zero to four pairs for ``sum_of_products``.

    Every operand fills a box of one to four exponents in the same one to
    three variables.  The first operand of a pair sits anywhere; the second
    puts its pair's product within one step of a common origin, so the
    shared box stays dense.  Then, at random: one pair's second operand
    becomes a single term; a pair spread 1000 apart in a spread variable
    makes the box too sparse to pack; and every pair is repeated
    with its first operand negated, so the sum cancels to zero.
    """
    spread = draw(st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=3, unique=True))
    origin = draw(st.lists(st.integers(-5, 5), min_size=NVARS, max_size=NVARS))

    def operand(offset, most):
        sizes = [draw(st.integers(1, most)) for _ in spread]
        terms = {}
        for point in range(math.prod(sizes)):
            exp = list(offset)
            for var, size in zip(spread, sizes):
                point, digit = divmod(point, size)
                exp[var] += digit
            terms[tuple(exp)] = draw(coefficients)
        return LaurentPoly(terms)

    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        offset = draw(st.lists(st.integers(-5, 5), min_size=NVARS, max_size=NVARS))
        jitter = [draw(st.integers(0, 1)) if var in spread else 0 for var in range(NVARS)]
        shifted = [o - a + j for o, a, j in zip(origin, offset, jitter)]
        pairs.append((operand(offset, 4), operand(shifted, 4)))
    if pairs and draw(st.booleans()):
        a, b = pairs[0]
        pairs[0] = (a, LaurentPoly({next(iter(b.terms)): draw(coefficients)}))
    if pairs and draw(st.booleans()):
        far = LaurentPoly.variable(VARIABLES[spread[0]], 1000)
        pairs.append((pairs[0][0], (1 + far) * pairs[0][1]))
    if draw(st.booleans()):
        pairs += [(-a, b) for a, b in pairs]
    return pairs


def _schoolbook_sum(products):
    folded = (LaurentPoly(reduce(_schoolbook_product, (f.terms for f in p))) for p in products)
    return sum(folded, LaurentPoly.zero()).terms


def _kernel_sum(products):
    out = _kronecker_sum(products)
    return None if out is None else out.terms


@given(product_sums())
@settings(max_examples=300, deadline=None)
def test_sum_of_products_matches_schoolbook(pairs):
    expected = _schoolbook_sum(pairs)
    out = _kernel_sum(pairs)
    assert out is None or out == expected  # None: a sparse box with coefficients past int64
    assert out is None or all(out.values())
    assert sum_of_products(pairs).terms == expected


def test_sum_of_products_takes_one_kernel_call_or_the_operators(monkeypatch):
    """A recurrence-shaped sum packs once, as pairs or with its block factors
    applied by shifted adds; a sparse one takes one call on the sorted path;
    one whose box reaches 2^61 slots multiplies product by product."""
    pairs = [((1 - S) ** k * (1 + T) * qint(10 + k), (1 + S * Q) ** (6 - k) * qint(20)) for k in range(6)]
    products = [(qint(10 + k), (1 + S * Q) ** (6 - k) * qint(20), (1 - S) ** k, 1 + T) for k in range(6)]
    for summands in (pairs, products):
        assert sum(len(a.terms) * len(b.terms) for a, b, *_ in summands) >= polynomials._KRONECKER_MIN_PAIRS
    expected = _schoolbook_sum(pairs)
    assert _schoolbook_sum(products) == expected
    calls = []
    kernel = polynomials._kronecker_sum
    monkeypatch.setattr(polynomials, "_kronecker_sum", lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(polynomials, "_schoolbook_product", None)  # unreachable here
    assert sum_of_products(pairs).terms == expected
    assert sum_of_products(products).terms == expected
    assert len(calls) == 2

    def widened(far):
        return [pairs + [(far, pairs[0][1])], products + [(qint(3), pairs[0][1], 1 - T, far)]]

    for summands in widened(LaurentPoly.monomial(1, s=10**6)):
        calls.clear()
        expected = _schoolbook_sum(summands)
        assert sum_of_products(summands).terms == expected
        assert len(calls) == 1 and _sorted(summands).terms == expected
    monkeypatch.undo()
    for summands in widened(LaurentPoly.monomial(1, s=2**60)):
        assert _kernel_sum(summands) is None
        assert sum_of_products(summands).terms == _schoolbook_sum(summands)
    assert sum_of_products([]) == LaurentPoly.zero()


@st.composite
def multi_factor_sums(draw):
    """Zero to four products of two to four factors for ``sum_of_products``.

    The first two factors of each product are a pair of ``product_sums``.
    Each further factor is a single term, or fills a box of one or two
    exponents in each variable the pairs spread over.  All further factors
    of the sum sit at one offset of -2 to 2 in those variables, so their
    exponents may be negative while the shared box stays dense, and their
    coefficients, like the pairs', reach beyond 2**62.  At random, every
    product is then repeated with its first factor negated, so the sum
    cancels to zero.
    """
    pairs = draw(product_sums())
    spread = [var for var in range(NVARS) if any(len({e[var] for e in f.terms}) > 1 for p in pairs for f in p)]
    offset = [draw(st.integers(-2, 2)) if var in spread else 0 for var in range(NVARS)]
    products = []
    for a, b in pairs:
        more = []
        for _ in range(draw(st.integers(0, 2))):
            sides = [draw(st.integers(1, 2)) for _ in spread] if draw(st.booleans()) else [1] * len(spread)
            terms = {}
            for point in range(math.prod(sides)):
                exp = list(offset)
                for var, side in zip(spread, sides):
                    point, digit = divmod(point, side)
                    exp[var] += digit
                terms[tuple(exp)] = draw(coefficients)
            more.append(LaurentPoly(terms))
        products.append((a, b, *more))
    if draw(st.booleans()):
        products += [(-a, *rest) for a, *rest in products]
    return products


@given(multi_factor_sums())
@settings(max_examples=300, deadline=None)
def test_multi_factor_sums_match_schoolbook(products):
    expected = _schoolbook_sum(products)
    out = _kernel_sum(products)
    assert out is None or out == expected  # None: a sparse box with coefficients past int64
    assert out is None or all(out.values())
    assert sum_of_products(products).terms == expected


@st.composite
def linked_sums(draw):
    """Products from ``multi_factor_sums`` and links for ``sum_of_products``.

    There is a link between each two products, or fewer (a missing link is
    1).  A link is a constant, or one to three terms in the variables the
    pairs spread over at offsets -2 to 2, so it may have negative exponents.
    At random one product gets a zero factor, and every product is followed
    by its copy with the first factor negated, the pair joined by a constant
    link c and the product scaled by c, so the sum cancels to zero.
    """
    products = draw(multi_factor_sums())
    spread = [var for var in range(NVARS) if any(len({e[var] for e in f.terms}) > 1 for p in products for f in p)]

    def link():
        if draw(st.booleans()):
            return LaurentPoly.constant(draw(st.sampled_from([1, -1, 2, -3])))
        exps = [tuple(draw(st.integers(-2, 2)) if var in spread else 0 for var in range(NVARS))
                for _ in range(draw(st.integers(1, 3)))]
        return LaurentPoly({exp: draw(st.sampled_from([1, -1, 2])) for exp in exps})

    links = [link() for _ in range(draw(st.integers(0, max(len(products) - 1, 0))))]
    if products and draw(st.booleans()):
        k = draw(st.integers(0, len(products) - 1))
        products[k] = (products[k][0], LaurentPoly.zero(), *products[k][2:])
    if draw(st.booleans()):
        c = draw(st.sampled_from([1, -1, 2]))
        pairs = [((c * a, *rest), (-a, *rest)) for a, *rest in products]
        products = [p for pair in pairs for p in pair]
        padded = links + [LaurentPoly.one()] * (len(pairs) - len(links))
        links = [x for link in padded for x in (LaurentPoly.constant(c), link)]
    return products, links


def _schoolbook_horner(products, links):
    """The linked sum from the last product down: the sum so far times the link before it, plus the product."""
    out = {}
    for k in reversed(range(len(products))):
        if k < len(links):
            out = _schoolbook_product(out, links[k].terms)
        out = (LaurentPoly(out) + LaurentPoly(reduce(_schoolbook_product, (f.terms for f in products[k])))).terms
    return out


@given(linked_sums())
@settings(max_examples=200, deadline=None)
def test_linked_sums_match_the_schoolbook_horner_rule(drawn):
    products, links = drawn
    expected = _schoolbook_horner(products, links)
    out = _kronecker_sum(products, links[:max(len(products) - 1, 0)]) if all(map(all, products)) else None
    assert out is None or out.terms == expected  # None: a sparse box, which the kernel takes without links only
    assert out is None or all(out.terms.values())
    assert sum_of_products(products, links).terms == expected
    full = links + [LaurentPoly.one()] * (len(products) - 1 - len(links))
    assert sum_of_products(products, full + [Q, S]).terms == expected  # a link after the last product is not read


def test_a_linked_sum_takes_one_kernel_call_and_no_product_operator(monkeypatch):
    """A recurrence-shaped linked sum is one dense kernel call; a sparse one,
    or one below the pair gate, is taken by Horner's rule through the operators."""
    products = [(qint(10 + k), (1 + S * Q) ** (6 - k) * qint(20), S if k % 2 else T) for k in range(6)]
    links = [1 - T if k % 2 else 1 - S for k in range(5)]
    expected = _schoolbook_horner(products, links)
    calls = []
    kernel = polynomials._kronecker_sum
    monkeypatch.setattr(polynomials, "_kronecker_sum", lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(LaurentPoly, "__mul__", None)  # unreachable here
    assert sum_of_products(products, links).terms == expected
    assert len(calls) == 1
    monkeypatch.undo()
    far = [(qint(3), products[0][1], LaurentPoly.monomial(1, s=10**6))]
    assert _kronecker_sum(products + far, links) is None
    assert sum_of_products(products + far, links).terms == _schoolbook_horner(products + far, links)
    small = [(1 + S, 1 - T), (Q, 1 + Q), (T, T)]
    assert sum_of_products(small, [S - 1, 1 - S]) == (1 + S) * (1 - T) + (S - 1) * (Q + Q**2 + (1 - S) * T * T)


def test_the_recurrence_routes_apply_no_factor_coefficient_but_one(monkeypatch):
    """compare's B and D routes at rank 14 shift-add only the marks and links,
    whose coefficients are 1 and -1; no packed sum is multiplied by a binomial."""
    from artifact import recurrences

    seen = set()
    shifted = polynomials._shifted_sum
    monkeypatch.setattr(polynomials, "_shifted_sum",
                        lambda packed, bits, index, coefs: seen.update(coefs) or shifted(packed, bits, index, coefs))
    recurrences.recur_B.cache_clear()
    recurrences.recur_D.cache_clear()
    for family in "BD":
        recurrences.recurrence_poly(family, 14)
        recurrences.hyatt_plus(family, 14)
    assert seen == {1, -1}
    recurrences.recur_B.cache_clear()
    recurrences.recur_D.cache_clear()


@given(dense_pairs(count=3), st.sampled_from([1, -1, 2**64 + 1, -(2**130)]))
@settings(max_examples=150, deadline=None)
def test_kernel_results_are_operands_without_being_decoded(operands, scale):
    """(a b) c, and a sum whose factors are kernel results, against the
    schoolbook fold; the kernel results are packed from their forms alone.

    a and b take coefficients of one sign each, so a b fills its whole box
    and the kernel takes (a b) c as well (its box has under 4.9 slots per
    operand term); c keeps its signs.  The scale makes slots wider than 8
    bytes, and at 1 the sum cancels to zero.
    """
    a, b, c = operands
    a = LaurentPoly({e: scale * abs(v) for e, v in a.terms.items()})
    b = LaurentPoly({e: abs(v) for e, v in b.terms.items()})
    ab, ba = _kronecker_sum([(a, b)]), _kronecker_sum([(b, a)])
    abc = _kronecker_sum([(ab, c)])
    total = _kronecker_sum([(ab, c), (c, ba, LaurentPoly.constant(-scale))])
    assert None not in (ab, ba, abc, total)
    assert not is_decoded(ab) and not is_decoded(ba)
    assert _kronecker_sum([(a, c)]) is not None and a._form is None  # a's form is built for the product, not kept
    expected = reduce(_schoolbook_product, (a.terms, b.terms, c.terms))
    assert abc.terms == expected
    assert total.terms == {e: v * (1 - scale) for e, v in expected.items() if scale != 1}
    assert_form_agrees(ab)
    assert ab.terms == ba.terms == _schoolbook_product(a.terms, b.terms)
    assert (ab * c).terms == expected  # and through the operator, once ab is decoded


def test_further_factors_are_bounded_by_their_coefficient_sums(monkeypatch):
    """A dense 25 x 30 block of ones in s and q times [30]_q has coefficients
    up to 30, which fit in one byte with the guard bits; four further factors
    1 + s multiply them by up to 16, which needs two.  Bounding the further
    factors by their largest coefficient would keep one byte and decode wrong.
    """
    block = LaurentPoly({(i, 0, j, 0, 0, 0, 0): 1 for i in range(25) for j in range(30)})
    products = [(block, qint(30), 1 + S, 1 + S, 1 + S, 1 + S)]
    expected = _schoolbook_sum(products)
    assert max(expected.values()) == 30 * 16
    assert _kernel_sum(products) == expected
    monkeypatch.setattr(polynomials, "_schoolbook_product", None)  # the kernel takes the sum
    assert sum_of_products(products).terms == expected


_INT64_EDGES = [-(2**63), 2**62 - 1, -(2**62 - 1), 2**62, -(2**62), 1, -1]


@given(st.data(), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_pack_takes_no_borrow_pass_without_a_negative_coefficient(data, width):
    """Nonnegative coefficients pack to the exact sum with no borrow pass, and
    to what the balanced path gives the same terms beside one -1 in a slot
    above them; mixed signs pack to the exact sum through the borrow pass.
    Coefficients reach ±2**62 where the slot holds them."""
    most = min(2 ** (8 * width - 2) - 1, 2**62)
    magnitudes = st.one_of(st.integers(0, 3), st.sampled_from([most, most - 1]), st.integers(0, most))
    size = data.draw(st.integers(1, 12))
    index = np.array(data.draw(st.lists(st.integers(0, 40), min_size=size, max_size=size, unique=True)), dtype=np.int64)
    coefs = data.draw(st.lists(magnitudes, min_size=size, max_size=size))
    assume(any(coefs))
    bits = 8 * width

    def exact(index, coefs):
        return sum(c << (bits * int(k)) for c, k in zip(coefs, index))

    packed = polynomials._pack(index, coefs, width)
    assert packed == exact(index, coefs)
    above = int(index.max()) + 1 + data.draw(st.integers(0, 3))
    balanced = polynomials._pack(np.append(index, above), coefs + [-1], width)
    assert balanced + (1 << (bits * above)) == packed
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    mixed = [s * c for s, c in zip(signs, coefs)]
    assume(any(mixed))
    assert polynomials._pack(index, mixed, width) == exact(index, mixed)


@pytest.mark.parametrize("width", range(1, 18))
@pytest.mark.parametrize("int64_min", [False, True])
def test_pack_round_trips_at_every_slot_width(width, int64_min):
    """Every coefficient a ``width``-byte slot holds with its guard bits comes back.

    Without -2**63 every coefficient lies within ±2**62, so NumPy packs them;
    with it, the per-term loop does.
    """
    most = 2 ** (8 * width - 2) - 1
    edges = [c for c in _INT64_EDGES if abs(c) <= most and (int64_min or c != -(2**63))]
    coefs = edges + [most, -most] + [-c for c in reversed(edges)] + [-most, most, -1]
    index = np.array([3 * i // 2 for i in range(len(coefs))], dtype=np.int64)  # some slots stay empty
    packed = polynomials._pack(index, coefs, width)
    assert packed == sum(c * 2 ** (8 * width * int(k)) for c, k in zip(coefs, index))
    nslots = int(index.max()) + 1
    buf = packed.to_bytes(width * nslots, "little", signed=True)
    out = polynomials._unpack(buf, width, [nslots] + [1] * (NVARS - 1), np.zeros(NVARS, dtype=np.int64)).terms
    assert out == {(int(k),) + (0,) * (NVARS - 1): c for c, k in zip(coefs, index)}


# ---------------------------------------------------------------------------
# pinned arithmetic values
# ---------------------------------------------------------------------------
def test_binomial_square():
    assert (1 + Q) * (1 + Q) == 1 + 2 * Q + Q**2


def test_zero_annihilates():
    assert (S + T * Q) * LaurentPoly.zero() == LaurentPoly.zero()


def test_one_minus_product_expansion():
    assert one_minus("s") * one_minus("t") == 1 - S - T + S * T


def test_reciprocal_flips_exponents():
    p = LaurentPoly.monomial(1, s=2, t=1)
    assert p.substitute("s", "reciprocal") == LaurentPoly.monomial(1, s=-2, t=1)


def test_negation_substitution():
    assert (1 + S * Q).substitute("q", "negation") == 1 - S * Q


def test_value_substitution_keeps_exactness():
    p = (1 + S * Q) ** 3
    assert p.subs_values({"s": 1, "q": 1}) == 8


def test_rename_variables_merges_terms():
    p = S * Q + T * Q
    assert p.rename_variables({"s": "t"}) == 2 * T * Q


def test_coefficient_lookup():
    p = 1 + 2 * S * Q + S * Q**2
    assert p.coefficient(s=1, q=1) == 2
    assert p.coefficient() == 1
    assert p.coefficient(t=5) == 0


def test_qint_qfact_qbinom_basics():
    assert qint(3) == 1 + Q + Q**2
    assert qfact(3) == (1 + Q) * (1 + Q + Q**2)
    assert qbinom(2, 1) == 1 + Q
    for n in range(7):
        assert qbinom(n, 0) == LaurentPoly.one()
        assert qbinom(n, n) == LaurentPoly.one()


def test_qbinom_out_of_range_is_zero():
    assert qbinom(3, 5) == LaurentPoly.zero()


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60)
def test_qbinom_pascal_recurrence(n, k):
    """[n choose k] = [n-1 choose k-1] + q^k [n-1 choose k] for n >= 1."""
    if n == 0 or k == 0 or k > n:
        return
    lhs = qbinom(n, k)
    rhs = qbinom(n - 1, k - 1) + LaurentPoly.monomial(1, q=k) * qbinom(n - 1, k)
    assert lhs == rhs


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=60)
def test_qbinom_counts_at_q_one(n, k):
    assert qbinom(n, k).subs_values({"q": 1}) == (math.comb(n, k) if k <= n else 0)


def test_poincare_pinned_values():
    assert poincare("B", 1) == 1 + Q
    assert poincare("B", 2) == 1 + 2 * Q + 2 * Q**2 + 2 * Q**3 + Q**4
    assert poincare("D", 1) == LaurentPoly.one()


def test_poincare_products():
    """The closed products: prod [i]_q (A), prod [2i]_q (B), [n]_q prod [2i]_q (D)."""
    for n in range(9):
        expected_a = LaurentPoly.one()
        for i in range(1, n + 1):
            expected_a = expected_a * qint(i)
        assert poincare("A", n) == expected_a

        expected_b = LaurentPoly.one()
        for i in range(1, n + 1):
            expected_b = expected_b * qint(2 * i)
        assert poincare("B", n) == expected_b

        if n >= 1:
            expected_d = qint(n)
            for i in range(1, n):
                expected_d = expected_d * qint(2 * i)
            assert poincare("D", n) == expected_d


def test_poincare_group_orders_at_q_one():
    for n in range(9):
        assert poincare("A", n).subs_values({"q": 1}) == math.factorial(n)
        assert poincare("B", n).subs_values({"q": 1}) == 2**n * math.factorial(n)
        if n >= 1:
            order = 2 ** (n - 1) * math.factorial(n)
            assert poincare("D", n).subs_values({"q": 1}) == order


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------
def test_cyclotomic_polynomials_multiply_to_q_to_the_n_minus_one():
    for n in range(1, 31):
        product = LaurentPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == LaurentPoly.variable("q", n) - 1, n


def test_cyclotomic_pinned_values():
    assert cyclotomic(1) == Q - 1
    assert cyclotomic(6) == 1 - Q + Q * Q
    assert cyclotomic(12) == 1 - Q**2 + Q**4
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert cyclotomic(105).coefficient(q=7) == -2
    assert cyclotomic(105).coefficient(q=41) == -2
    with pytest.raises(ValueError):
        cyclotomic(0)


@pytest.mark.parametrize("n", range(17))
def test_q_factorials_and_poincare_polynomials_are_cyclotomic(n):
    """Each family's Φ_d multiplicities, taken from its q-integers, are the
    cyclotomic split of its Poincaré polynomial, and expand back to it."""
    for family in "ABD":
        mult = dict(poincare_factors(family, n))
        assert cyclotomic_factors_by_division(poincare(family, n)) == (1, mult, LaurentPoly.one())
        back = LaurentPoly.one()
        for d, k in mult.items():
            back = back * cyclotomic(d) ** k
        assert back == poincare(family, n)


def test_str_is_graded_then_lexicographic():
    p = S * Q + T * Q + LaurentPoly.one() + S * T * Q**4
    assert str(p) == "1 + t*q + s*q + s*t*q^4"


def test_str_of_zero():
    assert str(LaurentPoly.zero()) == "0"


def test_monomial_name_orders_variables():
    assert monomial_name((1, 0, 2, 0, 0, 0, 0)) == "s*q^2"
    assert monomial_name((0, 0, 0, 0, 0, 0, 0)) == "1"


def test_first_difference_reports_smallest_monomial():
    a = 1 + S * Q
    b = 1 + 2 * S * Q + Q**5
    exp, lhs_c, rhs_c = first_difference(a, b)
    assert monomial_name(exp) == "s*q"
    assert (lhs_c, rhs_c) == (1, 2)


def test_qfact_str_frozen():
    assert str(qfact(3)) == "1 + 2*q + 2*q^2 + q^3"


def test_bad_substitution_mode_rejected():
    with pytest.raises(ValueError):
        S.substitute("s", "no-such-mode")


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.variable("z")
