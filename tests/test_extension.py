"""Square-root extension elements and q-denominator fractions."""

import math
from functools import reduce
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from artifact.extension import (
    GEN_I,
    GEN_LITTLE_M,
    GEN_M,
    GEN_ROOT_S,
    GEN_ROOT_S0,
    GEN_ROOT_S1,
    ExtElement,
    QFraction,
    _expand,
)
from artifact.polynomials import LaurentPoly, cyclotomic, one_minus, poincare, poincare_factors, qfact, qint
from artifact.series import TruncatedSeries, first_residual
from oracles import (
    assert_same_fraction,
    cyclotomic_factors_by_division,
    first_residual_loop,
    fold_sum,
    series_product,
)

S = LaurentPoly.variable("s")
T = LaurentPoly.variable("t")
Q = LaurentPoly.variable("q")


def test_generator_squares():
    assert GEN_M * GEN_M == ExtElement.coerce(one_minus("s") * one_minus("t"))
    assert GEN_I * GEN_I == ExtElement.coerce(-1)
    m_sq = (LaurentPoly.variable("s0") - LaurentPoly.variable("t0")) * (
        LaurentPoly.variable("s1") - LaurentPoly.variable("t1")
    )
    assert GEN_LITTLE_M * GEN_LITTLE_M == ExtElement.coerce(m_sq)
    assert GEN_ROOT_S * GEN_ROOT_S == ExtElement.coerce(S)
    assert GEN_ROOT_S0 * GEN_ROOT_S0 == ExtElement.coerce(LaurentPoly.variable("s0"))
    assert GEN_ROOT_S1 * GEN_ROOT_S1 == ExtElement.coerce(LaurentPoly.variable("s1"))


def test_difference_of_squares_eliminates_generator():
    a = ExtElement.coerce(1 + S * Q)
    b = ExtElement.coerce(T)
    product = (a + b * GEN_M) * (a - b * GEN_M)
    expected = a * a - (b * b) * ExtElement.coerce(one_minus("s") * one_minus("t"))
    assert product == expected


def test_cancelled_parts_are_not_stored():
    x = ExtElement.coerce(1 + S * Q) + ExtElement.coerce(T) * GEN_M
    assert (x + (-x)).parts == {}
    assert (GEN_M * GEN_M - one_minus("s") * one_minus("t")).parts == {}
    assert set(((1 + GEN_M) * (1 - GEN_M)).parts) == {0}  # the M parts cancel inside the product


def test_mixed_generator_products_commute():
    x = GEN_M * GEN_I
    y = GEN_I * GEN_M
    assert x == y
    assert x * x == ExtElement.coerce(-1 * one_minus("s") * one_minus("t"))


small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2) for _ in range(7)]),
    st.integers(-5, 5),
    max_size=3,
).map(LaurentPoly)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=100)
def test_ext_distributive_law(a, b, c):
    ea = ExtElement.coerce(a) + ExtElement.coerce(b) * GEN_M
    eb = ExtElement.coerce(b) + ExtElement.coerce(c) * GEN_I
    ec = ExtElement.coerce(c)
    assert ea * (eb + ec) == ea * eb + ea * ec


@given(small_polys, small_polys)
@settings(max_examples=100)
def test_ext_mul_commutes(a, b):
    ea = ExtElement.coerce(a) + ExtElement.coerce(b) * GEN_M * GEN_I
    eb = ExtElement.coerce(b) + ExtElement.coerce(a) * GEN_ROOT_S
    assert ea * eb == eb * ea


def test_divide_by_generator_exact():
    elem = ExtElement.coerce(1 + S) * GEN_M
    assert elem.divide_by_generator("M") == ExtElement.coerce(1 + S)


def test_divide_by_generator_zero_is_vacuous():
    assert ExtElement.coerce(0).divide_by_generator("M") == ExtElement.coerce(0)


def test_divide_by_generator_rejects_free_part():
    with pytest.raises(ValueError):
        (ExtElement.coerce(1) + GEN_M).divide_by_generator("M")


def test_ext_substitution_reaches_all_parts():
    elem = ExtElement.coerce(S * Q) + ExtElement.coerce(T * Q) * GEN_I
    assert elem.at_q(-1) == ExtElement.coerce(-1 * S) + ExtElement.coerce(-1 * T) * GEN_I


def test_foreign_types_are_rejected_not_crashed():
    with pytest.raises(TypeError):
        ExtElement.coerce("not a ring element")
    assert GEN_M.__add__("junk") == NotImplemented


def test_rejected_operands_are_named_by_type_not_rendered(monkeypatch):
    """A series operand falls through to its own __rmul__ without being printed."""
    s = TruncatedSeries(2, [1, Q, S * T])

    def no_render(self):
        raise AssertionError("the series was rendered")

    monkeypatch.setattr(TruncatedSeries, "__repr__", no_render)
    monkeypatch.setattr(TruncatedSeries, "__str__", no_render)
    assert GEN_M * s == s * GEN_M
    with pytest.raises(TypeError, match="cannot interpret a object as"):
        ExtElement.coerce(object())


# ---------------------------------------------------------------------------
# fractions over factored denominators in q
# ---------------------------------------------------------------------------
def factored(poly: LaurentPoly) -> frozenset:
    """The Φ_d multiplicities of a product of cyclotomic polynomials, found by trial division."""
    content, mult, rest = cyclotomic_factors_by_division(poly)
    assert (content, rest) == (1, LaurentPoly.one())
    return frozenset(mult.items())


def over(frac, num, den):
    """num over den under the fraction class ``frac``; a pair (c, multiplicities)
    stands for the integer c times a factored product."""
    if isinstance(den, tuple):
        return frac(num, den[0]) * frac(1, den[1])
    return frac(num, den)


def test_qfraction_cross_multiplied_equality():
    half_ish = QFraction(1 + Q, factored(qint(2)))  # (1+q)/(1+q)
    assert half_ish == QFraction(1, 1)
    assert QFraction(S * (1 + Q), factored(1 + Q)) == QFraction(S, 1)


@given(small_polys, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=100)
def test_qfraction_common_factor_cancels(a, i, j):
    num = ExtElement.coerce(a)
    assert QFraction(num * qint(i), factored(qint(j) * qint(i))) == QFraction(num, factored(qint(j)))


def test_qfraction_denominator_must_be_q_only():
    with pytest.raises(ValueError):
        QFraction(1, S)


def test_qfraction_denominator_must_be_nonzero():
    with pytest.raises(ValueError):
        QFraction(1, 0)


def test_qfraction_arithmetic():
    a = QFraction(1, factored(qint(2)))
    b = QFraction(Q, factored(qint(2)))
    assert a + b == QFraction(1 + Q, factored(1 + Q)) == QFraction(1, 1)
    assert a * b == QFraction(Q, factored((1 + Q) ** 2))
    assert a - a == QFraction(0, 1)


def test_qfraction_substitute_value():
    frac = QFraction(S * (1 + Q), factored(qint(3)))
    assert frac.at_q(1) == QFraction(2 * S, 3)
    assert frac.at_q(-1).is_zero
    at_two = frac.at_q(2)  # 3s over [3] at q = 2, which is 7
    assert (at_two.num, at_two.content, at_two.fac, at_two.path) == (ExtElement.coerce(3 * S), 7, frozenset(), frozenset())
    with pytest.raises(ValueError):
        QFraction(S, factored(1 + Q)).at_q(-1)  # the denominator vanishes there


def test_qfraction_divide_by_generator():
    frac = QFraction(ExtElement.coerce(T) * GEN_I, factored(qint(2)))
    assert frac.divide_by_generator("i") == QFraction(T, factored(qint(2)))


def test_qfraction_integer_scalars_coerce():
    assert QFraction.coerce(3) == QFraction(3, 1)
    assert QFraction.coerce(Q) == QFraction(Q, 1)
    assert QFraction(6, 4) == QFraction(3, 2)


def test_qfraction_keeps_its_denominator_factored():
    frac = over(QFraction, S, (2, poincare_factors("B", 2))) + QFraction(T, factored(qint(6)))
    assert frac.content == 2
    assert dict(frac.fac) == {2: 2, 3: 1, 4: 1, 6: 1}  # lcm of [2][4] and [6]
    assert dict(frac.path) == {2: 3, 3: 1, 4: 1, 6: 1}  # [2][4] * [6]
    assert frac.den == 2 * _expand(frac.fac)
    assert frac.den.coefficient(q=8) == 2


def test_a_polynomial_denominator_is_taken_as_its_cyclotomic_factors():
    """A polynomial denominator is split into its content and Φ_d multiplicities;
    one that is no such product is refused, so no fraction holds anything else."""
    taken = (
        (qint(4), S, 1, factored(qint(4))),
        (LaurentPoly.constant(6), S, 6, frozenset()),
        (-3 * poincare("B", 2), -S, 3, poincare_factors("B", 2)),  # the sign moves to the numerator
    )
    for den, num, content, fac in taken:
        frac = QFraction(S, den)
        assert (frac.num, frac.content, frac.fac, frac.path) == (ExtElement.coerce(num), content, fac, fac)
    # Φ_1 = q - 1 is no factor that the split takes, so 1 - q is refused too
    laurent = 2 + 2 * LaurentPoly.variable("q", -1)
    for den in ((1 + 2 * Q) * (1 + Q), Q * qint(3), 1 - Q, laurent, LaurentPoly.zero()):
        with pytest.raises(ValueError):
            QFraction(S, den)
    negative = QFraction(S, -6)
    assert (negative.num, negative.content, negative.fac) == (ExtElement.coerce(-S), 6, frozenset())
    assert not QFraction(S, poincare_factors("D", 1)).fac


# ---------------------------------------------------------------------------
# the cross-multiplying fraction, kept as the reference oracle
# ---------------------------------------------------------------------------
def _is_q_only(poly: LaurentPoly) -> bool:
    return all(e == 0 for exp in poly.terms for i, e in enumerate(exp) if i != 2)


class CrossQFraction:
    """The fraction that factored denominators replaced: sums cross-multiply."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = ExtElement.coerce(num)
        if isinstance(den, frozenset):  # Φ_d multiplicities
            den = reduce(mul, (cyclotomic(d) ** k for d, k in den), LaurentPoly.one())
        if isinstance(den, int):
            den = LaurentPoly.constant(den)
        if den.is_zero or not _is_q_only(den):
            raise ValueError("denominator must be a nonzero q-only polynomial")
        if den.coefficient() == 0:
            raise ValueError("denominator constant term must be nonzero")
        if den.coefficient() < 0:
            den = -den
            num = -num
        coefs = [c for p in num.parts.values() for c in p.terms.values()]
        coefs.extend(den.terms.values())
        content = math.gcd(*coefs)
        if content > 1:
            num = ExtElement(
                {
                    m: LaurentPoly({e: c // content for e, c in p.terms.items()})
                    for m, p in num.parts.items()
                }
            )
            den = LaurentPoly({e: c // content for e, c in den.terms.items()})
        self.num = num
        self.den = den

    @staticmethod
    def coerce(value):
        if isinstance(value, CrossQFraction):
            return value
        return CrossQFraction(ExtElement.coerce(value))

    def __eq__(self, other):
        other = CrossQFraction.coerce(other)
        return (self.num * other.den) == (other.num * self.den)

    def __neg__(self):
        return CrossQFraction(-self.num, self.den)

    def __add__(self, other):
        other = CrossQFraction.coerce(other)
        if self.den == other.den:
            return CrossQFraction(self.num + other.num, self.den)
        return CrossQFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-CrossQFraction.coerce(other))

    def __mul__(self, other):
        other = CrossQFraction.coerce(other)
        return CrossQFraction(self.num * other.num, self.den * other.den)

    def divide_by_generator(self, name):
        return CrossQFraction(self.num.divide_by_generator(name), self.den)

    def at_q(self, value):
        return CrossQFraction(self.num.at_q(value), self.den.substitute("q", "value", value))

    def __str__(self):
        if self.den == LaurentPoly.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


# integers, with a sign, and factored cyclotomic products, alone and times
# contents, with a sign
DENOMINATORS = (
    [1, 2, 3, 6, -2]
    + [factored(qint(k)) for k in (2, 3, 4)]
    + [factored(qfact(k)) for k in (2, 3, 4)]
    + [factored(1 + Q**i) for i in (1, 2, 3)]
    + [poincare_factors(family, n) for family in "BD" for n in (2, 3)]
    + [(2, factored(qint(4))), (3, poincare_factors("B", 2)), (-1, factored(1 + Q))]
)

UNARY = ("neg", "divide_rs", "q_at_one")
BINARY = ("add", "sub", "mul")


def trees_over(indices, max_leaves: int = 6):
    """Expression trees whose leaves sit over the denominators at these indices."""
    leaves = st.tuples(small_polys, st.sampled_from(indices), st.sampled_from([None, "i", "M"]))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(UNARY), inner),
            st.tuples(st.sampled_from(BINARY), inner, inner),
        ),
        max_leaves=max_leaves,
    )


trees = trees_over(range(len(DENOMINATORS)))


def evaluate(tree, frac):
    """The value of an expression tree under the fraction class ``frac``."""
    if tree[0] not in UNARY + BINARY:
        poly, den, gen = tree
        num = ExtElement.coerce(poly)
        if gen is not None:
            num = num * ExtElement.generator(gen) + ExtElement.coerce(Q)
        return over(frac, num, DENOMINATORS[den])
    args = [evaluate(arg, frac) for arg in tree[1:]]
    op = tree[0]
    if op == "neg":
        return -args[0]
    if op == "divide_rs":  # no leaf carries rs, so every component of the product does
        return (args[0] * GEN_ROOT_S).divide_by_generator("rs")
    if op == "q_at_one":
        return args[0].at_q(1)
    if op == "add":
        return args[0] + args[1]
    if op == "sub":
        return args[0] - args[1]
    return args[0] * args[1]


@given(trees, trees)
@settings(max_examples=300, deadline=None)
def test_factored_fractions_print_and_compare_as_cross_multiplication(a, b):
    x, y = evaluate(a, QFraction), evaluate(b, QFraction)
    ox, oy = evaluate(a, CrossQFraction), evaluate(b, CrossQFraction)
    assert str(x) == str(ox)
    assert x.num * ox.den == ox.num * x.den
    assert x.den == x.content * _expand(x.fac)
    assert (x == y) == (ox == oy)
    assert (x + y) - y == x


# ---------------------------------------------------------------------------
# one sum over the lcm, against the pairwise fold
# ---------------------------------------------------------------------------
def _kind(den) -> str:
    frac = over(QFraction, 1, den)
    return "integer" if not frac.fac else "cyclotomic" if frac.content == 1 else "content"


# Over cyclotomic denominators with content 1, or over integers alone, the sum
# takes one polynomial sum per component; any other mix is the fold itself.
# q_at_one still mixes the kinds: it sends a cyclotomic denominator to an integer.
KINDS = [
    list(range(len(DENOMINATORS))),
    [i for i, den in enumerate(DENOMINATORS) if _kind(den) == "cyclotomic"],
    [i for i, den in enumerate(DENOMINATORS) if _kind(den) == "integer"],
]
pair_lists = st.sampled_from(KINDS).flatmap(
    lambda kind: st.lists(st.tuples(trees_over(kind, 4), trees_over(kind, 4)), max_size=4)
)


def test_denominator_kinds_cover_contents_and_cyclotomic_products():
    assert {_kind(den) for den in DENOMINATORS} == {"integer", "cyclotomic", "content"}
    assert all(len(kind) > 3 for kind in KINDS)


@given(pair_lists, st.booleans())
@settings(max_examples=150, deadline=None)
def test_sum_of_products_equals_the_pairwise_fold(pair_trees, twice):
    """``twice`` repeats the first pair in place, so that a product's path meets itself."""
    pairs = [(evaluate(a, QFraction), evaluate(b, QFraction)) for a, b in pair_trees]
    pairs[:1] *= 1 + twice
    assert_same_fraction(QFraction.sum_of_products(pairs), fold_sum(pairs))


def test_sum_of_products_of_nothing_and_of_zeros():
    assert_same_fraction(QFraction.sum_of_products([]), QFraction.zero())
    zero_over = QFraction(0, poincare_factors("B", 3))  # zero, yet over a factored denominator
    pairs = [(zero_over, QFraction(S, factored(qint(4)))), (QFraction(T, factored(qint(6))), zero_over)]
    got = QFraction.sum_of_products(pairs)
    assert got.is_zero and dict(got.fac) == {2: 4, 3: 2, 4: 2, 6: 2}
    assert_same_fraction(got, fold_sum(pairs))


def test_sum_of_products_keeps_a_path_that_repeats():
    one, b2, q6 = QFraction.one(), poincare_factors("B", 2), factored(qint(6))
    pairs = [(QFraction(S, b2), one), (QFraction(T, b2), one), (one, QFraction(S, q6))]
    got = QFraction.sum_of_products(pairs)
    assert dict(got.path) == {2: 3, 3: 1, 4: 1, 6: 1}  # [2][4], kept at the repeat, then times [6]
    assert_same_fraction(got, fold_sum(pairs))


def test_sum_of_products_folds_where_contents_or_rests_decide_the_path():
    """Equal paths over contents 2 and 1: the fold adds them, as cross-multiplication does."""
    one, q4 = QFraction.one(), factored(qint(4))
    halves = [(over(QFraction, S, (2, q4)), one), (QFraction(T, q4), one)]
    got = QFraction.sum_of_products(halves)
    assert_same_fraction(got, fold_sum(halves))
    assert dict(got.path) == {2: 2, 4: 2}
    assert str(got) == str(over(CrossQFraction, S, (2, q4)) + CrossQFraction(T, q4))


series_cases = st.tuples(st.integers(0, 3), st.sampled_from(KINDS)).flatmap(
    lambda case: st.lists(
        st.lists(trees_over(case[1], 3), min_size=case[0] + 1, max_size=case[0] + 1), min_size=3, max_size=3
    )
)


@given(series_cases, st.booleans())
@settings(max_examples=100, deadline=None)
def test_series_products_and_residuals_equal_their_pairwise_loops(coefficient_trees, exact):
    lhs, den, num = (
        TruncatedSeries(len(trees) - 1, [evaluate(tree, QFraction) for tree in trees]) for trees in coefficient_trees
    )
    product, want = lhs * den, series_product(lhs, den)
    for got, ref in zip(product.coeffs, want.coeffs):
        assert_same_fraction(got, ref)
    if exact:  # residual zero: every coefficient cancels
        num = want
    assert first_residual(lhs, num, den) == first_residual_loop(lhs, num, den)
