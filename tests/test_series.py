"""Truncated series families, their algebra, and identity verification."""

import pytest

from artifact import extension, polynomials, registry
from artifact.extension import ExtElement, GEN_I, GEN_M, QFraction
from artifact.polynomials import LaurentPoly, one_minus, poincare, qfact
from artifact.series import (
    DEFAULT_ORDER,
    SERIES_FAMILIES,
    TruncatedSeries,
    first_residual,
    series_from_polys,
    series_make,
    verify_fraction_identity,
)
from oracles import assert_same_fraction, first_residual_loop, series_product


def frac(numerator, denominator=1) -> QFraction:
    num = numerator if isinstance(numerator, ExtElement) else ExtElement.coerce(numerator)
    den = denominator if isinstance(denominator, LaurentPoly) else LaurentPoly.constant(denominator)
    return QFraction(num, den)


# ---------------------------------------------------------------------------
# construction and plain arithmetic
# ---------------------------------------------------------------------------
def test_constructors_and_coefficients():
    one = TruncatedSeries.one(4)
    assert one.coefficient(0) == QFraction.one()
    assert all(one.coefficient(n).is_zero for n in range(1, 5))
    u3 = TruncatedSeries.u_power(3, 4)
    assert [n for n in range(5) if not u3.coefficient(n).is_zero] == [3]
    assert TruncatedSeries.zero(2).is_zero
    with pytest.raises(ValueError):
        TruncatedSeries.u_power(5, 4)
    with pytest.raises(ValueError):
        TruncatedSeries(2, [1, 2])  # wrong coefficient count
    with pytest.raises(ValueError):
        one.coefficient(9)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3) + TruncatedSeries.one(4)


def test_product_truncates():
    u = TruncatedSeries.u_power(1, 2)
    cube = u * u * u
    assert cube.is_zero  # u^3 is beyond order 2


def test_scalar_multiplication_and_subtraction():
    s = TruncatedSeries(2, [1, 2, 3])
    assert (2 * s - s) == s
    assert (s - s).is_zero


def test_negate_u_flips_odd_coefficients():
    s = TruncatedSeries(3, [1, 2, 3, 4])
    assert s.negate_u() == TruncatedSeries(3, [1, -2, 3, -4])
    assert s.negate_u().negate_u() == s


def test_scale_u_powers_of_scalar():
    s = TruncatedSeries(3, [1, 1, 1, 1])
    half = QFraction(1, 2)
    scaled = s.scale_u(half)
    assert scaled == TruncatedSeries(
        3, [1, half, QFraction(1, 4), QFraction(1, 8)]
    )
    assert s.scale_u(1) == s
    assert s.scale_u(-1) == s.negate_u()


def test_str_omits_zero_terms():
    assert str(TruncatedSeries(3, [1, 0, 5, 0])) == "(1) + (5)*u^2"
    assert str(TruncatedSeries.zero(2)) == "0"


# ---------------------------------------------------------------------------
# the named families
# ---------------------------------------------------------------------------
def test_family_roster():
    kinds = {"A", "B", "D"}
    assert {cfg[0] for cfg in SERIES_FAMILIES.values()} == kinds
    assert len(SERIES_FAMILIES) == 15


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        series_make("tanh_q")


def test_q_exponential_coefficients():
    e = series_make("e_q", 1, 4)
    for n in range(5):
        assert e.coefficient(n) == frac(1, qfact(n))


def test_group_exponential_coefficients():
    for family, kind in (("exp_B", "B"), ("exp_D", "D")):
        series = series_make(family, 1, 5)
        for n in range(6):
            assert series.coefficient(n) == frac(1, poincare(kind, n))


def test_scaled_argument_coefficients():
    # with argument M*u the u^2 coefficient picks up M^2 = (1-s)(1-t)
    cosh = series_make("cosh_q", GEN_M, 4)
    msq = one_minus("s") * one_minus("t")
    assert cosh.coefficient(2) == frac(ExtElement.from_poly(msq), qfact(2))
    assert cosh.coefficient(1).is_zero and cosh.coefficient(3).is_zero


def test_hyperbolic_parts_sum_to_exponential():
    for kind in ("q", "B", "D"):
        exp_name = "e_q" if kind == "q" else f"exp_{kind}"
        for order in (6, 10):
            exp = series_make(exp_name, 1, order)
            cosh = series_make(f"cosh_{kind}", 1, order)
            sinh = series_make(f"sinh_{kind}", 1, order)
            assert cosh + sinh == exp, (kind, order)
            assert exp.negate_u() == cosh - sinh, (kind, order)


def test_even_odd_split_difference_of_squares():
    # c^2 - s^2 = e(u) * e(-u) for any even/odd split of e
    for kind in ("q", "B", "D"):
        exp_name = "e_q" if kind == "q" else f"exp_{kind}"
        exp = series_make(exp_name, 1, 8)
        cosh = series_make(f"cosh_{kind}", 1, 8)
        sinh = series_make(f"sinh_{kind}", 1, 8)
        assert cosh * cosh - sinh * sinh == exp * exp.negate_u()


def test_trigonometric_families_carry_imaginary_unit():
    sin = series_make("sin_q", 1, 5)
    assert sin.coefficient(1) == frac(GEN_I)
    assert sin.coefficient(3) == frac(-GEN_I, qfact(3))
    # dividing out the unit leaves the alternating real series
    freed = sin.divide_by_generator("i")
    assert freed.coefficient(1) == frac(1)
    assert freed.coefficient(3) == frac(-1, qfact(3))
    assert freed.coefficient(5) == frac(1, qfact(5))
    cos = series_make("cos_q", 1, 4)
    assert cos.coefficient(0) == frac(1)
    assert cos.coefficient(2) == frac(-1, qfact(2))
    assert cos.coefficient(4) == frac(1, qfact(4))


def test_circular_split_difference_of_squares():
    # cos and sin are the even/odd parts of e(iu), sin still carrying the
    # unit, so cos^2 - sin^2 = e(iu) * e(-iu)
    exp_iu = series_make("e_q", GEN_I, 8)
    cos = series_make("cos_q", 1, 8)
    sin = series_make("sin_q", 1, 8)
    assert cos + sin == exp_iu
    assert cos * cos - sin * sin == exp_iu * exp_iu.negate_u()


# ---------------------------------------------------------------------------
# q = 1 degenerations
# ---------------------------------------------------------------------------
def test_exp_b_at_q_one_is_classical_exp_of_half_argument():
    classical = series_make("e_q", 1, 8).substitute("q", "value", 1)
    exp_b = series_make("exp_B", 1, 8).substitute("q", "value", 1)
    assert exp_b == classical.scale_u(QFraction(1, 2))


def test_exp_d_at_q_one_pinned():
    # normalizers 1, 1, 4, 24, ... give 2*exp(u/2) - 1
    classical = series_make("e_q", 1, 8).substitute("q", "value", 1)
    expected = 2 * classical.scale_u(QFraction(1, 2)) - TruncatedSeries.one(8)
    assert series_make("exp_D", 1, 8).substitute("q", "value", 1) == expected


# ---------------------------------------------------------------------------
# series built from polynomial tables
# ---------------------------------------------------------------------------
def test_series_from_polys_basic():
    table = {n: LaurentPoly.constant(n + 1) for n in range(4)}
    ones = lambda n: LaurentPoly.one()  # noqa: E731
    s = series_from_polys(table.__getitem__, ones, "all", 3)
    assert s == TruncatedSeries(3, [1, 2, 3, 4])


def test_series_from_polys_parity_and_start():
    table = {n: LaurentPoly.one() for n in range(5)}
    ones = lambda n: LaurentPoly.one()  # noqa: E731
    odd = series_from_polys(table.__getitem__, ones, "odd", 4)
    assert [not odd.coefficient(n).is_zero for n in range(5)] == [
        False, True, False, True, False,
    ]
    shifted = series_from_polys(table.__getitem__, ones, "even", 4, start=2)
    assert shifted.coefficient(0).is_zero
    assert not shifted.coefficient(2).is_zero


def test_series_from_polys_missing_entry():
    ones = lambda n: LaurentPoly.one()  # noqa: E731
    table = {0: LaurentPoly.one()}
    with pytest.raises(KeyError) as excinfo:
        series_from_polys(table.__getitem__, ones, "all", 2)
    assert excinfo.type is KeyError and excinfo.value.args == (1,)
    with pytest.raises(ValueError):
        series_from_polys(table.__getitem__, ones, "bogus", 2)


def test_series_make_prints_the_fraction_it_names():
    """Each coefficient prints as scale**n (times i**n) over poincare(kind, n), the form reports show."""
    scale, order = 1 - LaurentPoly.variable("s"), 6
    for family, (kind, parity, trig) in SERIES_FAMILIES.items():
        mult = ExtElement.coerce(scale) * GEN_I if trig else ExtElement.coerce(scale)
        series, power = series_make(family, scale, order), ExtElement.one()
        for n in range(order + 1):
            included = {"all": True, "even": n % 2 == 0, "odd": n % 2 == 1}[parity]
            wanted = QFraction(power, poincare(kind, n)) if included else QFraction.zero()
            assert str(series.coefficient(n)) == str(wanted), (family, n)
            power = power * mult


# ---------------------------------------------------------------------------
# identity verification reports
# ---------------------------------------------------------------------------
def test_verify_fraction_identity_passes():
    e = series_make("e_q", 1, DEFAULT_ORDER)
    num = series_make("cosh_q", 1, DEFAULT_ORDER) + series_make(
        "sinh_q", 1, DEFAULT_ORDER
    )
    report = verify_fraction_identity(e, num, TruncatedSeries.one(DEFAULT_ORDER))
    assert report == {"status": "pass", "order": DEFAULT_ORDER}


def test_verify_fraction_identity_reports_first_failure():
    e = series_make("e_q", 1, 4)
    cosh = series_make("cosh_q", 1, 4)
    report = verify_fraction_identity(e, cosh, TruncatedSeries.one(4))
    assert report["status"] == "fail"
    assert report["u_power"] == 1
    assert report["residual"] == "1"


def _eager_report(lhs, num, den):
    """The whole residual lhs*den - num, then its first nonzero power."""
    residual = lhs * den - num
    n = next((k for k, c in enumerate(residual.coeffs) if not c.is_zero), None)
    if n is None:
        return {"status": "pass", "order": residual.order}
    return {
        "status": "fail",
        "u_power": n,
        "residual": str(residual.coefficient(n)),
        "order": residual.order,
    }


def test_lazy_verification_matches_the_eager_residual():
    s, t = LaurentPoly.variable("s"), LaurentPoly.variable("t")
    order = 6
    cases = [
        (series_make("exp_B", s, order), series_make("cosh_B", t, order), series_make("e_q", t, order)),
        (series_make("cosh_D", 1 - s, order), series_make("exp_D", s, order),
         series_make("sinh_q", s * t, order) + TruncatedSeries.one(order)),
        (series_make("e_q", 1, order), series_make("cosh_q", 1, order)
         + series_make("sinh_q", 1, order), TruncatedSeries.one(order)),
        (series_make("cos_B", s, order), series_make("sin_B", t, order), series_make("exp_B", 1, order)),
    ]
    # agrees through u^3, so the reported residual is a difference of two
    # five-term convolutions at u^4, printed in unreduced form
    lhs = series_make("exp_B", s, order)
    den = series_make("cosh_q", t, order) + series_make("sinh_D", 1, order)
    num = lhs * den - TruncatedSeries.u_power(4, order) * one_minus("s")
    cases.append((lhs, num, den))
    statuses = []
    for lhs, num, den in cases:
        report = verify_fraction_identity(lhs, num, den)
        assert report == _eager_report(lhs, num, den)
        assert list(first_residual(lhs, num, den).items()) == [
            (key, value) for key, value in report.items() if key != "order"]
        statuses.append(report["status"])
    assert statuses.count("fail") == 4 and statuses.count("pass") == 1
    assert report["u_power"] == 4


def test_verification_rejects_mismatched_orders():
    with pytest.raises(ValueError, match="order mismatch: 2 != 3"):
        verify_fraction_identity(
            TruncatedSeries.one(2), TruncatedSeries.one(2), TruncatedSeries.one(3)
        )
    with pytest.raises(ValueError, match="order mismatch: 2 != 3"):
        verify_fraction_identity(
            TruncatedSeries.one(2), TruncatedSeries.one(3), TruncatedSeries.one(2)
        )


def _identities(monkeypatch, check_id: str, order: int) -> list[tuple[TruncatedSeries, ...]]:
    """The (lhs, num, den) of every residual a check takes, with a cold brute-force cache."""
    captured = []

    def capture(real):
        def wrapper(lhs, num, den):
            captured.append((lhs, num, den))
            return real(lhs, num, den)
        return wrapper

    monkeypatch.setattr(registry, "verify_fraction_identity", capture(registry.verify_fraction_identity))
    monkeypatch.setattr(registry, "first_residual", capture(registry.first_residual))
    registry.clear_cache()
    registry.run_check(check_id, order=order)
    monkeypatch.undo()
    return captured


@pytest.mark.parametrize("check_id", [
    "typeB-alt-even",  # products in s, t, q: one kernel sum per component
    "typeD-fivevar",  # numerators in q, s0, s1, t0, t1: the sparse sums fold
    "typeB-biv-q1-classical",  # integer denominators: every path empty
    "snakes-D-q",  # failing readings: the residuals are printed
])
def test_check_products_and_residuals_equal_their_pairwise_loops(monkeypatch, check_id):
    identities = _identities(monkeypatch, check_id, 6)
    assert identities
    for lhs, num, den in identities:
        for got, want in zip((lhs * den).coeffs, series_product(lhs, den).coeffs):
            assert_same_fraction(got, want)
        assert first_residual(lhs, num, den) == first_residual_loop(lhs, num, den)


def test_a_residual_coefficient_takes_at_most_one_kernel_sum_per_component(monkeypatch):
    """typeB-alt-even at order 8 from cold caches: one ``_kronecker_sum`` call
    at most per coefficient of lhs*den - num and per generator mask in it."""
    identities = _identities(monkeypatch, "typeB-alt-even", 8)
    extension._expand.cache_clear()
    calls = []
    kernel = polynomials._kronecker_sum
    monkeypatch.setattr(polynomials, "_kronecker_sum", lambda *args: calls.append(1) or kernel(*args))
    total = 0
    for lhs, num, den in identities:
        components = sum(
            len({m1 ^ m2 for i in range(n + 1) for m1 in lhs.coeffs[i].num.parts for m2 in den.coeffs[n - i].num.parts}
                | set(num.coeffs[n].num.parts))
            for n in range(lhs.order + 1)
        )
        calls.clear()
        first_residual(lhs, num, den)
        assert len(calls) <= components, (len(calls), components)
        total += len(calls)
    assert total  # the kernel does take the larger sums
