"""Truncated formal power series in u over q-fraction coefficients.

Provides the q-deformed exponential, hyperbolic, and trigonometric families
for the symmetric-group, hyperoctahedral, and even-signed denominators, plus
division-free verification of generating-function identities: every identity
is checked in cross-multiplied, denominator-cleared form, because the scalar
denominators that appear (such as ``(1-s)(1-t)``) are not units in the
polynomial ring.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .extension import ExtElement, GEN_I, QFraction
from .polynomials import LaurentPoly, poincare_factors

__all__ = [
    "DEFAULT_ORDER",
    "SERIES_FAMILIES",
    "TruncatedSeries",
    "series_make",
    "series_from_polys",
    "first_residual",
    "verify_fraction_identity",
]

DEFAULT_ORDER = 6
_MINUS_ONE = QFraction(-1)


class TruncatedSeries:
    """Polynomial in u of fixed truncation order with QFraction coefficients.

    Arithmetic never consults coefficients beyond the order; the product of
    two order-N series is again order-N.  There is deliberately no division.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        coeffs = tuple(QFraction.coerce(c) for c in coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(
                f"expected {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [QFraction.zero()] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, [QFraction.one()] + [QFraction.zero()] * order)

    @classmethod
    def u_power(cls, power: int, order: int) -> "TruncatedSeries":
        """The monomial u**power as an order-`order` series."""
        if not 0 <= power <= order:
            raise ValueError(f"need 0 <= power <= order, got power={power}")
        coeffs = [QFraction.zero()] * (order + 1)
        coeffs[power] = QFraction.one()
        return cls(order, coeffs)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def coefficient(self, n: int) -> QFraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside order {self.order}")
        return self.coeffs[n]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [-c for c in self.coeffs])

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def _pairs(self, other: "TruncatedSeries", n: int) -> list[tuple[QFraction, QFraction]]:
        """The nonzero coefficient pairs (a_i, b_(n-i)) of u**n in self * other, i ascending."""
        return [
            (a, b) for a, b in zip(self.coeffs[:n + 1], reversed(other.coeffs[:n + 1]))
            if not (a.is_zero or b.is_zero)
        ]

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(self.order, [
                QFraction.sum_of_products(self._pairs(other, n)) for n in range(self.order + 1)
            ])
        scalar = QFraction.coerce(other)
        return TruncatedSeries(self.order, [c * scalar for c in self.coeffs])

    def __rmul__(self, other) -> "TruncatedSeries":
        return self.__mul__(other)

    def negate_u(self) -> "TruncatedSeries":
        """Substitute u -> -u: flips the sign of the odd coefficients."""
        return TruncatedSeries(
            self.order,
            [(-c if n % 2 else c) for n, c in enumerate(self.coeffs)],
        )

    def scale_u(self, scalar) -> "TruncatedSeries":
        """Substitute u -> scalar*u: coefficient n picks up scalar**n."""
        factor = QFraction.coerce(scalar)
        coeffs, acc = [], QFraction.coerce(1)
        for c in self.coeffs:
            coeffs.append(c * acc)
            acc = acc * factor
        return TruncatedSeries(self.order, coeffs)

    def divide_by_generator(self, name: str) -> "TruncatedSeries":
        """Exact coefficient-wise division by an extension generator."""
        return TruncatedSeries(
            self.order, [c.divide_by_generator(name) for c in self.coeffs]
        )

    def substitute(self, name: str, mode: str, value: int | None = None) -> "TruncatedSeries":
        return TruncatedSeries(
            self.order, [c.substitute(name, mode, value) for c in self.coeffs]
        )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        pieces = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            pieces.append(f"({c})*u^{n}" if n else f"({c})")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, {self})"


# family -> (group whose Poincaré polynomial is the denominator, parity, carries the imaginary unit)
SERIES_FAMILIES: dict[str, tuple[str, str, bool]] = {
    "e_q": ("A", "all", False),
    "cosh_q": ("A", "even", False),
    "sinh_q": ("A", "odd", False),
    "cos_q": ("A", "even", True),
    "sin_q": ("A", "odd", True),
    "exp_B": ("B", "all", False),
    "cosh_B": ("B", "even", False),
    "sinh_B": ("B", "odd", False),
    "cos_B": ("B", "even", True),
    "sin_B": ("B", "odd", True),
    "exp_D": ("D", "all", False),
    "cosh_D": ("D", "even", False),
    "sinh_D": ("D", "odd", False),
    "cos_D": ("D", "even", True),
    "sin_D": ("D", "odd", True),
}


def _parity_ok(parity: str, n: int) -> bool:
    if parity == "all":
        return True
    if parity == "even":
        return n % 2 == 0
    return n % 2 == 1


def series_make(family: str, scale=1, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Build one of the named series with argument multiplier `scale`.

    The coefficient of u**n is scale**n / poincare(kind, n), where kind is
    the family's group in SERIES_FAMILIES, restricted to the family's
    parity.  The trigonometric families are the hyperbolic ones evaluated
    at i-times the argument: scale**n * i**n is expanded in
    the quadratic extension, so even coefficients are i-free and odd
    coefficients carry a single factor of the imaginary unit (the sine
    families are NOT divided by i).
    """
    try:
        kind, parity, trig = SERIES_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(SERIES_FAMILIES))
        raise ValueError(f"unknown series family {family!r}; expected one of {known}")
    mult = ExtElement.coerce(scale)
    if trig:
        mult = mult * GEN_I
    powers = [ExtElement.one()]
    for _ in range(order):
        powers.append(powers[-1] * mult)
    return series_from_polys(powers.__getitem__, lambda n: poincare_factors(kind, n), parity, order)


def series_from_polys(
    polys: Callable[[int], LaurentPoly | ExtElement],
    denom: Callable[[int], LaurentPoly | frozenset],
    parity: str,
    order: int = DEFAULT_ORDER,
    start: int | None = None,
) -> TruncatedSeries:
    """Series whose u**n coefficient is polys(n)/denom(n) for n of the given parity.

    A denominator is a polynomial or, as ``poincare_factors`` gives it, the
    multiplicities of its cyclotomic factors.

    `start` is the first u-power included (defaults to 0, or 1 for parity
    "odd"); some of the generating functions in play deliberately omit their
    lowest-rank terms.  The sources are called only at the powers included.
    """
    if parity not in ("even", "odd", "all"):
        raise ValueError(f"parity must be 'even', 'odd', or 'all', got {parity!r}")
    if start is None:
        start = 1 if parity == "odd" else 0
    return TruncatedSeries(order, [
        QFraction(polys(n), denom(n)) if n >= start and _parity_ok(parity, n) else QFraction.zero()
        for n in range(order + 1)
    ])


def first_residual(lhs: TruncatedSeries, num: TruncatedSeries, den: TruncatedSeries) -> dict:
    """The first nonzero coefficient of lhs*den - num, built one power of u at
    a time, each as one ``QFraction.sum_of_products`` over the pairs of
    ``lhs * den`` and the pair (num_n, -1).  Every coefficient equals the one
    ``lhs * den - num`` has, field by field, so it prints the same."""
    lhs._check_order(den)
    lhs._check_order(num)
    for n in range(lhs.order + 1):
        c = QFraction.sum_of_products(lhs._pairs(den, n) + [(num.coeffs[n], _MINUS_ONE)])
        if not c.is_zero:
            return {"status": "fail", "u_power": n, "residual": str(c)}
    return {"status": "pass"}


def verify_fraction_identity(lhs: TruncatedSeries, num: TruncatedSeries, den: TruncatedSeries) -> dict:
    """Check lhs == num/den in cross-multiplied form: lhs*den - num == 0.

    An identity with scalar denominators is cleared into its series by the
    caller, so the whole computation stays in the polynomial ring.  The
    report names the first offending power of u and its residual when the
    identity fails.
    """
    return {**first_residual(lhs, num, den), "order": lhs.order}
