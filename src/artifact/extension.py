"""Quadratic extension elements and exact fractions with q-only denominators.

The polynomial ring is extended by formal square roots ("generators"), each
with a declared square back in the ring: M^2 = (1-s)(1-t), i^2 = -1,
m^2 = (s0-t0)(s1-t1), r_s^2 = s, r0^2 = s0, r1^2 = s1.  An extension element
is a sum of components indexed by squarefree generator products (bitmask);
multiplication reduces repeated generators through their squares, so elements
are always in reduced normal form.

Fractions pair an extension-element numerator with a univariate-q polynomial
denominator whose constant term is nonzero.  Equality is decided by
cross-multiplication; no polynomial division is ever performed.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping

from .polynomials import LaurentPoly, one_minus


def _default_squares() -> tuple[tuple[str, LaurentPoly], ...]:
    s0 = LaurentPoly.variable("s0")
    s1 = LaurentPoly.variable("s1")
    t0 = LaurentPoly.variable("t0")
    t1 = LaurentPoly.variable("t1")
    return (
        ("M", one_minus("s") * one_minus("t")),
        ("i", LaurentPoly.constant(-1)),
        ("m", (s0 - t0) * (s1 - t1)),
        ("rs", LaurentPoly.variable("s")),
        ("r0", s0),
        ("r1", s1),
    )


class ExtensionContext:
    """An ordered roster of square-root generators with their squares."""

    def __init__(self, squares: tuple[tuple[str, LaurentPoly], ...]):
        self.names = tuple(name for name, _ in squares)
        self.squares = tuple(poly for _, poly in squares)
        self.index = {name: i for i, name in enumerate(self.names)}

    def mask_names(self, mask: int) -> tuple[str, ...]:
        return tuple(
            name for i, name in enumerate(self.names) if mask & (1 << i)
        )


DEFAULT_CONTEXT = ExtensionContext(_default_squares())


class ExtElement:
    """A reduced element of the quadratic extension of the polynomial ring."""

    __slots__ = ("parts",)

    def __init__(self, parts: Mapping[int, LaurentPoly] | None = None):
        clean: dict[int, LaurentPoly] = {}
        if parts:
            for mask, poly in parts.items():
                if not poly.is_zero:
                    clean[mask] = poly
        self.parts = clean

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ExtElement":
        return cls()

    @classmethod
    def one(cls) -> "ExtElement":
        return cls({0: LaurentPoly.one()})

    @classmethod
    def from_poly(cls, poly: LaurentPoly) -> "ExtElement":
        return cls({0: poly})

    @classmethod
    def constant(cls, value: int) -> "ExtElement":
        return cls({0: LaurentPoly.constant(value)})

    @classmethod
    def generator(cls, name: str, coef: LaurentPoly | int = 1) -> "ExtElement":
        if isinstance(coef, int):
            coef = LaurentPoly.constant(coef)
        return cls({1 << DEFAULT_CONTEXT.index[name]: coef})

    @staticmethod
    def coerce(value) -> "ExtElement":
        if isinstance(value, ExtElement):
            return value
        if isinstance(value, LaurentPoly):
            return ExtElement.from_poly(value)
        if isinstance(value, int):
            return ExtElement.constant(value)
        raise TypeError(f"cannot interpret {value!r} as an extension element")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = ExtElement.coerce(other)
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.parts == other.parts

    __hash__ = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __neg__(self) -> "ExtElement":
        return ExtElement({m: -p for m, p in self.parts.items()})

    def __add__(self, other) -> "ExtElement":
        try:
            other = ExtElement.coerce(other)
        except TypeError:
            return NotImplemented
        out = dict(self.parts)
        for mask, poly in other.parts.items():
            acc = out.get(mask)
            acc = poly if acc is None else acc + poly
            if acc.is_zero:
                out.pop(mask, None)
            else:
                out[mask] = acc
        return ExtElement(out)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtElement":
        try:
            other = ExtElement.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExtElement":
        return (-self) + other

    def __mul__(self, other) -> "ExtElement":
        try:
            other = ExtElement.coerce(other)
        except TypeError:
            return NotImplemented
        squares = DEFAULT_CONTEXT.squares
        out: dict[int, LaurentPoly] = {}
        for m1, p1 in self.parts.items():
            for m2, p2 in other.parts.items():
                poly = p1 * p2
                common = m1 & m2
                bit = 0
                while common:
                    if common & 1:
                        poly = poly * squares[bit]
                    common >>= 1
                    bit += 1
                mask = m1 ^ m2
                acc = out.get(mask)
                acc = poly if acc is None else acc + poly
                if acc.is_zero:
                    out.pop(mask, None)
                else:
                    out[mask] = acc
        return ExtElement(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "ExtElement":
        if power < 0:
            raise ValueError("negative extension powers are not defined")
        result = ExtElement.one()
        for _ in range(power):
            result = result * self
        return result

    def divide_by_generator(self, name: str) -> "ExtElement":
        """Exact division by a generator: every component must carry it."""
        bit = 1 << DEFAULT_CONTEXT.index[name]
        out: dict[int, LaurentPoly] = {}
        for mask, poly in self.parts.items():
            if not mask & bit:
                raise ValueError(
                    f"component without generator {name}; division not exact"
                )
            out[mask ^ bit] = poly
        return ExtElement(out)

    def substitute(self, name: str, mode: str, value: int | None = None) -> "ExtElement":
        """Variable substitution applied componentwise.

        Sound whenever the substituted variable does not appear in the square
        of any generator the element carries (e.g. q never does).
        """
        return ExtElement(
            {m: p.substitute(name, mode, value) for m, p in self.parts.items()}
        )

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.parts:
            return "0"
        pieces = []
        for mask in sorted(self.parts):
            poly = self.parts[mask]
            names = DEFAULT_CONTEXT.mask_names(mask)
            body = f"({poly})" if names else str(poly)
            for name in names:
                body += f"*{name}"
            pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"ExtElement({self})"


def _is_q_only(poly: LaurentPoly) -> bool:
    return all(
        all(e == 0 for i, e in enumerate(exp) if i != 2) for exp in poly.terms
    )


def _int_content(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
        if g == 1:
            return 1
    return g or 1


class QFraction:
    """numerator / (univariate-q denominator with nonzero constant term)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: LaurentPoly | int = 1):
        num = ExtElement.coerce(num)
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
        content = _int_content(coefs)
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

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "QFraction":
        return cls(ExtElement.zero())

    @classmethod
    def one(cls) -> "QFraction":
        return cls(ExtElement.one())

    @staticmethod
    def coerce(value) -> "QFraction":
        if isinstance(value, QFraction):
            return value
        return QFraction(ExtElement.coerce(value))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly, ExtElement)):
            other = QFraction.coerce(other)
        if not isinstance(other, QFraction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None

    def __neg__(self) -> "QFraction":
        return QFraction(-self.num, self.den)

    def __add__(self, other) -> "QFraction":
        try:
            other = QFraction.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den == other.den:
            return QFraction(self.num + other.num, self.den)
        return QFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "QFraction":
        try:
            other = QFraction.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QFraction":
        return (-self) + other

    def __mul__(self, other) -> "QFraction":
        try:
            other = QFraction.coerce(other)
        except TypeError:
            return NotImplemented
        return QFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def divide_by_generator(self, name: str) -> "QFraction":
        return QFraction(self.num.divide_by_generator(name), self.den)

    def substitute(self, name: str, mode: str, value: int | None = None) -> "QFraction":
        den = self.den.substitute(name, mode, value) if name == "q" else self.den
        return QFraction(self.num.substitute(name, mode, value), den)

    def __str__(self) -> str:
        if self.den == LaurentPoly.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QFraction({self})"


GEN_M = ExtElement.generator("M")
GEN_I = ExtElement.generator("i")
GEN_LITTLE_M = ExtElement.generator("m")
GEN_ROOT_S = ExtElement.generator("rs")
GEN_ROOT_S0 = ExtElement.generator("r0")
GEN_ROOT_S1 = ExtElement.generator("r1")
