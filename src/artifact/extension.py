"""Quadratic extension elements and exact fractions with q-only denominators.

The polynomial ring is extended by formal square roots ("generators"), each
with a declared square back in the ring: M^2 = (1-s)(1-t), i^2 = -1,
m^2 = (s0-t0)(s1-t1), r_s^2 = s, r0^2 = s0, r1^2 = s1.  An extension element
is a sum of components indexed by squarefree generator products (bitmask);
multiplication reduces repeated generators through their squares, so elements
are always in reduced normal form.

Fractions pair an extension-element numerator with a univariate-q polynomial
denominator whose constant term is nonzero, held factored.  A Poincaré
denominator arrives as the multiplicities of its cyclotomic factors, which
its q-integers give; one given as a polynomial is held as its integer content
times its whole primitive part.  Sums and equality go over the lcm of the
denominators; no numerator is ever divided by a polynomial.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from math import gcd, lcm
from operator import add, mul
from typing import Iterator, Mapping

from .polynomials import LaurentPoly, cyclotomic, one_minus, sum_of_products


_s0, _s1, _t0, _t1 = map(LaurentPoly.variable, ("s0", "s1", "t0", "t1"))

# The square-root generators in bit order (bit i of a component's mask is
# generator i), and their squares.
_NAMES = ("M", "i", "m", "rs", "r0", "r1")
_SQUARES = (
    one_minus("s") * one_minus("t"),
    LaurentPoly.constant(-1),
    (_s0 - _t0) * (_s1 - _t1),
    LaurentPoly.variable("s"),
    _s0,
    _s1,
)
_INDEX = {name: i for i, name in enumerate(_NAMES)}


# The squares, in bit order, that the product of two components picks up,
# indexed by the mask of the generators both components carry.
_SQUARES_OF = tuple(
    tuple(square for bit, square in enumerate(_SQUARES) if common >> bit & 1)
    for common in range(1 << len(_SQUARES))
)


def _component_products(x: ExtElement, y: ExtElement) -> Iterator[tuple[int, tuple[LaurentPoly, ...]]]:
    """Each component product of x * y: its mask, and the factors whose product is its polynomial."""
    for m1, p1 in x.parts.items():
        for m2, p2 in y.parts.items():
            yield m1 ^ m2, (p1, p2, *_SQUARES_OF[m1 & m2])


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
        return cls({1 << _INDEX[name]: coef})

    @staticmethod
    def coerce(value) -> "ExtElement":
        if isinstance(value, ExtElement):
            return value
        if isinstance(value, LaurentPoly):
            return ExtElement.from_poly(value)
        if isinstance(value, int):
            return ExtElement.constant(value)
        raise TypeError(f"cannot interpret a {type(value).__name__} as an extension element")

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
            out[mask] = poly if acc is None else acc + poly
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
        out: dict[int, LaurentPoly] = {}
        for mask, factors in _component_products(self, other):
            poly = reduce(mul, factors)
            acc = out.get(mask)
            out[mask] = poly if acc is None else acc + poly
        return ExtElement(out)

    __rmul__ = __mul__

    def divide_by_generator(self, name: str) -> "ExtElement":
        """Exact division by a generator: every component must carry it."""
        bit = 1 << _INDEX[name]
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
            names = [name for i, name in enumerate(_NAMES) if mask >> i & 1]
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


# A denominator is held as its positive integer content times a product of
# primitive factors, each with positive constant term.  A factor multiset is a
# frozenset of (factor, multiplicity) pairs; a factor is d for Φ_d(q), or, for
# a denominator given as a polynomial, the sorted (q-exponent, coefficient)
# pairs of its primitive part, a rest kept whole.
Factors = frozenset


def _factor_poly(factor) -> LaurentPoly:
    if isinstance(factor, int):
        return cyclotomic(factor)
    return LaurentPoly({(0, 0, e, 0, 0, 0, 0): c for e, c in factor})


@lru_cache(maxsize=1024)
def _expand(factors: Factors) -> LaurentPoly:
    """The product of a factor multiset."""
    out = LaurentPoly.one()
    for factor, k in factors:
        out = out * _factor_poly(factor) ** k
    return out


def _merge(a: Factors, b: Factors, op) -> Factors:
    out = dict(a)
    for factor, k in b:
        out[factor] = op(out.get(factor, 0), k)
    return frozenset(out.items())


def _has_rest(factors: Factors) -> bool:
    return any(not isinstance(f, int) for f, _ in factors)


def _lift(content: int, fac: Factors, to_content: int, to_fac: Factors) -> LaurentPoly:
    """The factor that takes content * prod fac to its multiple to_content * prod to_fac."""
    have = dict(fac)
    scale = _expand(frozenset((f, k - have.get(f, 0)) for f, k in to_fac if k > have.get(f, 0)))
    return scale * (to_content // content) if to_content != content else scale


class QFraction:
    """numerator / (univariate-q denominator with nonzero constant term).

    The denominator is held factored, as the positive integer ``content``
    times the factor multiset ``fac``, and ``den`` is derived from the two.
    A denominator given as Φ_d multiplicities (d, k), as ``poincare_factors``
    builds them, is taken as it is; one given as an integer or a polynomial
    is held as its content times its primitive part, kept whole as one rest.
    Sums are taken over the lcm of the two denominators (largest
    multiplicities, lcm of the contents) and products add multiplicities; the
    numerator is never divided by a polynomial, and numerator and denominator
    share no integer content.

    ``path`` is the multiset that plain cross-multiplication, which puts a sum
    over the product of unequal denominators, would have built.  The
    cross-multiplied fraction is this one times prod fac^(path - fac) over
    itself, with the same content (Gauss's lemma), and that is the form that
    ``str`` prints and that ``substitute`` on q works on.
    """

    __slots__ = ("num", "content", "fac", "path")

    def __init__(self, num, den: LaurentPoly | int | Factors = 1):
        num = ExtElement.coerce(num)
        if isinstance(den, Factors):
            self._assign(num, 1, den, den)
            return
        if isinstance(den, int):
            den = LaurentPoly.constant(den)
        if den.is_zero or not _is_q_only(den):
            raise ValueError("denominator must be a nonzero q-only polynomial")
        if den.coefficient() == 0:
            raise ValueError("denominator constant term must be nonzero")
        if den.coefficient() < 0:
            den = -den
            num = -num
        content = gcd(*den.terms.values())
        rest = tuple(sorted((exp[2], c // content) for exp, c in den.terms.items()))
        fac = Factors() if rest == ((0, 1),) else Factors({(rest, 1)})
        self._assign(num, content, fac, fac)

    def _assign(self, num: ExtElement, content: int, fac: Factors, path: Factors) -> None:
        if content > 1:
            g = gcd(content, *(c for p in num.parts.values() for c in p.terms.values()))
            if g > 1:
                num = ExtElement(
                    {
                        m: LaurentPoly({e: c // g for e, c in p.terms.items()})
                        for m, p in num.parts.items()
                    }
                )
                content //= g
        self.num = num
        self.content = content
        self.fac = fac
        self.path = path

    @classmethod
    def _make(cls, num: ExtElement, content: int, fac: Factors, path: Factors) -> "QFraction":
        """A fraction over content * prod fac, with its content shared out with num."""
        out = cls.__new__(cls)
        out._assign(num, content, fac, path)
        return out

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
    def den(self) -> LaurentPoly:
        return _lift(1, Factors(), self.content, self.fac)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def _over(self, content: int, fac: Factors) -> ExtElement:
        """The numerator over content * prod fac, a multiple of the denominator."""
        scale = _lift(self.content, self.fac, content, fac)
        return self.num if scale == 1 else self.num * scale

    def _crossed(self) -> tuple[ExtElement, LaurentPoly]:
        """Numerator and denominator of the cross-multiplied form."""
        lift = _lift(self.content, self.fac, self.content, self.path)
        if lift == 1:
            return self.num, self.den
        return self.num * lift, self.den * lift

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly, ExtElement)):
            other = QFraction.coerce(other)
        if not isinstance(other, QFraction):
            return NotImplemented
        content = lcm(self.content, other.content)
        fac = _merge(self.fac, other.fac, max)
        return self._over(content, fac) == other._over(content, fac)

    __hash__ = None

    def __neg__(self) -> "QFraction":
        return QFraction._make(-self.num, self.content, self.fac, self.path)

    def __add__(self, other) -> "QFraction":
        try:
            other = QFraction.coerce(other)
        except TypeError:
            return NotImplemented
        # cross-multiplication keeps a denominator that both terms share
        if self.content != other.content:
            path = _merge(self.path, other.path, add)
        elif self.path == other.path:
            path = self.path
        elif (_has_rest(self.path) or _has_rest(other.path)) and _expand(self.path) == _expand(other.path):
            # Rests may share factors, so different multisets can expand to
            # one denominator: add in the cross-multiplied form.
            return QFraction._make(
                self._crossed()[0] + other._crossed()[0], self.content, self.path, self.path
            )
        else:
            path = _merge(self.path, other.path, add)
        content = lcm(self.content, other.content)
        fac = _merge(self.fac, other.fac, max)
        return QFraction._make(self._over(content, fac) + other._over(content, fac), content, fac, path)

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
        return QFraction._make(
            self.num * other.num,
            self.content * other.content,
            _merge(self.fac, other.fac, add),
            _merge(self.path, other.path, add),
        )

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: list[tuple["QFraction", "QFraction"]]) -> "QFraction":
        """The sum of a * b over the pairs, equal field by field to the fold
        ``zero + a1 * b1 + a2 * b2 + ...``.

        The sum is taken over the lcm of the products' denominators at once:
        each product's numerator is scaled once, straight to that lcm, and
        each component of the result is one ``sum_of_products`` of
        polynomials.  Without a rest, and with every content 1
        or every path empty, the fold's ``path`` follows from the products'
        multisets alone, kept when equal and added otherwise.  For any other
        operands the sum is the fold itself.
        """
        if len(pairs) < 2:  # the fold adds a lone product to zero, which leaves it as it is
            return pairs[0][0] * pairs[0][1] if pairs else _ZERO
        paths = [f.path for pair in pairs for f in pair]
        if any(map(_has_rest, paths)) or (any(paths) and any(f.content > 1 for pair in pairs for f in pair)):
            return sum((a * b for a, b in pairs), QFraction.zero())
        facs = [_merge(a.fac, b.fac, add) for a, b in pairs]
        contents = [a.content * b.content for a, b in pairs]
        fac = reduce(partial(_merge, op=max), facs, Factors())
        content = lcm(*contents)
        path = Factors()
        for a, b in pairs:
            step = _merge(a.path, b.path, add)
            if step != path:
                path = _merge(path, step, add)
        products: dict[int, list[tuple[LaurentPoly, ...]]] = {}
        for (a, b), fac_k, content_k in zip(pairs, facs, contents):
            scale = _lift(content_k, fac_k, content, fac)
            tail = () if scale == 1 else (scale,)
            for mask, factors in _component_products(a.num, b.num):
                products.setdefault(mask, []).append((*factors, *tail))
        num = ExtElement({mask: sum_of_products(terms) for mask, terms in products.items()})
        return QFraction._make(num, content, fac, path)

    def divide_by_generator(self, name: str) -> "QFraction":
        return QFraction._make(self.num.divide_by_generator(name), self.content, self.fac, self.path)

    def substitute(self, name: str, mode: str, value: int | None = None) -> "QFraction":
        if name != "q":
            return QFraction._make(self.num.substitute(name, mode, value), self.content, self.fac, self.path)
        num, den = self._crossed()
        return QFraction(num.substitute(name, mode, value), den.substitute(name, mode, value))

    def __str__(self) -> str:
        num, den = self._crossed()
        if den == 1:
            return str(num)
        return f"({num}) / ({den})"

    def __repr__(self) -> str:
        return f"QFraction({self})"


_ZERO = QFraction.zero()

GEN_M = ExtElement.generator("M")
GEN_I = ExtElement.generator("i")
GEN_LITTLE_M = ExtElement.generator("m")
GEN_ROOT_S = ExtElement.generator("rs")
GEN_ROOT_S0 = ExtElement.generator("r0")
GEN_ROOT_S1 = ExtElement.generator("r1")
