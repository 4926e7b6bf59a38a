"""Reference implementations that only the tests use.

Each is a definitional form of something the package computes another way:
the inverses of the juxtaposition maps, the pair-counting lengths, a
filter over the whole group for the descending-suffix family, the
word-at-a-time lemma sums, the whole-group histogram by pairwise entry
comparisons, and the terms of a product kernel result read back from its
form, and
the Taylor coefficients of cos and sin at an integer multiple of u, the
pairwise folds of q-fractions that series products and residuals equal,
the cyclotomic split by trial division of every Φ_d of small degree, the
recurrences' q-coefficients as the products they were first stated as, the
recurrences and the subset expansion with each block's factors in s and t
stated whole, the reflection law term by term, and an affine exponent map
term by term.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from fractions import Fraction
from math import factorial, gcd
from typing import Callable, Iterator, Sequence

import numpy as np

from artifact.bijections import SignedSubset, signed_subsets
from artifact.enumeration import _inv_bins
from artifact.extension import QFraction
from artifact.permutations import Word, iterate_group, negative_count
from artifact.polynomials import (
    LaurentPoly,
    _cyclotomic_coefficients,
    _exact_quotient,
    one_minus,
    q_polynomial,
    qbinom_row,
    qint,
    sum_of_products,
)
from artifact.recurrences import c_coeff, cd_coeff, pd_product, reciprocal_exponents
from artifact.series import TruncatedSeries


def plain_subsets(n: int, r: int) -> Iterator[tuple[int, ...]]:
    yield from itertools.combinations(range(1, n + 1), r)


def map_f_inverse(word: Word, r: int) -> tuple[Word, SignedSubset]:
    n = len(word)
    prefix, tail = word[:n - r], word[n - r:]
    ranks = {v: pos + 1 for pos, v in enumerate(sorted(abs(x) for x in prefix))}
    sigma = tuple(ranks[abs(x)] if x > 0 else -ranks[abs(x)] for x in prefix)
    return sigma, tuple(sorted(tail))


def map_fD_inverse(word: Word, r: int) -> tuple[Word, SignedSubset]:
    sigma, subset = map_f_inverse(word, r)
    if negative_count(subset) % 2 == 1 and sigma:
        sigma = (-sigma[0],) + sigma[1:]
    return sigma, subset


def map_fpp_inverse(word: Word, r: int) -> tuple[Word, tuple[int, ...]]:
    n = len(word)
    sigma, _ = map_f_inverse(word, r)
    return sigma, tuple(sorted(word[n - r:]))


def iterate_descending_suffix(family: str, n: int, k: int) -> Iterator[Word]:
    """Words whose last k+1 entries are positive and strictly descending.

    family 'B' ranges over B_n, family 'D' over D_n.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"suffix length k+1={k + 1} outside 1..{n}")
    group = "B" if family == "B" else "D"
    for word in iterate_group(group, n):
        tail = word[n - k - 1:]
        if all(x > 0 for x in tail) and all(
            tail[j] > tail[j + 1] for j in range(len(tail) - 1)
        ):
            yield word


def inv_B_definitional(word: Sequence[int]) -> int:
    """The three-term pair-counting form of the type-B length."""
    n = len(word)
    total = negative_count(word)
    for i in range(n):
        for j in range(i + 1, n):
            if word[i] > word[j]:
                total += 1
            if -word[i] > word[j]:
                total += 1
    return total


def inv_D_definitional(word: Sequence[int]) -> int:
    n = len(word)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if word[i] > word[j]:
                total += 1
            if -word[i] > word[j]:
                total += 1
    return total


def lemma_sum(juxtapose: Callable[[Word, SignedSubset, int], Word], inv: Callable[[Word], int],
              n: int, r: int) -> LaurentPoly:
    """Sum of q^inv over the juxtapositions of the identity prefix with every signed r-subset."""
    terms: dict[tuple[int, ...], int] = {}
    sigma = tuple(range(1, n - r + 1))
    for subset in signed_subsets(n, r):
        exp = (0, 0, inv(juxtapose(sigma, subset, n)), 0, 0, 0, 0)
        terms[exp] = terms.get(exp, 0) + 1
    return LaurentPoly(terms)


def sign_codes(flavor: str, n: int) -> np.ndarray:
    """The flavor's sign patterns; bit j set means entry j is negated.

    Type D gets only the patterns of even popcount: the low n-1 bits run
    freely and the top bit restores the parity.
    """
    if flavor == "A":
        return np.zeros(1, dtype=np.int64)
    if flavor == "B":
        return np.arange(2**n, dtype=np.int64)
    low = np.arange(2 ** (n - 1), dtype=np.int64)
    return low | (np.bitwise_count(low) & 1).astype(np.int64) << (n - 1)


@lru_cache(maxsize=1)
def permutation_columns(n: int) -> np.ndarray:
    """Every permutation of 1..n as an int8 column, in the order of ``itertools.permutations``."""
    entries = itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)))
    return np.fromiter(entries, dtype=np.int8, count=n * factorial(n)).reshape(factorial(n), n).T.copy()


def comparison_chunk(flavor: str, n: int, lo: int, hi: int) -> np.ndarray:
    """Bincount of (last entry negative, descent mask, inv) over sign patterns lo..hi-1.

    The key is ``((last << n) | mask) * bins + inv``.  Bit j of the mask is
    position j for j >= 1; bit 0 is position 0 for B (0 > pi_1), position -1
    for D (-pi_1 > pi_2), and never set for A.  Every word is built, and
    every pair of its entries compared.  Arrays are laid out as (sign
    pattern, permutation), one array per position.
    """
    perms = permutation_columns(n)
    bins = _inv_bins(flavor, n)
    codes = sign_codes(flavor, n)[lo:hi]
    bits = (codes[:, None] >> np.arange(n)) & 1
    signs = (1 - 2 * bits).astype(np.int8)
    words = [signs[:, a, None] * perms[a] for a in range(n)]

    # inv = inv_A + the negative magnitudes (less their count for D); uint8
    # wraps in between but ends exact, since inv < 256
    bits = bits.astype(np.uint8)
    magnitudes = perms.view(np.uint8)
    inv = np.zeros(words[0].shape, dtype=np.uint8)
    for a in range(n):
        inv += bits[:, a, None] * magnitudes[a]
    if flavor == "D":
        inv -= bits.sum(axis=1, dtype=np.uint8)[:, None]

    # the sign pattern alone fixes the last-entry bit, and B's position 0
    # (0 > pi_1 exactly when entry 0 is negated)
    head = (codes >> (n - 1) & 1) << n
    if flavor == "B":
        head |= codes & 1
    mask = np.empty(words[0].shape, dtype=np.uint16)
    mask[:] = head[:, None]
    if flavor == "D":
        mask += (words[0] + words[1]) < 0
    for a in range(n):
        for b in range(a + 1, n):
            greater = words[a] > words[b]
            inv += greater
            if b == a + 1:
                mask += greater * np.uint16(1 << b)
    key = mask.astype(np.int32)
    key *= bins
    key += inv
    return np.bincount(key.ravel(), minlength=bins << (n + 1)).astype(np.int64)


def comparison_histogram(flavor: str, n: int) -> np.ndarray:
    """The whole-group histogram of ``enumeration._histogram``, eight sign patterns at a time."""
    count = len(sign_codes(flavor, n))
    return sum(comparison_chunk(flavor, n, lo, min(lo + 8, count)) for lo in range(0, count, 8))


def is_decoded(poly: LaurentPoly) -> bool:
    """Whether the terms dict of a polynomial is built, found without building it."""
    try:
        object.__getattribute__(poly, "terms")
    except AttributeError:
        return False
    return True


def assert_form_agrees(poly: LaurentPoly) -> None:
    """Read the terms of an undecoded kernel result and check them against its form.

    The dict holds the form's terms in the form's order, no zero, and the
    form's per-variable extremes and coefficient bounds are those of the terms.
    """
    form = poly._form
    assert not is_decoded(poly)
    exps = list(zip(*form.exps.tolist()))
    assert list(poly.terms.items()) == list(zip(exps, form.coefs))
    assert all(poly.terms.values())
    assert form.low.tolist() == list(map(min, zip(*exps)))
    assert form.high.tolist() == list(map(max, zip(*exps)))
    magnitudes = [abs(c) for c in form.coefs]
    assert (form.top, form.mass) == (max(magnitudes), sum(magnitudes))


def trig_taylor(name: str, m: int, order: int) -> list[Fraction]:
    """Coefficients of u^0..u^order in cos(m u) or sin(m u): (-1)^k m^n / n! for n = 2k or 2k + 1."""
    first = {"cos": 0, "sin": 1}[name]
    return [Fraction((-1) ** (n // 2) * m**n, factorial(n)) if n % 2 == first else Fraction(0)
            for n in range(order + 1)]


def fold_sum(pairs) -> QFraction:
    """zero + a1*b1 + a2*b2 + ..., one QFraction addition at a time: what
    ``QFraction.sum_of_products`` equals field by field."""
    acc = QFraction.zero()
    for a, b in pairs:
        acc = acc + a * b
    return acc


def series_product(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """The product of two series of one order, each coefficient folded pair by pair."""
    out = [QFraction.zero()] * (x.order + 1)
    for i, a in enumerate(x.coeffs):
        if a.is_zero:
            continue
        for j in range(x.order + 1 - i):
            b = y.coeffs[j]
            if b.is_zero:
                continue
            out[i + j] = out[i + j] + a * b
    return TruncatedSeries(x.order, out)


def first_residual_loop(lhs: TruncatedSeries, num: TruncatedSeries, den: TruncatedSeries) -> dict:
    """The first nonzero coefficient of lhs*den - num, by the same operations
    in the same order as ``lhs * den - num`` through ``series_product``."""
    for n in range(lhs.order + 1):
        c = QFraction.zero()
        for i in range(n + 1):
            a, b = lhs.coeffs[i], den.coeffs[n - i]
            if not (a.is_zero or b.is_zero):
                c = c + a * b
        c = c - num.coeffs[n]
        if not c.is_zero:
            return {"status": "fail", "u_power": n, "residual": str(c)}
    return {"status": "pass"}


def assert_same_fraction(x: QFraction, y: QFraction) -> None:
    """Two fractions agree in every field, and so print alike."""
    assert (x.num, x.content, x.fac, x.path) == (y.num, y.content, y.fac, y.path)
    assert str(x) == str(y)


def totient(d: int) -> int:
    out, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def _q_coefficients(poly: LaurentPoly) -> list[int]:
    """The coefficients of a nonzero q-only polynomial, constant term first."""
    out = [0] * (max(exp[2] for exp in poly.terms) + 1)
    for exp, coef in poly.terms.items():
        out[exp[2]] = coef
    return out


def cyclotomic_factors_by_division(poly: LaurentPoly) -> tuple[int, dict[int, int], LaurentPoly]:
    """A nonzero q-only polynomial split as content * prod of Φ_d^k * rest,
    by trying Φ_d for every d >= 2 up to max(6, deg^2) whose totient is below
    the length of what is left: the content, the multiplicities {d: k}, and
    the primitive rest that no such Φ_d divides."""
    content = gcd(*poly.terms.values())
    rest = LaurentPoly({e: c // content for e, c in poly.terms.items()})
    if any(exp[2] < 0 for exp in rest.terms):
        return content, {}, rest
    p = _q_coefficients(rest)
    mult: dict[int, int] = {}
    d = 2
    # phi(d) >= sqrt(d) above d = 6, so no Φ_d with d > max(6, deg^2) divides
    while len(p) > 1 and d <= max(6, (len(p) - 1) ** 2):
        if totient(d) < len(p):
            a = _cyclotomic_coefficients(d)
            while (quotient := _exact_quotient(p, a)) is not None:
                p = quotient
                mult[d] = mult.get(d, 0) + 1
        d += 1
    return content, mult, q_polynomial(p)


_Q = LaurentPoly.variable("q")


@lru_cache(maxsize=None)
def qbinom_pascal(n: int, k: int) -> LaurentPoly:
    """[n, k]_q by the q-Pascal recurrence [n-1, k-1]_q + q^k [n-1, k]_q."""
    if k < 0 or k > n:
        return LaurentPoly.zero()
    if k == 0 or k == n:
        return LaurentPoly.one()
    return qbinom_pascal(n - 1, k - 1) + _Q**k * qbinom_pascal(n - 1, k)


def one_plus_q_run(low: int, high: int) -> LaurentPoly:
    """prod_{i=low}^{high} (1 + q^i), one factor at a time."""
    out = LaurentPoly.one()
    for i in range(low, high + 1):
        out = out * (1 + _Q**i)
    return out


def c_coeff_product(n: int, j: int) -> LaurentPoly:
    """qbinom(n, j) * prod_{x=0}^{j-1} (1 + q^(n-x))."""
    return qbinom_pascal(n, j) * one_plus_q_run(n - j + 1, n)


def cd_coeff_product(n: int, j: int) -> LaurentPoly:
    """qbinom(n, j) * prod_{i=n-j}^{n-1} (1 + q^i)."""
    return qbinom_pascal(n, j) * one_plus_q_run(n - j, n - 1)


def reflect_terms(family: str, n: int, poly: LaurentPoly) -> LaurentPoly:
    """``recurrences.reciprocal_transform`` on the term dict: (s, t, q) exponents
    become the family's prefactor exponents minus themselves."""
    qpow, spow, tpow = reciprocal_exponents(family, n)
    return LaurentPoly({
        (spow - es, tpow - et, qpow - eq, s0, s1, t0, t1): coef
        for (es, et, eq, s0, s1, t0, t1), coef in poly.terms.items()
    })


def exponent_image_terms(poly: LaurentPoly, matrix, offset) -> LaurentPoly:
    """``polynomials.exponent_image`` on the term dict: each term c x^e adds c
    at x^(matrix e + offset), in Python ints."""
    out: dict[tuple[int, ...], int] = {}
    for exp, coef in poly.terms.items():
        key = tuple(sum(int(m) * e for m, e in zip(row, exp)) + int(o) for row, o in zip(matrix, offset))
        out[key] = out.get(key, 0) + coef
    return LaurentPoly(out)


_S, _T, _ONE = LaurentPoly.variable("s"), LaurentPoly.variable("t"), LaurentPoly.one()


def block_factors(odd: int, size: int) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
    """The factors in s and t of a block of ``size`` entries in a rank-n sum, where ``odd`` is (n - size) % 2.

    s marks the block when n - size is even and t when it is odd; the
    marker's own factor has exponent (size - 1) // 2, the other size // 2.
    Returns marker * (1-t)^et and (1-s)^es for the recurrences, then
    (s-1)^es and (t-1)^et for the subset expansion.
    """
    short, long = (size - 1) // 2, size // 2
    marker, es, et = (_T, long, short) if odd else (_S, short, long)
    return marker * one_minus("t") ** et, one_minus("s") ** es, (_S - _ONE) ** es, (_T - _ONE) ** et


def recur_B_blocks(n: int, lower: Callable[[int], LaurentPoly]) -> LaurentPoly:
    """The rank-n type B recurrence over the ranks ``lower`` gives, each block's factors stated whole."""
    products = [(one_minus("t") ** (n // 2) * one_minus("s") ** ((n + 1) // 2), _ONE)]
    for size in range(1, n + 1):
        marked, s_factor, _, _ = block_factors((n - size) % 2, size)
        products.append((c_coeff(n, size), lower(n - size), marked, s_factor))
    return sum_of_products(products)


def recur_D_blocks(n: int, lower: Callable[[int], LaurentPoly]) -> LaurentPoly:
    """The rank-n type D recurrence (n >= 2) over the ranks ``lower`` gives, each block's factors stated whole."""
    omt, pd, k = one_minus("t"), pd_product(n), n // 2
    head = one_minus("s") ** ((n - 1) // 2)
    products = [
        (omt ** (k + 1) * head, _ONE),
        (2 * _T * omt**k * head, pd),
        (_T * _T * omt ** (k - 1) * head * qint(n), pd),
    ]
    for size in range(1, n - 1):
        marked, s_factor, _, _ = block_factors((n - size) % 2, size)
        products.append((cd_coeff(n, size), lower(n - size), marked, s_factor))
    return sum_of_products(products)


def hyatt_plus_blocks(n: int, base: Callable[[int], LaurentPoly]) -> LaurentPoly:
    """The rank-n subset expansion (n >= 1) over the full-group ranks ``base`` gives, each block's factors stated whole."""
    row = qbinom_row(n)
    products = []
    for size in range(1, n + 1):
        _, _, s_factor, t_factor = block_factors((n - size) % 2, size)
        products.append((q_polynomial(row[size], size * (size - 1) // 2), base(n - size), s_factor, t_factor))
    return sum_of_products(products)


def reiner_rhs_blocks(n: int, polys: Callable[[int], LaurentPoly]) -> LaurentPoly:
    """t * sum_k B_(n-k)(t,q) (1-t)^k C_k(n) + (1-t)^(n+1), each (1-t)^k stated whole."""
    omt = one_minus("t")
    products = [(omt ** (n + 1), _ONE)]
    products += [(c_coeff(n, k), polys(n - k), _T * omt**k) for k in range(n + 1)]
    return sum_of_products(products)
