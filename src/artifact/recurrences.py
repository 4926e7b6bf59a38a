"""Recurrences and closed-form rewrites for the refined descent polynomials.

Everything here is built from exact integer Laurent polynomials; no brute-force
enumeration is used, so these routines serve as an independent route to the
same polynomials that :mod:`artifact.enumeration` computes by summing over
group elements.

The q-only coefficients are rows of coefficient lists, each entry built from
the one before it by an exact ratio step (``polynomials.q_ratio_row``):
[n, j]_q = [n, j-1]_q (1 - q^m) / (1 - q^j) with m = n - j + 1, and likewise
c(n, j) by (1 - q^(2m)) / (1 - q^j) and cd(n, j) by (1 - q^m)(1 + q^(m-1)) /
(1 - q^j).  No polynomial product builds them.

Each rank is one linked kernel sum (``polynomials.sum_of_products`` with
links).  In a rank-n sum the block of size k is marked by m_k, which is s
when n - k is even and t when it is odd, and the block's factor in s and t
is a chain: m_k times the product of 1 - m_j over the sizes j < k in the
recurrences, and the product of m_j - 1 over j < k in the subset expansion.
So each block's product is (q-coefficient, lower rank, m_k), and each size
links it to the next by one factor 1 - m_k or m_k - 1, which the kernel
applies once to the sum so far, by Horner's rule.  The marks and links are
module constants held in kernel form.  The ranks below each rank are filled
bottom-up, so no call recurses once per rank.  ``reciprocal_transform`` maps
the rows of a kernel result's exponent array, so ``compare``'s routes, their
sum and the kernel difference its verdict reads never build a term dict.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Callable

from .polynomials import (
    LaurentPoly,
    held_form,
    q_polynomial,
    q_ratio_row,
    qbinom_row,
    qint,
    reciprocal_image,
    sum_of_products,
)

__all__ = [
    "c_coeff",
    "cd_coeff",
    "pd_product",
    "recur_B",
    "recur_D",
    "recurrence_poly",
    "hyatt_plus",
    "classic_plus_B",
    "reiner_poly",
    "reiner_recurrence_rhs",
    "reciprocal_exponents",
    "reciprocal_transform",
]

_S, _T, _ONE = map(held_form, (LaurentPoly.variable("s"), LaurentPoly.variable("t"), LaurentPoly.one()))
# by (n - k) % 2, the mark m_k of a size-k block in a rank-n sum, and its links 1 - m_k and m_k - 1
_MARKS = (_S, _T)
_FALLS = tuple(held_form(_ONE - m) for m in _MARKS)
_RISES = tuple(held_form(m - _ONE) for m in _MARKS)


@lru_cache(maxsize=None)
def _c_row(n: int) -> tuple[tuple[int, ...], ...]:
    """The coefficients of c(n, 0), ..., c(n, n), each from the one before by
    the ratio (1 - q^(2m)) / (1 - q^j), m = n - j + 1."""
    return q_ratio_row(n, lambda m: ((2 * m, -1),))


@lru_cache(maxsize=None)
def _cd_row(n: int) -> tuple[tuple[int, ...], ...]:
    """The coefficients of cd(n, 0), ..., cd(n, n), each from the one before
    by the ratio (1 - q^m)(1 + q^(m-1)) / (1 - q^j), m = n - j + 1."""
    return q_ratio_row(n, lambda m: ((m, -1), (m - 1, 1)))


@lru_cache(maxsize=None)
def c_coeff(n: int, j: int) -> LaurentPoly:
    """``qbinom(n, j) * prod_{x=0}^{j-1} (1 + q^{n-x})``.

    Equals the ratio of Poincare polynomials ``B_n(1,q) / (B_{n-j}(1,q) [j]_q!)``.
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")
    return q_polynomial(_c_row(n)[j])


@lru_cache(maxsize=None)
def cd_coeff(n: int, j: int) -> LaurentPoly:
    """``qbinom(n, j) * prod_{i=n-j}^{n-1} (1 + q^i)``.

    Equals ``D_n(1,q) / (D_{n-j}(1,q) [j]_q!)`` for j < n, and twice that
    for j = n, where the trivial D_0 takes the place of a group of order 2.
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")
    return q_polynomial(_cd_row(n)[j])


def pd_product(n: int) -> LaurentPoly:
    """``prod_{i=1}^{n-1} (1 + q^i)``, the ratio ``D_n(1,q) / [n]_q!``.

    Half of ``cd_coeff(n, n)``, so it is read off the rank's cd row.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n < 2:
        return _ONE
    return q_polynomial(c // 2 for c in _cd_row(n)[n])


@lru_cache(maxsize=None)
def recur_B(n: int) -> LaurentPoly:
    """Bivariate polynomial for the full hyperoctahedral group via recurrence.

    Variables: s (even-position descents), t (odd-position descents), q
    (inversion number).  The recurrence peels off the maximal increasing
    suffix of each element; the parity of n decides which variable marks a
    suffix of each size.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return LaurentPoly.one()
    lower = list(map(recur_B, range(n)))  # bottom-up: a cold call finds every lower rank cached
    sizes = range(1, n + 1)
    products = [(c_coeff(n, k), lower[n - k], _MARKS[(n - k) % 2]) for k in sizes]
    # the term with no block is the product of every link, (1 - s)^((n+1)//2) (1 - t)^(n//2)
    return sum_of_products(products + [(_ONE, _ONE)], [_FALLS[(n - k) % 2] for k in sizes])


@lru_cache(maxsize=None)
def recur_D(n: int) -> LaurentPoly:
    """Bivariate polynomial for the even-signed permutation group via recurrence.

    Valid for all n >= 0 (the groups of rank 0 and 1 are trivial).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n < 2:
        return LaurentPoly.one()
    lower = list(map(recur_D, range(n)))  # bottom-up, as in recur_B
    sizes = range(1, n - 1)
    products = [(cd_coeff(n, k), lower[n - k], _MARKS[(n - k) % 2]) for k in sizes]
    # the three terms with no block share every link, (1 - s)^((n-1)//2) (1 - t)^(n//2 - 1)
    omt, pd = _FALLS[1], pd_product(n)
    products += [(omt, omt), (2 * _T * omt, pd), (_T * _T * qint(n), pd)]
    return sum_of_products(products, [_FALLS[(n - k) % 2] for k in sizes])


def recurrence_poly(family: str, n: int) -> LaurentPoly:
    """Dispatch to :func:`recur_B` or :func:`recur_D` by family name."""
    if family == "B":
        return recur_B(n)
    if family == "D":
        return recur_D(n)
    raise ValueError(f"unknown family {family!r}; expected 'B' or 'D'")


def hyatt_plus(family: str, n: int) -> LaurentPoly:
    """Polynomial for elements with positive last entry, via subset expansion.

    Expands the positive-last-entry class in terms of the full-group
    polynomials for smaller ranks, with q-binomial and q-power coefficients.
    """
    base: Callable[[int], LaurentPoly] = recur_B if family == "B" else recur_D
    if family not in ("B", "D"):
        raise ValueError(f"unknown family {family!r}; expected 'B' or 'D'")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    row = qbinom_row(n)
    sizes = range(1, n + 1)
    products = [(q_polynomial(row[k], comb(k, 2)), base(n - k)) for k in sizes]
    return sum_of_products(products, [_RISES[(n - k) % 2] for k in sizes])


@lru_cache(maxsize=None)
def _classic_B(n: int) -> LaurentPoly:
    """Single-variable descent polynomial of the hyperoctahedral group (q = 1, s = t)."""
    return recur_B(n).subs_values({"q": 1}).rename_variables({"s": "t"})


@lru_cache(maxsize=None)
def classic_plus_B(n: int) -> LaurentPoly:
    """Single-variable positive-last-entry polynomial via the classical identity.

    ``B_n^+(t) = sum_{k=0}^{n-1} binom(n,k) B_k(t) (t-1)^{n-k-1}``, where the
    ``B_k(t)`` inputs come from the bivariate recurrence specialised at
    q = 1, s = t.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    tm1 = _T - _ONE
    total = LaurentPoly.zero()
    for k in range(n):
        total = total + comb(n, k) * _classic_B(k) * tm1 ** (n - k - 1)
    return total


@lru_cache(maxsize=None)
def reiner_poly(n: int) -> LaurentPoly:
    """Two-variable polynomial t^{des} q^{inv} for the hyperoctahedral group.

    Obtained from the bivariate recurrence by merging the even/odd descent
    markers (s = t).
    """
    return recur_B(n).rename_variables({"s": "t"})


def reiner_recurrence_rhs(n: int, polys: Callable[[int], LaurentPoly] = reiner_poly) -> LaurentPoly:
    """Right side of the unrefined descent recurrence, cleared of denominators.

    ``t * sum_{k=0}^{n} B_{n-k}(t,q) (1-t)^k C_k(n) + (1-t)^{n+1}``, which the
    left side ``B_n(t,q)`` satisfies implicitly (the k = 0 term contains it).
    `polys` supplies the two-variable polynomials by rank.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    products = [(c_coeff(n, k), polys(n - k), _T) for k in range(n + 1)]
    return sum_of_products(products + [(_ONE, _ONE)], [_FALLS[1]] * (n + 1))


def reciprocal_exponents(family: str, n: int) -> tuple[int, int, int]:
    """(q power, s power, t power) prefactor exponents for the reciprocity laws.

    They are also the constant sums of inv, edes and odes over a word and its
    entrywise negation, which the sign-flip laws state.
    """
    if family == "B":
        return n * n, (n + 1) // 2, n // 2
    if family == "D":
        return n * (n - 1), (n - 1) // 2, n // 2 + 1
    raise ValueError(f"unknown family {family!r}; expected 'B' or 'D'")


def reciprocal_transform(family: str, n: int, poly: LaurentPoly) -> LaurentPoly:
    """The image of a polynomial under (s,t,q) -> (1/s,1/t,1/q), times the
    family's prefactor.

    It maps the positive-last-entry polynomial to the negative-last-entry one,
    and the full-group polynomial to itself.
    """
    qpow, spow, tpow = reciprocal_exponents(family, n)
    return reciprocal_image(poly, s=spow, t=tpow, q=qpow)
