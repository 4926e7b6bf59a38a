"""Reference implementations that only the tests use.

Each is a definitional form of something the package computes another way:
the inverses of the juxtaposition maps, the pair-counting lengths, a
filter over the whole group for the descending-suffix family, and the
word-at-a-time lemma sums.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from artifact.bijections import SignedSubset, signed_subsets
from artifact.permutations import Word, iterate_group, negative_count
from artifact.polynomials import LaurentPoly


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
