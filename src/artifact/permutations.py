"""Signed permutations: representation, iteration, and statistics.

A signed permutation of rank n is stored as a tuple of n nonzero integers
whose absolute values are a permutation of 1..n.  The leading 0 of the
hyperoctahedral convention is implicit and never stored.

Positions for the type-B statistics are 0..n-1, where position i compares
pi_i against pi_{i+1} with pi_0 = 0.  Positions for type D are
{-1, 1, ..., n-1} with pi_{-1} = -pi_1; position -1 counts as odd.  Type-A
(ordinary permutation) positions are 1..n-1.  ``positions`` lists them, and
the descent sets, the position counts, the scalar statistics
``stats_A``/``stats_B``/``stats_D``, the descent-mask bits ``position_bits``
and the row-wise comparisons ``position_columns`` are read from it.  Every
family is a condition on the descent mask and the last entry's sign;
``_family_rule`` is the one statement of those rules, and ``family_keys``
tabulates it for both brute-force routes.

Sweeps over many words at once hold them as an integer array, one word per
row: ``word_arrays`` yields a family's words so, in the order of
``iterate_group``, and ``array_stats`` and ``flip_array`` are the row-wise
forms of ``stats_A``/``stats_B``/``stats_D`` and ``flip_all``/``flip_D``.
``permutation_blocks`` is the one source of permutations for both
brute-force routes: lexicographic int8 columns, from a cached table up to
rank 8 and filled block by block above it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import Iterator, Sequence

import numpy as np

Word = tuple[int, ...]


# ----------------------------------------------------------------------
# basic predicates and text form
# ----------------------------------------------------------------------
def validate_word(word: Sequence[int]) -> Word:
    w = tuple(word)
    if sorted(abs(x) for x in w) != list(range(1, len(w) + 1)) or 0 in w:
        raise ValueError(f"not a signed permutation: {w}")
    return w


def negative_count(word: Sequence[int]) -> int:
    return sum(1 for x in word if x < 0)


def in_type_d(word: Sequence[int]) -> bool:
    return negative_count(word) % 2 == 0


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(x) for x in word)


def parse_word(text: str) -> Word:
    return validate_word(int(piece) for piece in text.split(","))


# ----------------------------------------------------------------------
# positions and descent sets
# ----------------------------------------------------------------------
def positions(flavor: str, n: int) -> tuple[int, ...]:
    """The descent positions of a rank-n word of the flavor, as in the module docstring.

    Type D has none below rank 2: position -1 compares -pi_1 with pi_2.
    """
    if flavor == "A":
        return tuple(range(1, n))
    if flavor == "B":
        return tuple(range(n))
    if flavor == "D":
        return (-1,) + tuple(range(1, n)) if n >= 2 else ()
    raise ValueError(f"unknown statistic flavor {flavor!r}")


def even_odd_positions(flavor: str, n: int) -> tuple[int, int]:
    """(#even, #odd) positions of a rank-n word of the flavor; -1 is odd."""
    where = positions(flavor, n)
    odd = sum(i % 2 for i in where)
    return len(where) - odd, odd


def position_bits(flavor: str, n: int) -> tuple[int, int]:
    """Masks of the even and the odd positions in a descent mask, where position i is bit max(i, 0)."""
    even, odd = (sum(1 << max(i, 0) for i in positions(flavor, n) if i % 2 == parity) for parity in (0, 1))
    return even, odd


def _descent_set(flavor: str, word: Sequence[int]) -> tuple[int, ...]:
    """Positions i with pi_i > pi_{|i|+1}, where pi_0 = 0 and pi_{-1} = -pi_1."""
    pi = (0, *word)
    return tuple(i for i in positions(flavor, len(word)) if (pi[i] if i >= 0 else -pi[1]) > pi[abs(i) + 1])


def position_columns(flavor: str, words: np.ndarray) -> Iterator[tuple[int, np.ndarray | int, np.ndarray]]:
    """``_descent_set`` row-wise: each position i with the columns pi_i and pi_{|i|+1} it compares."""
    for i in positions(flavor, words.shape[1]):
        yield i, (words[:, i - 1] if i > 0 else -words[:, 0] if i else 0), words[:, abs(i)]


def descent_set_A(word: Sequence[int]) -> tuple[int, ...]:
    return _descent_set("A", word)


def descent_set_B(word: Sequence[int]) -> tuple[int, ...]:
    return _descent_set("B", word)


def descent_set_D(word: Sequence[int]) -> tuple[int, ...]:
    return _descent_set("D", word)


# ----------------------------------------------------------------------
# inversion statistics
# ----------------------------------------------------------------------
def inv_A(word: Sequence[int]) -> int:
    n = len(word)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j]
    )


def negative_magnitude_sum(word: Sequence[int]) -> int:
    return -sum(x for x in word if x < 0)


def inv_B(word: Sequence[int]) -> int:
    """Type-B length: ordinary inversions plus the negative magnitudes."""
    return inv_A(word) + negative_magnitude_sum(word)


def inv_D(word: Sequence[int]) -> int:
    """Type-D length: the type-B count without the negative-entry term."""
    return inv_A(word) + negative_magnitude_sum(word) - negative_count(word)


# ----------------------------------------------------------------------
# statistic vectors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StatVector:
    edes: int
    odes: int
    easc: int
    oasc: int
    inv: int


def _stats(flavor: str, inv: int, word: Sequence[int]) -> StatVector:
    descents = _descent_set(flavor, word)
    odes = sum(i % 2 for i in descents)
    edes = len(descents) - odes
    evens, odds = even_odd_positions(flavor, len(word))
    return StatVector(edes, odes, evens - edes, odds - odes, inv)


def stats_A(word: Sequence[int]) -> StatVector:
    return _stats("A", inv_A(word), word)


def stats_B(word: Sequence[int]) -> StatVector:
    return _stats("B", inv_B(word), word)


def stats_D(word: Sequence[int]) -> StatVector:
    return _stats("D", inv_D(word), word)


def array_stats(words: np.ndarray, flavor: str) -> np.ndarray:
    """(edes, odes, easc, oasc, inv) of every row of a word array, as a (5, rows) int64 array.

    Row by row these are the fields of ``stats_A``/``stats_B``/``stats_D``,
    counted by explicit comparisons: ascents by their own comparisons rather
    than derived from the descent counts, and inv by the definitional
    pair-counting forms.
    """
    rows, n = words.shape
    stats = np.zeros((5, rows), dtype=np.int64)
    for i, left, right in position_columns(flavor, words):
        stats[i % 2] += left > right
        stats[2 + i % 2] += left < right
    negated = -words
    for a in range(n):
        for b in range(a + 1, n):
            stats[4] += words[:, a] > words[:, b]
            if flavor != "A":
                stats[4] += negated[:, a] > words[:, b]
    if flavor == "B":
        stats[4] += (words < 0).sum(axis=1)
    return stats


# ----------------------------------------------------------------------
# snakes
# ----------------------------------------------------------------------
def is_snake(word: Sequence[int], family: str) -> bool:
    """Alternating chains: 0<w1>w2<w3>... (B); -w2>w1>w2<w3>... (D).

    That is, the word's (last entry negative, descent mask) key passes the
    ``family_keys`` rule of snakeB or snakeD, read at that one key rather
    than from a table of all 2**n; a D snake also lies in D.
    """
    if family not in ("B", "D"):
        raise ValueError(f"unknown snake family {family!r}")
    if family == "D" and not in_type_d(word):
        return False
    mask = sum(1 << max(i, 0) for i in _descent_set(family, word))
    return bool(_family_rule("snake" + family, len(word), None, int(bool(word) and word[-1] < 0), mask))


# ----------------------------------------------------------------------
# sign-flip involutions
# ----------------------------------------------------------------------
def flip_all(word: Sequence[int]) -> Word:
    return tuple(-x for x in word)


def flip_D(word: Sequence[int]) -> Word:
    """Parity-preserving flip: negate all entries, sparing the first when n is odd."""
    if len(word) % 2 == 0:
        return tuple(-x for x in word)
    return (word[0],) + tuple(-x for x in word[1:])


def flip_array(words: np.ndarray, flavor: str) -> np.ndarray:
    """``flip_all`` (flavor B) or ``flip_D`` (flavor D) of every row."""
    out = -words
    if flavor == "D" and words.shape[1] % 2 == 1:
        out[:, 0] = words[:, 0]
    return out


# ----------------------------------------------------------------------
# iteration
# ----------------------------------------------------------------------
GROUPS = (
    "A", "B", "D", "B+", "B-", "D+", "D-", "G", "H", "X", "snakeB", "snakeD",
)

# the statistics each family is counted with: permutations (A), or B_n or D_n words
FLAVOR = {
    "A": "A",
    "B": "B", "B+": "B", "B-": "B", "G": "B", "snakeB": "B",
    "D": "D", "D+": "D", "D-": "D", "H": "D", "X": "D", "snakeD": "D",
}


def check_cutoff(group: str, n: int, i: int | None) -> None:
    """Validate the rank, and the cutoff i that only G and H take (-1 <= i <= n-1)."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if group in ("G", "H"):
        if i is None:
            raise ValueError(f"family {group} requires the cutoff i")
        if n < 1 or not -1 <= i <= n - 1:
            raise ValueError(f"cutoff i={i} outside -1..{n - 1}")
    elif i is not None:
        raise ValueError(f"family {group} takes no cutoff")


# Words (before the family filter) built per step of word_arrays, unless one
# permutation's sign patterns alone are more.
_STEP_WORDS = 1 << 14

# Ranks whose permutations are held whole, one cached table each; above it
# they are built block by block.
_TABLE_RANK = 8


def _fill(out: np.ndarray, start: int) -> np.ndarray:
    """``out`` with the permutations of 1..n, n = ``out.shape[0]``, from lexicographic index ``start`` on in its
    columns: each first entry f + 1 in turn, in front of those of rank n - 1 with their entries above f raised by one."""
    n, width = out.shape
    size = factorial(n - 1)
    for f in range(start // size, (start + width - 1) // size + 1):
        lo, hi = max(start, f * size), min(start + width, (f + 1) * size)
        lower = out[1:, lo - start : hi - start]
        if n - 1 > _TABLE_RANK:
            _fill(lower, lo - f * size)
        else:
            lower[:] = permutation_table(n - 1)[:, lo - f * size : hi - f * size]
        lower += lower > f
        out[0, lo - start : hi - start] = f + 1
    return out


@cache
def permutation_table(n: int) -> np.ndarray:
    """Every permutation of 1..n as an int8 column, in lexicographic order; read-only, since it is cached."""
    table = _fill(np.empty((n, factorial(n)), dtype=np.int8), 0) if n else np.empty((0, 1), dtype=np.int8)
    table.flags.writeable = False
    return table


def permutation_blocks(n: int, columns: int) -> Iterator[np.ndarray]:
    """The columns of ``permutation_table(n)`` in blocks of ``columns``, the last perhaps fewer: views of the table
    up to rank ``_TABLE_RANK``, and above it each block filled on its own, so no rank above it is held whole."""
    for start in range(0, factorial(n), columns):
        width = min(columns, factorial(n) - start)
        if n <= _TABLE_RANK:
            yield permutation_table(n)[:, start : start + width]
        else:
            yield _fill(np.empty((n, width), dtype=np.int8), start)


def family_keys(group: str, n: int, i: int | None) -> np.ndarray:
    """Which (last entry negative, descent mask) keys belong to the family, as a (2, 2**n) bool array.

    Each entry is ``_family_rule`` at its key.
    """
    keep = _family_rule(group, n, i, np.arange(2)[:, None], np.arange(1 << n)[None, :])
    return np.broadcast_to(keep, (2, 1 << n))


def _family_rule(group: str, n: int, i: int | None, last, mask):
    """Whether the key (last entry negative, descent mask) belongs to the family, for ints or broadcasting arrays.

    This is the one statement of the family rules: B+/D+ and B-/D- fix the
    last sign; G, H and X allow descents only up to a position (Des within
    {0..i}, {-1, 1..i} and {-1, 1}); the snakes' descent set is exactly the
    odd positions.  The full groups take every key.
    """
    if group.endswith("+"):
        return last == 0
    if group.endswith("-"):
        return last == 1
    if group in ("G", "H", "X"):
        top = 1 if group == "X" else max(i, 0) if group == "H" else i  # the last bit that may be set
        return mask >> (top + 1) == 0
    if group.startswith("snake"):
        return mask == position_bits(FLAVOR[group], n)[1]
    return True


def _member_rows(keys: np.ndarray, flavor: str, words: np.ndarray) -> np.ndarray:
    """Which rows of a block of the flavor's words belong to the family whose ``family_keys`` are ``keys``."""
    mask = 0
    if (keys != keys[:, :1]).any():  # the family depends on the descent set
        mask = sum((left > right) << max(p, 0) for p, left, right in position_columns(flavor, words))
    return keys[(words[:, -1] < 0).astype(np.intp), mask]


def word_arrays(group: str, n: int, rows: int = _STEP_WORDS, i: int | None = None) -> Iterator[np.ndarray]:
    """The words of ``iterate_group(group, n, i)``, in its order, as int16 arrays.

    Each step reads the next few permutations (``permutation_blocks``) and
    multiplies each by every sign pattern of the flavor (``+`` before ``-``,
    first entry slowest; for D only the even ones), so memory stays bounded.
    The family's words of one step are cut into arrays of at most ``rows``
    words, one per row; no array is empty, and none spans two steps.
    """
    check_cutoff(group, n, i)
    if group not in FLAVOR:
        raise ValueError(f"unknown group {group!r}")
    if n == 0:
        if not group.endswith(("+", "-")):
            yield np.zeros((1, 0), dtype=np.int16)
        return
    signs = np.array(list(itertools.product((1,) if group == "A" else (1, -1), repeat=n)), dtype=np.int16)
    if FLAVOR[group] == "D":
        signs = signs[signs.prod(axis=1) == 1]  # D_n: the even sign patterns
    keys = family_keys(group, n, i)
    for perms in permutation_blocks(n, max(1, _STEP_WORDS // len(signs))):
        words = (perms.T[:, None].astype(np.int16) * signs).reshape(-1, n)
        words = words[_member_rows(keys, FLAVOR[group], words)]
        for a in range(0, len(words), rows):
            yield words[a:a + rows]


def iterate_group(group: str, n: int, i: int | None = None) -> Iterator[Word]:
    """Stream the requested family exactly once each, deterministically.

    The order is lexicographic by permutation, then by sign pattern with
    ``+`` before ``-``.  G and H require the cutoff parameter i with
    -1 <= i <= n-1: descents are allowed only at positions <= i (the last n-i
    entries increase).
    """
    for block in word_arrays(group, n, i=i):
        yield from map(tuple, block.tolist())
