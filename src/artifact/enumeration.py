"""Ground-truth polynomial oracles by direct summation over the groups.

Two independent routes compute every distribution:

* a direct route that reads the family's words in int16 blocks
  (``word_arrays``) and counts each statistic row by row by explicit entry
  comparisons (``array_stats``: ascents by their own comparisons, inversions
  by the definitional pair-counting formulas), and
* a vectorized route that histograms each word of the flavor's whole group
  by (descent-set bitmask, sign of the last entry, inv) over sign-pattern
  chunks with numpy, projects that histogram onto the requested family
  (every family is a condition on the mask and the last sign), and derives
  ascent counts from the position totals.

The two routes are cross-checked against each other in the test suite; the
checks that probe the ascent/descent complementation itself always use the
direct route so they stay non-circular.
"""

from __future__ import annotations

import os
from functools import cache
from math import factorial

import numpy as np

from .permutations import FLAVOR, StatVector, array_stats, check_cutoff, word_arrays
from .polynomials import LaurentPoly

WEIGHTS = ("biv", "fivevar", "hat", "q")

DEFAULT_BOUNDS = {"A": 9, "B": 8, "D": 8}
BOUND_ENV_VAR = "ARTIFACT_MAX_N"


class BoundExceeded(ValueError):
    """Raised when a brute-force request exceeds the configured ceiling."""

    def __init__(self, group: str, n: int, bound: int, estimate: int):
        self.group, self.n, self.bound, self.estimate = group, n, bound, estimate
        super().__init__(
            f"brute force over {group} at rank {n} needs about {estimate:,} "
            f"words; the ceiling is rank {bound} "
            f"(set {BOUND_ENV_VAR} to override)"
        )


def enumeration_bound(group: str) -> int:
    override = os.environ.get(BOUND_ENV_VAR)
    if override is None:
        return DEFAULT_BOUNDS[FLAVOR[group]]
    try:
        return int(override)
    except ValueError:
        raise ValueError(f"{BOUND_ENV_VAR} must be an integer, got {override!r}") from None


def work_estimate(group: str, n: int) -> int:
    if FLAVOR[group] == "A":
        return factorial(n)
    return 2**n * factorial(n)


def check_bound(group: str, n: int) -> None:
    bound = enumeration_bound(group)
    if n > bound:
        raise BoundExceeded(group, n, bound, work_estimate(group, n))


# ----------------------------------------------------------------------
# direct route
# ----------------------------------------------------------------------
# Words per block of the direct route.
_BLOCK_WORDS = 1 << 14


def _exponent(stats: StatVector, weight: str) -> tuple[int, ...]:
    # roster order: (s, t, q, s0, s1, t0, t1)
    if weight == "biv":
        return (stats.edes, stats.odes, stats.inv, 0, 0, 0, 0)
    if weight == "hat":
        return (stats.easc, stats.odes, stats.inv, 0, 0, 0, 0)
    if weight == "fivevar":
        return (0, 0, stats.inv, stats.easc, stats.oasc, stats.edes, stats.odes)
    if weight == "q":
        return (0, 0, stats.inv, 0, 0, 0, 0)
    raise ValueError(f"unknown weight {weight!r}")


def add_counts(totals: dict[tuple[int, ...], int], keys: np.ndarray) -> None:
    """Add the multiplicity of each column of a nonnegative key array to ``totals``."""
    dims = tuple((keys.max(axis=1) + 1).tolist())
    counts = np.bincount(np.ravel_multi_index(keys, dims))
    seen = np.flatnonzero(counts)
    for key, count in zip(zip(*(a.tolist() for a in np.unravel_index(seen, dims))), counts[seen].tolist()):
        totals[key] = totals.get(key, 0) + count


def poly_group_python(
    group: str, n: int, weight: str, i: int | None = None
) -> LaurentPoly:
    """The direct route: statistics compared row by row over blocks of the family's words."""
    totals: dict[tuple[int, ...], int] = {}
    for words in word_arrays(group, n, _BLOCK_WORDS, i):
        add_counts(totals, array_stats(words, FLAVOR[group]))
    terms: dict[tuple[int, ...], int] = {}
    for vector, count in totals.items():
        exp = _exponent(StatVector(*vector), weight)
        terms[exp] = terms.get(exp, 0) + count
    return LaurentPoly(terms)


# ----------------------------------------------------------------------
# vectorized route
# ----------------------------------------------------------------------
# Words per chunk: one chunk's arrays stay within tens of MB, unless a single
# sign pattern alone holds more permutations than this.
_CHUNK_WORDS = 1 << 20

# The kernel's narrow accumulators hold inv <= n*n in uint8 and the
# (last sign, descent mask) pair in uint16, which fits every rank up to 15.
_MAX_VECTOR_RANK = 15

_PERM_CACHE: dict[int, np.ndarray] = {}


def _perm_rows(n: int) -> np.ndarray:
    """Every permutation of 1..n as a column, in lexicographic order: one
    contiguous int8 row per position.

    The permutations of rank k are built from those of rank k-1: each first
    entry f, followed by every rank-(k-1) permutation with its entries from f
    up raised by one.
    """
    arr = _PERM_CACHE.get(n)
    if arr is None:
        arr = np.zeros((0, 1), dtype=np.int8)
        for k in range(1, n + 1):
            m = arr.shape[1]
            rows = np.empty((k, k * m), dtype=np.int8)
            for f in range(1, k + 1):
                block = slice((f - 1) * m, f * m)
                rows[0, block] = f
                rows[1:, block] = arr + (arr >= f)
            arr = rows
        _PERM_CACHE[n] = arr
    return arr


def _sign_codes(flavor: str, n: int) -> np.ndarray:
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


def _inv_bins(flavor: str, n: int) -> int:
    if flavor == "B":
        return n * n + 1
    if flavor == "D":
        return n * (n - 1) + 1
    return n * (n - 1) // 2 + 1


def _chunk_histogram(flavor: str, n: int, lo: int, hi: int) -> np.ndarray:
    """Bincount of (last entry negative, descent mask, inv) over sign patterns lo..hi-1.

    The key is ``((last << n) | mask) * bins + inv``.  Bit j of the mask is
    position j for j >= 1; bit 0 is position 0 for B (0 > pi_1), position -1
    for D (-pi_1 > pi_2), and never set for A.  Arrays are laid out as
    (sign pattern, permutation), one array per position.
    """
    perms = _perm_rows(n)
    bins = _inv_bins(flavor, n)
    codes = _sign_codes(flavor, n)[lo:hi]
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


@cache
def _histogram(flavor: str, n: int) -> np.ndarray:
    """The whole-group histogram of a flavor and rank; memoized, so read-only."""
    nsigns = len(_sign_codes(flavor, n))
    # the word budget alone would allow 26 sign patterns per chunk at B8; the
    # // 32 term caps that at 8, which keeps the sweep's peak memory low
    chunk = max(1, min(nsigns // 32, _CHUNK_WORDS // factorial(n)))
    total = 0
    for lo in range(0, nsigns, chunk):
        # binding each chunk's histogram to a name keeps it alive while the
        # next chunk runs; it then sits above that chunk's freed temporaries,
        # so malloc reuses their pages instead of trimming and refaulting them
        # (B8 took 0.25 s instead of 0.15 s, with six times the page faults)
        part = _chunk_histogram(flavor, n, lo, min(lo + chunk, nsigns))
        total += part
    total.flags.writeable = False
    return total


# registry.clear_cache drops the histograms along with its polynomials
clear_histograms = _histogram.cache_clear


def _position_bits(flavor: str, n: int) -> tuple[int, int]:
    """Masks of the even and the odd positions among the descent-mask bits."""
    even = sum(1 << j for j in range(2, n, 2)) | (flavor == "B")
    odd = sum(1 << j for j in range(1, n, 2)) | (flavor == "D")
    return even, odd


def _accepted(group: str, n: int, i: int | None, odd: int) -> np.ndarray:
    """Which (last entry negative, descent mask) keys belong to the family."""
    last = np.arange(2)[:, None]
    mask = np.arange(1 << n)[None, :]
    if group.endswith("+"):
        keep = last == 0
    elif group.endswith("-"):
        keep = last == 1
    elif group == "G":
        keep = mask >> (i + 1) == 0  # descents only at positions 0..i
    elif group == "H":
        keep = mask >> (max(i, 0) + 1) == 0  # only at -1 and 1..i
    elif group == "X":
        keep = mask >> 2 == 0  # only at -1 and 1
    elif group.startswith("snake"):
        keep = mask == odd
    else:
        keep = np.ones((1, 1), dtype=bool)
    return np.broadcast_to(keep, (2, 1 << n))


def poly_group_numpy(group: str, n: int, weight: str, i: int | None = None) -> LaurentPoly:
    check_cutoff(group, n, i)
    if n < 2:
        return poly_group_python(group, n, weight, i)
    if n > _MAX_VECTOR_RANK:
        raise ValueError(f"the vectorized route stops at rank {_MAX_VECTOR_RANK}, got {n}")
    flavor = FLAVOR[group]
    even, odd = _position_bits(flavor, n)
    evens, odds = even.bit_count(), odd.bit_count()
    bins = _inv_bins(flavor, n)
    hist = _histogram(flavor, n).reshape(2, 1 << n, bins)

    # fold the accepted keys onto (edes, odes, inv)
    last, mask = np.nonzero(_accepted(group, n, i, odd))
    folded = np.zeros((evens + 1, odds + 1, bins), dtype=np.int64)
    np.add.at(
        folded, (np.bitwise_count(mask & even), np.bitwise_count(mask & odd)), hist[last, mask]
    )

    terms: dict[tuple[int, ...], int] = {}
    for edes, odes, inv in zip(*(axis.tolist() for axis in np.nonzero(folded))):
        stats = StatVector(edes, odes, evens - edes, odds - odes, inv)
        exp = _exponent(stats, weight)
        terms[exp] = terms.get(exp, 0) + int(folded[edes, odes, inv])
    return LaurentPoly(terms)


def poly_group(
    group: str,
    n: int,
    weight: str,
    i: int | None = None,
    jobs: int = 1,
    method: str = "auto",
) -> LaurentPoly:
    """Exact distribution polynomial for a group family by brute force.

    'auto' and 'numpy' take the vectorized route, which covers every family:
    one histogram over the flavor's group, projected onto the family by its
    descent set and last-entry sign.  'python' takes the direct route, which
    compares entries row by row over blocks of the family's words; it stays
    as the independent oracle.
    ``jobs`` is accepted for callers that pass it and has no effect.
    """
    if group not in FLAVOR:
        raise ValueError(f"unknown group family {group!r}; choose from {tuple(FLAVOR)}")
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose from {WEIGHTS}")
    check_bound(group, n)
    if method == "python":
        return poly_group_python(group, n, weight, i)
    if method in ("auto", "numpy"):
        return poly_group_numpy(group, n, weight, i)
    raise ValueError(f"unknown method {method!r}")
