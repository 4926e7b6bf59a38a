"""Ground-truth polynomial oracles by direct summation over the groups.

Two independent routes compute every distribution:

* a direct route that reads the family's words in int16 blocks
  (``word_arrays``) and counts each statistic row by row by explicit entry
  comparisons (``array_stats``: ascents by their own comparisons, inversions
  by the definitional pair-counting formulas), and
* a vectorized route that histograms each word of the flavor's whole group
  by (descent-set bitmask, sign of the last entry, inv) with numpy, projects
  that histogram onto the requested family, and derives ascent counts from
  the position totals.  It compares no entries word by word: for a fixed
  permutation the word's histogram key is affine in its sign bits, so
  per-permutation coefficients are computed once and each word's key is one
  add.

Both routes read their permutations from ``permutations.permutation_blocks``
and the family from ``permutations.family_keys``, and both end in
``weighed``, one weight table applied to a whole table of counts; they
differ only in how they count.  The tests cross-check them, keep a
pairwise-comparison histogram as the oracle of the vectorized kernel, and
the checks that probe the ascent/descent complementation itself use the
direct route so they stay non-circular.
"""

from __future__ import annotations

import os
from functools import cache
from math import factorial, lgamma, log, log10

import numpy as np

from .permutations import FLAVOR, array_stats, check_cutoff, family_keys, permutation_blocks, permutation_table
from .permutations import even_odd_positions, position_bits, word_arrays
from .polynomials import NVARS, LaurentPoly, exponent_image, term_sum

DEFAULT_BOUNDS = {"A": 9, "B": 8, "D": 8}
BOUND_ENV_VAR = "ARTIFACT_MAX_N"


class BoundExceeded(ValueError):
    """Raised when a request exceeds a route's ceiling rank.

    For brute force, ``estimate`` counts ``unit``s (the lemmas' insertions),
    or is None for the words of the group at rank n; the message sets it
    against the words of the ceiling rank.  A closed route (``route``) counts
    ``ranks``, each built from the ones below it, and its ceiling is fixed.
    """

    def __init__(self, group: str, n: int, bound: int, estimate: int | None = None, unit: str = "words",
                 route: str = "brute force"):
        self.group, self.n, self.bound, self.estimate, self.unit = group, n, bound, estimate, unit
        if unit == "ranks":
            super().__init__(f"{route} over {group} at rank {n} builds {estimate} ranks; the ceiling is rank {bound}")
            return
        super().__init__(
            f"{route} over {group} at rank {n} needs about {_about(group, n, estimate)} "
            f"{unit}; the ceiling is rank {bound}, about {_about(group, bound)} words "
            f"(set {BOUND_ENV_VAR} to override)"
        )


def _about(group: str, n: int, count: int | None = None) -> str:
    """``count``, or when it is None the words of the group at rank n, in full
    below 10^18 and by its power of ten from there on.

    A word count is sized by log-gamma before it is formed, so a refusal at
    a huge rank neither forms n! nor prints a number past the int-to-text
    digit limit.  The float only sizes the text; no count is rounded.
    """
    digits = (lgamma(n + 1) + _sign_bits(group, n) * log(2)) / log(10) if count is None else log10(count)
    if digits >= 18:
        return f"10^{int(digits):,}"
    return f"{work_estimate(group, n) if count is None else count:,}"


def enumeration_bound(group: str) -> int:
    override = os.environ.get(BOUND_ENV_VAR)
    if override is None:
        return DEFAULT_BOUNDS[FLAVOR[group]]
    try:
        bound = int(override)
    except ValueError:
        raise ValueError(f"{BOUND_ENV_VAR} must be an integer, got {override!r}") from None
    if bound < 0:
        raise ValueError(f"{BOUND_ENV_VAR} must be at least 0, got {override!r}")
    return bound


def _sign_bits(group: str, n: int) -> int:
    """log2 of the sign patterns of the flavor's group: 0 for A, n for B and n - 1 for D."""
    return {"A": 0, "B": n, "D": max(n - 1, 0)}[FLAVOR[group]]


def work_estimate(group: str, n: int) -> int:
    """Words every route builds at rank n before the family filter, those of
    the flavor's group: n! for A, 2^n n! for B and 2^(n-1) n! for D."""
    return factorial(n) << _sign_bits(group, n)


def check_bound(group: str, n: int) -> None:
    bound = enumeration_bound(group)
    if n > bound:
        raise BoundExceeded(group, n, bound)


# ----------------------------------------------------------------------
# direct route
# ----------------------------------------------------------------------
# Each weight's exponents in roster order (s, t, q, s0, s1, t0, t1), one row
# each, as integer combinations of the statistics (edes, odes, easc, oasc, inv).
_EDES, _ODES, _EASC, _OASC, _INV, _NONE = np.eye(6, 5, dtype=np.int64)
_WEIGHT_TABLE = {
    "biv": np.array([_EDES, _ODES, _INV, _NONE, _NONE, _NONE, _NONE]),
    "fivevar": np.array([_NONE, _NONE, _INV, _EASC, _OASC, _EDES, _ODES]),
    "hat": np.array([_EASC, _ODES, _INV, _NONE, _NONE, _NONE, _NONE]),
    "q": np.array([_NONE, _NONE, _INV, _NONE, _NONE, _NONE, _NONE]),
}
WEIGHTS = tuple(_WEIGHT_TABLE)


def weighed(stats: np.ndarray, counts: np.ndarray, weight: str) -> LaurentPoly:
    """The sum of count * x^(the weight's exponent) over int64 statistic columns (edes, odes, easc, oasc, inv)."""
    return term_sum(_WEIGHT_TABLE[weight] @ stats, counts.tolist())


def weight_image(poly: LaurentPoly, flavor: str, n: int, weight: str) -> LaurentPoly:
    """A rank-n polynomial of B or D in s^edes t^odes q^inv, such as ``recur_B(n)``, in the weight's exponents: every
    position is a descent or an ascent, so easc = E - edes and oasc = O - odes, with E even and O odd positions."""
    table = _WEIGHT_TABLE[weight]
    stats = np.eye(NVARS, dtype=np.int64)[[0, 1, 0, 1, 2]] * [[1], [1], [-1], [-1], [1]]  # the rows of the statistics
    return exponent_image(poly, table @ stats, table @ [0, 0, *even_odd_positions(flavor, n), 0])


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
    for words in word_arrays(group, n, i=i):
        add_counts(totals, array_stats(words, FLAVOR[group]))
    stats = np.array(list(totals), dtype=np.int64).reshape(-1, 5).T
    return weighed(stats, np.array(list(totals.values()), dtype=np.int64), weight)


# ----------------------------------------------------------------------
# vectorized route
# ----------------------------------------------------------------------
# Words per chunk: 2**k sign patterns over one block of the permutations
# (``permutation_blocks``), as many as fit in this budget and at least one.
_CHUNK_WORDS = 1 << 18

# Permutations per block: from rank 9 on, where n! is more than this, the
# key coefficients and the chunks are built one block of columns at a time,
# so no chunk holds more than 2**18 words.
_BLOCK_COLUMNS = 1 << 17

# Keys fit in uint32 through this rank, where the histogram of B15 already
# has 226 * 2**16 bins.
_MAX_VECTOR_RANK = 15


def _inv_bins(flavor: str, n: int) -> int:
    if flavor == "B":
        return n * n + 1
    if flavor == "D":
        return n * (n - 1) + 1
    return n * (n - 1) // 2 + 1


def _key_coefficients(flavor: str, n: int, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, K) with key(x, p) = C(p) + sum_a x_a K_a(p) for every column p.

    The key of a signed word is ``((last << n) | mask) * bins + inv``, where
    bit j of the mask is position j for j >= 1, bit 0 is position 0 for B
    (0 > pi_1), position -1 for D (-pi_1 > pi_2) and never set for A, and
    x_a = 1 when entry a of the permutation p is negated.  With
    ES_a = #{b < a : p_b < p_a} and g_j = [p_{j-1} > p_j]:

    * inv_B adds x_a (2 ES_a + 1) to inv(p), and inv_D adds x_a 2 ES_a;
    * descent bit j >= 1 is x_j + g_j (1 - x_{j-1} - x_j);
    * B's bit 0 is x_0, D's is x_1 + g_1 (x_0 - x_1);
    * the last-entry bit is x_{n-1}.

    C and K are unsigned, of the narrowest width that holds every key; the
    negative coefficients wrap around, and every key a word actually takes
    comes out exact.  K has no rows for A.
    """
    bins = _inv_bins(flavor, n)
    dtype = np.uint16 if bins << (n + 1) <= 1 << 16 else np.uint32
    signed = flavor != "A"
    # inv(p) = sum_a #{b < a : p_b > p_a} = n(n-1)/2 - sum_a ES_a
    const = np.full(perms.shape[1], n * (n - 1) // 2, dtype=dtype)
    coef = np.zeros((n if signed else 0, perms.shape[1]), dtype=dtype)
    for a in range(1, n):
        es = np.zeros(perms.shape[1], dtype=np.uint8)
        for b in range(a):
            es += perms[b] < perms[a]
        const -= es
        if signed:
            coef[a] = es
    if signed:
        coef <<= 1
        coef[n - 1] += bins << n
    for j in range(1, n):
        step = bins << j
        g = (perms[j - 1] > perms[j]) * dtype(step)
        const += g
        if signed:
            coef[j] += step
            coef[j] -= g
            coef[j - 1] -= g
    if flavor == "B":
        coef += 1
        coef[0] += bins
    elif flavor == "D":
        g = (perms[0] > perms[1]) * dtype(bins)
        coef[1] += bins
        coef[1] -= g
        coef[0] += g
    return const, coef


def _low_tables(flavor: str, const: np.ndarray, coef: np.ndarray, low: int) -> np.ndarray:
    """The keys of sign bits 0..low-1 over every column, built by doubling.

    Row c of a table is C + sum_{a < low} c_a K_a.  B and A get one table.
    In D the top sign bit restores even parity, so it depends on the parity
    of the bits above ``low`` too: table 0 is for an even count of them and
    table 1 for an odd one.  Setting bit a flips the parity, so each table's
    upper half is the other table's lower half plus K_a.
    """
    tables = np.empty((1 + (flavor == "D"), 1 << low, const.size), dtype=const.dtype)
    tables[:, 0] = const
    if flavor == "D":
        tables[1, 0] += coef[-1]
    for a in range(low):
        half = 1 << a
        np.add(tables[::-1, :half], coef[a], out=tables[:, half : 2 * half])
    return tables


def _chunk_histogram(table: np.ndarray, offset: np.ndarray, length: int) -> np.ndarray:
    """Bincount of one chunk's keys: a low-bit table shifted by the high bits' offset.

    The add wraps in the table's width and writes intp, which bincount reads
    without a copy.
    """
    keys = np.add(table, offset, out=np.empty(table.shape, dtype=np.intp))
    return np.bincount(keys.ravel(), minlength=length)


@cache
def _histogram(flavor: str, n: int) -> np.ndarray:
    """The whole-group histogram of a flavor and rank; memoized, so read-only.

    Bin ``((last << n) | mask) * bins + inv`` counts the words whose last
    entry is negative (last), whose descent set is the bitmask ``mask`` and
    whose length is ``inv``.  Each chunk is one block of permutations under
    2**low sign patterns: the low bits come from ``_low_tables`` and the high
    bits add one offset per chunk, updated by one row of K as the high bits
    step through a Gray code.
    """
    length = _inv_bins(flavor, n) << (n + 1)
    free = _sign_bits(flavor, n)  # sign bits that run freely
    total = np.zeros(length, dtype=np.int64)
    for perms in permutation_blocks(n, _BLOCK_COLUMNS):
        const, coef = _key_coefficients(flavor, n, perms)
        low = min(free, max(0, (_CHUNK_WORDS // const.size).bit_length() - 1))
        tables = _low_tables(flavor, const, coef, low)
        offset = np.zeros_like(const)
        for step in range(1 << (free - low)):
            gray = step ^ step >> 1
            if step:
                bit = (step & -step).bit_length() - 1
                if gray >> bit & 1:
                    offset += coef[low + bit]
                else:
                    offset -= coef[low + bit]
            total += _chunk_histogram(tables[gray.bit_count() % len(tables)], offset, length)
    total.flags.writeable = False
    return total


def clear_histograms() -> None:
    """Drop the cached histograms and the permutation tables they are built from.

    registry.clear_cache calls this along with dropping its polynomials.
    """
    _histogram.cache_clear()
    permutation_table.cache_clear()


def poly_group_numpy(group: str, n: int, weight: str, i: int | None = None) -> LaurentPoly:
    check_cutoff(group, n, i)
    if n < 2:
        return poly_group_python(group, n, weight, i)
    if n > _MAX_VECTOR_RANK:
        raise ValueError(f"the vectorized route stops at rank {_MAX_VECTOR_RANK}, got {n}")
    flavor = FLAVOR[group]
    even, odd = position_bits(flavor, n)
    evens, odds = even.bit_count(), odd.bit_count()
    bins = _inv_bins(flavor, n)
    hist = _histogram(flavor, n).reshape(2, 1 << n, bins)

    # fold the accepted keys onto (edes, odes, inv)
    last, mask = np.nonzero(family_keys(group, n, i))
    folded = np.zeros((evens + 1, odds + 1, bins), dtype=np.int64)
    np.add.at(
        folded, (np.bitwise_count(mask & even), np.bitwise_count(mask & odd)), hist[last, mask]
    )

    cells = np.nonzero(folded)
    edes, odes, inv = cells
    return weighed(np.array([edes, odes, evens - edes, odds - odes, inv]), folded[cells], weight)


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
