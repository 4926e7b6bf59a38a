"""Ground-truth polynomial oracles by direct summation over the groups.

Two independent routes compute every distribution:

* a pure-Python route that walks the words one by one and counts each
  statistic by explicit comparisons (ascents counted directly, inversions by
  the definitional pair-counting formulas), and
* a vectorized route that histograms (edes, odes, inv) over sign-pattern
  chunks with numpy and derives ascent counts from the position totals.

The two routes are cross-checked against each other in the test suite; the
checks that probe the ascent/descent complementation itself always use the
direct route so they stay non-circular.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from math import factorial

import numpy as np

from .permutations import (
    Word,
    descent_set_A,
    descent_set_B,
    descent_set_D,
    even_odd_positions_A,
    even_odd_positions_B,
    even_odd_positions_D,
    in_type_d,
    inv_A,
    inv_B_definitional,
    inv_D_definitional,
    iterate_group,
    StatVector,
)
from .polynomials import LaurentPoly

WEIGHTS = ("biv", "fivevar", "hat", "q")

_FLAVOR = {
    "A": "A",
    "B": "B", "B+": "B", "B-": "B", "G": "B", "snakeB": "B",
    "D": "D", "D+": "D", "D-": "D", "H": "D", "X": "D", "snakeD": "D",
}

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
        return DEFAULT_BOUNDS[_FLAVOR[group]]
    try:
        return int(override)
    except ValueError:
        raise ValueError(f"{BOUND_ENV_VAR} must be an integer, got {override!r}") from None


def work_estimate(group: str, n: int) -> int:
    if _FLAVOR[group] == "A":
        return factorial(n)
    return 2**n * factorial(n)


def check_bound(group: str, n: int) -> None:
    bound = enumeration_bound(group)
    if n > bound:
        raise BoundExceeded(group, n, bound, work_estimate(group, n))


# ----------------------------------------------------------------------
# direct (pure-Python) route
# ----------------------------------------------------------------------
def direct_stat_vector(word: Word, flavor: str) -> StatVector:
    """Statistics by explicit comparisons in both directions.

    Ascents are counted by their own comparisons rather than derived from the
    descent counts, and inversions use the definitional pair-counting forms.
    """
    n = len(word)
    edes = odes = easc = oasc = 0
    if flavor == "B":
        prev = 0
        for pos, x in enumerate(word):
            if prev > x:
                if pos % 2 == 0:
                    edes += 1
                else:
                    odes += 1
            elif prev < x:
                if pos % 2 == 0:
                    easc += 1
                else:
                    oasc += 1
            prev = x
        inv = inv_B_definitional(word)
    elif flavor == "D":
        if n >= 2:
            if -word[0] > word[1]:
                odes += 1
            elif -word[0] < word[1]:
                oasc += 1
            for pos in range(1, n):
                if word[pos - 1] > word[pos]:
                    if pos % 2 == 0:
                        edes += 1
                    else:
                        odes += 1
                elif word[pos - 1] < word[pos]:
                    if pos % 2 == 0:
                        easc += 1
                    else:
                        oasc += 1
        inv = inv_D_definitional(word)
    elif flavor == "A":
        for pos in range(1, n):
            if word[pos - 1] > word[pos]:
                if pos % 2 == 0:
                    edes += 1
                else:
                    odes += 1
            else:
                if pos % 2 == 0:
                    easc += 1
                else:
                    oasc += 1
        inv = inv_A(word)
    else:
        raise ValueError(f"unknown statistic flavor {flavor!r}")
    return StatVector(edes, odes, easc, oasc, inv)


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


def weighted_sum(words, flavor: str, weight: str) -> LaurentPoly:
    """Sum of statistic monomials over an iterable of words."""
    terms: dict[tuple[int, ...], int] = {}
    for word in words:
        exp = _exponent(direct_stat_vector(word, flavor), weight)
        terms[exp] = terms.get(exp, 0) + 1
    return LaurentPoly(terms)


def poly_group_python(
    group: str, n: int, weight: str, i: int | None = None
) -> LaurentPoly:
    return weighted_sum(iterate_group(group, n, i), _FLAVOR[group], weight)


# ----------------------------------------------------------------------
# vectorized route
# ----------------------------------------------------------------------
_PERM_CACHE: dict[int, np.ndarray] = {}


def _perm_array(n: int) -> np.ndarray:
    arr = _PERM_CACHE.get(n)
    if arr is None:
        arr = np.array(
            list(itertools.permutations(range(1, n + 1))), dtype=np.int16
        )
        _PERM_CACHE[n] = arr
    return arr


def _histogram_dims(group: str, n: int) -> tuple[int, int, int]:
    flavor = _FLAVOR[group]
    if flavor == "B":
        evens, odds = even_odd_positions_B(n)
        inv_max = n * n
    elif flavor == "D":
        evens, odds = even_odd_positions_D(n)
        inv_max = n * (n - 1)
    else:
        evens, odds = even_odd_positions_A(n)
        inv_max = n * (n - 1) // 2
    return evens + 1, odds + 1, inv_max + 1


def _chunk_histogram(group: str, n: int, sign_lo: int, sign_hi: int) -> np.ndarray:
    """Bincount of (edes, odes, inv) over sign patterns sign_lo..sign_hi-1.

    A sign pattern is an n-bit integer; bit j set means entry j is negated.
    """
    flavor = _FLAVOR[group]
    perms = _perm_array(n)
    nperm = perms.shape[0]
    de, do, di = _histogram_dims(group, n)

    codes = np.arange(sign_lo, sign_hi, dtype=np.int64)
    signs = 1 - 2 * ((codes[:, None] >> np.arange(n)) & 1)  # (+1/-1) rows
    signs = signs.astype(np.int16)
    words = (signs[:, None, :] * perms[None, :, :]).reshape(-1, n)

    if flavor == "D":
        keep = (words < 0).sum(axis=1) % 2 == 0
        words = words[keep]
    if group.endswith("+"):
        words = words[words[:, -1] > 0]
    elif group.endswith("-"):
        words = words[words[:, -1] < 0]
    m = words.shape[0]
    if m == 0:
        return np.zeros(de * do * di, dtype=np.int64)

    inv = np.zeros(m, dtype=np.int32)
    for a in range(n):
        for b in range(a + 1, n):
            inv += words[:, a] > words[:, b]
    neg = words < 0
    if flavor == "B":
        inv += np.where(neg, -words, 0).sum(axis=1, dtype=np.int32)
        prev = np.concatenate(
            [np.zeros((m, 1), dtype=np.int16), words[:, :-1]], axis=1
        )
        des = prev > words
        edes = des[:, 0::2].sum(axis=1, dtype=np.int32)
        odes = des[:, 1::2].sum(axis=1, dtype=np.int32)
    elif flavor == "D":
        inv += np.where(neg, -words, 0).sum(axis=1, dtype=np.int32)
        inv -= neg.sum(axis=1, dtype=np.int32)
        adj = words[:, :-1] > words[:, 1:]  # column j <-> position j+1
        odes = (-words[:, 0] > words[:, 1]).astype(np.int32)
        odes += adj[:, 0::2].sum(axis=1, dtype=np.int32)
        edes = adj[:, 1::2].sum(axis=1, dtype=np.int32)
    else:  # A: no signs involved
        adj = words[:, :-1] > words[:, 1:]
        odes = adj[:, 0::2].sum(axis=1, dtype=np.int32)
        edes = adj[:, 1::2].sum(axis=1, dtype=np.int32)
    keys = (edes * do + odes) * di + inv
    return np.bincount(keys, minlength=de * do * di).astype(np.int64)


def _chunk_worker(args) -> np.ndarray:
    return _chunk_histogram(*args)


def _histogram(group: str, n: int, jobs: int = 1) -> np.ndarray:
    flavor = _FLAVOR[group]
    nsigns = 1 if flavor == "A" else 2**n
    chunk = max(1, nsigns // 32)
    tasks = [
        (group, n, lo, min(lo + chunk, nsigns))
        for lo in range(0, nsigns, chunk)
    ]
    _perm_array(n)  # populate the cache before any fork
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_chunk_worker, tasks)
    else:
        parts = [_chunk_worker(task) for task in tasks]
    total = np.zeros_like(parts[0])
    for part in parts:
        total += part
    return total


def poly_group_numpy(group: str, n: int, weight: str, jobs: int = 1) -> LaurentPoly:
    if n < 2:
        return poly_group_python(group, n, weight)
    flavor = _FLAVOR[group]
    de, do, di = _histogram_dims(group, n)
    if flavor == "B":
        evens, odds = even_odd_positions_B(n)
    elif flavor == "D":
        evens, odds = even_odd_positions_D(n)
    else:
        evens, odds = even_odd_positions_A(n)
    hist = _histogram(group, n, jobs)
    terms: dict[tuple[int, ...], int] = {}
    for key in np.nonzero(hist)[0]:
        count = int(hist[key])
        inv = int(key % di)
        rest = key // di
        odes = int(rest % do)
        edes = int(rest // do)
        stats = StatVector(edes, odes, evens - edes, odds - odes, inv)
        exp = _exponent(stats, weight)
        terms[exp] = terms.get(exp, 0) + count
    return LaurentPoly(terms)


_NUMPY_GROUPS = frozenset({"A", "B", "D", "B+", "B-", "D+", "D-"})


def poly_group(
    group: str,
    n: int,
    weight: str,
    i: int | None = None,
    jobs: int = 1,
    method: str = "auto",
) -> LaurentPoly:
    """Exact distribution polynomial for a group family by brute force.

    method 'auto' vectorizes plain group families and falls back to the
    direct route for the descent-constrained families (G, H, X, snakes);
    'python' forces the direct route; 'numpy' forces vectorization.
    """
    if group not in _FLAVOR:
        raise ValueError(f"unknown group family {group!r}; choose from {tuple(_FLAVOR)}")
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose from {WEIGHTS}")
    check_bound(group, n)
    if method == "python":
        return poly_group_python(group, n, weight, i)
    if method == "numpy" or (method == "auto" and group in _NUMPY_GROUPS):
        if group not in _NUMPY_GROUPS:
            raise ValueError(f"family {group} has no vectorized route")
        if i is not None:
            raise ValueError(f"family {group} takes no cutoff")
        return poly_group_numpy(group, n, weight, jobs)
    if method == "auto":
        return poly_group_python(group, n, weight, i)
    raise ValueError(f"unknown method {method!r}")
