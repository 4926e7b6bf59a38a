"""Structural maps between smaller groups and descent-constrained families.

The core construction relabels a signed permutation onto a target value set
(order- and sign-preservingly) and juxtaposes a signed subset:

* map_f:   B_k x (signed (n-k)-subsets of [n]) -> G_{n,k}; the subset is
           appended in ascending order.
* map_fD:  D_k x (signed subsets) -> H_{n,k}; when the sign string carries an
           odd number of negatives, the first prefix entry is negated to
           restore even parity.
* map_fpp: B_k/D_k x (plain subsets) -> words ending in the subset written
           positive and descending.

``juxtapose_array`` applies map_f or map_fD to every (prefix, subset) pair of
two word arrays at once.  The maps' inverses live in the tests, as oracles.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from .permutations import Word, in_type_d, negative_count

SignedSubset = tuple[int, ...]  # distinct absolute values; sign = membership sign


def signed_subsets(n: int, r: int) -> Iterator[SignedSubset]:
    """All signed r-subsets of [n], each as an ascending tuple of values."""
    for base in itertools.combinations(range(1, n + 1), r):
        for signs in itertools.product((1, -1), repeat=r):
            yield tuple(sorted(a * s for a, s in zip(base, signs)))


def relabel(word: Iterable[int], targets: Iterable[int]) -> Word:
    """Send the entry with absolute value k to targets[k-1], keeping signs.

    targets must be positive and ascending, so relative order is preserved.
    """
    targets = tuple(targets)
    out = []
    for x in word:
        value = targets[abs(x) - 1]
        out.append(value if x > 0 else -value)
    return tuple(out)


def _check_sizes(prefix_len: int, subset: SignedSubset, n: int) -> tuple[int, ...]:
    used = tuple(sorted(abs(a) for a in subset))
    if len(set(used)) != len(used) or (used and (used[0] < 1 or used[-1] > n)):
        raise ValueError(f"not a signed subset of [{n}]: {subset}")
    if prefix_len + len(subset) != n:
        raise ValueError(
            f"sizes must add to {n}: prefix {prefix_len} + subset {len(subset)}"
        )
    return tuple(v for v in range(1, n + 1) if v not in set(used))


def map_f(sigma: Word, subset: SignedSubset, n: int) -> Word:
    """Relabelled prefix followed by the ascending signed subset."""
    complement = _check_sizes(len(sigma), subset, n)
    return relabel(sigma, complement) + tuple(sorted(subset))


def map_fD(sigma: Word, subset: SignedSubset, n: int) -> Word:
    """Type-D juxtaposition with the parity-correcting first-entry flip.

    When the prefix is empty (|subset| = n) the subset is juxtaposed alone:
    there is no entry to flip, and the lemma sum it feeds ranges over all
    sign strings regardless of parity.
    """
    if not in_type_d(sigma):
        raise ValueError(f"prefix not in the even-signed group: {sigma}")
    complement = _check_sizes(len(sigma), subset, n)
    prefix = relabel(sigma, complement)
    if negative_count(subset) % 2 == 1 and prefix:
        prefix = (-prefix[0],) + prefix[1:]
    return prefix + tuple(sorted(subset))


def juxtapose_array(prefixes: np.ndarray, subsets: np.ndarray, n: int, family: str) -> np.ndarray:
    """``map_f`` (family B) or ``map_fD`` (family D) of every (prefix, subset) pair.

    ``prefixes`` holds one word of rank n - r per row and ``subsets`` one
    signed r-subset of [n] per row.  Row [i, j] of the (p, m, n)
    result juxtaposes prefix i with subset j.
    """
    p, k = prefixes.shape
    m, r = subsets.shape
    if k + r != n:
        raise ValueError(f"sizes must add to {n}: prefix {k} + subset {r}")
    if family == "D":
        odd = np.flatnonzero((prefixes < 0).sum(axis=1) % 2)
        if odd.size:
            raise ValueError(f"prefix not in the even-signed group: {tuple(prefixes[odd[0]].tolist())}")
    present = np.zeros((m, n + 1), dtype=bool)
    present[np.arange(m)[:, None], np.abs(subsets)] = True
    complement = (np.nonzero(~present[:, 1:])[1] + 1).reshape(m, k).astype(prefixes.dtype)
    out = np.empty((p, m, n), dtype=prefixes.dtype)
    # the relabel: entry x of a prefix becomes the |x|-th complement value, signed as x
    out[:, :, :k] = complement[:, np.abs(prefixes) - 1].transpose(1, 0, 2)
    out[:, :, :k] *= np.where(prefixes > 0, 1, -1).astype(prefixes.dtype)[:, None, :]
    if family == "D" and k:
        out[:, (subsets < 0).sum(axis=1) % 2 == 1, 0] *= -1
    out[:, :, k:] = np.sort(subsets, axis=1)
    return out


def map_fpp(psi: Word, subset: tuple[int, ...], n: int, family: str = "B") -> Word:
    """Relabelled prefix followed by the subset written positive, descending."""
    if any(a < 0 for a in subset):
        raise ValueError("descending-suffix subsets carry no signs")
    if family == "D" and not in_type_d(psi):
        raise ValueError(f"prefix not in the even-signed group: {psi}")
    complement = _check_sizes(len(psi), subset, n)
    return relabel(psi, complement) + tuple(sorted(subset, reverse=True))
