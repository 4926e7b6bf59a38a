"""The family table against membership judged word by word.

Both brute-force routes read ``permutations.family_keys``, so the tests that
make the routes agree cannot see a wrong rule in it.  Here each family's
membership is judged from ``descent_set_A/B/D`` and the sign of the last
entry, with the rules written out below, and every (last, mask) key that a
word of the flavor takes is checked against the table.  Neither the table
nor ``position_bits`` helps judge membership.
"""

import itertools
from functools import cache

import pytest

import artifact.permutations as permutations
from artifact.permutations import FLAVOR, GROUPS, descent_set_A, descent_set_B, descent_set_D

DESCENT_SET = {"A": descent_set_A, "B": descent_set_B, "D": descent_set_D}


def flavor_words(flavor, n):
    """S_n for A, every signed word for B, the words with an even count of negatives for D."""
    perms = itertools.permutations(range(1, n + 1))
    if flavor == "A":
        return list(perms)
    words = [tuple(p * s for p, s in zip(perm, signs))
             for perm in perms for signs in itertools.product((1, -1), repeat=n)]
    return [w for w in words if flavor == "B" or sum(x < 0 for x in w) % 2 == 0]


def is_member(group, n, i, last_negative, descents):
    """The family rules, read off the descent set and the last sign."""
    if group in ("A", "B", "D"):
        return True
    if group.endswith("+"):
        return not last_negative
    if group.endswith("-"):
        return last_negative
    if group == "G":
        return descents <= set(range(0, i + 1))
    if group == "H":
        return descents <= {-1} | set(range(1, i + 1))
    if group == "X":
        return descents <= {-1, 1}
    if group == "snakeB":
        return descents == set(range(1, n, 2))
    if group == "snakeD":
        return descents == ({-1} | set(range(1, n, 2)) if n >= 2 else set())
    raise ValueError(group)


@cache
def reached_keys(flavor, n):
    """Each (last negative, descent mask) key a word takes, with its descent set."""
    keys = {}
    for word in flavor_words(flavor, n):
        descents = DESCENT_SET[flavor](word)
        last = int(bool(word) and word[-1] < 0)
        keys[last, sum(1 << max(p, 0) for p in descents)] = set(descents)
    return keys


@pytest.mark.parametrize("group", GROUPS)
def test_every_key_a_word_takes_is_judged_alike(group):
    """Every family and cutoff at n <= 6, D's families at n = 0 and 1 included.

    No word of rank 0 has a last entry, so the families of a fixed last sign
    start at rank 1; word_arrays yields nothing for them at rank 0.
    """
    flavor = FLAVOR[group]
    first = 1 if group in ("G", "H") or group.endswith(("+", "-")) else 0
    for n in range(first, 7):
        keys = reached_keys(flavor, n)
        for i in range(-1, n) if group in ("G", "H") else (None,):
            table = permutations.family_keys(group, n, i)
            assert table.shape == (2, 1 << n) and table.dtype == bool
            for (last, mask), descents in keys.items():
                want = is_member(group, n, i, bool(last), descents)
                assert table[last, mask] == want, (group, n, i, last, sorted(descents))
