"""Signed-permutation words, parity statistics, snakes, and group iteration."""

import math
import itertools
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.permutations import (
    GROUPS,
    _descent_set,
    StatVector,
    array_stats,
    descent_set_A,
    descent_set_B,
    descent_set_D,
    even_odd_positions,
    flip_D,
    flip_all,
    flip_array,
    format_word,
    in_type_d,
    inv_A,
    inv_B,
    inv_D,
    is_snake,
    iterate_group,
    negative_count,
    parse_word,
    position_bits,
    position_columns,
    stats_A,
    stats_B,
    stats_D,
    validate_word,
    word_arrays,
)
from oracles import inv_B_definitional, inv_D_definitional


# ---------------------------------------------------------------------------
# statistics on pinned words
# ---------------------------------------------------------------------------
def test_stats_b_two_one():
    assert stats_B((2, 1)) == StatVector(edes=0, odes=1, easc=1, oasc=0, inv=1)


def test_stats_b_identity():
    word = tuple(range(1, 6))
    vec = stats_B(word)
    assert (vec.edes, vec.odes, vec.inv) == (0, 0, 0)
    assert vec.easc + vec.oasc == 5


def test_stats_b_worked_seven_letter_word():
    vec = stats_B((-3, 2, 7, -6, -4, 1, 5))
    assert vec == StatVector(edes=1, odes=1, easc=3, oasc=2, inv=22)


def test_stats_d_examples():
    assert stats_D((-1, -2)) == StatVector(edes=0, odes=2, easc=0, oasc=0, inv=2)
    assert stats_D((1, 2)) == StatVector(edes=0, odes=0, easc=0, oasc=2, inv=0)
    assert stats_D((2, 1)) == StatVector(edes=0, odes=1, easc=0, oasc=1, inv=1)


def test_stats_a_positions_exclude_zero():
    # positions 1..n-1 only; position 1 is odd, position 2 even
    assert stats_A((2, 1, 3)) == StatVector(edes=0, odes=1, easc=1, oasc=0, inv=1)
    assert stats_A((1,)) == StatVector(edes=0, odes=0, easc=0, oasc=0, inv=0)


def test_descent_sets():
    assert descent_set_B((-3, 2, 7, -6, -4, 1, 5)) == (0, 3)
    assert descent_set_B((2, 1)) == (1,)
    assert descent_set_D((-1, -2)) == (-1, 1)
    assert descent_set_D((2, 1)) == (1,)
    assert descent_set_D((-2, 1)) == (-1,)
    assert descent_set_A((2, 1, 3)) == (1,)


def test_position_rosters():
    assert even_odd_positions("B", 1) == (1, 0)
    assert even_odd_positions("B", 2) == (1, 1)
    assert even_odd_positions("B", 5) == (3, 2)
    assert even_odd_positions("D", 2) == (0, 2)
    assert even_odd_positions("D", 5) == (2, 3)
    assert even_odd_positions("A", 1) == (0, 0)
    assert even_odd_positions("A", 4) == (1, 2)


def signed_words(n):
    perms = st.permutations(range(1, n + 1))
    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    return st.builds(lambda perm, sign: tuple(p * s for p, s in zip(perm, sign)), perms, signs)


def written_out(n):
    """The positions of the module docstring: A 1..n-1, B 0..n-1, D {-1, 1, ..., n-1} from rank 2."""
    return {"A": list(range(1, n)), "B": list(range(n)), "D": [-1, *range(1, n)] if n >= 2 else []}


@given(st.integers(0, 9).flatmap(signed_words))
@example(())
@example((1,))
@example((-1,))
@settings(max_examples=200)
def test_descent_sets_and_position_counts_follow_the_docstring(word):
    """Position i compares pi_i with pi_{|i|+1}, where pi_0 = 0 and pi_{-1} = -pi_1."""
    n = len(word)
    perm = tuple(abs(x) for x in word)
    where = written_out(n)
    descents = {
        "A": tuple(i for i in where["A"] if perm[i - 1] > perm[i]),
        "B": tuple(i for i in where["B"] if (word[i - 1] if i > 0 else 0) > word[i]),
        "D": tuple(i for i in where["D"] if (word[i - 1] if i > 0 else -word[0]) > word[abs(i)]),
    }
    assert descent_set_A(perm) == descents["A"]
    assert descent_set_B(word) == descents["B"]
    assert descent_set_D(word) == descents["D"]
    for flavor, vec in (("A", stats_A(perm)), ("B", stats_B(word)), ("D", stats_D(word))):
        odd = sum(1 for i in where[flavor] if i % 2)
        assert even_odd_positions(flavor, n) == (len(where[flavor]) - odd, odd)
        odes = sum(1 for i in descents[flavor] if i % 2)
        assert (vec.edes, vec.odes) == (len(descents[flavor]) - odes, odes)
        assert (vec.edes + vec.easc, vec.odes + vec.oasc) == (len(where[flavor]) - odd, odd)


def drawn_words(flavor, n):
    return st.permutations(range(1, n + 1)).map(tuple) if flavor == "A" else signed_words(n)


@pytest.mark.parametrize("flavor", "ABD")
@pytest.mark.parametrize("n", range(9))
@given(data=st.data())
@settings(max_examples=20)
def test_position_bits_and_columns_follow_the_scalar_descent_sets(flavor, n, data):
    """Bit max(i, 0) of the masks holds position i; the columns compare what ``_descent_set`` does."""
    words = data.draw(st.lists(drawn_words(flavor, n), min_size=1, max_size=8))
    even, odd = position_bits(flavor, n)
    assert (even.bit_count(), odd.bit_count()) == even_odd_positions(flavor, n)
    assert even & odd == 0 and (even | odd) >> n == 0
    columns = list(position_columns(flavor, np.array(words, dtype=np.int16).reshape(len(words), n)))
    for row, word in enumerate(words):
        descents = _descent_set(flavor, word)
        assert tuple(i for i, left, right in columns if (left > right)[row]) == descents
        assert all((left != right)[row] for _, left, right in columns)  # each position descends or ascends
        mask = sum(1 << max(i, 0) for i in descents)
        odes = sum(i % 2 for i in descents)
        assert ((mask & even).bit_count(), (mask & odd).bit_count()) == (len(descents) - odes, odes)


def test_stats_counts_respect_position_rosters():
    for n in range(1, 6):
        for word in iterate_group("B", n):
            vec = stats_B(word)
            even, odd = even_odd_positions("B", n)
            assert vec.edes + vec.easc == even
            assert vec.odes + vec.oasc == odd
    for n in range(2, 6):
        for word in iterate_group("D", n):
            vec = stats_D(word)
            even, odd = even_odd_positions("D", n)
            assert vec.edes + vec.easc == even
            assert vec.odes + vec.oasc == odd


# ---------------------------------------------------------------------------
# inversion statistics: fast pair-count formulas vs definitions
# ---------------------------------------------------------------------------
def test_inv_b_matches_definitional_form():
    for n in range(1, 6):
        for word in iterate_group("B", n):
            assert inv_B(word) == inv_B_definitional(word)


def test_inv_d_matches_definitional_form():
    for n in range(2, 6):
        for word in iterate_group("D", n):
            assert inv_D(word) == inv_D_definitional(word)


def test_inv_a_counts_plain_inversions():
    for word in permutations(range(1, 5)):
        expected = sum(
            1 for i in range(4) for j in range(i + 1, 4) if word[i] > word[j]
        )
        assert inv_A(word) == expected


def test_inv_relation_between_b_and_d():
    """inv_D drops the Negs term from inv_B."""
    for n in range(2, 6):
        for word in iterate_group("D", n):
            assert inv_D(word) == inv_B(word) - negative_count(word)


# ---------------------------------------------------------------------------
# groups and iteration
# ---------------------------------------------------------------------------
def test_group_sizes():
    for n in range(0, 6):
        assert sum(1 for _ in iterate_group("B", n)) == 2**n * math.factorial(n)
        assert sum(1 for _ in iterate_group("A", n)) == math.factorial(n)
    for n in range(2, 6):
        assert sum(1 for _ in iterate_group("D", n)) == 2 ** (n - 1) * math.factorial(n)


def test_d2_members():
    assert set(iterate_group("D", 2)) == {(1, 2), (-1, -2), (2, 1), (-2, -1)}


def test_plus_minus_split_partitions_group():
    for n in range(1, 5):
        plus = set(iterate_group("B+", n))
        minus = set(iterate_group("B-", n))
        assert plus | minus == set(iterate_group("B", n))
        assert not plus & minus
        assert all(w[-1] > 0 for w in plus)
    for n in range(2, 5):
        plus = set(iterate_group("D+", n))
        minus = set(iterate_group("D-", n))
        assert plus | minus == set(iterate_group("D", n))
        assert not plus & minus


def test_descending_suffix_subgroup_sizes():
    """Words whose last n-i entries increase: 2^n C(n,i) i! of them (half in D)."""
    for n in range(1, 6):
        for i in range(0, n):
            count_g = sum(1 for _ in iterate_group("G", n, i=i))
            assert count_g == 2**n * math.comb(n, i) * math.factorial(i)
            count_h = sum(1 for _ in iterate_group("H", n, i=i))
            assert count_h == 2 ** (n - 1) * math.comb(n, i) * math.factorial(i)


def test_g_members_have_increasing_tail():
    for word in iterate_group("G", 4, i=2):
        tail = word[2:]
        assert list(tail) == sorted(tail)


def test_i_parameter_validation():
    with pytest.raises(ValueError):
        list(iterate_group("G", 3))  # missing i
    with pytest.raises(ValueError):
        list(iterate_group("B", 3, i=1))  # i not accepted
    with pytest.raises(ValueError):
        list(iterate_group("G", 3, i=5))  # out of range
    with pytest.raises(ValueError):
        list(iterate_group("nope", 3))


def reference_signed_words(n):
    """All of B_n in lexicographic (permutation, sign pattern) order, one tuple each."""
    if n == 0:
        yield ()
        return
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(p * s for p, s in zip(perm, signs))


def reference_group(group, n, i=None):
    """The word-at-a-time family filters that ``word_arrays`` replaced: the reference oracle."""
    words = reference_signed_words(n)
    if group == "A":
        return [()] if n == 0 else list(itertools.permutations(range(1, n + 1)))
    if group == "B":
        return list(words)
    if group == "D":
        return [w for w in words if in_type_d(w)]
    if group == "B+":
        return [w for w in words if n and w[-1] > 0]
    if group == "B-":
        return [w for w in words if n and w[-1] < 0]
    if group == "D+":
        return [w for w in words if n and w[-1] > 0 and in_type_d(w)]
    if group == "D-":
        return [w for w in words if n and w[-1] < 0 and in_type_d(w)]
    if group == "G":
        return [w for w in words if set(descent_set_B(w)) <= set(range(0, i + 1))]
    if group == "H":
        allowed = {-1} | set(range(1, i + 1))
        return [w for w in words if in_type_d(w) and set(descent_set_D(w)) <= allowed]
    if group == "X":
        return [w for w in words if in_type_d(w) and set(descent_set_D(w)) <= {-1, 1}]
    if group == "snakeB":  # descent set exactly the odd positions
        return [w for w in words if set(descent_set_B(w)) == set(range(1, n, 2))]
    if group == "snakeD":  # the odd positions, -1 among them from rank 2 on
        odd = {-1} | set(range(1, n, 2)) if n >= 2 else set()
        return [w for w in words if in_type_d(w) and set(descent_set_D(w)) == odd]
    raise ValueError(group)


@pytest.mark.parametrize("group", GROUPS)
def test_word_arrays_follow_the_reference_order_in_bounded_blocks(group):
    """Every family, every G/H cutoff, n <= 6; budgets above and below 2^n."""
    needs_cutoff = group in ("G", "H")
    for n in range(1 if needs_cutoff else 0, 7):
        for i in range(-1, n) if needs_cutoff else (None,):
            expected = reference_group(group, n, i)
            for rows in (1, 7, 100, 1 << 14):
                blocks = list(word_arrays(group, n, rows, i))
                assert all(b.dtype == np.int16 and b.shape[1:] == (n,) for b in blocks)
                assert all(1 <= len(b) <= rows for b in blocks), (group, n, i, rows)
                assert [tuple(w) for b in blocks for w in b.tolist()] == expected, (group, n, i, rows)
            assert list(iterate_group(group, n, i)) == expected


def test_word_arrays_validate_like_iterate_group():
    for args, message in [(("G", 3, 4), "family G requires the cutoff i"),
                          (("H", 3, 4, 3), "cutoff i=3 outside -1..2"),
                          (("B", 3, 4, 1), "family B takes no cutoff"),
                          (("nope", 3, 4), "unknown group 'nope'")]:
        with pytest.raises(ValueError, match=message):
            next(word_arrays(*args))


def test_groups_roster_is_frozen():
    assert GROUPS == ("A", "B", "D", "B+", "B-", "D+", "D-", "G", "H", "X", "snakeB", "snakeD")


# ---------------------------------------------------------------------------
# snakes
# ---------------------------------------------------------------------------
def test_is_snake_pinned_examples():
    assert is_snake((2, -1), "B")
    assert not is_snake((1, 2), "B")
    assert is_snake((1,), "B")


@pytest.mark.parametrize("family", ["B", "D"])
def test_is_snake_picks_the_reference_snakes(family):
    for n in range(7):
        words = reference_signed_words(n)
        assert [w for w in words if is_snake(w, family)] == reference_group("snake" + family, n), n


def test_snake_b2_members():
    assert set(iterate_group("snakeB", 2)) == {(1, -2), (2, -1), (2, 1)}


def test_snake_d2_members():
    assert set(iterate_group("snakeD", 2)) == {(-1, -2)}


def test_snake_counts():
    expected_b = [1, 1, 3, 11, 57, 361, 2763]
    for n, count in enumerate(expected_b):
        assert sum(1 for _ in iterate_group("snakeB", n)) == count
    expected_d = {2: 1, 3: 5, 4: 23, 5: 151}
    for n, count in expected_d.items():
        assert sum(1 for _ in iterate_group("snakeD", n)) == count


def test_d_snakes_lie_in_d():
    for n in range(2, 6):
        for word in iterate_group("snakeD", n):
            assert in_type_d(word)


# ---------------------------------------------------------------------------
# sign flips
# ---------------------------------------------------------------------------
def test_flip_all_is_involution_negating_everything():
    for n in range(1, 6):
        for word in iterate_group("B", n):
            flipped = flip_all(word)
            assert flipped == tuple(-x for x in word)
            assert flip_all(flipped) == word


def test_flip_d_is_involution_preserving_membership():
    for n in range(2, 6):
        for word in iterate_group("D", n):
            flipped = flip_D(word)
            assert in_type_d(flipped)
            assert flip_D(flipped) == word


def test_flip_d_spares_first_entry_for_odd_rank():
    assert flip_D((1, 2, 3)) == (1, -2, -3)
    assert flip_D((1, 2, 3, 4)) == (-1, -2, -3, -4)


# ---------------------------------------------------------------------------
# word arrays
# ---------------------------------------------------------------------------
SCALAR_STATS = {"B": (stats_B, inv_B, flip_all), "D": (stats_D, inv_D, flip_D)}


def assert_rows_match(words, flavor):
    stats, inv, flip = SCALAR_STATS[flavor]
    array = np.array(words, dtype=np.int16).reshape(len(words), len(words[0]))
    edes, odes, inv_array = array_stats(array, flavor)[[0, 1, 4]]
    for row, word in enumerate(words):
        sv = stats(word)
        assert (edes[row], odes[row], inv_array[row]) == (sv.edes, sv.odes, sv.inv), (flavor, word)
        assert inv_array[row] == inv(word)
    assert [tuple(row) for row in flip_array(array, flavor).tolist()] == [flip(w) for w in words]


@pytest.mark.parametrize("flavor", ["B", "D"])
@pytest.mark.parametrize("n", range(7))
def test_array_stats_match_the_scalar_stats_on_every_word(flavor, n):
    assert_rows_match(list(iterate_group(flavor, n)), flavor)


@given(st.integers(1, 9).flatmap(lambda n: st.lists(signed_words(n), min_size=1, max_size=8)),
       st.sampled_from(["B", "D"]))
@settings(max_examples=200)
def test_array_stats_match_the_scalar_stats_on_random_words(words, flavor):
    assert_rows_match(words, flavor)


def test_array_stats_reject_an_unknown_flavor():
    with pytest.raises(ValueError, match="unknown statistic flavor 'E'"):
        array_stats(np.ones((1, 2), dtype=np.int16), "E")


# ---------------------------------------------------------------------------
# textual form
# ---------------------------------------------------------------------------
def test_format_parse_round_trip():
    word = (-3, 2, 7, -6, -4, 1, 5)
    assert format_word(word) == "-3,2,7,-6,-4,1,5"
    assert parse_word(format_word(word)) == word


def test_parse_rejects_bad_words():
    with pytest.raises(ValueError):
        parse_word("1,1")
    with pytest.raises(ValueError):
        parse_word("1,3")  # 2 missing
    with pytest.raises(ValueError):
        parse_word("a,b")


def test_validate_word_accepts_signed_arrangements():
    assert validate_word([-2, 1]) == (-2, 1)
    with pytest.raises(ValueError):
        validate_word([2, 2])
    with pytest.raises(ValueError):
        validate_word([0, 1])
