"""Brute-force statistic enumeration: dual routes, frozen values, bounds."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.enumeration import (
    FLAVOR,
    WEIGHTS,
    BoundExceeded,
    _inv_bins,
    _key_coefficients,
    poly_group,
    poly_group_python,
    weighed,
    work_estimate,
)
from artifact.permutations import (
    StatVector,
    array_stats,
    descent_set_A,
    descent_set_B,
    descent_set_D,
    inv_A,
    inv_B,
    inv_D,
    is_snake,
    iterate_group,
    stats_A,
    stats_B,
    stats_D,
)
from artifact.polynomials import LaurentPoly
from oracles import comparison_histogram, inv_B_definitional, inv_D_definitional, is_decoded, permutation_columns

S = LaurentPoly.variable("s")
T = LaurentPoly.variable("t")
Q = LaurentPoly.variable("q")


# ---------------------------------------------------------------------------
# the word-at-a-time direct route, kept as the reference oracle
# ---------------------------------------------------------------------------
def direct_stat_vector(word, flavor):
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


def exponent(stats, weight):
    """The weight's exponent (s, t, q, s0, s1, t0, t1) of one statistic vector."""
    e, o, ea, oa, inv = stats.edes, stats.odes, stats.easc, stats.oasc, stats.inv
    return {
        "biv": (e, o, inv, 0, 0, 0, 0),
        "hat": (ea, o, inv, 0, 0, 0, 0),
        "fivevar": (0, 0, inv, ea, oa, e, o),
        "q": (0, 0, inv, 0, 0, 0, 0),
    }[weight]


def weighted_sum(words, flavor, weight):
    """Sum of statistic monomials over an iterable of words."""
    terms = {}
    for word in words:
        exp = exponent(direct_stat_vector(word, flavor), weight)
        terms[exp] = terms.get(exp, 0) + 1
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------
# frozen small polynomials
# ---------------------------------------------------------------------------
def test_b0_is_one():
    assert poly_group("B", 0, "biv") == LaurentPoly.one()


def test_b1_frozen():
    assert poly_group("B", 1, "biv") == 1 + S * Q


def test_b2_frozen():
    expected = 1 + (S + T) * (Q + Q**2 + Q**3) + S * T * Q**4
    assert poly_group("B", 2, "biv") == expected


def test_b2_plus_frozen():
    assert poly_group("B+", 2, "biv") == 1 + T * Q + S * Q + S * Q**2


def test_d2_frozen():
    assert poly_group("D", 2, "biv") == (1 + T * Q) * (1 + T * Q)


def test_a3_fivevar_frozen():
    s0, s1 = LaurentPoly.variable("s0"), LaurentPoly.variable("s1")
    t0, t1 = LaurentPoly.variable("t0"), LaurentPoly.variable("t1")
    expected = s0 * s1 + (Q + Q**2) * (s1 * t0 + s0 * t1) + Q**3 * t0 * t1
    assert poly_group("A", 3, "fivevar") == expected


def test_snake_b_counts_at_q_one():
    expected = [1, 1, 3, 11, 57, 361, 2763]
    for n, count in enumerate(expected):
        poly = poly_group("snakeB", n, "q")
        assert poly.subs_values({"q": 1})== count


# ---------------------------------------------------------------------------
# the two routes agree
# ---------------------------------------------------------------------------
def test_python_and_numpy_routes_agree():
    for group, start in [("A", 0), ("B", 0), ("D", 2)]:
        for n in range(start, 6):
            for weight in WEIGHTS:
                direct = poly_group(group, n, weight, method="python")
                vectorized = poly_group(group, n, weight, method="numpy")
                assert direct == vectorized, (group, n, weight)


def test_routes_agree_on_half_groups():
    for group in ("B+", "B-"):
        for weight in ("biv", "q"):
            assert poly_group(group, 4, weight, method="python") == poly_group(
                group, 4, weight, method="numpy"
            )


def test_jobs_keyword_is_accepted_and_changes_nothing():
    """``jobs=`` is accepted for callers that pass it; brute force runs in one process."""
    for jobs in (1, 2, 4):
        assert poly_group("B", 5, "biv", jobs=jobs) == poly_group("B", 5, "biv")


def test_constrained_groups_enumerate_directly():
    assert poly_group("G", 3, "biv", i=1) == poly_group_python("G", 3, "biv", i=1)
    assert poly_group("X", 3, "biv") == poly_group_python("X", 3, "biv")


_SIGNED_FAMILIES = ("B", "D", "B+", "B-", "D+", "D-", "snakeB", "snakeD", "X", "G", "H")


@pytest.mark.parametrize("group", ("A",) + _SIGNED_FAMILIES)
def test_routes_agree_on_every_family_cutoff_and_weight(group):
    """The descent-mask projection and the row-wise direct route reproduce
    the word-at-a-time walk, rank <= 6.

    Each (n, i) is walked once; its direct stat vectors are projected onto
    all four weights, as ``weighted_sum`` projects them one weight per walk.
    """
    needs_cutoff = group in ("G", "H")
    for n in range(1 if needs_cutoff else 0, 7):
        for i in range(-1, n) if needs_cutoff else (None,):
            stats = [direct_stat_vector(w, FLAVOR[group]) for w in iterate_group(group, n, i)]
            for weight in WEIGHTS:
                direct = LaurentPoly(Counter(exponent(sv, weight) for sv in stats))
                vectorized = poly_group(group, n, weight, i=i, method="numpy")
                assert direct == vectorized, (group, n, i, weight)
                assert direct == poly_group(group, n, weight, i=i, method="python"), (group, n, i, weight)


def test_routes_agree_at_rank_seven():
    """One walk of D_7, split into X and snakeD, against the vectorised route."""
    parts = {"X": [], "snakeD": []}
    for word in iterate_group("D", 7):
        descents = descent_set_D(word)
        if set(descents) <= {-1, 1}:
            parts["X"].append(word)
        if -1 in descents and is_snake(word, "D"):  # every D snake descends at -1
            parts["snakeD"].append(word)
    for group, words in parts.items():
        assert weighted_sum(words, "D", "biv") == poly_group(group, 7, "biv", method="numpy"), group


@pytest.mark.parametrize(
    "group, n, i, message",
    [
        ("G", 3, None, "family G requires the cutoff i"),
        ("H", 3, 3, "cutoff i=3 outside -1..2"),
        ("G", 3, -2, "cutoff i=-2 outside -1..2"),
        ("B", 3, 1, "family B takes no cutoff"),
    ],
)
def test_both_routes_reject_a_bad_cutoff_alike(group, n, i, message):
    for method in ("python", "numpy", "auto"):
        with pytest.raises(ValueError, match=message):
            poly_group(group, n, "biv", i=i, method=method)


def test_chunks_respect_the_word_budget(monkeypatch):
    """A small word budget splits the work finer without changing results."""
    import artifact.enumeration as enumeration

    expected = {group: poly_group(group, 7, "biv") for group in ("B", "D")}
    words = []
    real = enumeration._chunk_histogram

    def recording(table, offset, length):
        words.append(table.size)
        return real(table, offset, length)

    monkeypatch.setattr(enumeration, "_chunk_histogram", recording)
    budget = 3 * math.factorial(7)
    monkeypatch.setattr(enumeration, "_CHUNK_WORDS", budget)
    for group, want in expected.items():
        words.clear()
        enumeration.clear_histograms()
        assert poly_group(group, 7, "biv") == want
        assert max(words) <= budget
        assert sum(words) == work_estimate(group, 7)
    assert len(words) == 32  # D_7's 64 sign patterns, two per chunk

    # a budget below one sign pattern's words still runs, one pattern a chunk
    monkeypatch.setattr(enumeration, "_CHUNK_WORDS", 100)
    words.clear()
    enumeration.clear_histograms()
    assert poly_group("B", 7, "biv") == expected["B"]
    assert set(words) == {math.factorial(7)} and len(words) == 2**7


def test_histogram_is_computed_once_until_the_cache_is_cleared(monkeypatch):
    import artifact.enumeration as enumeration
    from artifact.registry import clear_cache

    chunks = []
    real = enumeration._chunk_histogram

    def recording(table, offset, length):
        chunks.append(length)
        return real(table, offset, length)

    monkeypatch.setattr(enumeration, "_chunk_histogram", recording)
    clear_cache()
    first = poly_group("D", 5, "biv")
    computed = len(chunks)
    assert computed > 0
    assert poly_group("D+", 5, "q") == poly_group("D+", 5, "q", method="python")
    assert poly_group("D", 5, "biv") == first
    assert len(chunks) == computed  # every D_5 family reads the one histogram
    with pytest.raises(ValueError, match="read-only"):
        enumeration._histogram("D", 5)[0] = 1
    clear_cache()
    poly_group("D", 5, "biv")
    assert len(chunks) == 2 * computed


def test_clear_cache_drops_the_permutations():
    """registry.clear_cache leaves neither a histogram nor a permutation table behind."""
    import artifact.enumeration as enumeration
    from artifact.permutations import permutation_table
    from artifact.registry import clear_cache

    clear_cache()
    poly_group("B", 7, "biv")
    assert permutation_table.cache_info().currsize == 8  # ranks 0..7
    clear_cache()
    assert permutation_table.cache_info().currsize == 0
    assert enumeration._histogram.cache_info().currsize == 0


def test_a_histogram_above_the_table_rank_holds_no_whole_table():
    """A10's permutations alone take 34.6 MiB; read in blocks, its histogram
    peaks at a sixth of that (6.2 MiB measured), the rank-8 table included."""
    import tracemalloc

    import artifact.enumeration as enumeration

    enumeration.clear_histograms()
    tracemalloc.start()
    try:
        enumeration._histogram("A", 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        enumeration.clear_histograms()
    assert peak < 8 << 20, f"{peak / 2**20:.1f} MiB"


@pytest.fixture(scope="module")
def comparison_histograms():
    ranks = {"A": range(2, 10), "B": range(2, 9), "D": range(2, 9)}
    return {(flavor, n): comparison_histogram(flavor, n) for flavor, ns in ranks.items() for n in ns}


@pytest.mark.parametrize(
    "setting, value", [(None, None), ("_CHUNK_WORDS", 1), ("_BLOCK_COLUMNS", 1000), ("_TABLE_RANK", 3)]
)
def test_histogram_equals_the_comparison_kernel(monkeypatch, comparison_histograms, setting, value):
    """Entry for entry, at the default budget (several sign patterns a chunk),
    at one sign pattern a chunk, with the permutations read in blocks of 1000
    columns, and with those of ranks 4-9 built block by block above a table
    of rank 3."""
    import artifact.enumeration as enumeration
    import artifact.permutations as permutations

    if setting:
        monkeypatch.setattr(permutations if setting == "_TABLE_RANK" else enumeration, setting, value)
    enumeration.clear_histograms()
    for (flavor, n), want in comparison_histograms.items():
        got = enumeration._histogram(flavor, n)
        assert got.dtype == want.dtype and got.shape == want.shape, (flavor, n)
        assert np.array_equal(got, want), (flavor, n)
    enumeration.clear_histograms()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from("ABD"), st.integers(2, 14).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.lists(st.booleans(), min_size=n, max_size=n))
))
def test_word_key_is_affine_in_the_sign_bits(flavor, drawn):
    """C(p) + sum_a x_a K_a(p), reduced to the key's width, is the word's
    (last sign, descent mask, inv) key as the scalar statistics read it."""
    perm, signs = drawn
    n = len(perm)
    if flavor == "A":
        signs = [False] * n
    elif flavor == "D" and sum(signs) % 2:
        signs[0] = not signs[0]
    word = tuple(-v if neg else v for v, neg in zip(perm, signs))
    const, coef = _key_coefficients(flavor, n, np.array(perm, dtype=np.int8)[:, None])
    key = int(const[0]) + sum(int(k) for k, neg in zip(coef[:, 0], signs) if neg)
    key %= 1 << 8 * const.itemsize
    code, inv = divmod(key, _inv_bins(flavor, n))

    descents = {"A": descent_set_A, "B": descent_set_B, "D": descent_set_D}[flavor](word)
    lengths = {"A": inv_A, "B": inv_B, "D": inv_D}[flavor]
    assert inv == lengths(word)
    assert code & ((1 << n) - 1) == sum(1 << max(i, 0) for i in descents)  # D's -1 is bit 0
    assert code >> n == (word[-1] < 0)


@st.composite
def count_tables(draw):
    """Statistic columns (edes, odes, easc, oasc, inv), many of them equal,
    and their counts; at times one count is near 2**62, the rest small enough
    that every sum stays inside int64."""
    k = draw(st.integers(0, 40))
    column = st.tuples(*[st.integers(0, 3)] * 4, st.integers(0, 20))
    stats = draw(st.lists(column, min_size=k, max_size=k))
    counts = draw(st.lists(st.integers(0, 2**40), min_size=k, max_size=k))
    if k and draw(st.booleans()):
        counts[draw(st.integers(0, k - 1))] = draw(st.integers(2**62 - 2**41, 2**62))
    return stats, counts


@settings(max_examples=200, deadline=None)
@given(count_tables(), st.sampled_from(WEIGHTS))
def test_the_weight_fold_equals_the_per_term_sum(table, weight):
    """One table and one int64 merge give the polynomial that weighing each
    column by itself and adding Python ints gives; the result holds only its form."""
    stats, counts = table
    expected = {}
    for column, count in zip(stats, counts):
        exp = exponent(StatVector(*column), weight)
        expected[exp] = expected.get(exp, 0) + count
    got = weighed(np.array(stats, dtype=np.int64).reshape(-1, 5).T, np.array(counts, dtype=np.int64), weight)
    assert not is_decoded(got) or not got.terms
    assert got.terms == {e: c for e, c in expected.items() if c}


# ---------------------------------------------------------------------------
# direct statistics vs the fast statistic functions
# ---------------------------------------------------------------------------
def test_direct_stats_match_fast_stats():
    for n in range(0, 5):
        for word in iterate_group("B", n):
            assert direct_stat_vector(word, "B") == stats_B(word)
        for word in iterate_group("A", n):
            assert direct_stat_vector(word, "A") == stats_A(word)
    for n in range(2, 5):
        for word in iterate_group("D", n):
            assert direct_stat_vector(word, "D") == stats_D(word)


def test_unknown_flavor_rejected():
    with pytest.raises(ValueError, match="unknown statistic flavor 'E'"):
        array_stats(np.array([[1, 2]], dtype=np.int16), "E")


def assert_direct_rows_match(words, flavor):
    array = np.array(words, dtype=np.int16).reshape(len(words), -1)
    rows = [StatVector(*column) for column in array_stats(array, flavor).T.tolist()]
    assert rows == [direct_stat_vector(w, flavor) for w in words], flavor


@pytest.mark.parametrize("flavor", ["A", "B", "D"])
@pytest.mark.parametrize("n", range(7))
def test_row_wise_direct_stats_match_the_oracle_on_every_word(flavor, n):
    assert_direct_rows_match(list(iterate_group(flavor, n)), flavor)


def signed_word_lists(max_rank, signed=True):
    def words(n):
        sign = st.sampled_from((1, -1) if signed else (1,))
        return st.lists(st.builds(lambda perm, signs: tuple(p * s for p, s in zip(perm, signs)),
                                  st.permutations(range(1, n + 1)), st.lists(sign, min_size=n, max_size=n)),
                        min_size=1, max_size=20)

    return st.integers(0, max_rank).flatmap(words)


@settings(max_examples=60, deadline=None)
@given(signed_word_lists(9), signed_word_lists(9, signed=False))
def test_row_wise_direct_stats_match_the_oracle_on_random_words(signed, unsigned):
    assert_direct_rows_match(signed, "B")
    assert_direct_rows_match(signed, "D")
    assert_direct_rows_match(unsigned, "A")


# ---------------------------------------------------------------------------
# structural relations between the weights and halves
# ---------------------------------------------------------------------------
def test_halves_sum_to_whole_group():
    for n in range(1, 6):
        whole = poly_group("B", n, "biv")
        assert poly_group("B+", n, "biv") + poly_group("B-", n, "biv") == whole
    for n in range(2, 6):
        whole = poly_group("D", n, "biv")
        assert poly_group("D+", n, "biv") + poly_group("D-", n, "biv") == whole


def test_fivevar_specializes_to_biv():
    """Forgetting the ascent variables recovers the descent polynomial."""
    for group, start in [("B", 0), ("D", 2)]:
        for n in range(start, 5):
            five = poly_group(group, n, "fivevar")
            reduced = (
                five.subs_values({"s0": 1, "s1": 1})
                .rename_variables({"t0": "s", "t1": "t"})
            )
            assert reduced == poly_group(group, n, "biv")


def test_fivevar_specializes_to_hat():
    """Keeping even ascents and odd descents recovers the mixed polynomial."""
    for group, start in [("B", 0), ("D", 2)]:
        for n in range(start, 5):
            five = poly_group(group, n, "fivevar")
            reduced = (
                five.subs_values({"s1": 1, "t0": 1})
                .rename_variables({"s0": "s", "t1": "t"})
            )
            assert reduced == poly_group(group, n, "hat")


def test_hat_is_power_of_s_times_reciprocal_biv():
    """hat_n(s,t,q) = s^ceil(n/2) biv_n(1/s,t,q): ascents complement descents."""
    for n in range(1, 6):
        biv = poly_group("B", n, "biv")
        expected = LaurentPoly.monomial(1, s=(n + 1) // 2) * biv.substitute(
            "s", "reciprocal"
        )
        assert poly_group("B", n, "hat") == expected
    for n in range(2, 6):
        biv = poly_group("D", n, "biv")
        expected = LaurentPoly.monomial(1, s=(n - 1) // 2) * biv.substitute(
            "s", "reciprocal"
        )
        assert poly_group("D", n, "hat") == expected


def test_q_weight_marginalizes_all_statistics():
    for n in range(0, 5):
        q_only = poly_group("B", n, "q")
        assert q_only == poly_group("B", n, "biv").subs_values({"s": 1, "t": 1})


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------
def test_default_bound_refuses_rank_nine():
    with pytest.raises(BoundExceeded) as err:
        poly_group("B", 9, "biv")
    assert "ARTIFACT_MAX_N" in str(err.value)
    assert f"{work_estimate('B', 9):,}" in str(err.value)


def test_bound_override_via_environment(monkeypatch):
    monkeypatch.setenv("ARTIFACT_MAX_N", "2")
    with pytest.raises(BoundExceeded):
        poly_group("B", 3, "biv")
    monkeypatch.setenv("ARTIFACT_MAX_N", "3")
    assert poly_group("B", 3, "biv") == poly_group_python("B", 3, "biv")


def test_vectorized_route_refuses_ranks_past_its_accumulators(monkeypatch):
    monkeypatch.setenv("ARTIFACT_MAX_N", "16")
    with pytest.raises(ValueError, match="vectorized route stops at rank 15, got 16"):
        poly_group("B", 16, "biv")


def test_non_integer_bound_override_is_named(monkeypatch):
    monkeypatch.setenv("ARTIFACT_MAX_N", "abc")
    with pytest.raises(ValueError, match="ARTIFACT_MAX_N must be an integer, got 'abc'"):
        poly_group("B", 3, "biv")


def test_negative_bound_override_is_named(monkeypatch):
    monkeypatch.setenv("ARTIFACT_MAX_N", "-1")
    with pytest.raises(ValueError, match="ARTIFACT_MAX_N must be at least 0, got '-1'"):
        poly_group("B", 0, "biv")
    monkeypatch.setenv("ARTIFACT_MAX_N", "0")
    assert poly_group("B", 0, "biv") == LaurentPoly.one()


def test_bad_weight_and_group_rejected():
    with pytest.raises(ValueError):
        poly_group("B", 2, "nope")
    with pytest.raises(ValueError):
        poly_group("Z", 2, "biv")


def test_permutation_rows_are_in_lexicographic_order(monkeypatch):
    """The int8 permutation blocks equal the itertools order column for column,
    built without its tuples: views of one table up to the table rank, and
    above it (ranks 4-9 once it is patched to 3) blocks filled one at a time."""
    from artifact import permutations

    for n in range(0, 10):
        expected = permutation_columns(n)
        for table_rank, columns in [(8, 1 << 17), (8, 1000), (3, 1 << 17), (3, 1000)]:
            monkeypatch.setattr(permutations, "_TABLE_RANK", table_rank)
            blocks = list(permutations.permutation_blocks(n, columns))
            assert all(b.dtype == np.int8 and b.shape[0] == n for b in blocks)
            assert [b.shape[1] for b in blocks] == [min(columns, expected.shape[1] - lo)
                                                    for lo in range(0, expected.shape[1], columns)]
            rows = np.hstack(blocks)
            assert rows.shape == expected.shape and (rows == expected).all(), (table_rank, columns, n)
    table = permutations.permutation_table(7)
    assert table.flags.c_contiguous and not table.flags.writeable
    assert permutations.permutation_table(7) is table  # cached
