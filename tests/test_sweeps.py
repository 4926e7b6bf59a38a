"""The lemma, fixed-prefix and sign-flip sweeps against their word-by-word oracles.

``registry._lemma``, ``registry._corollary`` and ``registry._signflip`` work
on int16 arrays of words.  The bodies below are the word-at-a-time versions
they replaced, kept as reference oracles: one ``LaurentPoly`` per prefix, the
scalar maps and statistics per word.  Both read ``registry.word_arrays`` and
``registry._brute`` when they run, as the array bodies do, so a word injected
through ``word_arrays`` reaches both.
"""

import dataclasses

import numpy as np
import pytest

import artifact.registry as registry
from artifact.bijections import map_f, map_fD, signed_subsets
from artifact.enumeration import BoundExceeded
from artifact.permutations import flip_D, flip_all, format_word, inv_B, inv_D, stats_B, stats_D
from artifact.polynomials import LaurentPoly
from oracles import lemma_sum

# the scalar map, inv, stats and flip of each family
SCALAR = {
    "B": (map_f, inv_B, stats_B, flip_all),
    "D": (map_fD, inv_D, stats_D, flip_D),
}
FAMILIES = {"B": ("corollary-2.2", "signflip-B"), "D": ("corollary-3.2/3.3", "signflip-D")}
LEMMAS = {"B": "lemma-2.1", "D": "lemma-3.1"}


def oracle_lemma(check_id, fam, max_n):
    fmap, finv, _, _ = SCALAR[fam.name]
    entries = [
        registry._poly_entry(f"{check_id}[n={n},r={r}]", n, lemma_sum(fmap, finv, n, r), fam.coeff(n, r))
        for n in range(max_n + 1)
        for r in range(n + 1)
    ]
    return registry._collect(entries)


def oracle_corollary(check_id, fam, max_n):
    fmap, finv, fstats, _ = SCALAR[fam.name]
    entries = []
    for n in range(max_n + 1):
        for r in range(n + 1):
            closed = fam.coeff(n, r)
            weighted_total = LaurentPoly.zero()
            witness = None
            for sigma in words_of(fam.name, n - r):
                acc = LaurentPoly.zero()
                for subset in signed_subsets(n, r):
                    acc = acc + LaurentPoly.monomial(1, q=finv(fmap(sigma, subset, n)))
                if witness is None and acc != LaurentPoly.monomial(1, q=finv(sigma)) * closed:
                    witness = "prefix " + format_word(sigma)
                sv = fstats(sigma)
                weighted_total = weighted_total + LaurentPoly.monomial(1, s=sv.edes, t=sv.odes) * acc
            identity_id = f"{check_id}[n={n},r={r}]"
            rhs = registry._brute(fam.name, n - r, "biv") * closed
            if witness is None:
                entries.append(registry._poly_entry(identity_id, n, weighted_total, rhs))
            else:
                entries.append(registry._witness_entry(identity_id, n, witness))
    return registry._collect(entries)


def oracle_signflip(check_id, fam, max_n):
    _, _, fstats, fflip = SCALAR[fam.name]
    entries = []
    for n in range(fam.first, max_n + 1):
        sums = registry.reciprocal_exponents(fam.name, n)
        bad = None
        for w in words_of(fam.name, n):
            sw, sv = fstats(w), fstats(fflip(w))
            if (sw.inv + sv.inv, sw.edes + sv.edes, sw.odes + sv.odes) != sums:
                bad = format_word(w)
                break
        entries.append(registry._witness_entry(check_id, n, bad))
    return registry._collect(entries)


def words_of(group, n):
    """The words ``registry.word_arrays`` yields, one tuple each."""
    for block in registry.word_arrays(group, n, registry._BATCH_WORDS):
        yield from map(tuple, block.tolist())


def family(name):
    return {"B": registry._B, "D": registry._D}[name]


def inject_bogus_word(monkeypatch, rank):
    """Make ``word_arrays`` yield an all-ones word first at ``rank``, in its first block."""
    real = registry.word_arrays

    def with_bogus_word(group, n, rows, i=None):
        blocks = real(group, n, rows, i)
        if n == rank:
            first = next(blocks)
            yield np.concatenate([np.ones((1, n), dtype=first.dtype), first])
        yield from blocks

    monkeypatch.setattr(registry, "word_arrays", with_bogus_word)


def wrong_coeff_at_r2(fam, extra):
    def coeff(n, r):
        good = fam.coeff(n, r)
        return good + extra * LaurentPoly.monomial(1, q=n) if r == 2 else good

    return dataclasses.replace(fam, coeff=coeff)


def wrong_flip_sum_at_rank4(monkeypatch):
    """Make the registry's reciprocity exponents, the sign flip's sums, claim one odes too many at rank 4."""
    real = registry.reciprocal_exponents

    def exponents(family, n):
        inv, edes, odes = real(family, n)
        return (inv, edes, odes + (n == 4))

    monkeypatch.setattr(registry, "reciprocal_exponents", exponents)


@pytest.mark.parametrize("name", ["B", "D"])
@pytest.mark.parametrize("case", ["clean", "extra q term", "extra s term"])
def test_lemma_reports_as_the_oracle_does(name, case):
    fam = family(name)
    if case == "extra q term":
        fam = wrong_coeff_at_r2(fam, 1)
    elif case == "extra s term":
        fam = wrong_coeff_at_r2(fam, LaurentPoly.variable("s"))
    expected = oracle_lemma(LEMMAS[name], fam, 6)
    assert registry._lemma(LEMMAS[name], fam, 6) == expected
    assert (expected["status"] == "pass") == (case == "clean")


@pytest.mark.parametrize("name", ["B", "D"])
@pytest.mark.parametrize("case", ["clean", "extra q term", "extra s term", "bogus word"])
def test_corollary_reports_as_the_oracle_does(monkeypatch, name, case):
    fam = family(name)
    if case == "extra q term":
        fam = wrong_coeff_at_r2(fam, 1)
    elif case == "extra s term":
        fam = wrong_coeff_at_r2(fam, LaurentPoly.variable("s"))
    elif case == "bogus word":
        inject_bogus_word(monkeypatch, 3)
    check_id = FAMILIES[name][0]
    expected = oracle_corollary(check_id, fam, 5)
    assert registry._corollary(check_id, fam, 5) == expected
    assert (expected["status"] == "pass") == (case == "clean")


@pytest.mark.parametrize("name", ["B", "D"])
@pytest.mark.parametrize("case", ["clean", "wrong sum", "bogus word"])
def test_signflip_reports_as_the_oracle_does(monkeypatch, name, case):
    fam = family(name)
    if case == "wrong sum":
        wrong_flip_sum_at_rank4(monkeypatch)
    elif case == "bogus word":
        inject_bogus_word(monkeypatch, 3)
    check_id = FAMILIES[name][1]
    expected = oracle_signflip(check_id, fam, 5)
    assert registry._signflip(check_id, fam, 5) == expected
    assert (expected["status"] == "pass") == (case == "clean")


def test_batches_stay_within_the_word_budget(monkeypatch):
    """A small budget splits the sweeps finer without changing any report."""
    expected = {cid: registry.run_check(cid, max_n=5) for cid in sum(FAMILIES.values(), ())}
    budget = 100  # above the 80 insertions of one prefix at n = 5, r = 3
    rows = []
    real = registry.array_stats

    def recording(words, flavor):
        rows.append(len(words))
        return real(words, flavor)

    monkeypatch.setattr(registry, "_BATCH_WORDS", budget)
    monkeypatch.setattr(registry, "array_stats", recording)
    for cid, report in expected.items():
        assert registry.run_check(cid, max_n=5) == report, cid
    assert max(rows) <= budget
    assert rows.count(budget) > 10  # B_5 and D_5 alone fill dozens of batches


def test_lemma_reads_its_insertions_in_blocks(monkeypatch):
    """A budget of 7 rows splits every lemma sum into blocks, pulled one at a time."""
    expected = {cid: registry.run_check(cid, max_n=6) for cid in LEMMAS.values()}
    budget = 7
    pulled = []
    rows = []
    real_subsets, real_stats = registry.signed_subsets, registry.array_stats

    def counting_subsets(n, r):
        for subset in real_subsets(n, r):
            pulled.append(subset)
            yield subset

    def recording(words, flavor):
        rows.append(len(words))
        assert len(pulled) == sum(rows), "subsets were read ahead of the block in hand"
        return real_stats(words, flavor)

    monkeypatch.setattr(registry, "_BATCH_WORDS", budget)
    monkeypatch.setattr(registry, "signed_subsets", counting_subsets)
    monkeypatch.setattr(registry, "array_stats", recording)
    for cid, report in expected.items():
        assert registry.run_check(cid, max_n=6) == report, cid
    assert max(rows) <= budget
    assert sum(rows) == 2 * sum(3**n for n in range(7))  # every insertion of both families, once
    assert rows.count(budget) >= 240 // budget  # C(6,4)·2⁴ = 240 insertions at n = 6, r = 4 alone


@pytest.mark.parametrize(
    "check_id", sum(FAMILIES.values(), ()) + tuple(LEMMAS.values()) + ("springer-B-q1", "springer-D-q1")
)
def test_every_rank_is_bounded_before_any_word_is_read(monkeypatch, check_id):
    def no_words(*args):
        raise AssertionError(f"{check_id} read words or insertions")

    for reader in ("word_arrays", "signed_subsets", "juxtapose_array"):
        monkeypatch.setattr(registry, reader, no_words)
    monkeypatch.setenv("ARTIFACT_MAX_N", "3")
    # lemma-2.1: 3⁴ = 81 insertions > 2³·3! = 48 words; lemma-3.1: 3³ = 27 > |D₃| = 2²·3! = 24
    rank = 3 if check_id == LEMMAS["D"] else 4
    with pytest.raises(BoundExceeded, match=f"at rank {rank} "):
        registry.run_check(check_id, max_n=6)


@pytest.mark.parametrize("check_id", LEMMAS.values())
def test_the_default_ceiling_admits_lemma_rank_14_and_refuses_15(monkeypatch, check_id):
    def no_insertions(*args):
        raise AssertionError(f"{check_id} read an insertion")

    monkeypatch.setattr(registry, "signed_subsets", no_insertions)
    monkeypatch.delenv("ARTIFACT_MAX_N", raising=False)  # |B₈| or |D₈| words: 3¹⁴ insertions fit, 3¹⁵ do not
    words = {LEMMAS["B"]: "10,321,920", LEMMAS["D"]: "5,160,960"}[check_id]
    with pytest.raises(BoundExceeded, match="at rank 15 needs about 14,348,907 insertions; "
                       f"the ceiling is rank 8, about {words} words"):
        registry.run_check(check_id, max_n=15)
    with pytest.raises(AssertionError, match="read an insertion"):
        registry.run_check(check_id, max_n=14)
