"""Acceptance suite: one test (and one pass/fail line) per shipping criterion.

Every comparison is exact — integer and rational arithmetic throughout — so
the only tolerances here are the wall-clock budgets on the heavyweight
sweeps.
"""

import json
import math
import time

from artifact.bijections import map_f, map_fD, map_fpp, signed_subsets
from artifact.cli import main
from artifact.enumeration import poly_group
from artifact.permutations import iterate_group
from artifact.recurrences import hyatt_plus, classic_plus_B, recur_B, recur_D
from artifact.registry import clear_cache, run_check
from oracles import iterate_descending_suffix, plain_subsets

SERIES_CHECK_IDS = (
    "typeB-biv-even",
    "typeB-biv-odd",
    "typeB-alt-even",
    "typeB-alt-odd",
    "typeD-biv-even",
    "typeD-biv-odd",
    "typeD-alt-even",
    "typeD-alt-odd",
    "typeB-fivevar",
    "typeD-fivevar",
    "reiner-egf",
    "snakes-B-q",
    "snakes-D-q",
)


def announce(label: str, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"PASS {label}{timing}")


def test_01_type_b_recurrence_equals_brute_force_through_rank_8():
    """Closed recurrence vs exhaustive enumeration over all 10,321,920 words."""
    clear_cache()
    started = time.perf_counter()
    for n in range(0, 9):
        assert recur_B(n) == poly_group("B", n, "biv", jobs=4), n
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"rank sweep took {elapsed:.1f}s"
    announce("type B recurrence == brute force, 0 <= n <= 8", elapsed)


def test_02_type_d_recurrence_equals_brute_force_through_rank_8():
    clear_cache()
    started = time.perf_counter()
    for n in range(2, 9):
        assert recur_D(n) == poly_group("D", n, "biv", jobs=4), n
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"rank sweep took {elapsed:.1f}s"
    announce("type D recurrence == brute force, 2 <= n <= 8", elapsed)


def test_03_positive_last_entry_expansion_and_classical_specialization():
    """Subset expansion vs brute force, then its one-variable binomial sum."""
    for n in range(1, 8):
        assert hyatt_plus("B", n) == poly_group("B+", n, "biv"), n
    for n in range(2, 8):
        assert hyatt_plus("D", n) == poly_group("D+", n, "biv"), n
    for n in range(1, 11):
        collapsed = hyatt_plus("B", n).subs_values({"q": 1}).rename_variables({"s": "t"})
        assert collapsed == classic_plus_B(n), n
    announce("positive-last expansions == brute force (n <= 7) and "
             "their q = 1 binomial sums (n <= 10)")


def test_04_series_identities_exact_through_u8():
    """Cross-multiplied residuals vanish identically through order eight, from a
    cold brute-force cache; the slowest, typeD-fivevar, took 0.08-0.09 s on a
    2-core host."""
    clear_cache()
    slowest = (0.0, "")
    for cid in SERIES_CHECK_IDS:
        started = time.perf_counter()
        report = run_check(cid, order=8)
        elapsed = time.perf_counter() - started
        assert report["status"] == "pass", (cid, report)
        assert elapsed < 0.3, f"{cid} took {elapsed:.2f}s"
        slowest = max(slowest, (elapsed, cid))
    announce(f"{len(SERIES_CHECK_IDS)} series identities exact through u^8, "
             f"each under 0.3s (slowest {slowest[1]})", slowest[0])


def test_05_q_equal_one_degenerations():
    """Classical hyperbolic forms at half argument, and the snake numbers."""
    classical = run_check("typeB-biv-q1-classical", order=6)
    assert classical["status"] == "pass", classical
    snakes = run_check("springer-B-q1", max_n=6)
    assert snakes["status"] == "pass", snakes
    assert snakes["counts"] == [1, 1, 3, 11, 57, 361, 2763]
    announce("q = 1 degenerations: half-argument hyperbolic forms through u^6 "
             "and snake counts vs 1/(cos u - sin u)")


def test_06_lemma_suites_and_bijectivity():
    """Subset-sum closed forms, passing lemmas, sign flips, image equality."""
    for cid, max_n in (
        ("lemma-2.1", 7),
        ("lemma-3.1", 7),
        ("passing-G", 6),
        ("passing-H", 6),
        ("signflip-B", 6),
        ("signflip-D", 6),
    ):
        report = run_check(cid, max_n=max_n)
        assert report["status"] == "pass", (cid, report)

    # juxtaposition onto signed subsets covers every increasing-tail word
    for n in range(1, 7):
        for i in range(0, n):
            image = {
                map_f(sigma, subset, n)
                for sigma in iterate_group("B", i)
                for subset in signed_subsets(n, n - i)
            }
            assert image == set(iterate_group("G", n, i=i)), (n, i)
            assert len(image) == 2**n * math.comb(n, i) * math.factorial(i)

    # the parity-adjusted variant covers the even-signed counterpart
    for n in range(3, 7):
        for i in range(2, n):
            image = {
                map_fD(sigma, subset, n)
                for sigma in iterate_group("D", i)
                for subset in signed_subsets(n, n - i)
            }
            assert image == set(iterate_group("H", n, i=i)), (n, i)
            assert len(image) == 2 ** (n - 1) * math.comb(n, i) * math.factorial(i)

    # the descending-suffix variant covers every positive descending tail
    for n in range(1, 7):
        for k in range(0, n):
            image = {
                map_fpp(sigma, subset, n)
                for sigma in iterate_group("B", n - k - 1)
                for subset in plain_subsets(n, k + 1)
            }
            assert image == set(iterate_descending_suffix("B", n, k)), (n, k)

    announce("subset-sum lemmas (n <= 7), passing lemmas, sign-flip laws, "
             "and bijection image equality (n <= 6)")


def test_07_symmetry_and_reciprocity_as_exact_laurent_identities():
    for cid in (
        "typeB-minus-symmetry",
        "typeD-minus-symmetry",
        "typeB-reciprocal",
        "typeD-reciprocal",
    ):
        report = run_check(cid, max_n=7)
        assert report["status"] == "pass", (cid, report)
    announce("negative-last symmetry and reciprocity exact for n <= 7")


def test_08_byte_identical_output_across_runs_and_jobs(capsys):
    """Repeated runs print the same bytes, and ``--jobs`` is accepted and changes nothing.

    Brute force runs in one process whatever ``--jobs`` says, so the third run
    of each command pins that the option is still taken, not a worker count.
    """
    commands = [
        ["enumerate", "--group", "B", "--n", "4", "--format", "json"],
        ["enumerate", "--group", "D", "--n", "4", "--weight", "fivevar",
         "--format", "csv"],
        ["enumerate", "--group", "snakeB", "--n", "5", "--weight", "q"],
        ["check", "--id", "typeB-recurrence", "--max-n", "4", "--format", "json"],
        ["compare", "--group", "B", "--n", "4", "--methods",
         "brute,recurrence,hyatt"],
    ]
    for argv in commands:
        outputs = []
        for jobs in ("1", "1", "4"):
            code = main(argv + ["--jobs", jobs])
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outputs.append(captured.out.encode())
        assert outputs[0] == outputs[1] == outputs[2], argv
    announce("command output byte-identical across repeated runs, "
             "with --jobs accepted and changing nothing")


def test_09_fixed_prefix_and_sign_flip_sweeps_within_budget():
    """The sweeps over group words at their default ranks, cold cache: the
    corollary and sign-flip sweeps, the direct route of the power relations,
    and the snake counts."""
    for cid in ("corollary-2.2", "corollary-3.2/3.3", "signflip-B", "signflip-D",
                "hatB-power-relation", "hatD-power-relation", "springer-B-q1", "springer-D-q1"):
        clear_cache()
        started = time.perf_counter()
        report = run_check(cid)
        elapsed = time.perf_counter() - started
        assert report["status"] == "pass", (cid, report)
        assert elapsed < 2.0, f"{cid} took {elapsed:.1f}s"
    announce("fixed-prefix insertion sums, sign-flip laws, power relations "
             "and snake counts at default ranks")


def test_10_recurrence_and_subset_expansion_agree_at_rank_16_within_budget(capsys):
    """``compare --methods recurrence,hyatt`` at rank 16, for B and for D, from cold
    recurrence caches; each took 0.10-0.21 s on a 2-core host with the linked
    kernel sums (0.17-0.24 s before them)."""
    slowest = 0.0
    for group in ("B", "D"):
        recur_B.cache_clear()
        recur_D.cache_clear()
        started = time.perf_counter()
        code = main(["compare", "--group", group, "--n", "16", "--methods", "recurrence,hyatt"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0 and f"methods agree for {group}_16" in out, out
        assert elapsed < 0.8, f"compare {group}_16 took {elapsed:.2f}s"
        slowest = max(slowest, elapsed)
    announce("recurrence == subset expansion at rank 16 for B and D, each under 0.8s", slowest)


def test_machine_readable_reports_are_json_serializable():
    report = run_check("typeB-recurrence", max_n=3)
    assert json.loads(json.dumps(report)) == report
