"""Replay recorded mutations of the package and check that their tests catch them.

Each mutant replaces one text, which must occur exactly once in its file, in
a copy of ``src/``.  The tests named for it must all pass on the clean tree
and all fail on the mutated copy.  The names are those CHANGES.md records
for the mutation.  pytest does not collect this file; run it from anywhere:

    python3 tests/mutants.py

It exits 0 when every mutant is caught, and 1 otherwise, naming each mutant
that is not caught or whose text does not occur exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the two steps of each product in the dense loop of polynomials._kronecker_sum
_LINK_STEP = """\
        if k < len(links):
            total = _shifted_sum(total, 8 * width, link_index[k].tolist(), link_forms[k].coefs)
"""
_PRODUCT_STEP = """\
        (a, b, *more), (ia, ib, *imore) = forms[k], indices[k]
        packed = _pack(ia, a.coefs, width) * _pack(ib, b.coefs, width)
        for f, index in zip(more, imore):
            packed = _shifted_sum(packed, 8 * width, index.tolist(), f.coefs)
        total += packed << (8 * width * shifts[k])
"""

# (name, file under src/artifact, old text, new text, the tests that must fail)
MUTANTS = [
    (
        "paths always added in QFraction.sum_of_products",
        "extension.py",
        "            if step != path:\n                path = _merge(path, step, add)\n",
        "            path = _merge(path, step, add)\n",
        ["tests/test_extension.py::test_sum_of_products_keeps_a_path_that_repeats",
         "tests/test_extension.py::test_sum_of_products_equals_the_pairwise_fold"],
    ),
    (
        "the lcm of the contents replaced by max in QFraction.sum_of_products",
        "extension.py",
        "content = lcm(*contents)",
        "content = max(contents)",
        ["tests/test_extension.py::test_sum_of_products_equals_the_pairwise_fold"],
    ),
    (
        "_runs without sorting",
        "polynomials.py",
        "order = np.argsort(keys)",
        "order = np.arange(len(keys))",
        ["tests/test_polynomials.py::test_sorted_path_matches_schoolbook",
         "tests/test_extension.py::test_sum_of_products_equals_the_pairwise_fold"],
    ),
    (
        "the snake mask odd -> even in _family_rule",
        "permutations.py",
        "return mask == position_bits(FLAVOR[group], n)[1]",
        "return mask == position_bits(FLAVOR[group], n)[0]",
        ["tests/test_permutations.py::test_is_snake_picks_the_reference_snakes[B]",
         "tests/test_permutations.py::test_is_snake_picks_the_reference_snakes[D]",
         "tests/test_registry.py::test_snakes_b_readings",
         "tests/test_registry.py::test_snakes_d_readings"],
    ),
    (
        "H's max(i, 0) -> i in _family_rule",
        "permutations.py",
        "max(i, 0) if group == \"H\"",
        "i if group == \"H\"",
        ["tests/test_family_table.py::test_every_key_a_word_takes_is_judged_alike[H]",
         "tests/test_permutations.py::test_word_arrays_follow_the_reference_order_in_bounded_blocks[H]"],
    ),
    (
        "a sorted-path product decoded without its origin",
        "polynomials.py",
        "np.unravel_index(slots, dims)) + origin[:, None]",
        "np.unravel_index(slots, dims))",
        ["tests/test_polynomials.py::test_private_variables_take_the_sorted_path",
         "tests/test_polynomials.py::test_sorted_path_matches_schoolbook"],
    ),
    (
        "each sorted-path product's corner shift dropped",
        "polynomials.py",
        "keys.append(key + shift)",
        "keys.append(key)",
        ["tests/test_polynomials.py::test_sorted_path_matches_schoolbook",
         "tests/test_polynomials.py::test_sparse_sums_and_products_of_three_factors_take_the_sorted_path"],
    ),
    (
        "the sorted path's int64 coefficient guard removed",
        "polynomials.py",
        "not dense and (links or slots >= _EXP_LIMIT or bound >= 1 << 63)",
        "not dense and (links or slots >= _EXP_LIMIT)",
        ["tests/test_polynomials.py::test_sorted_path_at_the_int64_coefficient_bound"],
    ),
    (
        "hat's easc row -> edes in _WEIGHT_TABLE",
        "enumeration.py",
        '"hat": np.array([_EASC, _ODES,',
        '"hat": np.array([_EDES, _ODES,',
        ["tests/test_enumeration.py::test_hat_is_power_of_s_times_reciprocal_biv",
         "tests/test_enumeration.py::test_the_weight_fold_equals_the_per_term_sum"],
    ),
    (
        "the divisor rule of the Poincaré multiplicities off by one",
        "polynomials.py",
        "for d in range(2, m + 1) if m % d == 0",
        "for d in range(2, m) if m % d == 0",
        ["tests/test_polynomials.py::test_q_factorials_and_poincare_polynomials_are_cyclotomic[2]",
         "tests/test_polynomials.py::test_q_factorials_and_poincare_polynomials_are_cyclotomic[16]",
         "tests/test_registry.py::test_every_series_check_passes_at_order_one"],
    ),
    (
        "_egf left on polynomial Poincaré denominators",
        "registry.py",
        "partial(poincare_factors, family)",
        "partial(poincare, family)",
        ["tests/test_registry.py::test_every_check_builds_its_fractions_over_factored_denominators"],
    ),
    (
        "a link applied after adding product k instead of before",
        "polynomials.py",
        _LINK_STEP + _PRODUCT_STEP,
        _PRODUCT_STEP + _LINK_STEP,
        ["tests/test_polynomials.py::test_linked_sums_match_the_schoolbook_horner_rule",
         "tests/test_polynomials.py::test_a_linked_sum_takes_one_kernel_call_and_no_product_operator",
         "tests/test_recurrences.py::test_recurrences_keep_their_pinned_digests[B]",
         "tests/test_recurrences.py::test_linked_sums_equal_the_whole_block_factors[12]"],
    ),
    (
        "the borrow pass skipped for a factor with a negative coefficient",
        "polynomials.py",
        "        if least < 0:\n",
        "        if False:\n",
        ["tests/test_polynomials.py::test_pack_takes_no_borrow_pass_without_a_negative_coefficient",
         "tests/test_polynomials.py::test_pack_round_trips_at_every_slot_width[False-1]",
         "tests/test_polynomials.py::test_sum_of_products_matches_schoolbook"],
    ),
    (
        "the division by i skipped in _classical",
        "registry.py",
        'series = series.divide_by_generator("i")',
        "series = series",
        ["tests/test_registry.py::test_classical_families_match_the_taylor_table[1-5]",
         "tests/test_registry.py::test_b_alternating_corollary"],
    ),
]


# pytest under a Hypothesis profile that neither shrinks a failing example nor
# stores one: a mutant needs only to fail, and each run starts from seed 0.
# It refuses to run when the package is not read from the tree under test (as
# an installed copy could be).
PYTEST = """
import os, sys, pytest
from hypothesis import Phase, settings
import artifact
if not artifact.__file__.startswith(os.environ["PYTHONPATH"]):
    sys.exit(f"artifact is read from {artifact.__file__}")
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


def outcomes(src: Path, tests: list[str]) -> dict[str, str]:
    """'passed', 'failed' or 'error' for each test that ran, by node id, with the package read from ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.xml"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        subprocess.run(
            [sys.executable, "-c", PYTEST, "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
             f"--junitxml={report}", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if not report.exists():
            return {}
        out = {}
        for case in ET.parse(report).iter("testcase"):
            node = case.get("classname").replace(".", "/") + ".py::" + case.get("name")
            kinds = {child.tag for child in case} & {"failure", "error", "skipped"}
            out[node] = "failed" if "failure" in kinds else kinds.pop() if kinds else "passed"
        return out


def main() -> int:
    started = time.perf_counter()
    problems = []
    for name, file, old, _, _ in MUTANTS:
        found = (ROOT / "src" / "artifact" / file).read_text().count(old)
        if found != 1:
            problems.append(f"{name}: its old text occurs {found} times in {file}, not once")
    if problems:
        print("\n".join(problems))
        return 1

    named = sorted({test for *_, tests in MUTANTS for test in tests})
    clean = outcomes(ROOT / "src", named)
    for test in named:
        if clean.get(test) != "passed":
            problems.append(f"clean tree: {test} {clean.get(test, 'did not run')}")

    with tempfile.TemporaryDirectory() as tmp:
        for name, file, old, new, tests in MUTANTS:
            src = Path(tmp) / "src"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            path = src / "artifact" / file
            path.write_text(path.read_text().replace(old, new))
            got = outcomes(src, tests)
            missed = [f"{test} {got.get(test, 'did not run')}" for test in tests if got.get(test) != "failed"]
            problems.extend(f"{name}: {miss}" for miss in missed)
            print(f"{'caught' if not missed else 'MISSED'}: {name} ({len(tests) - len(missed)}/{len(tests)} tests fail)")

    print("\n".join(problems))
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems, {time.perf_counter() - started:.1f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
