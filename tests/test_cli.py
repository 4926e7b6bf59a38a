"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json
import math
import re
import subprocess
import sys
import time

import pytest

from artifact.cli import main
from artifact.enumeration import poly_group
from artifact.polynomials import VARIABLES, LaurentPoly
from oracles import is_decoded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------
def test_enumerate_pretty(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--group", "B", "--n", "2")
    assert code == 0
    assert out == "1 + t*q + s*q + t*q^2 + s*q^2 + t*q^3 + s*q^3 + s*t*q^4\n"


def test_enumerate_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "D", "--n", "3", "--weight", "fivevar",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vars"] == list(VARIABLES)
    rebuilt = LaurentPoly.from_json_dict(payload)
    assert rebuilt == poly_group("D", 3, "fivevar")


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "B", "--n", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(VARIABLES) + ",coef"
    # 1 + s*q: constant row then the s*q row
    assert lines[1].endswith(",1")
    assert len(lines) == 3


def test_enumerate_descent_class_requires_cutoff(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--group", "G", "--n", "3")
    assert code == 2
    assert out == ""
    assert "error" in err
    code, out, _ = run_cli(
        capsys, "enumerate", "--group", "G", "--n", "3", "--i", "1"
    )
    assert code == 0


def test_enumerate_bound_exceeded(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--group", "B", "--n", "9")
    assert code == 3
    assert out == ""
    assert "ARTIFACT_MAX_N" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------
def test_check_single_id_pretty(capsys):
    code, out, err = run_cli(
        capsys, "check", "--id", "typeB-biv-q1-classical", "--order", "4"
    )
    assert code == 0
    assert out.startswith("PASS typeB-biv-q1-classical")
    assert "ran 1 check(s)" in err


def test_check_unknown_id(capsys):
    code, out, err = run_cli(capsys, "check", "--id", "bogus")
    assert code == 2
    assert "unknown check id" in err
    assert "typeA-pentavar" in err  # the known ids are listed


def test_check_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--id", "typeB-recurrence", "--max-n", "3",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["id"] == "typeB-recurrence"
    assert reports[0]["status"] == "pass"


def test_check_failure_exit_code(capsys, monkeypatch):
    import artifact.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "run_check",
        lambda cid, **kw: {"id": cid, "label": "stub", "status": "fail",
                           "u_power": 2, "residual": "x" * 200},
    )
    code, out, _ = run_cli(capsys, "check", "--id", "typeB-biv-even")
    assert code == 1
    assert out.startswith("FAIL typeB-biv-even")
    assert "fail at u^2" in out
    assert "..." in out  # long residuals are truncated


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def test_compare_all_methods_agree(capsys):
    code, out, err = run_cli(
        capsys, "compare", "--group", "B", "--n", "3",
        "--methods", "brute,recurrence,hyatt",
    )
    assert code == 0
    assert out == "methods agree for B_3: brute, recurrence, hyatt\n"
    assert "brute:" in err and "hyatt:" in err  # per-method timings


def test_compare_detects_disagreement(capsys, monkeypatch):
    import artifact.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "recurrence_poly", lambda g, n: LaurentPoly.one()
    )
    code, out, _ = run_cli(
        capsys, "compare", "--group", "B", "--n", "2",
        "--methods", "brute,recurrence",
    )
    assert code == 1
    assert "disagree" in out


def test_compare_sees_a_disagreement_in_the_kernel_difference(capsys, monkeypatch):
    """At rank 10 both routes and their difference are kernel sums; one extra
    monomial in the subset expansion still makes them disagree."""
    import artifact.cli as cli_mod

    hyatt_plus = cli_mod.hyatt_plus
    monkeypatch.setattr(cli_mod, "hyatt_plus", lambda g, n: hyatt_plus(g, n) + LaurentPoly.monomial(1, s=1))
    code, out, _ = run_cli(capsys, "compare", "--group", "B", "--n", "10", "--methods", "recurrence,hyatt")
    assert code == 1
    assert out == "recurrence and hyatt disagree for B_10\n"


def test_compare_keeps_the_recurrence_undecoded(capsys):
    """From the coefficients to the verdict, compare builds no term dict of
    the rank it compares: the recurrence's result stays in kernel form."""
    from artifact.recurrences import recur_B

    recur_B.cache_clear()
    code, out, _ = run_cli(capsys, "compare", "--group", "B", "--n", "12", "--methods", "recurrence,hyatt")
    assert (code, out) == (0, "methods agree for B_12: recurrence, hyatt\n")
    assert not is_decoded(recur_B(12))
    recur_B.cache_clear()


def test_compare_rejects_bad_method(capsys):
    code, _, err = run_cli(
        capsys, "compare", "--group", "B", "--n", "2", "--methods", "magic"
    )
    assert code == 2
    assert "--methods" in err


def test_compare_rejects_low_rank_closed_routes(capsys):
    code, _, err = run_cli(
        capsys, "compare", "--group", "D", "--n", "1",
        "--methods", "brute,recurrence",
    )
    assert code == 2
    assert "n >= 2" in err


def test_compare_beyond_the_bound_exits_3(capsys, monkeypatch):
    monkeypatch.delenv("ARTIFACT_MAX_N", raising=False)  # the default ceiling is rank 8
    code, out, err = run_cli(capsys, "compare", "--group", "B", "--n", "9", "--methods", "brute")
    assert code == 3
    assert out == ""
    assert "brute force over B at rank 9" in err


@pytest.mark.parametrize("argv, needs", [
    (["enumerate", "--group", "A", "--n", "2000"], "A at rank 2000 needs about 10^5,735 words; "
     "the ceiling is rank 9, about 362,880 words"),
    (["enumerate", "--group", "A", "--n", "1000000"], "A at rank 1000000 needs about 10^5,565,708 words; "
     "the ceiling is rank 9, about 362,880 words"),
    (["compare", "--group", "B", "--n", "2000"], "B at rank 2000 needs about 10^6,337 words; "
     "the ceiling is rank 8, about 10,321,920 words"),
])
def test_a_huge_rank_is_refused_by_its_order_of_magnitude(capsys, monkeypatch, argv, needs):
    """The refusal neither forms n! nor prints it: it states the power of ten."""
    import artifact.enumeration as enumeration

    def small_factorial(n):
        assert n <= 20, f"formed {n}!"
        return math.factorial(n)

    monkeypatch.setattr(enumeration, "factorial", small_factorial)
    monkeypatch.delenv("ARTIFACT_MAX_N", raising=False)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: brute force over {needs} (set ARTIFACT_MAX_N to override)\n"


def test_compare_negative_rank_exits_2(capsys):
    code, out, err = run_cli(capsys, "compare", "--group", "B", "--n", "-1", "--methods", "recurrence")
    assert code == 2
    assert out == ""
    assert "need n >= 0" in err


@pytest.mark.parametrize("group, n, methods, need", [
    ("B", "0", "brute,hyatt", 1),
    ("D", "1", "brute,recurrence", 2),
    ("B", "-1", "brute", 0),
])
def test_compare_checks_every_route_rank_before_running_any(capsys, group, n, methods, need):
    code, out, err = run_cli(capsys, "compare", "--group", group, "--n", n, "--methods", methods)
    assert (code, out) == (2, "")
    assert f"need n >= {need}" in err
    assert not re.search(r"^\w+: [0-9.]+s$", err, re.M)  # no route ran, so none printed its time


def _routes_that_raise(monkeypatch):
    import artifact.cli as cli_mod

    def run(*args):
        raise AssertionError(f"a route ran: {args}")

    for name in ("poly_group", "recurrence_poly", "hyatt_plus"):
        monkeypatch.setattr(cli_mod, name, run)


@pytest.mark.parametrize("methods", ["recurrence,recurrence", "brute,hyatt,brute"])
def test_compare_refuses_a_method_named_twice(capsys, monkeypatch, methods):
    """A route compared with itself would only agree with itself."""
    _routes_that_raise(monkeypatch)
    code, out, err = run_cli(capsys, "compare", "--group", "B", "--n", "5", "--methods", methods)
    assert (code, out) == (2, "")
    assert err == f"error: --methods names {methods.split(',')[0]} twice\n"


@pytest.mark.parametrize("methods, route", [
    ("recurrence", "recurrence"),
    ("hyatt", "hyatt"),
    ("recurrence,hyatt", "recurrence and hyatt"),
])
def test_compare_refuses_a_closed_route_above_its_ceiling(capsys, monkeypatch, methods, route):
    """Rank 600 is refused before any route runs, with exit 3 and a count of ranks."""
    from artifact.cli import _CLOSED_CEILING

    _routes_that_raise(monkeypatch)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "compare", "--group", "B", "--n", "600", "--methods", methods)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: {route} over B at rank 600 builds 601 ranks; the ceiling is rank {_CLOSED_CEILING}\n"


def test_compare_takes_the_closed_routes_up_to_their_ceiling(capsys, monkeypatch):
    import artifact.cli as cli_mod

    ranks = []
    monkeypatch.setattr(cli_mod, "recurrence_poly", lambda g, n: ranks.append(n) or LaurentPoly.one())
    monkeypatch.setattr(cli_mod, "_CLOSED_CEILING", 20)
    assert run_cli(capsys, "compare", "--group", "D", "--n", "20", "--methods", "recurrence")[0] == 0
    assert run_cli(capsys, "compare", "--group", "D", "--n", "21", "--methods", "recurrence")[0] == 3
    assert ranks == [20]


# ---------------------------------------------------------------------------
# argument and environment validation
# ---------------------------------------------------------------------------
@pytest.fixture
def cold_cache(monkeypatch):
    """An empty brute-force cache, as in a fresh process, restored afterwards."""
    import artifact.registry as registry

    monkeypatch.setattr(registry, "_POLY_CACHE", {})


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--group", "B", "--n", "2"],
    ["check", "--id", "lemma-2.1", "--max-n", "2"],
    ["compare", "--group", "B", "--n", "2"],
])
def test_jobs_below_one_is_usage_error(capsys, argv, jobs):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--jobs", jobs])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err and "at least 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--id", "typeB-recurrence", "--max-n", "2"],
    ["compare", "--group", "B", "--n", "2", "--methods", "brute,recurrence"],
    ["enumerate", "--group", "B", "--n", "2"],
])
def test_non_integer_bound_override_is_usage_error(capsys, monkeypatch, cold_cache, argv):
    monkeypatch.setenv("ARTIFACT_MAX_N", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "ARTIFACT_MAX_N must be an integer" in err


def test_negative_bound_override_is_usage_error(capsys, monkeypatch, cold_cache):
    """A negative ceiling is refused as a setting, not read as a ceiling that rank 0 exceeds."""
    monkeypatch.setenv("ARTIFACT_MAX_N", "-5")
    code, out, err = run_cli(capsys, "enumerate", "--group", "B", "--n", "0")
    assert code == 2
    assert out == ""
    assert "ARTIFACT_MAX_N must be at least 0, got '-5'" in err


def test_check_bound_exceeded(capsys, monkeypatch, cold_cache):
    monkeypatch.setenv("ARTIFACT_MAX_N", "2")
    code, out, err = run_cli(capsys, "check", "--id", "typeB-recurrence", "--max-n", "3")
    assert code == 3
    assert out == ""
    assert "ARTIFACT_MAX_N" in err


@pytest.mark.parametrize("check_id, max_n, first", [
    ("typeB-recurrence", "-1", 0),
    ("corollary-2.2", "-3", 0),
    ("springer-B-q1", "-1", 0),
    ("typeD-recurrence", "1", 2),
    ("hatD-power-relation", "1", 2),
])
def test_empty_rank_sweep_is_usage_error(capsys, check_id, max_n, first):
    code, out, err = run_cli(capsys, "check", "--id", check_id, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert f"error: check '{check_id}' sweeps ranks from {first}" in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_series_order_below_one_is_usage_error(capsys, monkeypatch, order):
    import artifact.registry as registry

    def no_words(*args, **kw):
        raise AssertionError("enumerated a group")

    monkeypatch.setattr(registry, "poly_group", no_words)
    code, out, err = run_cli(capsys, "check", "--id", "typeB-fivevar", "--order", order)
    assert code == 2
    assert out == ""
    assert err == f"error: check 'typeB-fivevar' verifies from u^1, so order must be at least 1, got {order}\n"


def test_check_beyond_the_bound_exits_before_reading_any_word(capsys, monkeypatch, cold_cache):
    import artifact.registry as registry

    def no_words(group, n, rows, i=None):
        raise AssertionError(f"read the words of {group}_{n}")

    monkeypatch.setattr(registry, "word_arrays", no_words)
    monkeypatch.delenv("ARTIFACT_MAX_N", raising=False)  # the default ceiling is rank 8
    code, out, err = run_cli(capsys, "check", "--id", "corollary-2.2", "--max-n", "9")
    assert code == 3
    assert out == ""
    assert "brute force over B at rank 9" in err


def test_check_all_refuses_a_low_max_n_before_running_any(capsys, monkeypatch):
    import artifact.registry as registry

    ran = []
    monkeypatch.setattr(registry, "run_check", lambda cid, **kw: ran.append(cid))
    code, out, err = run_cli(capsys, "check", "--all", "--max-n", "1")
    assert code == 2
    assert out == ""
    assert err == "error: check 'typeD-recurrence' sweeps ranks from 2, so max_n must be at least 2, got 1\n"
    assert ran == []


@pytest.mark.parametrize("check_id, given, takes", [
    ("typeB-alt-even", ["--max-n", "3"], "--order"),
    ("typeB-alt-even", ["--order", "4", "--max-n", "3"], "--order"),
    ("typeB-recurrence", ["--order", "8"], "--max-n"),
    ("X-lemma", ["--max-n", "3", "--order", "8"], "--max-n"),
])
def test_check_id_refuses_an_option_the_check_does_not_take(capsys, monkeypatch, check_id, given, takes):
    import artifact.cli as cli

    def no_run(*args, **kw):
        raise AssertionError("ran a check")

    monkeypatch.setattr(cli, "run_check", no_run)
    code, out, err = run_cli(capsys, "check", "--id", check_id, *given)
    refused = "--max-n" if takes == "--order" else "--order"
    assert (code, out) == (2, "")
    assert err == f"error: check '{check_id}' takes {takes}, not {refused}\n"


def test_check_all_applies_each_override_where_it_fits(capsys):
    code, out, _ = run_cli(capsys, "check", "--all", "--order", "2", "--max-n", "3", "--format", "json")
    assert code == 0
    params = {r["id"]: r["parameters"] for r in json.loads(out)}
    assert params["typeB-alt-even"] == {"order": 2}
    assert params["typeB-recurrence"] == {"max_n": 3}
    assert all(p in ({"order": 2}, {"max_n": 3}) for p in params.values())


# ---------------------------------------------------------------------------
# determinism and packaging
# ---------------------------------------------------------------------------
def test_jobs_option_is_accepted_and_changes_nothing(capsys):
    """Repeated runs print the same bytes, and ``--jobs 2`` prints what ``--jobs 1`` does."""
    outs = []
    for jobs in ("1", "1", "2"):
        code, out, _ = run_cli(
            capsys, "check", "--id", "lemma-2.1", "--max-n", "4",
            "--format", "json", "--jobs", jobs,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("order_args,digest", [
    ((), "7848f79e56f72dd853cc793f901d82ef833e2a4902c8af9fbf73b76d0fea8727"),
    (("--order", "8"), "9aa880bbe78e59c35b313f3c021135b79a3c327a3b2be9d31c0440b7c9b048c6"),
], ids=["default-order", "order-8"])
def test_check_all_json_is_pinned(capsys, order_args, digest):
    """The whole catalogue's report, byte for byte, at the default order and at order 8."""
    code, out, _ = run_cli(capsys, "check", "--all", *order_args, "--format", "json")
    assert code == 0
    data = out.encode()
    assert len(data) == 73_317
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("check_id,size,digest", [
    ("typeB-alt-even", 1_503, "55fec923d18f84eda9a2ba47d75b42bd8f51bfccc98fbd98fa88812449ca5804"),
    ("typeD-fivevar", 23_542, "e022657eff0a38664acaa1407689936318b91c296b65ada9f4a3646edfbf96c1"),
    ("typeD-alt-even", 3_279, "08cf538949179c400da93f4a723565b99ea80c682f79211defa372f386081492"),
])
def test_order_eight_reports_are_pinned(capsys, check_id, size, digest):
    """The largest failing-reading residuals, printed in cross-multiplied form."""
    code, out, _ = run_cli(capsys, "check", "--id", check_id, "--order", "8", "--format", "json")
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_cli_import_leaves_out_multiprocessing():
    code = "import sys, artifact.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "artifact", "enumerate", "--group", "B", "--n", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + s*q\n"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
