"""Command-line interface.

Three subcommands:

* ``enumerate`` prints one descent-statistic polynomial computed by exhaustive
  enumeration.
* ``check`` runs identity checks from the registry and prints their reports.
* ``compare`` computes the same polynomial by independent methods and reports
  whether they agree (per-method timings go to stderr).

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 a check
or comparison failed, 2 bad arguments or unknown check id, 3 an enumeration
or route ceiling was exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .enumeration import WEIGHTS, BoundExceeded, check_bound, poly_group
from .permutations import GROUPS
from .polynomials import VARIABLES, LaurentPoly, sum_of_products
from .recurrences import hyatt_plus, reciprocal_transform, recurrence_poly
from .registry import CHECK_IDS, list_checks, run_all, run_check
from .series import DEFAULT_ORDER

_COMPARE_METHODS = ("brute", "recurrence", "hyatt")
# The highest rank compare's closed routes take.  B with recurrence,hyatt took
# 58 s and 635 MB (ru_maxrss) at rank 35 on a 2-core host, and 75 s at rank 36.
_CLOSED_CEILING = 35


def _job_count(text: str) -> int:
    """The --jobs value: a whole number, at least 1.

    The option is accepted and validated so existing invocations keep working;
    it has no effect, since every route runs in one process.
    """
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="exact parity-refined descent statistics on signed permutation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="print one polynomial from brute-force enumeration")
    p_enum.add_argument("--group", required=True, choices=GROUPS)
    p_enum.add_argument("--n", required=True, type=int)
    p_enum.add_argument("--i", type=int, default=None,
                        help="descent cutoff (required for groups G and H)")
    p_enum.add_argument("--weight", default="biv", choices=WEIGHTS)
    p_enum.add_argument("--format", default="pretty", choices=("json", "csv", "pretty"))
    p_enum.add_argument("--jobs", type=_job_count, default=1)

    p_check = sub.add_parser("check", help="run identity checks from the registry")
    target = p_check.add_mutually_exclusive_group(required=True)
    target.add_argument("--id", dest="check_id", help="one check id")
    target.add_argument("--all", action="store_true", help="run every check")
    p_check.add_argument("--order", type=int, default=None,
                         help=f"series truncation order (default {DEFAULT_ORDER})")
    p_check.add_argument("--max-n", type=int, default=None,
                         help="cap on the ranks the polynomial checks sweep")
    p_check.add_argument("--format", default="pretty", choices=("json", "pretty"))
    p_check.add_argument("--jobs", type=_job_count, default=1)

    p_cmp = sub.add_parser("compare", help="compute one polynomial by several methods")
    p_cmp.add_argument("--group", required=True, choices=("B", "D"))
    p_cmp.add_argument("--n", required=True, type=int)
    p_cmp.add_argument("--methods", default="brute,recurrence",
                       help="comma-separated subset of brute,recurrence,hyatt")
    p_cmp.add_argument("--jobs", type=_job_count, default=1)
    return parser


def _print_poly(poly: LaurentPoly, fmt: str) -> None:
    if fmt == "pretty":
        print(poly)
    elif fmt == "json":
        print(json.dumps(poly.to_json_dict()))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(VARIABLES) + ["coef"])
        for exp, coef in poly.sorted_terms():
            writer.writerow(list(exp) + [coef])


def _cmd_enumerate(args) -> int:
    _print_poly(poly_group(args.group, args.n, weight=args.weight, i=args.i), args.format)
    return 0


def _summarize(report: dict, indent: str = "") -> list[str]:
    lines = [f"{indent}{report['status'].upper():4s} {report['id']}  ({report['label']})"]
    if report["status"] == "pass":
        return lines
    for reading in report.get("readings", []):
        mark = "intended" if reading.get("intended") else "other reading"
        lines.append(f"{indent}    [{reading['status']}] {reading['reading']} ({mark})")
    for case in report.get("cases", []):
        if case.get("status") == "fail":
            detail = case.get("witness_monomial", "")
            lines.append(f"{indent}    fail at n={case.get('n')} {detail}")
            break
    if "u_power" in report:
        residual = str(report.get("residual"))
        if len(residual) > 120:
            residual = residual[:120] + "..."
        lines.append(f"{indent}    fail at u^{report['u_power']}: {residual}")
    return lines


def _cmd_check(args) -> int:
    if args.check_id is not None and args.check_id not in CHECK_IDS:
        print(f"error: unknown check id {args.check_id!r}", file=sys.stderr)
        print("known ids: " + ", ".join(CHECK_IDS), file=sys.stderr)
        return 2
    if args.check_id is not None:
        # a check takes one of the two overrides: refuse the other rather than ignore it
        takes = next(c["parameters"] for c in list_checks() if c["id"] == args.check_id)
        flags = {"order": "--order", "max_n": "--max-n"}
        for name, value in (("order", args.order), ("max_n", args.max_n)):
            if value is not None and name not in takes:
                wanted = " ".join(flags[p] for p in takes)
                print(f"error: check {args.check_id!r} takes {wanted}, not {flags[name]}", file=sys.stderr)
                return 2
    started = time.perf_counter()
    if args.check_id is not None:
        reports = [run_check(args.check_id, order=args.order, max_n=args.max_n)]
    else:
        reports = run_all(order=args.order, max_n=args.max_n)
    elapsed = time.perf_counter() - started
    if args.format == "json":
        print(json.dumps(reports, indent=2))
    else:
        for report in reports:
            for line in _summarize(report):
                print(line)
    print(f"ran {len(reports)} check(s) in {elapsed:.2f}s", file=sys.stderr)
    failed = [r for r in reports if r["status"] == "fail"]
    return 1 if failed else 0


def _compare_method(method: str, group: str, n: int) -> LaurentPoly:
    if method == "brute":
        return poly_group(group, n, weight="biv")
    if method == "recurrence":
        return recurrence_poly(group, n)
    # positive-last-entry expansion plus its reciprocity-reflected half
    plus, one = hyatt_plus(group, n), LaurentPoly.one()
    return sum_of_products([(plus, one), (reciprocal_transform(group, n, plus), one)])


def _cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or any(m not in _COMPARE_METHODS for m in methods):
        print(
            f"error: --methods must be a comma-separated subset of {', '.join(_COMPARE_METHODS)}",
            file=sys.stderr,
        )
        return 2
    twice = next((m for m in methods if methods.count(m) > 1), None)
    if twice:
        print(f"error: --methods names {twice} twice", file=sys.stderr)
        return 2
    # every route's lowest and highest rank, checked before any route runs
    lowest = {"brute": 0, "recurrence": 0, "hyatt": 1}
    if args.group == "D":
        lowest.update(recurrence=2, hyatt=2)
    need, method = max((lowest[m], m) for m in methods)
    if args.n < need:
        print(f"error: need n >= {need} for {method} over {args.group}, got {args.n}", file=sys.stderr)
        return 2
    if "brute" in methods:
        check_bound(args.group, args.n)
    closed = [m for m in methods if m != "brute"]
    if closed and args.n > _CLOSED_CEILING:
        raise BoundExceeded(args.group, args.n, _CLOSED_CEILING, args.n + 1, "ranks", route=" and ".join(closed))
    polys = {}
    for method in methods:
        started = time.perf_counter()
        polys[method] = _compare_method(method, args.group, args.n)
        elapsed = time.perf_counter() - started
        print(f"{method}: {elapsed:.3f}s", file=sys.stderr)
    base = methods[0]
    one = LaurentPoly.one()
    agree = True
    for method in methods[1:]:
        # the difference is a kernel sum, so neither polynomial need become a term dict
        if sum_of_products([(polys[method], one), (polys[base], -one)]):
            agree = False
            print(f"{base} and {method} disagree for {args.group}_{args.n}")
    if agree:
        print(f"methods agree for {args.group}_{args.n}: " + ", ".join(methods))
        return 0
    return 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"enumerate": _cmd_enumerate, "check": _cmd_check, "compare": _cmd_compare}
    try:
        return command[args.command](args)
    except ValueError as exc:  # BoundExceeded is a ValueError with its own exit code
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BoundExceeded) else 2


if __name__ == "__main__":
    raise SystemExit(main())
