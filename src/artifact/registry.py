"""Executable catalog of every identity the library can machine-verify.

Each entry is an :class:`IdentityCheck` whose runner re-derives both sides of
one stated identity from scratch (brute-force enumeration on one side, closed
forms or recurrences on the other) and reports ``pass``/``fail`` with a
minimal witness on failure.

Where a printed statement admits more than one reasonable reading (a sign, a
summation range, a variable that looks like a typo), the runner evaluates
*every* candidate reading and records the outcome of each in the report under
``"readings"``.  The check as a whole passes exactly when the mathematically
intended reading verifies; failures of the other readings stay visible in the
report instead of being silently discarded.

Reports contain no timings or machine-specific data, so they are reproducible
byte-for-byte across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable

import numpy as np

from .bijections import juxtapose_array, signed_subsets
from .enumeration import (
    FLAVOR,
    BoundExceeded,
    add_counts,
    check_bound,
    clear_histograms,
    enumeration_bound,
    poly_group,
    work_estimate,
)
from .extension import (
    GEN_I,
    GEN_LITTLE_M,
    GEN_M,
    GEN_ROOT_S,
    GEN_ROOT_S0,
    GEN_ROOT_S1,
    ExtElement,
    QFraction,
)
from .permutations import (
    array_stats,
    flip_array,
    format_word,
    word_arrays,
)
from .polynomials import (
    LaurentPoly,
    first_difference,
    monomial_name,
    one_minus,
    poincare,
    poincare_factors,
)
from .recurrences import (
    c_coeff,
    cd_coeff,
    classic_plus_B,
    hyatt_plus,
    reciprocal_exponents,
    reciprocal_transform,
    recur_B,
    recur_D,
    reiner_recurrence_rhs,
)
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    first_residual,
    series_from_polys,
    series_make,
    verify_fraction_identity,
)

__all__ = [
    "IdentityCheck",
    "CHECK_IDS",
    "list_checks",
    "run_check",
    "run_all",
    "clear_cache",
]

_S = LaurentPoly.variable("s")
_T = LaurentPoly.variable("t")
_S0 = LaurentPoly.variable("s0")
_S1 = LaurentPoly.variable("s1")
_T0 = LaurentPoly.variable("t0")
_T1 = LaurentPoly.variable("t1")


# --------------------------------------------------------------------------
# plumbing


@dataclass(frozen=True)
class IdentityCheck:
    """One verifiable identity: stable id, human label, runner, defaults.

    A rank sweep starts at ``first_n``; a ``max_n`` below it would check
    nothing and pass, so it is refused.  A series check verifies from u^1:
    at order 0 it compares constant terms only, where even its rejected
    readings agree, so an ``order`` below 1 is refused too.
    """

    id: str
    label: str
    parameters: dict
    runner: Callable[..., dict]
    first_n: int = 0

    def resolve(self, *, order: int | None = None, max_n: int | None = None) -> dict:
        """The parameters a run with these overrides takes; a refused one raises ValueError."""
        params = dict(self.parameters)
        if order is not None and "order" in params:
            params["order"] = order
        if max_n is not None and "max_n" in params:
            params["max_n"] = max_n
        if params.get("max_n", self.first_n) < self.first_n:
            raise ValueError(
                f"check {self.id!r} sweeps ranks from {self.first_n}, "
                f"so max_n must be at least {self.first_n}, got {params['max_n']}"
            )
        if params.get("order", 1) < 1:
            raise ValueError(
                f"check {self.id!r} verifies from u^1, so order must be at least 1, got {params['order']}"
            )
        return params

    def run(self, *, order: int | None = None, max_n: int | None = None) -> dict:
        params = self.resolve(order=order, max_n=max_n)
        body = self.runner(**params)
        report = {"id": self.id, "label": self.label, "parameters": params}
        report.update(body)
        return report


_REGISTRY: dict[str, IdentityCheck] = {}

_POLY_CACHE: dict[tuple, LaurentPoly] = {}


def clear_cache() -> None:
    """Drop memoized brute-force polynomials, histograms and permutation arrays (mainly for tests)."""
    _POLY_CACHE.clear()
    clear_histograms()


def _brute(group: str, n: int, weight: str = "biv", i: int | None = None,
           method: str = "auto") -> LaurentPoly:
    key = (group, n, weight, i, method)
    if key not in _POLY_CACHE:
        _POLY_CACHE[key] = poly_group(group, n, weight=weight, i=i, method=method)
    return _POLY_CACHE[key]


def _register(check_id: str, label: str, first_n: int = 0, **defaults):
    def deco(fn):
        _REGISTRY[check_id] = IdentityCheck(check_id, label, defaults, fn, first_n)
        return fn

    return deco


def _poly_entry(identity_id: str, n: int, lhs: LaurentPoly, rhs: LaurentPoly) -> dict:
    """Per-rank comparison entry in the shape shared by all polynomial checks."""
    diff = first_difference(lhs, rhs)
    if diff is None:
        return {"identity_id": identity_id, "n": n, "status": "pass"}
    exp, a, b = diff
    return {
        "identity_id": identity_id,
        "n": n,
        "status": "fail",
        "witness_monomial": monomial_name(exp),
        "lhs_coef": str(a),
        "rhs_coef": str(b),
    }


def _witness_entry(identity_id: str, n: int, witness: str | None) -> dict:
    """Per-rank entry of a check whose failure one witness string names."""
    if witness is None:
        return {"identity_id": identity_id, "n": n, "status": "pass"}
    return {"identity_id": identity_id, "n": n, "status": "fail", "witness_monomial": witness}


def _collect(entries: list[dict]) -> dict:
    status = "pass" if all(e["status"] == "pass" for e in entries) else "fail"
    return {"status": status, "cases": entries}


def _reading_set(readings: list[tuple[str, bool, dict]]) -> dict:
    """The reports of every candidate reading; pass iff all intended readings verify."""
    ok = all(report["status"] == "pass" for _, intended, report in readings if intended)
    return {
        "status": "pass" if ok else "fail",
        "readings": [{"reading": name, "intended": intended, **report} for name, intended, report in readings],
    }


def _sweep(check_id: str, ranks: range, lhs: Callable[[int], LaurentPoly],
           rhs: Callable[[int], LaurentPoly]) -> dict:
    """``lhs(n)`` against ``rhs(n)`` at every rank."""
    return _collect([_poly_entry(check_id, n, lhs(n), rhs(n)) for n in ranks])


def _bounded(group: str, first: int, max_n: int) -> range:
    """The ranks ``first`` to ``max_n``, once every one is within the enumeration ceiling."""
    ranks = range(first, max_n + 1)
    for n in ranks:
        check_bound(group, n)
    return ranks


def _joint(**parts: dict) -> dict:
    """A report of several parts, in order, that passes when every part passes."""
    status = "pass" if all(part["status"] == "pass" for part in parts.values()) else "fail"
    return {"status": status, **parts}


@dataclass(frozen=True)
class _Family:
    """What the type B and the type D statement of one law differ in."""

    name: str  # the group, and the flavor of its statistics and juxtaposition
    first: int  # lowest rank of the sign-flip, reflection and power laws
    coeff: Callable[[int, int], LaurentPoly]  # closed form of the insertion sum
    ladder: str  # the bounded-descent classes


_B = _Family("B", 1, c_coeff, "G")
_D = _Family("D", 2, cd_coeff, "H")


# Words per array in the sweeps over group words and the lemma insertions; a
# batch of fixed-prefix insertions holds more only when one prefix's
# insertions alone do.
_BATCH_WORDS = 1 << 14


# --------------------------------------------------------------------------
# shared series ingredients


def _egf(group: str, weight: str, parity: str, order: int,
         start: int | None = None, to_t: bool = False) -> TruncatedSeries:
    """Exponential generating function of brute-force polynomials.

    This is the only way a series check reads brute force.  Denominators
    are the inversion-number Poincaré polynomials of the ambient family.
    The type D sums start at rank 2.
    """
    family = FLAVOR[group]
    if start is None:
        start = {"even": 0, "odd": 1, "all": 0}[parity] + (2 if family == "D" else 0)

    def poly(n: int) -> LaurentPoly:
        p = _brute(group, n, weight)
        return p.rename_variables({"s": "t"}) if to_t else p

    return series_from_polys(poly, partial(poincare_factors, family), parity, order, start=start)


def _classical(family: str, scale, order: int) -> TruncatedSeries:
    """A q-family at q = 1, where it is the classical function; the sine families are divided by i."""
    series = series_make(family, scale, order)
    if family.startswith("sin_"):
        series = series.divide_by_generator("i")
    return series.substitute("q", "value", 1)


def _hyperbolic_kit(scale, order: int, family: str) -> dict:
    """cosh/sinh/E pieces at a common scale, plus helpers, for one family."""
    coshq = series_make("cosh_q", scale, order)
    sinhq = series_make("sinh_q", scale, order)
    eq = series_make("e_q", scale, order)
    kit = {
        "one": TruncatedSeries.one(order),
        "u": TruncatedSeries.u_power(1, order),
        "coshq": coshq,
        "sinhq": sinhq,
        "E": eq * eq.negate_u(),
    }
    if family in ("B", "D"):
        kit["coshX"] = series_make(f"cosh_{family}", scale, order)
        kit["sinhX"] = series_make(f"sinh_{family}", scale, order)
    return kit


def _trig_kit(scale, order: int, family: str) -> dict:
    """cos/sin pieces at a common scale, for one family; sines both literal
    (carrying the imaginary generator) and freed (that generator divided out)."""
    cosq = series_make("cos_q", scale, order)
    sinq = series_make("sin_q", scale, order)
    e_i = series_make("e_q", scale * GEN_I, order)
    sinX = series_make(f"sin_{family}", scale, order)
    return {
        "one": TruncatedSeries.one(order),
        "u": TruncatedSeries.u_power(1, order),
        "cosq": cosq,
        "sinq_i": sinq,
        "sinq": sinq.divide_by_generator("i"),
        "E_i": e_i * e_i.negate_u(),
        "cosX": series_make(f"cos_{family}", scale, order),
        "sinX_i": sinX,
        "sinX": sinX.divide_by_generator("i"),
    }


# --------------------------------------------------------------------------
# type A


@_register(
    "typeA-pentavar",
    "five-variable parity-refined Eulerian egf for the symmetric group",
    order=DEFAULT_ORDER,
)
def _chk_type_a(order: int) -> dict:
    lhs = _egf("A", "fivevar", "all", order, start=1)
    k = _hyperbolic_kit(GEN_LITTLE_M, order, "A")
    num = (_S1 + _T1) * k["coshq"] + GEN_LITTLE_M * k["sinhq"] - _T1 * k["E"] - _S1 * k["one"]
    den = (_S0 * _S1) * k["one"] - (_S0 * _T1 + _S1 * _T0) * k["coshq"] + (_T0 * _T1) * k["E"]
    return verify_fraction_identity(lhs, num, den)


# --------------------------------------------------------------------------
# type B series


def _type_b_biv(parity: str, order: int) -> dict:
    lhs = _egf("B", "biv", parity, order)
    k = _hyperbolic_kit(GEN_M, order, "B")
    den = k["one"] - (_S + _T) * k["coshq"] + (_S * _T) * k["E"]
    if parity == "even":
        num = one_minus("s") * ((k["one"] - _T * k["coshq"]) * k["coshX"] + _T * k["sinhq"] * k["sinhX"])
    else:
        num = GEN_M * ((k["one"] - _S * k["coshq"]) * k["sinhX"] + _S * k["sinhq"] * k["coshX"])
    return verify_fraction_identity(lhs, num, den)


_register(
    "typeB-biv-even",
    "even-rank bivariate parity-descent egf for signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_b_biv, "even"))
_register(
    "typeB-biv-odd",
    "odd-rank bivariate parity-descent egf for signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_b_biv, "odd"))


@_register(
    "typeB-biv-q1-classical",
    "parity-descent egfs at q = 1 against the half-argument hyperbolic forms",
    order=DEFAULT_ORDER,
)
def _chk_b_biv_q1(order: int) -> dict:
    # setting q to 1 turns the group normalizers into 2^n n!, and the closed
    # forms collapse to classical hyperbolic fractions evaluated at u/2
    lhs_even = _egf("B", "biv", "even", order).substitute("q", "value", 1)
    lhs_odd = _egf("B", "biv", "odd", order).substitute("q", "value", 1)
    half = QFraction(1, 2)
    cosh_h = _classical("cosh_q", GEN_M, order).scale_u(half)
    sinh_h = _classical("sinh_q", GEN_M, order).scale_u(half)
    msq = one_minus("s") * one_minus("t")
    den = msq * (cosh_h * cosh_h) - ((_S + 1) * (_T + 1)) * (sinh_h * sinh_h)
    even = verify_fraction_identity(lhs_even, msq * cosh_h, den)
    odd = verify_fraction_identity(lhs_odd, (_S + 1) * (GEN_M * sinh_h), den)
    return _joint(even=even, odd=odd)


def _type_b_alt(parity: str, order: int) -> dict:
    lhs = _egf("B", "hat", parity, order)
    k = _trig_kit(GEN_M, order, "B")
    den = _S * k["one"] + _T * k["E_i"] - (_T * _S + 1) * k["cosq"]

    def even(sin_q, sin_b):
        num = (_S - 1) * ((k["one"] - _T * k["cosq"]) * k["cosX"] - _T * sin_q * sin_b)
        return verify_fraction_identity(lhs, num, den)

    def odd_balanced(sin_q, sin_b):
        num = -1 * (GEN_M * ((_S * k["one"] - k["cosq"]) * sin_b + sin_q * k["cosX"]))
        return verify_fraction_identity(lhs, num, den)

    def odd_unbalanced(sin_q, sin_b):
        num = -1 * (GEN_M * (_S * k["one"] - k["cosq"] * sin_b + sin_q * k["cosX"]))
        return verify_fraction_identity(lhs, num, den)

    if parity == "even":
        readings = [
            ("free-sines", True, even(k["sinq"], k["sinX"])),
            ("literal-i-sines", False, even(k["sinq_i"], k["sinX_i"])),
        ]
    else:
        readings = [
            ("balanced-free-sines", True, odd_balanced(k["sinq"], k["sinX"])),
            ("balanced-literal-sines", False, odd_balanced(k["sinq_i"], k["sinX_i"])),
            ("unbalanced-free-sines", False, odd_unbalanced(k["sinq"], k["sinX"])),
        ]
    return _reading_set(readings)


_register(
    "typeB-alt-even",
    "even-rank ascent-descent mixed-statistic egf for signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_b_alt, "even"))
_register(
    "typeB-alt-odd",
    "odd-rank ascent-descent mixed-statistic egf for signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_b_alt, "odd"))


@_register(
    "typeB-biv-altdesc-corollary",
    "combined mixed-statistic egf at q = 1 with classical trigonometry",
    order=DEFAULT_ORDER,
)
def _chk_b_alt_corollary(order: int) -> dict:
    # both sides here are ordinary (n!) exponential generating functions: at
    # q = 1 the egf's denominators are 2^n n!, and u -> 2u leaves n!
    def lhs_at(to_t: bool) -> TruncatedSeries:
        return _egf("B", "hat", "all", order, to_t=to_t).substitute("q", "value", 1).scale_u(2)

    lhs = lhs_at(False)
    one = TruncatedSeries.one(order)
    cos_m = _classical("cos_q", GEN_M, order)
    sin_m = _classical("sin_q", GEN_M, order)
    cos_2m = _classical("cos_q", 2 * GEN_M, order)
    num = (-1 * ((_S - 1) * (_T - 1))) * cos_m - (_S + 1) * (GEN_M * sin_m)
    den = (_S + _T) * one - (_T * _S + 1) * cos_2m
    combined = verify_fraction_identity(lhs, num, den)

    # single-parameter specialization: set both parameters equal
    lhs_st = lhs_at(True)
    scale = one_minus("t")
    cos_p = _classical("cos_q", scale, order)
    sin_p = _classical("sin_q", scale, order)
    cos_2p = _classical("cos_q", 2 * scale, order)
    num_p = (-1 * ((_T - 1) * (_T - 1))) * cos_p + (_T * _T - 1) * sin_p

    def with_den(dpoly):
        den_p = dpoly * TruncatedSeries.one(order) - (_T * _T + 1) * cos_2p
        return verify_fraction_identity(lhs_st, num_p, den_p)

    sub = _reading_set([
        ("denominator-2t", True, with_den(2 * _T)),
        ("denominator-2s-literal", False, with_den(2 * _S)),
    ])
    return _joint(**{"combined": combined, "single-parameter": sub})


@_register(
    "typeB-fivevar",
    "five-variable parity-refined egf for signed permutations, both parities",
    order=DEFAULT_ORDER,
)
def _chk_b_fivevar(order: int) -> dict:
    lhs_even = _egf("B", "fivevar", "even", order)
    lhs_odd = _egf("B", "fivevar", "odd", order)
    k = _hyperbolic_kit(GEN_LITTLE_M, order, "B")
    den = (_S0 * _S1) * k["one"] - (_T0 * _S1 + _S0 * _T1) * k["coshq"] + (_T0 * _T1) * k["E"]
    num_even = (_S0 - _T0) * ((_S1 * k["one"] - _T1 * k["coshq"]) * k["coshX"] + _T1 * k["sinhq"] * k["sinhX"])
    even = verify_fraction_identity(lhs_even, num_even, den)
    num_odd = GEN_LITTLE_M * ((_S0 * k["one"] - _T0 * k["coshq"]) * k["sinhX"] + _T0 * k["sinhq"] * k["coshX"])
    odd = verify_fraction_identity(lhs_odd, num_odd, den)
    return _joint(even=even, odd=odd)


# --------------------------------------------------------------------------
# type B polynomial identities, and the bodies the type D ones share


def _recurrence(check_id: str, fam: _Family, max_n: int, start: int = 0,
                extra: Callable[[int], LaurentPoly] | None = None) -> dict:
    """Brute force against the recurrence, with ``extra(n)`` added where a reading has it."""
    recur = recur_B if fam.name == "B" else recur_D
    return _sweep(check_id, range(start, max_n + 1), lambda n: _brute(fam.name, n, "biv"),
                  recur if extra is None else lambda n: recur(n) + extra(n))


_register(
    "typeB-recurrence",
    "two-term descent recurrence versus brute force for signed permutations",
    max_n=8,
)(partial(_recurrence, "typeB-recurrence", _B))


def _hyatt(check_id: str, fam: _Family, max_n: int) -> dict:
    return _sweep(check_id, range(1, max_n + 1), lambda n: _brute(fam.name + "+", n, "biv"),
                  lambda n: hyatt_plus(fam.name, n))


@_register(
    "typeB-hyatt",
    "positive-last-entry descent expansion and its one-variable specialization",
    first_n=1,
    max_n=7,
)
def _chk_b_hyatt(max_n: int) -> dict:
    entries = _hyatt("typeB-hyatt", _B, max_n)["cases"]
    classic = _sweep(
        "typeB-hyatt-classic", range(1, 11),
        lambda n: hyatt_plus("B", n).substitute("q", "value", 1).rename_variables({"s": "t"}),
        classic_plus_B,
    )["cases"]
    return {**_collect(entries + classic), "cases": entries, "classic": classic}


def _reflection(check_id: str, fam: _Family, max_n: int, source: str = "", target: str = "") -> dict:
    """The target class's polynomial from the source class's by reciprocity."""
    return _sweep(check_id, range(fam.first, max_n + 1), lambda n: _brute(fam.name + target, n, "biv"),
                  lambda n: reciprocal_transform(fam.name, n, _brute(fam.name + source, n, "biv")))


_register(
    "typeB-minus-symmetry",
    "negative-last-entry polynomial from the positive one by reciprocity (type B)",
    first_n=_B.first,
    max_n=7,
)(partial(_reflection, "typeB-minus-symmetry", _B, source="+", target="-"))
_register(
    "typeB-reciprocal",
    "self-reciprocity of the bivariate descent polynomial (type B)",
    first_n=_B.first,
    max_n=7,
)(partial(_reflection, "typeB-reciprocal", _B))


@_register(
    "reiner-egf",
    "one-variable descent egf for signed permutations",
    order=DEFAULT_ORDER,
)
def _chk_reiner_egf(order: int) -> dict:
    lhs = _egf("B", "biv", "all", order, to_t=True)
    scale = one_minus("t")
    num_factor = one_minus("t")

    def with_exp(family: str):
        exp_s = series_make(family, scale, order)
        num = num_factor * exp_s
        den = TruncatedSeries.one(order) - _T * exp_s
        return verify_fraction_identity(lhs, num, den)

    def mixed():
        exp_b = series_make("exp_B", scale, order)
        exp_q = series_make("e_q", scale, order)
        num = num_factor * exp_b
        den = TruncatedSeries.one(order) - _T * exp_q
        return verify_fraction_identity(lhs, num, den)

    # the stated form really does mix the two exponentials: the group-specific
    # one upstairs, the ordinary q-exponential downstairs
    return _reading_set([
        ("mixed-exponentials", True, mixed()),
        ("both-exp-B", False, with_exp("exp_B")),
        ("both-plain-e_q", False, with_exp("e_q")),
    ])


@_register(
    "reiner-recurrence",
    "one-variable descent recurrence for signed permutations",
    first_n=1,
    max_n=7,
)
def _chk_reiner_recurrence(max_n: int) -> dict:
    def poly(n: int) -> LaurentPoly:
        return _brute("B", n, "biv").rename_variables({"s": "t"})

    return _sweep("reiner-recurrence", range(1, max_n + 1), poly, lambda n: reiner_recurrence_rhs(n, poly))


def _lemma(check_id: str, fam: _Family, max_n: int) -> dict:
    """Inversion sum over signed-subset insertions against its closed product.

    The identity prefix is juxtaposed with the signed r-subsets in blocks of
    at most ``_BATCH_WORDS``: the 3^n insertions are never held at once.
    Before any is read, the first rank with more insertions than the words
    of the family's ceiling rank is refused.
    """
    bound = enumeration_bound(fam.name)
    for n in range(max_n + 1):
        if 3**n > work_estimate(fam.name, bound):
            raise BoundExceeded(fam.name, n, bound, 3**n, "insertions")
    entries = []
    for n in range(max_n + 1):
        for r in range(n + 1):
            identity = np.arange(1, n - r + 1, dtype=np.int16)[None, :]
            totals: dict[tuple[int, ...], int] = {}
            subsets_left = signed_subsets(n, r)
            while block := list(islice(subsets_left, _BATCH_WORDS)):
                subsets = np.array(block, dtype=np.int16).reshape(len(block), r)
                words = juxtapose_array(identity, subsets, n, fam.name)[0]
                add_counts(totals, array_stats(words, fam.name)[4:])
            lhs = LaurentPoly({(0, 0, inv, 0, 0, 0, 0): count for (inv,), count in totals.items()})
            entries.append(_poly_entry(f"{check_id}[n={n},r={r}]", n, lhs, fam.coeff(n, r)))
    return _collect(entries)


_register(
    "lemma-2.1",
    "inversion sum over signed-subset insertions equals a closed product (type B)",
    max_n=7,
)(partial(_lemma, "lemma-2.1", _B))


def _corollary(check_id: str, fam: _Family, max_n: int) -> dict:
    """Insertion sums with a fixed prefix: per prefix, and weighted by its descents.

    For each prefix, the inv gains of its insertions, inv(W) - inv(prefix),
    must be distributed as the q-coefficients of the closed form; the first
    prefix whose distribution differs is the witness.  The descent-weighted
    total is a histogram over (edes, odes of the prefix, inv of W).
    """
    entries = []
    for n in _bounded(fam.name, 0, max_n):
        for r in range(n + 1):
            closed = fam.coeff(n, r)
            subset_list = list(signed_subsets(n, r))
            m = len(subset_list)
            subsets = np.array(subset_list, dtype=np.int16).reshape(m, r)
            totals: dict[tuple[int, ...], int] = {}
            witness = None
            for prefixes in word_arrays(fam.name, n - r, max(1, _BATCH_WORDS // m)):
                p = len(prefixes)
                words = juxtapose_array(prefixes, subsets, n, fam.name).reshape(p * m, n)
                inv = array_stats(words, fam.name)[4].reshape(p, m)
                edes, odes, prefix_inv = array_stats(prefixes, fam.name)[[0, 1, 4]]
                if witness is None:
                    bad = _unequal_rows(inv - prefix_inv[:, None], closed)
                    if len(bad):
                        witness = "prefix " + format_word(prefixes[bad[0]].tolist())
                add_counts(totals, np.stack([np.repeat(edes, m), np.repeat(odes, m), inv.ravel()]))
            weighted_total = LaurentPoly({(e, o, i, 0, 0, 0, 0): c for (e, o, i), c in totals.items()})
            identity_id = f"{check_id}[n={n},r={r}]"
            rhs = _brute(fam.name, n - r, "biv") * closed
            if witness is None:
                entries.append(_poly_entry(identity_id, n, weighted_total, rhs))
            else:
                entries.append(_witness_entry(identity_id, n, witness))
    return _collect(entries)


def _unequal_rows(values: np.ndarray, closed: LaurentPoly) -> np.ndarray:
    """Indices of the rows of ``values`` whose histogram, as a polynomial in q, is not ``closed``."""
    target = {e[2]: c for e, c in closed.terms.items() if not any(e[:2] + e[3:])}
    if len(target) < len(closed.terms):  # a term in another variable matches no row
        return np.arange(len(values))
    lo = min(int(values.min(initial=0)), min(target, default=0))
    span = max(int(values.max(initial=0)), max(target, default=0)) - lo + 1
    rows = len(values)
    keys = (np.arange(rows)[:, None] * span + values - lo).ravel()
    counts = np.bincount(keys, minlength=rows * span).reshape(rows, span)
    want = np.zeros(span, dtype=np.int64)
    for exp, coef in target.items():
        want[exp - lo] = coef
    return np.flatnonzero((counts != want).any(axis=1))


_register(
    "corollary-2.2",
    "insertion sums with a fixed prefix, unweighted and descent-weighted (type B)",
    max_n=6,
)(partial(_corollary, "corollary-2.2", _B))


def _passing(identity_id: str, fam: _Family, max_n: int, i_start: int = 0) -> dict:
    """Ladder relation between consecutive bounded-descent classes."""
    entries = []
    for n in range(1, max_n + 1):
        for i in range(i_start, n + 1):
            cur = (_brute(fam.name, n, "biv") if i == n
                   else _brute(fam.ladder, n, "biv", i=i))
            prev = _brute(fam.ladder, n, "biv", i=i - 1)
            rank_poly = _brute(fam.name, i, "biv")
            if i % 2 == 1:
                rhs = _T * rank_poly * fam.coeff(n, n - i) + one_minus("t") * prev
            else:
                rhs = _S * rank_poly * fam.coeff(n, n - i) + one_minus("s") * prev
            entries.append(_poly_entry(f"{identity_id}[n={n},i={i}]", n, cur, rhs))
    return _collect(entries)


_register(
    "passing-G",
    "bounded-descent-class ladder relation (type B)",
    first_n=_B.first,
    max_n=6,
)(partial(_passing, "passing-G", _B))


def _signflip(check_id: str, fam: _Family, max_n: int) -> dict:
    """Each word and its negation have constant inv, odes and edes sums."""
    entries = []
    for n in _bounded(fam.name, fam.first, max_n):
        inv_sum, edes_sum, odes_sum = reciprocal_exponents(fam.name, n)  # the reciprocity prefactor's powers
        bad = None
        for words in word_arrays(fam.name, n, _BATCH_WORDS):
            both = array_stats(words, fam.name) + array_stats(flip_array(words, fam.name), fam.name)
            edes, odes, inv = both[[0, 1, 4]]
            rows = np.flatnonzero((inv != inv_sum) | (odes != odes_sum) | (edes != edes_sum))
            if rows.size:
                bad = format_word(words[rows[0]].tolist())
                break
        entries.append(_witness_entry(check_id, n, bad))
    return _collect(entries)


_register(
    "signflip-B",
    "entrywise negation pairs statistics to constant sums (type B)",
    first_n=_B.first,
    max_n=6,
)(partial(_signflip, "signflip-B", _B))


# --------------------------------------------------------------------------
# type D series


def _ed_od(k: dict, cos, sin, cos_x, sin_x, t, omt, lead, gen, name: str):
    """The two auxiliary series of the type D closed forms, from one kit's
    cosine-like and sine-like pieces.  They are written without scalar
    division: every 1/gen is an exact division by the generator ``name`` of a
    series whose coefficients all carry it."""
    one, u = k["one"], k["u"]
    ed = (2 * t) * (cos - one) + omt * (cos_x - one) + (t * t * lead) * (u * sin.divide_by_generator(name))
    od = (t * t) * (u * (cos - one)) \
        + (omt * omt) * (sin_x - gen * u).divide_by_generator(name) \
        + (2 * t * omt) * (sin - gen * u).divide_by_generator(name)
    return ed, od


def _type_d_biv(parity: str, order: int) -> dict:
    lhs = _egf("D", "biv", parity, order)
    k = _hyperbolic_kit(GEN_M, order, "D")
    ed, od = _ed_od(k, k["coshq"], k["sinhq"], k["coshX"], k["sinhX"],
                    _T, one_minus("t"), one_minus("s"), GEN_M, "M")
    one = k["one"]
    den = one - (_S + _T) * k["coshq"] + (_S * _T) * k["E"]
    if parity == "even":
        num = ed * (one - _T * k["coshq"]) + od * ((_T * one_minus("s")) * k["sinhq"].divide_by_generator("M"))
    else:
        num = od * (one - _S * k["coshq"]) + ed * ((_S * one_minus("t")) * k["sinhq"].divide_by_generator("M"))
    return verify_fraction_identity(lhs, num, den)


_register(
    "typeD-biv-even",
    "even-rank bivariate parity-descent egf for even-signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_d_biv, "even"))
_register(
    "typeD-biv-odd",
    "odd-rank bivariate parity-descent egf for even-signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_d_biv, "odd"))


def _type_d_alt(parity: str, order: int) -> dict:
    lhs = _egf("D", "hat", parity, order)
    k = _trig_kit(GEN_M, order, "D")
    one, u = k["one"], k["u"]
    den = _S * one - (_S * _T + 1) * k["cosq"] + _T * k["E_i"]
    oms_r = _S - 1  # the closed form uses s-1, the reverse of the hyperbolic case

    def derived():
        ed_h, od_h = _ed_od(k, k["cosq"], k["sinq"], k["cosX"], k["sinX"],
                            _T, one_minus("t"), oms_r, GEN_M, "M")
        if parity == "even":
            num = ed_h * (one - _T * k["cosq"]) + od_h * ((_T * oms_r) * k["sinq"].divide_by_generator("M"))
        else:
            num = od_h * (_S * one - k["cosq"]) + ed_h * (one_minus("t") * k["sinq"].divide_by_generator("M"))
        return verify_fraction_identity(lhs, num, den)

    def printed():
        # literal transcription: sines keep the imaginary generator, square
        # roots of s appear, and both sides are cleared by t*s^2*(s-1).
        rs = GEN_ROOT_S
        clear = _T * _S * _S * (_S - 1)
        sinq_i, sinD_i = k["sinq_i"], k["sinX_i"]
        ted_t = (2 * _T * _T) * (k["cosq"] - one) \
            + (_T * _T * _T * (_S - 1) * LaurentPoly.monomial(1, s=-1)) \
            * (rs * (u * sinq_i.divide_by_generator("M"))) \
            + one_minus("t") * (series_make("cosh_D", GEN_M, order) - one)
        tod = (_T * _T * _S * (_S - 1)) * (rs * (u * (k["cosq"] - one))) \
            - one_minus("t") * (rs * (GEN_M * (sinD_i - GEN_M * u))) \
            + (2 * _T * one_minus("t") * _S * (_S - 1)) * (rs * (sinq_i - GEN_M * u).divide_by_generator("M"))
        if parity == "even":
            num = (_S * _S * (_S - 1)) * (ted_t * (one - _T * k["cosq"])) \
                - (_T * _T * (_S - 1)) * (rs * (tod * sinq_i.divide_by_generator("M")))
        else:
            num = _T * (rs * (tod * (_S * one - k["cosq"]))) \
                - (_S * _S * (_S - 1) * one_minus("t")) * (ted_t * sinq_i.divide_by_generator("M"))
        return verify_fraction_identity(lhs * clear, num, den)

    return _reading_set([
        ("derived-free-sines", True, derived()),
        ("printed-literal", False, printed()),
    ])


_register(
    "typeD-alt-even",
    "even-rank ascent-descent mixed-statistic egf for even-signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_d_alt, "even"))
_register(
    "typeD-alt-odd",
    "odd-rank ascent-descent mixed-statistic egf for even-signed permutations",
    order=DEFAULT_ORDER,
)(partial(_type_d_alt, "odd"))


@_register(
    "typeD-fivevar",
    "five-variable parity-refined egf for even-signed permutations, both parities",
    order=DEFAULT_ORDER,
)
def _chk_d_fivevar(order: int) -> dict:
    lhs_even = _egf("D", "fivevar", "even", order)
    lhs_odd = _egf("D", "fivevar", "odd", order)
    k = _hyperbolic_kit(GEN_LITTLE_M, order, "D")
    one, u = k["one"], k["u"]
    coshq, sinhq = k["coshq"], k["sinhq"]
    coshD, sinhD = k["coshX"], k["sinhX"]
    den = (_S0 * _S1) * one - (_S0 * _T1 + _S1 * _T0) * coshq + (_T0 * _T1) * k["E"]

    def derived():
        e5, o5 = _ed_od(k, coshq, sinhq, coshD, sinhD, _T1, _S1 - _T1, _S0 - _T0, GEN_LITTLE_M, "m")
        num_e = e5 * (_S1 * one - _T1 * coshq) + o5 * ((_T1 * (_S0 - _T0)) * sinhq.divide_by_generator("m"))
        even = verify_fraction_identity(lhs_even, num_e, den)
        num_o = o5 * (_S0 * one - _T0 * coshq) + e5 * ((_T0 * (_S1 - _T1)) * sinhq.divide_by_generator("m"))
        odd = verify_fraction_identity(lhs_odd, num_o, den)
        return _joint(even=even, odd=odd)

    def printed():
        # literal transcription with square roots of s0, s1; both sides are
        # cleared by t1*s0^2*s1^3*(s0-t0).
        rr = GEN_ROOT_S0 * GEN_ROOT_S1
        clear = _T1 * _S0 * _S0 * _S1 * _S1 * _S1 * (_S0 - _T0)
        ted = (2 * _T1 * _T1 * _S1 * _S0) * (coshq - one) \
            + (_T1 * _T1 * _T1 * (_S0 - _T0)) * (rr * (u * sinhq.divide_by_generator("m"))) \
            + ((_S1 - _T1) * _S1 * _S1 * _S0) * (coshD - one)
        tod = (_T1 * _T1 * (_S0 - _T0) * _S0 * _S1) * (rr * (u * (coshq - one))) \
            + ((_S1 - _T1) * _S1 * _S1) * (rr * (GEN_LITTLE_M * (sinhD - GEN_LITTLE_M * u))) \
            + (2 * _T1 * (_S1 - _T1) * (_S0 - _T0) * _S0 * _S1) \
            * (rr * (sinhq - GEN_LITTLE_M * u).divide_by_generator("m"))
        num_e = (_S1 * (_S0 - _T0)) * (ted * (_S1 * one - _T1 * coshq)) \
            + (_T1 * _T1 * (_S0 - _T0)) * (rr * (tod * sinhq.divide_by_generator("m")))
        even = verify_fraction_identity(lhs_even * clear, num_e, den)
        num_o = (_T1 * _S1) * (rr * (tod * (_S0 * one - _T0 * coshq))) \
            + (_T0 * (_S1 - _T1) * (_S0 - _T0) * _S0 * _S1 * _S1) * (ted * sinhq.divide_by_generator("m"))
        odd = verify_fraction_identity(lhs_odd * clear, num_o, den)
        return _joint(even=even, odd=odd)

    return _reading_set([
        ("derived", True, derived()),
        ("printed-literal", False, printed()),
    ])


# --------------------------------------------------------------------------
# type D polynomial identities


@_register(
    "typeD-recurrence",
    "two-term descent recurrence versus brute force for even-signed permutations",
    first_n=_D.first,
    max_n=8,
)
def _chk_d_recurrence(max_n: int) -> dict:
    def printed_extra(n: int) -> LaurentPoly:
        # literal even-rank sum range includes one extra lowest-rank term
        if n % 2 == 1:
            return LaurentPoly.zero()
        k = n // 2
        return _T * one_minus("t") ** (k - 1) * one_minus("s") ** (k - 1) \
            * cd_coeff(n, n - 1) * recur_D(1)

    def derived(extra: Callable[[int], LaurentPoly] | None = None) -> dict:
        return _recurrence("typeD-recurrence", _D, max_n, start=_D.first, extra=extra)

    return _reading_set([
        ("derived", True, derived()),
        ("printed-literal", False, derived(extra=printed_extra)),
    ])


_register(
    "typeD-hyatt",
    "positive-last-entry descent expansion for even-signed permutations",
    first_n=1,
    max_n=7,
)(partial(_hyatt, "typeD-hyatt", _D))
_register(
    "typeD-minus-symmetry",
    "negative-last-entry polynomial from the positive one by reciprocity (type D)",
    first_n=_D.first,
    max_n=7,
)(partial(_reflection, "typeD-minus-symmetry", _D, source="+", target="-"))
_register(
    "typeD-reciprocal",
    "self-reciprocity of the bivariate descent polynomial (type D)",
    first_n=_D.first,
    max_n=7,
)(partial(_reflection, "typeD-reciprocal", _D))
_register(
    "lemma-3.1",
    "inversion sum over signed-subset insertions equals a closed product (type D)",
    max_n=7,
)(partial(_lemma, "lemma-3.1", _D))
_register(
    "corollary-3.2/3.3",
    "insertion sums with a fixed prefix, unweighted and descent-weighted (type D)",
    max_n=6,
)(partial(_corollary, "corollary-3.2/3.3", _D))


@_register(
    "X-lemma",
    "closed rational form for the two-lowest-position descent class (type D)",
    first_n=2,
    max_n=7,
)
def _chk_x_lemma(max_n: int) -> dict:
    entries = []
    omt = one_minus("t")
    for n in range(2, max_n + 1):
        lhs = QFraction.coerce(_brute("X", n, "biv"))
        pdn = poincare("D", n)
        rhs = QFraction(_T * _T * pdn, poincare_factors("A", n - 1)) \
            + QFraction(2 * _T * omt * pdn, poincare_factors("A", n)) \
            - QFraction.coerce(_T * omt) + QFraction.coerce(omt)
        entries.append(_witness_entry("X-lemma", n, None if lhs == rhs else str(lhs - rhs)))
    return _collect(entries)


@_register(
    "passing-H",
    "bounded-descent-class ladder relation (type D)",
    first_n=_D.first,
    max_n=6,
)
def _chk_passing_h(max_n: int) -> dict:
    return _reading_set([
        ("from-i=2", True, _passing("passing-H", _D, max_n, i_start=2)),
        ("from-i=1", False, _passing("passing-H", _D, max_n, i_start=1)),
    ])


_register(
    "signflip-D",
    "parity-preserving negation pairs statistics to constant sums (type D)",
    first_n=_D.first,
    max_n=6,
)(partial(_signflip, "signflip-D", _D))


# --------------------------------------------------------------------------
# snakes


@_register(
    "snakes-B-q",
    "inversion egf of type B snakes in closed trigonometric form",
    order=DEFAULT_ORDER,
)
def _chk_snakes_b(order: int) -> dict:
    lhs = _egf("snakeB", "q", "all", order)
    k = _trig_kit(ExtElement.one(), order, "B")
    den = k["cosq"]

    def with_sign(sign: int):
        num = k["cosq"] * k["cosX"] + (k["sinq"] + sign * k["one"]) * k["sinX"]
        return verify_fraction_identity(lhs, num, den)

    return _reading_set([
        ("plus-free-sines", True, with_sign(+1)),
        ("printed-minus-free-sines", False, with_sign(-1)),
    ])


@_register(
    "snakes-D-q",
    "inversion egf of type D snakes in closed trigonometric form, both parities",
    order=DEFAULT_ORDER,
)
def _chk_snakes_d(order: int) -> dict:
    lhs_even = _egf("snakeD", "q", "even", order)
    lhs_odd = _egf("snakeD", "q", "odd", order)
    k = _trig_kit(ExtElement.one(), order, "D")
    one, u = k["one"], k["u"]
    den = -1 * k["cosq"]

    def even_num(corrected: bool, free: bool):
        sinq = k["sinq"] if free else k["sinq_i"]
        sinD = k["sinX"] if free else k["sinX_i"]
        num = -2 * (k["cosq"] * k["cosq"]) + k["cosq"] * (k["cosX"] - one) \
            - 2 * (sinq * sinq) + sinq * sinD
        if corrected:
            num = num + 2 * k["cosq"]
        return verify_fraction_identity(lhs_even, num, den)

    def odd_num(free: bool):
        sinq = k["sinq"] if free else k["sinq_i"]
        sinD = k["sinX"] if free else k["sinX_i"]
        num = -2 * sinq + u * k["cosq"] + sinD
        return verify_fraction_identity(lhs_odd, num, den)

    even = _reading_set([
        ("corrected-free-sines", True, even_num(True, True)),
        ("printed-literal-free-sines", False, even_num(False, True)),
    ])
    odd = _reading_set([
        ("free-sines", True, odd_num(True)),
        ("literal-i-sines", False, odd_num(False)),
    ])
    return _joint(even=even, odd=odd)


def _snake_counts(group: str, max_n: int) -> list[int]:
    """Snakes per rank through ``max_n``, counted on the direct route."""
    return [sum(len(b) for b in word_arrays(group, n, _BATCH_WORDS)) for n in _bounded(group, 0, max_n)]


def _counts_egf(counts: list[int], parity: str, start: int) -> TruncatedSeries:
    """Sum of counts[n] u^n / n! over the ranks of ``parity`` from ``start``."""
    return series_from_polys(lambda n: LaurentPoly.constant(counts[n]), partial(poincare_factors, "A"),
                             parity, len(counts) - 1, start=start).substitute("q", "value", 1)


@_register(
    "springer-B-q1",
    "type B snake numbers and their classical secant-style egf",
    max_n=6,
)
def _chk_springer_b(max_n: int) -> dict:
    counts = _snake_counts("snakeB", max_n)
    cos_minus_sin = _classical("cos_q", 1, max_n) - _classical("sin_q", 1, max_n)
    report = first_residual(_counts_egf(counts, "all", 0), TruncatedSeries.one(max_n), cos_minus_sin)
    return {"status": report.pop("status"), "counts": counts, **report}


@_register(
    "springer-D-q1",
    "type D snake numbers and their classical trigonometric egf, both parities",
    max_n=6,
)
def _chk_springer_d(max_n: int) -> dict:
    counts = _snake_counts("snakeD", max_n)
    one = TruncatedSeries.one(max_n)
    cos1, sin1 = _classical("cos_q", 1, max_n), _classical("sin_q", 1, max_n)
    cos2, sin2 = _classical("cos_q", 2, max_n), _classical("sin_q", 2, max_n)
    even_lhs = _counts_egf(counts, "even", 2)
    literal = cos1 - cos2 - one  # right side of the literal reading: cos u - cos 2u - 1
    even = _reading_set([
        ("with-constant-term", True, first_residual(even_lhs + one, literal, -cos2)),
        ("literal", False, first_residual(even_lhs, literal, -cos2)),
    ])
    # -sin 2u + u cos 2u + sin u; u cos 2u is cos 2u moved up one power
    u_cos2 = TruncatedSeries(max_n, [0, *cos2.coeffs[:-1]])
    odd = first_residual(_counts_egf(counts, "odd", 3), sin1 - sin2 + u_cos2, -cos2)

    report = _joint(even=even, odd=odd)
    return {"status": report.pop("status"), "counts": counts, **report}


# --------------------------------------------------------------------------
# ascent-descent exchange power laws


def _power_relation(fam: _Family, max_n: int) -> dict:
    """Find which power of s makes hat = s^e * biv(1/s, t, q), per rank."""
    cases = []
    ok = True
    for n in range(fam.first, max_n + 1):
        # the direct route counts ascents by comparison, independent of the
        # complementation used by the fast enumeration route
        hat = _brute(fam.name, n, "hat", method="python")
        biv = _brute(fam.name, n, "biv")
        swapped = biv.substitute("s", "reciprocal")
        candidates = sorted({(n - 1) // 2, n // 2, (n + 1) // 2})
        verified = [e for e in candidates if LaurentPoly.monomial(1, s=e) * swapped == hat]
        cases.append({
            "n": n,
            "candidate_exponents": candidates,
            "verified_exponents": verified,
        })
        if len(verified) != 1:
            ok = False
    return {"status": "pass" if ok else "fail", "cases": cases}


_register(
    "hatB-power-relation",
    "even-ascent/even-descent exchange power law (type B)",
    first_n=_B.first,
    max_n=6,
)(partial(_power_relation, _B))
_register(
    "hatD-power-relation",
    "even-ascent/even-descent exchange power law (type D)",
    first_n=_D.first,
    max_n=6,
)(partial(_power_relation, _D))


# --------------------------------------------------------------------------
# public API

CHECK_IDS: tuple[str, ...] = tuple(_REGISTRY)


def list_checks() -> list[dict]:
    """Stable catalog of available checks with their default parameters."""
    return [
        {"id": c.id, "label": c.label, "parameters": dict(c.parameters)}
        for c in _REGISTRY.values()
    ]


def _lookup(check_id: str) -> IdentityCheck:
    if check_id not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown check id {check_id!r}; known ids: {known}")
    return _REGISTRY[check_id]


def run_check(check_id: str, *, order: int | None = None, max_n: int | None = None,
              jobs: int = 1) -> dict:
    """Run one identity check and return its report; ``jobs`` has no effect."""
    return _lookup(check_id).run(order=order, max_n=max_n)


def run_all(*, order: int | None = None, max_n: int | None = None, jobs: int = 1,
            ids: list[str] | None = None) -> list[dict]:
    """Run every check (or the given subset) in catalog order.

    Every selected id and its parameters are validated before any check runs.
    ``jobs`` is accepted for callers that pass it and has no effect.
    """
    selected = list(CHECK_IDS) if ids is None else list(ids)
    for cid in selected:
        _lookup(cid).resolve(order=order, max_n=max_n)
    return [run_check(cid, order=order, max_n=max_n) for cid in selected]
