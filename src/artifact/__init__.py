"""Exact enumeration and verification of parity-refined descent statistics
on signed and even-signed permutation groups.

The package computes multivariate q-Eulerian polynomials by brute-force
enumeration, by recurrence, and through generating-function closed forms, and
ships a registry of machine-checkable identities relating the three routes.
All arithmetic is exact: integer Laurent polynomials, a quadratic extension
ring for the square roots the closed forms require, and truncated power
series over them.
"""

from .enumeration import BoundExceeded, poly_group
from .extension import ExtElement, QFraction
from .permutations import (
    StatVector,
    descent_set_A,
    descent_set_B,
    descent_set_D,
    format_word,
    inv_B,
    inv_D,
    is_snake,
    iterate_group,
    parse_word,
    stats_A,
    stats_B,
    stats_D,
)
from .polynomials import LaurentPoly, poincare, qbinom, qfact, qint
from .recurrences import hyatt_plus, recur_B, recur_D, recurrence_poly
from .registry import CHECK_IDS, list_checks, run_all, run_check
from .series import TruncatedSeries, series_from_polys, series_make, verify_fraction_identity

__all__ = [
    "BoundExceeded",
    "poly_group",
    "ExtElement",
    "QFraction",
    "StatVector",
    "descent_set_A",
    "descent_set_B",
    "descent_set_D",
    "format_word",
    "inv_B",
    "inv_D",
    "is_snake",
    "iterate_group",
    "parse_word",
    "stats_A",
    "stats_B",
    "stats_D",
    "LaurentPoly",
    "poincare",
    "qbinom",
    "qfact",
    "qint",
    "hyatt_plus",
    "recur_B",
    "recur_D",
    "recurrence_poly",
    "CHECK_IDS",
    "list_checks",
    "run_all",
    "run_check",
    "TruncatedSeries",
    "series_from_polys",
    "series_make",
    "verify_fraction_identity",
]
