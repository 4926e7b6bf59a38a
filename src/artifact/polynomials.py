"""Exact sparse Laurent polynomials over a fixed seven-variable roster.

Every polynomial in the library lives in Z[s^±1, t^±1, q^±1, s0^±1, s1^±1,
t0^±1, t1^±1], represented sparsely as a map from exponent tuples to
arbitrary-precision integer coefficients.  Values are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache, reduce
from itertools import chain
from math import prod
from operator import mul
from typing import Callable, Iterable, Mapping

import numpy as np

VARIABLES: tuple[str, ...] = ("s", "t", "q", "s0", "s1", "t0", "t1")
NVARS = len(VARIABLES)
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}


def _var_index(name: str) -> int:
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}; choose from {VARIABLES}") from None


def _exp_of(powers: Mapping[str, int]) -> tuple[int, ...]:
    """The exponent tuple of the monomial with these variable powers."""
    exp = [0] * NVARS
    for name, power in powers.items():
        exp[_var_index(name)] = power
    return tuple(exp)


_ZERO_EXP = (0,) * NVARS


def _signpow(exponent: int) -> int:
    """(-1)**exponent for any integer exponent, staying in int arithmetic."""
    return -1 if exponent % 2 else 1


class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients.

    Exponents are signed integers so reciprocal substitutions stay inside the
    ring.  Instances are immutable: nothing may mutate ``terms``.  A
    polynomial the kernel returns holds only its kernel form (``_form``)
    until ``terms`` is first read (see ``_KernelResult``); one made by
    ``held_form`` holds both; any other holds only its terms, and the kernel
    builds their form each time it reads them.
    """

    __slots__ = ("terms", "_form")

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, coef in terms.items():
                if coef:
                    clean[tuple(exp)] = coef
        self.terms = clean
        self._form = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({_ZERO_EXP: 1})

    @classmethod
    def constant(cls, value: int) -> "LaurentPoly":
        return cls({_ZERO_EXP: int(value)})

    @classmethod
    def variable(cls, name: str, power: int = 1, coef: int = 1) -> "LaurentPoly":
        return cls.monomial(coef, **{name: power})

    @classmethod
    def monomial(cls, coef: int = 1, **powers: int) -> "LaurentPoly":
        return cls({_exp_of(powers): coef})

    # ------------------------------------------------------------------
    # ring structure
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is structural

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            new = out.get(exp, 0) + coef
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
        return _poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        na, nb = _size(self), _size(other)
        if nb == 1 and _ZERO_EXP in other.terms:  # a constant factor only scales
            return self * other.terms[_ZERO_EXP]
        if na == 1 and _ZERO_EXP in self.terms:
            return other * self.terms[_ZERO_EXP]
        if na * nb >= _KRONECKER_MIN_PAIRS and min(na, nb) > 1:
            out = _kronecker_sum([(self, other)])
            if out is not None:
                return out
        return _poly(_schoolbook_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if power < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = LaurentPoly.one()
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # ------------------------------------------------------------------
    # substitutions
    # ------------------------------------------------------------------
    def substitute(self, name: str, mode: str, value: int | None = None) -> "LaurentPoly":
        """Substitute one variable.

        mode 'reciprocal': x -> 1/x (negates that exponent).
        mode 'negation':   x -> -x.
        mode 'value':      x -> value (an integer; |value| must be 1 when the
                           variable occurs with negative exponent).
        """
        idx = _var_index(name)
        out: dict[tuple[int, ...], int] = {}
        if mode == "reciprocal":
            return reciprocal_image(self, **{name: 0})
        if mode == "negation":
            for exp, coef in self.terms.items():
                out[exp] = out.get(exp, 0) + coef * _signpow(exp[idx])
            return LaurentPoly(out)
        if mode == "value":
            if value is None:
                raise ValueError("mode 'value' requires a value")
            v = int(value)
            for exp, coef in self.terms.items():
                e = exp[idx]
                if e < 0 and abs(v) != 1:
                    raise ValueError(
                        f"cannot substitute {name}={v} into a negative power"
                    )
                if v == 0:
                    if e > 0:
                        continue
                    scaled = coef
                elif abs(v) == 1:
                    scaled = coef * _signpow(e) if v == -1 else coef
                else:
                    scaled = coef * v**e
                new = list(exp)
                new[idx] = 0
                key = tuple(new)
                out[key] = out.get(key, 0) + scaled
            return LaurentPoly(out)
        raise ValueError(f"unknown substitution mode {mode!r}")

    def subs_values(self, assignments: Mapping[str, int]) -> "LaurentPoly":
        poly = self
        for name, value in assignments.items():
            poly = poly.substitute(name, "value", value)
        return poly

    def rename_variables(self, mapping: Mapping[str, str]) -> "LaurentPoly":
        """Send each source variable to a target variable (exponents add).

        All renames happen simultaneously, so swaps are sound.
        """
        src = [(_var_index(a), _var_index(b)) for a, b in mapping.items()]
        out: dict[tuple[int, ...], int] = {}
        for exp, coef in self.terms.items():
            new = list(exp)
            for a, _ in src:
                new[a] = 0
            for a, b in src:
                new[b] += exp[a]
            key = tuple(new)
            out[key] = out.get(key, 0) + coef
        return LaurentPoly(out)

    def coefficient(self, **powers: int) -> int:
        return self.terms.get(_exp_of(powers), 0)

    # ------------------------------------------------------------------
    # canonical presentation
    # ------------------------------------------------------------------
    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical order: total degree, then lexicographic."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exp, coef in self.sorted_terms():
            name, mag = monomial_name(exp), abs(coef)
            if name == "1":
                body = str(mag)
            elif mag == 1:
                body = name
            else:
                body = f"{mag}*{name}"
            if not pieces:
                pieces.append(body if coef > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "vars": list(VARIABLES),
            "terms": [
                {"exp": list(exp), "coef": str(coef)}
                for exp, coef in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        names = list(data.get("vars", VARIABLES))
        positions = [_var_index(name) for name in names]
        terms: dict[tuple[int, ...], int] = {}
        for item in data["terms"]:
            exp = [0] * NVARS
            for pos, e in zip(positions, item["exp"]):
                exp[pos] = int(e)
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + int(item["coef"])
        return cls(terms)


# ----------------------------------------------------------------------
# product kernels
# ----------------------------------------------------------------------
Terms = dict[tuple[int, ...], int]

# The Kronecker kernel runs on at least this many term pairs; a sum of products
# counts the term pairs of the first two factors of all its products, which
# share one box.  Every other product takes the schoolbook loop, and so does any
# single product with a one-term operand, which the loop shifts and scales in
# one pass.  The box is packed densely when it has at most _KRONECKER_FILL
# slots per operand term, with slots of whole bytes, as few as the coefficient
# bound of the whole product or sum needs; a sparser box takes the sorted path.
_KRONECKER_MIN_PAIRS = 512
_KRONECKER_FILL = 8
_DECODE_CHUNK = 1 << 12  # terms of a kernel result turned into dict entries per step
_EXP_LIMIT = 1 << 61


class _Form:
    """A nonzero polynomial as the kernel reads it, in the order of its terms.

    ``exps`` holds the exponents, one int64 row per variable, and ``coefs``
    the coefficients.  The measures the kernel reads are computed on first
    use, so a kernel result whose terms are read at once never pays for
    them: ``low`` and ``high``, each variable's least and greatest exponent,
    and ``top`` and ``mass``, the largest |coefficient| and the sum of the
    |coefficients|, which bound the coefficients of a product.
    """

    def __init__(self, exps: np.ndarray, coefs: list[int]):
        self.exps, self.coefs = exps, coefs

    @cached_property
    def low(self) -> np.ndarray:
        return self.exps.min(axis=1)

    @cached_property
    def high(self) -> np.ndarray:
        return self.exps.max(axis=1)

    @cached_property
    def top(self) -> int:
        return max(map(abs, self.coefs))

    @cached_property
    def mass(self) -> int:
        return sum(map(abs, self.coefs))


class _KernelResult(LaurentPoly):
    """A polynomial the kernel returned: it holds only its form until ``terms`` is first read.

    That read builds the dict from the form and drops the form.  The hook
    lives on this subclass alone, so reading the terms of any other
    polynomial costs no more than reading a slot.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        # reached only when a slot is unset: here, the terms before their first read
        if name != "terms":
            raise AttributeError(f"'LaurentPoly' object has no attribute {name!r}")
        form = self._form
        terms: Terms = {}
        for start in range(0, len(form.coefs), _DECODE_CHUNK):
            stop = start + _DECODE_CHUNK
            terms.update(zip(zip(*form.exps[:, start:stop].tolist()), form.coefs[start:stop]))
        self.terms = terms
        self._form = None
        return terms


def _poly(terms: Terms) -> LaurentPoly:
    """A polynomial on these terms, which must hold no zero coefficient."""
    result = LaurentPoly.__new__(LaurentPoly)
    result.terms = terms
    result._form = None
    return result


def _kernel_result(exps: np.ndarray, coefs: list[int]) -> LaurentPoly:
    """A polynomial that holds only the form of these exponents and nonzero coefficients."""
    result = _KernelResult.__new__(_KernelResult)
    result._form = _Form(exps, coefs)
    return result


def _size(poly: LaurentPoly) -> int:
    """The number of terms, read from the form when there is one, so a kernel result stays undecoded."""
    form = poly._form
    return len(form.coefs) if form else len(poly.terms)


def _form_of(poly: LaurentPoly) -> _Form | None:
    """The kernel form of a nonzero polynomial: the one it holds, or one built
    from its terms and not kept; None when an exponent is too large."""
    if poly._form is not None:
        return poly._form
    exps = _exponent_array(poly.terms)
    return None if exps is None else _Form(exps, list(poly.terms.values()))


def held_form(poly: LaurentPoly) -> LaurentPoly:
    """A nonzero polynomial that holds its kernel form beside its terms: for a
    small constant the kernel reads at every call, built once."""
    form = _form_of(poly)
    out = _poly(dict(poly.terms))
    out._form = form
    return out


def _schoolbook_product(a: Terms, b: Terms) -> Terms:
    """The term-by-term product; the fallback and the reference for the kernel."""
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = (
                e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3],
                e1[4] + e2[4], e1[5] + e2[5], e1[6] + e2[6],
            )
            new = out.get(exp, 0) + c1 * c2
            if new:
                out[exp] = new
            else:
                del out[exp]
    return out


def _exponent_array(terms: Terms) -> np.ndarray | None:
    """The exponents as an int64 array, one row per variable, or None if one is too large.

    Below _EXP_LIMIT in magnitude, box sides, offsets and product exponents
    all stay inside int64.  The rows are views into one term-major buffer,
    so the exponents are held once.
    """
    try:
        flat = np.fromiter(chain.from_iterable(terms), dtype=np.int64, count=len(terms) * NVARS)
    except OverflowError:
        return None
    if flat.min() <= -_EXP_LIMIT or flat.max() >= _EXP_LIMIT:
        return None
    return flat.reshape(len(terms), NVARS).T


def sum_of_products(products: Iterable[tuple[LaurentPoly, ...]], links: Iterable[LaurentPoly] = ()) -> LaurentPoly:
    """The sum over k of products[k]'s two or more factors times links[0] ...
    links[k-1] (a link past the end of ``links`` is 1), with one kernel call.

    It is taken by Horner's rule from the last product down: the sum so far
    is multiplied by the link before it, then product k is added.  The
    products share one exponent box (see ``_kronecker_sum``).  When the first
    two factors hold fewer than _KRONECKER_MIN_PAIRS term pairs in all, a
    linked sum has a zero factor or link, or the kernel declines the sum, it
    is taken through the product and sum operators.  Factors are counted
    from their forms, so a kernel result stays undecoded.
    """
    products = list(products)
    links = list(links)[:max(len(products) - 1, 0)]
    if not links:
        products = [p for p in products if all(map(_size, p))]
    nonzero = all(map(_size, chain(links, *products)))
    pairs = sum(_size(a) * _size(b) for a, b, *_ in products)
    if nonzero and pairs >= _KRONECKER_MIN_PAIRS and (out := _kronecker_sum(products, links)) is not None:
        return out
    out = LaurentPoly.zero()
    for k in reversed(range(len(products))):
        if k < len(links):
            out = out * links[k]
        out = out + reduce(mul, products[k])
    return out


def _kronecker_sum(products: list[tuple[LaurentPoly, ...]], links: list[LaurentPoly] = ()) -> LaurentPoly | None:
    """The sum of ``sum_of_products`` over nonzero factors and fewer links
    than products, in one exponent box, or None when the kernel declines it.

    Product k is multiplied by the links before it, so its corner is the sum
    of its factors' minima and of those links' minima, and its top likewise;
    the shared box spans from the smallest corner to the largest top.  Each
    exponent vector, shifted by its factor's per-variable minimum, is a slot
    index in that box (row-major, so the index of a sum is the sum of the
    indices), and each product moves up by the slot index of its corner.

    A coefficient of a * b * f * ... is at most max|a| max|b| min(|a|, |b|)
    times, for each further factor and each link before it, the sum of the
    absolute values of its coefficients; ``bound`` sums that over the
    products, so it bounds every coefficient of the sum and every partial
    sum on the way to one.

    When the box has at most _KRONECKER_FILL slots per term of the first two
    factors, it is packed densely: the first two factors of a product are
    packed and multiplied, and each further factor, and each link on the sum
    so far, multiplies an integer by shifted adds, one per term.  Slots are
    ``width`` bytes wide, with ``width`` sized so ``bound``, plus two guard
    bits, fits in a slot: then the shifted big-integer products add up to
    all coefficients at once.  Only the final sum is decoded, so the
    integers in between need no bound.

    A sparser box takes ``_sorted_sum``, which needs only that a slot index
    and ``bound`` fit in int64, so the kernel declines a sparse box of 2**61
    slots or more, or with a bound of 2**63 or more, or with links.  It
    declines a factor or link with an exponent of 2**61 or more in magnitude
    on either path.  Factors are read through their forms only, and the
    result holds only its form, with its terms in slot order on either path.
    """
    if not products:
        return LaurentPoly.zero()
    forms = [[_form_of(f) for f in p] for p in products]
    link_forms = [_form_of(f) for f in links]
    if not all(map(all, forms)) or not all(link_forms):
        return None
    lifts = [(np.zeros(NVARS, dtype=np.int64),) * 2 + (1,)]
    for f in link_forms:  # the minima, maxima and coefficient sum that the links before a product add to it
        low, high, mass = lifts[-1]
        lifts.append((low + f.low, high + f.high, mass * f.mass))
    lifts += lifts[-1:] * (len(forms) - len(lifts))
    corners = [sum((f.low for f in fs), low) for fs, (low, _, _) in zip(forms, lifts)]
    origin = np.min(corners, axis=0)
    top = np.max([sum((f.high for f in fs), high) for fs, (_, high, _) in zip(forms, lifts)], axis=0)
    dims = (top - origin + 1).tolist()
    bound = sum(
        a.top * b.top * min(len(a.coefs), len(b.coefs)) * prod(f.mass for f in more) * mass
        for (a, b, *more), (_, _, mass) in zip(forms, lifts)
    )
    slots = prod(dims)
    dense = slots <= _KRONECKER_FILL * sum(len(a.coefs) + len(b.coefs) for a, b, *_ in forms)
    if not dense and (links or slots >= _EXP_LIMIT or bound >= 1 << 63):
        return None
    indices = [[np.ravel_multi_index(f.exps - f.low[:, None], dims) for f in fs] for fs in forms + [link_forms]]
    shifts = [int(np.ravel_multi_index(tuple(corner - origin), dims)) for corner in corners]
    link_index = indices.pop()
    if not dense:
        return _sorted_sum(forms, indices, shifts, dims, origin)
    width = (bound.bit_length() + 2 + 7) // 8
    total = 0
    for k in reversed(range(len(forms))):
        if k < len(links):
            total = _shifted_sum(total, 8 * width, link_index[k].tolist(), link_forms[k].coefs)
        (a, b, *more), (ia, ib, *imore) = forms[k], indices[k]
        packed = _pack(ia, a.coefs, width) * _pack(ib, b.coefs, width)
        for f, index in zip(more, imore):
            packed = _shifted_sum(packed, 8 * width, index.tolist(), f.coefs)
        total += packed << (8 * width * shifts[k])
    del indices, ia, ib, packed
    nslots = -(-(total.bit_length() + 1) // (8 * width))  # whole slots, with room for the sign
    buf = total.to_bytes(width * nslots, "little", signed=True)
    del total  # hold one copy of the sum while decoding
    return _unpack(buf, width, dims, origin)


def _sorted_sum(forms: list[list[_Form]], indices: list[list[np.ndarray]], shifts: list[int],
                dims: list[int], origin: np.ndarray) -> LaurentPoly:
    """The sparse path of ``_kronecker_sum``: its sum of products, with int64 slot indices and coefficients.

    A product is formed one factor at a time.  Each running slot index is
    added to each of the factor's indices and each running coefficient
    multiplied by each of its coefficients, and the pairs that share an
    index are summed as runs of the sorted indices.  At most 2**18 pairs are
    formed at once: each block of running terms is reduced into the
    product's sum so far, so a product needs memory for one block and its
    result, not for all its pairs.  The products, shifted to their corners,
    are then reduced together and zeros dropped.  The caller's ``bound``
    keeps every coefficient and partial sum inside int64.
    """
    keys, values = [], []
    for (first, *more), (key, *imore), shift in zip(forms, indices, shifts):
        value = np.array(first.coefs, dtype=np.int64)
        for f, index in zip(more, imore):
            coefs = np.array(f.coefs, dtype=np.int64)
            step = max(1, (1 << 18) // len(index))
            run_key, run_value = key[:0], value[:0]
            for start in range(0, len(key), step):
                stop = start + step
                run_key, run_value = _runs(
                    np.concatenate([run_key, (key[start:stop, None] + index).ravel()]),
                    np.concatenate([run_value, (value[start:stop, None] * coefs).ravel()]),
                )
            key, value = run_key, run_value
        keys.append(key + shift)
        values.append(value)
    return _summed(np.concatenate(keys), np.concatenate(values), dims, origin)


def _runs(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (nonnegative) keys in ascending order, and the sum of the values under each."""
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(values, starts)


def _decoded(slots: np.ndarray, coefs: list[int], dims: list[int], origin: np.ndarray) -> LaurentPoly:
    """The polynomial with these nonzero coefficients at these slots of the box from ``origin`` with sides ``dims``."""
    return _kernel_result(np.array(np.unravel_index(slots, dims)) + origin[:, None], coefs)


def _summed(slots: np.ndarray, values: np.ndarray, dims: list[int], origin: np.ndarray) -> LaurentPoly:
    """The polynomial with the int64 ``values`` summed at equal slots of the box of ``_decoded``, zeros dropped."""
    slots, values = _runs(slots, values)
    nonzero = np.flatnonzero(values)
    if not len(nonzero):
        return LaurentPoly.zero()
    return _decoded(slots[nonzero], values[nonzero].tolist(), dims, origin)


def counted_polynomial(exps: np.ndarray, counts: np.ndarray) -> LaurentPoly:
    """The sum of c x^e over the columns e of an int64 exponent array (one row per variable) and the int64 counts c,
    holding only its kernel form.  Equal exponents are summed in int64, with no float; every partial sum must fit."""
    if not counts.size:
        return LaurentPoly.zero()
    low = exps.min(axis=1)
    dims = (exps.max(axis=1) - low + 1).tolist()
    return _summed(np.ravel_multi_index(exps - low[:, None], dims), counts, dims, low)


def _shifted_sum(packed: int, bits: int, index: list[int], coefs: Iterable[int]) -> int:
    """``packed`` times the factor with these slot indices and coefficients, one shifted add per term."""
    out = 0
    for i, coef in zip(index, coefs):
        term = packed << (bits * i)
        if coef == 1:
            out += term
        elif coef == -1:
            out -= term
        else:
            out += coef * term
    return out


def _pack(index: np.ndarray, coefs: list[int], width: int) -> int:
    """The integer sum of coefs[i] * 2**(8*width*index[i]), built from its bytes.

    The bytes hold balanced digits: a slot above a negative coefficient
    carries a borrow of one, so empty slots there are all ones and a term's
    slot holds its coefficient minus one.  Read as one signed little-endian
    integer, the bytes are the exact signed sum.  When every coefficient
    lies within ±2**62, each digit fits in int64 and NumPy builds the slots,
    with no borrow pass when no coefficient is negative; otherwise a loop
    over the terms does.
    """
    try:
        values = np.array(coefs, dtype=np.int64)
    except OverflowError:
        values = None
    if values is not None and -(1 << 62) <= (least := values.min()) and values.max() <= 1 << 62:
        digits = np.zeros(int(index.max()) + 1, dtype="<i8")
        digits[index] = values
        if least < 0:
            # the sign of the last nonzero slot at or below each slot; slot 0 when none is
            last = np.maximum.accumulate(np.where(digits != 0, np.arange(len(digits)), 0))
            digits[1:] -= digits[last[:-1]] < 0
        raw = _resize_slots(digits.view(np.uint8).reshape(-1, 8), width)
        return int.from_bytes(raw.tobytes(), "little", signed=True)
    order = np.argsort(index)
    gaps = ((np.diff(index[order], prepend=-1) - 1) * width).tolist()
    pieces = []
    borrow = False
    for gap, i in zip(gaps, order.tolist()):
        coef = coefs[i]
        pieces.append((b"\xff" if borrow else b"\x00") * gap)
        pieces.append((coef - borrow).to_bytes(width, "little", signed=True))
        borrow = coef < 0
    return int.from_bytes(b"".join(pieces), "little", signed=True)


def _resize_slots(raw: np.ndarray, width: int) -> np.ndarray:
    """Rows of little-endian two's-complement bytes, cut or sign-extended to ``width`` bytes.

    Cutting keeps the value only when it fits in ``width`` bytes, as every
    slot's digit does.
    """
    if width <= raw.shape[1]:
        return raw[:, :width]
    fill = np.where(raw[:, -1:] >> 7, 0xFF, 0).astype(np.uint8)
    return np.hstack([raw, np.repeat(fill, width - raw.shape[1], axis=1)])


def _unpack(buf: bytes, width: int, dims: list[int], origin: np.ndarray) -> LaurentPoly:
    """The polynomial of a packed integer with ``width``-byte slots, given as signed little-endian bytes.

    A slot's coefficient is its signed value plus one when the slot below it
    is negative, because the guard bits keep every partial sum below a slot
    under half that slot's weight.  Slots of at most 8 bytes are read as
    sign-extended int64, wider ones one by one.  A slot is a row-major index
    of the box with sides ``dims`` that starts at ``origin``.  The result
    holds only its form, with its terms in slot order.
    """
    slots = np.frombuffer(buf, dtype=np.uint8).reshape(-1, width)
    borrow = np.zeros(len(slots), dtype=np.uint8)
    borrow[1:] = slots[:-1, -1] >> 7
    # a zero coefficient is a slot whose bytes all equal minus its borrow
    nonzero = np.flatnonzero((slots != borrow[:, None] * np.uint8(0xFF)).any(axis=1))
    if not len(nonzero):
        return LaurentPoly.zero()
    if width <= 8:
        coefs = (_resize_slots(slots[nonzero], 8).view("<i8")[:, 0] + borrow[nonzero]).tolist()
    else:
        view = memoryview(buf)
        coefs = [
            int.from_bytes(view[k * width:(k + 1) * width], "little", signed=True) + t
            for k, t in zip(nonzero.tolist(), borrow[nonzero].tolist())
        ]
    return _decoded(nonzero, coefs, dims, origin)


def reciprocal_image(poly: LaurentPoly, **powers: int) -> LaurentPoly:
    """The image of a polynomial under x -> 1/x for each named variable x, times x^power.

    An exponent e of a named variable becomes power - e.  A polynomial with
    a kernel form is mapped row by row on it and the result holds only its
    form, so a kernel result stays undecoded; one whose exponents the kernel
    declines is mapped term by term.
    """
    rows = [_var_index(name) for name in powers]
    corner = list(powers.values())
    if _size(poly) and max(map(abs, corner), default=0) < _EXP_LIMIT and (form := _form_of(poly)):
        exps = form.exps.copy()
        exps[rows] = np.array(corner, dtype=np.int64)[:, None] - exps[rows]
        if -_EXP_LIMIT < exps.min() and exps.max() < _EXP_LIMIT:
            return _kernel_result(exps, form.coefs)
    out: Terms = {}
    for exp, coef in poly.terms.items():
        new = list(exp)
        for row, power in zip(rows, corner):
            new[row] = power - new[row]
        out[tuple(new)] = coef
    return _poly(out)


def first_difference(
    lhs: LaurentPoly, rhs: LaurentPoly
) -> tuple[tuple[int, ...], int, int] | None:
    """First monomial (canonical order) where two polynomials differ."""
    diff = lhs - rhs
    if diff.is_zero:
        return None
    exp = min(diff.terms, key=lambda e: (sum(e), e))
    return exp, lhs.terms.get(exp, 0), rhs.terms.get(exp, 0)


def monomial_name(exp: Iterable[int]) -> str:
    factors = [
        name if e == 1 else f"{name}^{e}" for name, e in zip(VARIABLES, exp) if e
    ]
    return "*".join(factors) if factors else "1"


# ----------------------------------------------------------------------
# q-arithmetic
# ----------------------------------------------------------------------
def q_polynomial(coefs: Iterable[int], shift: int = 0) -> LaurentPoly:
    """The sum of c_e q^(e + shift) over the coefficients c_e, constant term first.

    The result holds only its kernel form, so it is never a term dict unless
    its terms are read.
    """
    coefs = list(coefs)
    powers = [e for e, c in enumerate(coefs) if c]
    if not powers:
        return LaurentPoly.zero()
    exps = np.zeros((NVARS, len(powers)), dtype=np.int64)
    exps[2] = np.add(powers, shift)
    return _kernel_result(exps, [coefs[e] for e in powers])


def _exact_quotient(p: list[int], a: tuple[int, ...]) -> list[int] | None:
    """p / a when a, whose constant term is 1, divides p exactly; else None.

    Long division from the constant term up: each quotient coefficient is the
    lowest coefficient left, and the division is exact when the top deg(a)
    coefficients left vanish.  Each step walks only the nonzero coefficients
    of a, so dividing by 1 - q^j is one pass.
    """
    n = len(p) - len(a) + 1
    if n <= 0:
        return None
    steps = [(j, aj) for j, aj in enumerate(a) if j and aj]
    rest = list(p)
    for i in range(n):
        c = rest[i]
        if c:
            for j, aj in steps:
                rest[i + j] -= aj * c
    if any(rest[n:]):
        return None
    return rest[:n]


def _times_one_plus(p: list[int] | tuple[int, ...], d: int, sign: int) -> list[int]:
    """p * (1 + sign * q^d), for coefficient lists constant term first."""
    out = list(p) + [0] * d
    for i, c in enumerate(p):
        out[i + d] += sign * c
    return out


def q_ratio_row(n: int, numerator: Callable[[int], Iterable[tuple[int, int]]]) -> tuple[tuple[int, ...], ...]:
    """The coefficients of r_0 = 1, r_1, ..., r_n, constant term first, where
    r_j = r_(j-1) * N(m) / (1 - q^j) with m = n - j + 1, and N(m) is the
    product of the factors 1 + sign * q^d over the (d, sign) pairs that
    numerator(m) lists.

    Each step is one pass per factor and one exact division, built from the
    step before it, so no rank or row recurses.  A division that leaves a
    remainder raises ArithmeticError: the caller's ratio is no polynomial.
    """
    rows = [(1,)]
    for j in range(1, n + 1):
        p = rows[-1]
        for d, sign in numerator(n - j + 1):
            p = _times_one_plus(p, d, sign)
        quotient = _exact_quotient(p, (1,) + (0,) * (j - 1) + (-1,))
        if quotient is None:
            raise ArithmeticError(f"1 - q^{j} does not divide step {j} of the rank-{n} row")
        rows.append(tuple(quotient))
    return tuple(rows)


@lru_cache(maxsize=None)
def qint(n: int) -> LaurentPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("qint requires n >= 0")
    return LaurentPoly({(0, 0, k, 0, 0, 0, 0): 1 for k in range(n)})


def qfact(n: int) -> LaurentPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q, the Poincaré polynomial of S_n."""
    if n < 0:
        raise ValueError("qfact requires n >= 0")
    return poincare("A", n)


@lru_cache(maxsize=None)
def qbinom_row(n: int) -> tuple[tuple[int, ...], ...]:
    """The coefficients of [n, 0]_q, ..., [n, n]_q, each from the one before
    by the ratio (1 - q^(n-k+1)) / (1 - q^k)."""
    return q_ratio_row(n, lambda m: ((m, -1),))


@lru_cache(maxsize=None)
def qbinom(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial [n, k]_q, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return LaurentPoly.zero()
    return q_polynomial(qbinom_row(n)[k])


def poincare_qints(family: str, n: int) -> tuple[int, ...]:
    """The m whose q-integers [m]_q multiply to the Poincaré polynomial of the rank-n group.

    family 'A': [2], ..., [n], so [n]_q! over the symmetric group S_n.
    family 'B': [2], [4], ..., [2n] over signed permutations.
    family 'D': [n], [2], ..., [2n-2] over even-signed permutations, and
                none below rank 2.
    """
    if n < 0:
        raise ValueError("poincare requires n >= 0")
    if family == "A":
        return tuple(range(2, n + 1))
    if family == "B":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return (n, *range(2, 2 * n - 1, 2)) if n >= 2 else ()
    raise ValueError(f"unknown family {family!r}")


@lru_cache(maxsize=None)
def poincare(family: str, n: int) -> LaurentPoly:
    """Length generating function of the rank-n group: the product of its q-integers."""
    return reduce(mul, map(qint, poincare_qints(family, n)), LaurentPoly.one())


@lru_cache(maxsize=None)
def poincare_factors(family: str, n: int) -> frozenset[tuple[int, int]]:
    """``poincare(family, n)`` as the multiplicities (d, k) of its factors Φ_d(q).

    [m]_q is the product of Φ_d over the divisors d > 1 of m, so nothing is
    factored: each q-integer adds one to each of its divisors.
    """
    divisors = (d for m in poincare_qints(family, n) for d in range(2, m + 1) if m % d == 0)
    return frozenset(Counter(divisors).items())


def one_minus(name: str) -> LaurentPoly:
    """1 - x for a roster variable; the ubiquitous recurrence factor."""
    return LaurentPoly.one() - LaurentPoly.variable(name)


# ----------------------------------------------------------------------
# cyclotomic polynomials
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _cyclotomic_coefficients(d: int) -> tuple[int, ...]:
    """Φ_d for d >= 2, and 1 - q for d = 1: the factor of 1 - q^d new at d."""
    rest = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            rest = _exact_quotient(rest, _cyclotomic_coefficients(e))
    return tuple(rest)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentPoly:
    """The cyclotomic polynomial Φ_d(q), so that q^n - 1 is the product of Φ_d over d | n."""
    if d < 1:
        raise ValueError("cyclotomic requires d >= 1")
    return q_polynomial(_cyclotomic_coefficients(d) if d > 1 else (-1, 1))
