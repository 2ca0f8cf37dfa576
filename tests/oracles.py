"""Brute-force reference computations the fast paths are checked against.

Everything here is deliberately naive: exhaustive chords for the concave
majorant, full grid enumeration for optimality, plain sums for distances,
Fraction's own string grammar for parsing and Fraction arithmetic for the
entry checks.
"""

import math
import re
from fractions import Fraction

from majlat import OrderedProbVector, make_vector
from majlat.errors import (
    ModeMismatchError,
    NegativeEntryError,
    NotNormalizedError,
    NotSortedError,
    ParseError,
)
from majlat.numeric import MAX_DECIMAL_EXPONENT, eq, geq, shown

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def reference_parse_scalar(value, exact):
    """numeric.parse_scalar as it was before plain strings were read directly:
    every string goes through Fraction(value)."""
    if isinstance(value, bool):
        raise ParseError(f"not a scalar: {value!r}")
    if isinstance(value, str) and (found := _EXPONENT.search(value)):
        digits = found.group(1).replace("_", "").lstrip("0")  # int() refuses over 4300 digits
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ParseError(f"decimal exponent above {MAX_DECIMAL_EXPONENT} in magnitude: {value!r}")
    if exact:
        if isinstance(value, float):
            raise ModeMismatchError(
                "float value in exact mode; pass a decimal string, int, or Fraction"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"not an exact scalar: {value!r}") from exc
    try:
        x = float(Fraction(value)) if isinstance(value, str) else float(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ParseError(f"not a float scalar: {value!r}") from exc
    if not math.isfinite(x):
        raise ParseError(f"not a finite float: {value!r}")
    return x


def reference_check_entries(entries, tol):
    """core._check_entries as it was before exact mode checked integer
    numerators: Fraction comparisons and a Fraction sum."""
    zero = entries[0] * 0
    for e in entries:
        if not geq(e, zero, tol):
            raise NegativeEntryError(f"negative entry {shown(e)}")
    for a, b in zip(entries, entries[1:]):
        if not geq(a, b, tol):
            raise NotSortedError(f"entries increase: {shown(a)} < {shown(b)}")
    total = sum(entries)
    if not eq(total, zero + 1, tol * len(entries)):
        raise NotNormalizedError(f"entries sum to {shown(total)}, expected 1")


def chord_envelope(values):
    """Least concave majorant at integer abscissae, by exhaustive chords.

    The majorant at k is the best value of any chord (i, S_i)-(j, S_j)
    with i <= k <= j; in one dimension two support points always suffice.
    """
    d = len(values) - 1
    out = []
    for k in range(d + 1):
        best = values[k]
        for i in range(k + 1):
            for j in range(max(k, i + 1), d + 1):
                if j == i:
                    continue
                chord = values[i] + (values[j] - values[i]) * Fraction(k - i, j - i)
                if chord > best:
                    best = chord
        out.append(best)
    return tuple(out)


def grid_vectors(d, denominator):
    """Every sorted probability vector with entries on the 1/denominator grid."""

    def parts(remaining, slots, cap):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        lowest = -(-remaining // slots)  # first part at least the average
        for first in range(min(cap, remaining), lowest - 1, -1):
            for rest in parts(remaining - first, slots - 1, first):
                yield (first,) + rest

    for combo in parts(denominator, d, denominator):
        yield make_vector([Fraction(c, denominator) for c in combo])


def random_grid_vector(rng, d, denominator):
    """Uniform-ish random sorted vector on the 1/denominator grid."""
    cuts = sorted(rng.randint(0, denominator) for _ in range(d - 1))
    bounds = [0] + cuts + [denominator]
    weights = sorted((bounds[i + 1] - bounds[i] for i in range(d)), reverse=True)
    return make_vector([Fraction(w, denominator) for w in weights])


def l1_distance(x: OrderedProbVector, y: OrderedProbVector):
    return sum(abs(a - b) for a, b in zip(x.entries, y.entries))


def convex_mix(vectors, weights):
    """Convex combination of same-dimension sorted vectors (stays sorted)."""
    total = sum(weights)
    entries = [
        sum(w * v.entries[i] for w, v in zip(weights, vectors)) / total
        for i in range(vectors[0].d)
    ]
    return make_vector(entries)
