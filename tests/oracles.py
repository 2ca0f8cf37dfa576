"""Brute-force reference computations the fast paths are checked against.

Everything here is deliberately naive: exhaustive chords for the concave
majorant, full grid enumeration for optimality, plain sums for distances,
Fraction's own string grammar for parsing, Fraction arithmetic for the
canonical text of a value, the entry checks, the lattice kernels (with
their own copy of the upper envelope) and the squared moduli, and a ball
test with its own copy of the entry checks.
"""

import math
import re
from fractions import Fraction
from itertools import islice

from majlat import OrderedProbVector, ResourceTheory, make_vector
from majlat.core import MajOrdering, _trusted, pair_tolerance
from majlat.errors import (
    InvalidStateSpecError,
    ModeMismatchError,
    NegativeEntryError,
    NegativeProbabilityError,
    NotNormalizedError,
    NotSortedError,
    ParseError,
)
from majlat.lattice import ExtremalFamily, _members
from majlat.numeric import MAX_DECIMAL_EXPONENT, eq, geq, leq, lt, parse_values, shown
from majlat.resource_theory import _amplitude_components

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


def reference_scalar_str(value):
    """numeric.scalar_str as it was before it worked on the integers of the value:
    Fraction sign tests and a division of numerator * 10**scale by the denominator."""
    if isinstance(value, float):
        return repr(value)
    f = Fraction(value)
    if f < 0:
        return "-" + reference_scalar_str(-f)
    twos = fives = 0
    rest = f.denominator
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{f.numerator}/{f.denominator}"
    scale = max(twos, fives)
    digits = f.numerator * 10**scale // f.denominator
    if scale == 0:
        return str(digits)
    text = str(digits).rjust(scale + 1, "0")
    frac = text[-scale:].rstrip("0")
    whole = text[:-scale]
    return whole if not frac else f"{whole}.{frac}"


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


def reference_feasible(x, x0, eps, tol):
    """polytope._feasible as it was before it asked core._check_entries:
    the ball test and its own order, sign and sum tests."""
    d = len(x0)
    zero = x0[0] * 0
    return (
        leq(sum(abs(u - v) for u, v in zip(x, x0)), eps, tol * d)
        and all(geq(a, b, tol) for a, b in zip(x, x[1:]))
        and all(geq(e, zero, tol) for e in x)
        and eq(sum(x), zero + 1, tol * d)
    )


# The lattice kernels, compare and state_to_vector as they were before exact
# mode computed on integer numerators over one common denominator: every step
# is a Fraction operation.


def reference_fold(family, pick):
    """Per-index prefix-sum minima (pick=min) or maxima (pick=max), and the tolerance."""
    if isinstance(family, ExtremalFamily):
        return (family.lower if pick is min else family.upper), family.tol
    members, tol = _members(family)
    return tuple(map(pick, zip(*(m.prefix_sums() for m in members)))), tol


def reference_from_sums(sums, tol):
    """The vector whose prefix sums are sums, differenced here rather than by the library."""
    return _trusted(OrderedProbVector, entries=tuple(b - a for a, b in zip(sums, sums[1:])), tol=tol)


def reference_family_inf(family):
    return reference_from_sums(*reference_fold(family, min))


def reference_family_sup(family):
    sums, tol = reference_fold(family, max)
    return reference_from_sums(reference_upper_envelope(sums, tol), tol)


def reference_upper_envelope(vals, tol):
    """lattice._upper_envelope, copied so that the library's copy can change or go.

    Least concave majorant of the polygon through (k, S_k), k = 0..d.
    Scans left to right: from index i, jump to the last index attaining
    the maximum slope among all remaining points (float mode merges slope
    ties within tolerance toward the later index). The interpolation
    through the kept indices is the envelope.
    """
    d = len(vals) - 1
    kept = [0]
    i = 0
    while i < d:
        best = None
        best_j = None
        for j in range(i + 1, d + 1):
            slope = (vals[j] - vals[i]) / (j - i)
            if best is None or slope > best:
                best, best_j = slope, j
            elif geq(slope, best, tol):
                best_j = j  # tie within tolerance: later index wins
        kept.append(best_j)
        i = best_j
    env = [vals[0]]
    for left, right in zip(kept, kept[1:]):
        step = (vals[right] - vals[left]) / (right - left)
        for k in range(left + 1, right + 1):
            env.append(vals[right] if k == right else vals[left] + step * (k - left))
    return tuple(env)


def reference_flatten(values, tol):
    """Pool-adjacent-violators on (sum, count, mean) blocks, comparing Fraction or float means."""
    blocks = []
    for v in values:
        total, count, mean = v, 1, v
        while blocks and lt(blocks[-1][2], mean, tol):
            below, size, _ = blocks.pop()
            total, count = below + total, size + count
            mean = total / count
        blocks.append((total, count, mean))
    return tuple(mean for _, count, mean in blocks for _ in range(count))


def reference_join(x, y):
    maxes, tol = reference_fold((x, y), max)
    z = [maxes[k + 1] - maxes[k] for k in range(x.d)]
    return _trusted(OrderedProbVector, entries=reference_flatten(z, tol), tol=tol)


def reference_compare(x, y):
    tol = pair_tolerance(x, y)
    sx = x.prefix_sums()
    sy = y.prefix_sums()
    x_dominates = all(geq(sx[k], sy[k], tol) for k in range(1, x.d))
    y_dominates = all(geq(sy[k], sx[k], tol) for k in range(1, x.d))
    if x_dominates and y_dominates:
        return MajOrdering.EQUAL
    if x_dominates:
        return MajOrdering.MAJORIZES
    if y_dominates:
        return MajOrdering.MAJORIZED_BY
    return MajOrdering.INCOMPARABLE


def reference_state_to_vector(spec, theory, tol=None):
    """resource_theory.state_to_vector with the squared moduli summed and sorted as Fractions."""
    if spec.amplitudes is not None:
        if theory is ResourceTheory.PURITY:
            raise InvalidStateSpecError("purity takes a spectrum, not amplitudes")
        parts = _amplitude_components(spec.amplitudes)
        values, tol = parse_values([c for part in parts for c in part], tol)
        components = iter(values)
        probs = [sum(c * c for c in islice(components, len(part))) for part in parts]
    else:
        if spec.schmidt_probs is not None:
            if theory is not ResourceTheory.ENTANGLEMENT:
                raise InvalidStateSpecError("Schmidt weights belong to entanglement")
            raw = spec.schmidt_probs
        else:
            if theory is not ResourceTheory.PURITY:
                raise InvalidStateSpecError("a spectrum belongs to purity")
            raw = spec.spectrum
        probs, tol = parse_values(raw, tol)
    probs = tuple(sorted(probs, reverse=True))
    try:
        reference_check_entries(probs, tol)
    except NegativeEntryError as exc:
        raise NegativeProbabilityError(str(exc)) from exc
    return _trusted(OrderedProbVector, entries=probs, tol=tol)


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
