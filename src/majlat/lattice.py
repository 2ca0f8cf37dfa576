"""Meet, join, and family-wise infimum/supremum over the majorization order.

The pairwise meet takes per-index minima of prefix sums; a minimum of
concave curves is concave, so the differences are already sorted. The
pairwise join is the pool-adjacent-violators (antitonic) regression of
the max-prefix-sum differences, one O(d) pass; the family supremum is
the least concave majorant of the max prefix sums, which are their own
majorant when concave (checked in exact mode only) and otherwise go
through a quadratic scan, until join's pass replaces both (ROADMAP item
3, after item 1a); tests/oracles.py holds the reference of each bound for
the tests. A family is either a non-empty sequence of vectors or an
ExtremalFamily: its per-index prefix-sum extrema, the only data the
family bounds depend on, which is how continuously parametrized families
are handled.

Exact kernels compute on integer numerators over one common denominator:
the lcm of the denominators of the operands' integer forms, the numerators
each vector kept from its parse (core._over_one), each form scaled by one
integer factor; an operand without a form gets one from its entries
(numeric.common_scale). On those numerators the kernels take prefix sums,
their minima and maxima, and the join's block means, compared by
cross-multiplying; the family supremum differences the integer suprema
to test them for concavity, and its envelope scans them when they are
not. Fractions are built only for the result entries, and for the
envelope's slopes, each the Fraction of an integer rise over its run.
Float kernels compute on the floats themselves, so their results are the
same bit for bit as those of plain float arithmetic.

Operands are validated once, when they are built; the kernels here trust
them, and their outputs skip the public constructors' checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import gt
from typing import Sequence

from .core import (
    OrderedProbVector,
    _check_cumulative,
    _differences,
    _Frozen,
    _over_one,
    _trusted,
    pair_tolerance,
)
from .errors import (
    BadEndpointsError,
    EmptyFamilyError,
    InvalidExtremalError,
    NotConcaveError,
    NotMonotoneError,
)
from .numeric import Scalar, common_scale, geq, lt, read_row, unscale


class ExtremalFamily(_Frozen):
    """A family given only through its per-index prefix-sum extrema.

    lower[k] and upper[k] are the infimum and supremum of S_k over the
    family, for k = 0..d. The maps are trusted once they pass the
    structural checks below; nothing verifies that some actual family
    realizes them.
    """

    _fields = ("d", "lower", "upper", "tol")

    def __init__(self, d: int, lower: tuple[Scalar, ...], upper: tuple[Scalar, ...], tol: float = 0.0):
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InvalidExtremalError(f"dimension must be a positive integer, got {d!r}")
        lower, upper = tuple(lower), tuple(upper)
        if len(lower) != d + 1 or len(upper) != d + 1:
            raise InvalidExtremalError("extrema maps must cover k = 0..d")
        tol, one, numerators, entries = read_row(lower + upper, tol)
        numerators, entries = tuple(numerators), tuple(entries)
        # per-index infima of Lorenz curves are concave; suprema need not be
        for name, sums, concave in (("lower", numerators[: d + 1], True), ("upper", numerators[d + 1 :], False)):
            try:
                _check_cumulative(sums, one, tol, concave)
            except (BadEndpointsError, NotMonotoneError, NotConcaveError) as exc:
                raise InvalidExtremalError(f"{name} map: {exc}") from exc
        for k in range(d + 1):
            if not geq(numerators[d + 1 + k], numerators[k], tol):
                raise InvalidExtremalError(f"upper map below lower map at k={k}")
        self.__dict__.update(d=d, lower=entries[: d + 1], upper=entries[d + 1 :], tol=tol)


def _members(family: Sequence[OrderedProbVector]) -> tuple[tuple[OrderedProbVector, ...], float]:
    """The members of a family, checked once: non-empty, one dimension, one mode."""
    members = tuple(family)
    if not members:
        raise EmptyFamilyError("a family needs at least one member")
    return members, max(pair_tolerance(members[0], m) for m in members)


def _fold(family, pick) -> tuple[tuple[Scalar, ...], Scalar, float]:
    """Per-index prefix-sum minima (pick=min) or maxima (pick=max) as (sums, one, tol).

    Exact sums are integer numerators over one, the common denominator of
    the members' integer forms (core._over_one) or of an ExtremalFamily's
    map as one row (numeric.common_scale); float sums are floats over 1.0.
    """
    if isinstance(family, ExtremalFamily):
        one, sums = common_scale(family.lower if pick is min else family.upper, family.tol)
        return tuple(sums), one, family.tol
    members, tol = _members(family)
    one, rows = _over_one(members, tol)
    zero = one * 0
    return tuple(map(pick, zip(*(accumulate(row, initial=zero) for row in rows)))), one, tol


def meet(x: OrderedProbVector, y: OrderedProbVector) -> OrderedProbVector:
    """Greatest lower bound of x and y under majorization."""
    return family_inf((x, y))


def join(x: OrderedProbVector, y: OrderedProbVector) -> OrderedProbVector:
    """Least upper bound: pool-adjacent-violators on the max-prefix-sum differences."""
    maxes, one, tol = _fold((x, y), max)
    return _trusted(OrderedProbVector, entries=_flatten(_differences(maxes), one, tol), tol=tol)


def _flatten(values: Sequence[Scalar], one: Scalar, tol: float) -> tuple[Scalar, ...]:
    """Sort a probability vector, given as numerators over one, into the ordered simplex.

    One pool-adjacent-violators pass keeps blocks of (sum, count): each
    value starts a block, which absorbs the block below while that block's
    mean is smaller. Exact mode compares the means by cross-multiplying
    the integer sums; float mode pools while the mean below is smaller by
    more than tol. The means, each repeated over its block, are the
    antitonic regression of the values: the differences of the least
    concave majorant of their prefix sums (Cicalese & Vaccaro, IEEE Trans.
    Inf. Theory 48, 2002). Exact means are built as Fractions only here.
    """
    blocks: list[tuple[Scalar, int]] = []
    for v in values:
        total, count = v, 1
        while blocks:
            below, size = blocks[-1]
            smaller = below * count < total * size if tol == 0 else lt(below / size, total / count, tol)
            if not smaller:
                break
            blocks.pop()
            total, count = below + total, size + count
        blocks.append((total, count))
    means = [(Fraction(total, count * one) if tol == 0 else total / count, count) for total, count in blocks]
    return tuple(mean for mean, count in means for _ in range(count))


def _upper_envelope(vals: Sequence[Scalar], tol: float) -> tuple[Scalar, ...]:
    """Least concave majorant of the polygon through (k, S_k), k = 0..d.

    Scans left to right: from index i, jump to the last index attaining
    the maximum slope among all remaining points (float mode merges slope
    ties within tolerance toward the later index). The interpolation
    through the kept indices is the envelope. Exact values may be integer
    numerators over one common denominator, as family_sup passes them:
    each slope is the Fraction of a rise over its run, and the envelope
    is over the same denominator. Float values are floats over 1.0.
    """
    exact = tol == 0
    d = len(vals) - 1
    kept = [0]
    i = 0
    while i < d:
        best = None
        best_j = None
        base = vals[i]
        for j in range(i + 1, d + 1):
            slope = Fraction(vals[j] - base, j - i) if exact else (vals[j] - base) / (j - i)
            if best is None or slope > best:
                best, best_j = slope, j
            elif geq(slope, best, tol):
                best_j = j  # tie within tolerance: later index wins
        kept.append(best_j)
        i = best_j
    env = [vals[0]]
    for left, right in zip(kept, kept[1:]):
        rise, run = vals[right] - vals[left], right - left
        step = Fraction(rise, run) if exact else rise / run
        for k in range(left + 1, right + 1):
            env.append(vals[right] if k == right else vals[left] + step * (k - left))
    return tuple(env)


def family_inf(family) -> OrderedProbVector:
    """Greatest lower bound of a family: per-index prefix-sum infima, differenced."""
    mins, one, tol = _fold(family, min)
    return _trusted(OrderedProbVector, entries=unscale(_differences(mins), one, tol), tol=tol)


def family_sup(family) -> OrderedProbVector:
    """Least upper bound of a family via the envelope of prefix-sum suprema.

    In exact mode, suprema whose steps never rise are concave, and a
    concave polygon is its own least concave majorant: their steps over one
    are the entries. Other suprema go through the envelope scan, which
    takes them as _fold gives them (integer numerators over one in exact
    mode), so Fractions are built only for its slopes and for the result
    entries. Float suprema are always scanned, because the scan's
    interpolation of a collinear run can differ from the suprema in the
    last bit. The shortcut and the quadratic scan stay until join's pass
    replaces both (ROADMAP item 3, after item 1a).
    """
    maxes, one, tol = _fold(family, max)
    steps = _differences(maxes)
    if tol or any(map(gt, steps[1:], steps)):
        steps = _differences(_upper_envelope(maxes, tol))
    return _trusted(OrderedProbVector, entries=unscale(steps, one, tol), tol=tol)
