"""Meet, join, and family-wise infimum/supremum over the majorization order.

The pairwise meet takes per-index minima of prefix sums; a minimum of
concave curves is concave, so the differences are already sorted. The
pairwise join is the pool-adjacent-violators (antitonic) regression of
the max-prefix-sum differences, one O(d) pass; the family supremum takes
the least concave majorant of the max prefix sums. On two members these
are independent algorithms for the same bound, and the tests hold them
to agree. A family is either a non-empty sequence of vectors or an
ExtremalFamily: its per-index prefix-sum extrema, the only data the
family bounds depend on, which is how continuously parametrized families
are handled.

Operands are validated once, when they are built; the kernels here trust
them, and their outputs skip the public constructors' checks.
"""

from __future__ import annotations

from typing import Sequence

from .core import OrderedProbVector, _check_cumulative, _from_sums, _Frozen, _trusted, pair_tolerance
from .errors import (
    BadEndpointsError,
    EmptyFamilyError,
    InvalidExtremalError,
    NotConcaveError,
    NotMonotoneError,
)
from .numeric import Scalar, geq, lt, parse_values


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
        values, tol = parse_values(lower + upper, tol)
        lower, upper = values[: d + 1], values[d + 1 :]
        # per-index infima of Lorenz curves are concave; suprema need not be
        for name, sums, concave in (("lower", lower, True), ("upper", upper, False)):
            try:
                _check_cumulative(sums, tol, concave)
            except (BadEndpointsError, NotMonotoneError, NotConcaveError) as exc:
                raise InvalidExtremalError(f"{name} map: {exc}") from exc
        for k in range(d + 1):
            if not geq(upper[k], lower[k], tol):
                raise InvalidExtremalError(f"upper map below lower map at k={k}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "tol", tol)


def _members(family: Sequence[OrderedProbVector]) -> tuple[tuple[OrderedProbVector, ...], float]:
    """The members of a family, checked once: non-empty, one dimension, one mode."""
    members = tuple(family)
    if not members:
        raise EmptyFamilyError("a family needs at least one member")
    return members, max(pair_tolerance(members[0], m) for m in members)


def _fold(family, pick) -> tuple[tuple[Scalar, ...], float]:
    """Per-index prefix-sum minima (pick=min) or maxima (pick=max), and the tolerance."""
    if isinstance(family, ExtremalFamily):
        return (family.lower if pick is min else family.upper), family.tol
    members, tol = _members(family)
    return tuple(map(pick, zip(*(m.prefix_sums() for m in members)))), tol


def meet(x: OrderedProbVector, y: OrderedProbVector) -> OrderedProbVector:
    """Greatest lower bound of x and y under majorization."""
    return family_inf((x, y))


def join(x: OrderedProbVector, y: OrderedProbVector) -> OrderedProbVector:
    """Least upper bound: pool-adjacent-violators on the max-prefix-sum differences."""
    maxes, tol = _fold((x, y), max)
    z = [maxes[k + 1] - maxes[k] for k in range(x.d)]
    return _trusted(OrderedProbVector, entries=_flatten(z, tol), tol=tol)


def _flatten(values: Sequence[Scalar], tol: float) -> tuple[Scalar, ...]:
    """Sort a probability vector into the ordered simplex by pool-adjacent-violators.

    One pass keeps blocks of (sum, count, mean): each value starts a block,
    which absorbs the block below while that block's mean is smaller by
    more than tol. The means, each repeated over its block, are the
    antitonic regression of the values: the differences of the least
    concave majorant of their prefix sums.
    """
    blocks: list[tuple[Scalar, int, Scalar]] = []
    for v in values:
        total, count, mean = v, 1, v
        while blocks and lt(blocks[-1][2], mean, tol):
            below, size, _ = blocks.pop()
            total, count = below + total, size + count
            mean = total / count
        blocks.append((total, count, mean))
    return tuple(mean for _, count, mean in blocks for _ in range(count))


def _upper_envelope(vals: Sequence[Scalar], tol: float) -> tuple[Scalar, ...]:
    """Least concave majorant of the polygon through (k, S_k), k = 0..d.

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


def family_inf(family) -> OrderedProbVector:
    """Greatest lower bound of a family: per-index prefix-sum infima, differenced."""
    return _from_sums(*_fold(family, min))


def family_sup(family) -> OrderedProbVector:
    """Least upper bound of a family via the envelope of prefix-sum suprema."""
    sums, tol = _fold(family, max)
    return _from_sums(_upper_envelope(sums, tol), tol)
