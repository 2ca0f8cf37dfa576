"""Meet, join, and family-wise infimum/supremum over the majorization order.

The pairwise meet takes per-index minima of prefix sums; a minimum of
concave curves is concave, so the differences are already sorted. The
pairwise join repairs the max-prefix-sum differences by block averaging;
the family supremum takes the least concave majorant of the max prefix
sums. On two members these are independent algorithms for the same
bound, and the tests hold them to agree. Arbitrary families enter either
as explicit member lists or as per-index prefix-sum extrema (the only
data the family bounds depend on, which is how continuously parametrized
families are handled).

Operands are validated once, when they are built; the kernels here trust
them, and their outputs skip the public constructors' checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .core import OrderedProbVector, _from_sums, _trusted, pair_tolerance
from .errors import EmptyFamilyError, InvalidExtremalError, NotSortedError
from .numeric import Scalar, eq, geq, lt, parse_values


@dataclass(frozen=True)
class FiniteFamily:
    """Explicit non-empty list of same-dimension, same-mode vectors."""

    members: tuple[OrderedProbVector, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise EmptyFamilyError("a family needs at least one member")
        first = members[0]
        for m in members[1:]:
            pair_tolerance(first, m)  # raises on dimension or mode clash
        object.__setattr__(self, "members", members)

    @property
    def d(self) -> int:
        return self.members[0].d

    @property
    def tol(self) -> float:
        return max(m.tol for m in self.members)


@dataclass(frozen=True)
class ExtremalFamily:
    """A family given only through its per-index prefix-sum extrema.

    lower[k] and upper[k] are the infimum and supremum of S_k over the
    family, for k = 0..d. The maps are trusted once they pass the
    structural checks below; nothing verifies that some actual family
    realizes them.
    """

    d: int
    lower: tuple[Scalar, ...]
    upper: tuple[Scalar, ...]
    tol: float = 0.0

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise InvalidExtremalError(f"dimension must be a positive integer, got {self.d!r}")
        lower, upper = tuple(self.lower), tuple(self.upper)
        if len(lower) != self.d + 1 or len(upper) != self.d + 1:
            raise InvalidExtremalError("extrema maps must cover k = 0..d")
        values, tol = parse_values(lower + upper, self.tol)
        lower, upper = values[: self.d + 1], values[self.d + 1 :]
        zero = lower[0] * 0
        one = zero + 1
        if not (eq(lower[0], zero, tol) and eq(upper[0], zero, tol)):
            raise InvalidExtremalError("S_0 extrema must equal 0")
        if not (eq(lower[-1], one, tol * self.d) and eq(upper[-1], one, tol * self.d)):
            raise InvalidExtremalError("S_d extrema must equal 1")
        for k in range(self.d):
            if not geq(lower[k + 1], lower[k], tol):
                raise InvalidExtremalError(f"lower map decreases at k={k + 1}")
            if not geq(upper[k + 1], upper[k], tol):
                raise InvalidExtremalError(f"upper map decreases at k={k + 1}")
        for k in range(self.d + 1):
            if not geq(upper[k], lower[k], tol):
                raise InvalidExtremalError(f"upper map below lower map at k={k}")
            floor = Fraction(k, self.d) if tol == 0 else k / self.d
            if not geq(lower[k], floor, tol):
                raise InvalidExtremalError(f"lower map dips below the uniform curve at k={k}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "tol", tol)


VectorFamily = Union[FiniteFamily, ExtremalFamily]


def meet(x: OrderedProbVector, y: OrderedProbVector) -> OrderedProbVector:
    """Greatest lower bound of x and y under majorization."""
    tol = pair_tolerance(x, y)
    return _from_sums(tuple(min(a, b) for a, b in zip(x.prefix_sums(), y.prefix_sums())), tol)


def join(x: OrderedProbVector, y: OrderedProbVector) -> OrderedProbVector:
    """Least upper bound via block-averaging repair of the raw differences."""
    tol = pair_tolerance(x, y)
    maxes = [max(a, b) for a, b in zip(x.prefix_sums(), y.prefix_sums())]
    z = [maxes[k + 1] - maxes[k] for k in range(x.d)]
    return _trusted(OrderedProbVector, entries=_flatten(z, tol), tol=tol)


def _flatten(values: Sequence[Scalar], tol: float) -> tuple[Scalar, ...]:
    """Sort a probability vector into the ordered simplex by block averaging.

    Repeatedly: find the first adjacent ascent w[j-1] < w[j]; among block
    starts k <= j-1 pick the largest whose left neighbor is at least the
    block average (the leftmost position always qualifies); replace
    w[k..j] by that average. At most d-1 repairs are needed.
    """
    vals = list(values)
    d = len(vals)
    repairs = 0
    while True:
        ascent = next((j for j in range(1, d) if lt(vals[j - 1], vals[j], tol)), None)
        if ascent is None:
            break
        if repairs >= d:
            raise NotSortedError("block averaging failed to terminate")
        for k in range(ascent - 1, -1, -1):
            avg = sum(vals[k : ascent + 1]) / (ascent - k + 1)
            if k == 0 or geq(vals[k - 1], avg, tol):
                vals[k : ascent + 1] = [avg] * (ascent - k + 1)
                break
        repairs += 1
    return tuple(vals)


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


def as_family(family) -> VectorFamily:
    """Coerce a family argument: descriptors pass through, iterables wrap."""
    if isinstance(family, (FiniteFamily, ExtremalFamily)):
        return family
    return FiniteFamily(tuple(family))


def _fold(family: FiniteFamily, pick) -> tuple[Scalar, ...]:
    sums = [m.prefix_sums() for m in family.members]
    return tuple(pick(column) for column in zip(*sums))


def family_inf(family) -> OrderedProbVector:
    """Greatest lower bound of a family: per-index prefix-sum infima, differenced."""
    family = as_family(family)
    if isinstance(family, FiniteFamily):
        return _from_sums(_fold(family, min), family.tol)
    lower, tol = family.lower, family.tol
    for k in range(1, family.d):
        if not geq(lower[k], (lower[k - 1] + lower[k + 1]) / 2, tol):
            raise InvalidExtremalError(
                "lower map is not concave; per-index infima of Lorenz curves always are"
            )
    return _from_sums(lower, tol)


def family_sup(family) -> OrderedProbVector:
    """Least upper bound of a family via the envelope of prefix-sum suprema."""
    family = as_family(family)
    if isinstance(family, FiniteFamily):
        values, tol = _fold(family, max), family.tol
    else:
        values, tol = family.upper, family.tol
    return _from_sums(_upper_envelope(values, tol), tol)
