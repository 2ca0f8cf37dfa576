"""Ordered probability vectors, Lorenz curves, and the majorization order.

Vectors live in the ordered simplex: entries non-increasing, non-negative,
summing to one. Majorization compares prefix sums; geometrically, x
majorizes y exactly when the Lorenz curve of x lies nowhere below that
of y. Every type here is an immutable value and every operation a pure
function, so everything is safe to share across threads.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate, pairwise
from typing import Iterable, Sequence

from .errors import (
    BadEndpointsError,
    DimensionMismatchError,
    EmptyInputError,
    ModeMismatchError,
    NegativeEntryError,
    NotConcaveError,
    NotMonotoneError,
    NotNormalizedError,
    NotSortedError,
    ZeroDimensionError,
)
from .numeric import (
    DEFAULT_FLOAT_TOL,
    Scalar,
    common_scale,
    cumulative_sums,
    eq,
    geq,
    parse_scalar,
    parse_values,
    resolve_mode,
    scalar_str,
    shown,
)


class MajOrdering(Enum):
    """Outcome of a majorization comparison."""

    MAJORIZES = "majorizes"
    MAJORIZED_BY = "majorized_by"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class _Frozen:
    """Immutable value over the fields named in _fields.

    Equal only to an object of the same class with equal fields, hashed
    by the field tuple, shown as Class(field=value, ...). Fields are set
    once, in __init__ or by _trusted, by one update of __dict__.
    """

    _fields: tuple[str, ...]

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        shown_fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{self.__class__.__qualname__}({shown_fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OrderedProbVector(_Frozen):
    """Probability vector with non-increasing entries.

    Entries are parsed by numeric.resolve_mode's rule: all Fractions
    (exact mode, tol == 0) or all floats (float mode, tol > 0);
    downstream comparisons treat differences within tol as equality.
    The constructor is make_vector(entries, tol=tol), the one door for
    raw entries.
    """

    _fields = ("entries", "tol")

    def __init__(self, entries: Iterable[Scalar], tol: float = 0.0):
        self.__dict__.update(vars(make_vector(entries, tol=tol)))

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return self.tol == 0

    def prefix_sums(self) -> tuple[Scalar, ...]:
        return cumulative_sums(self.entries)

    def to_float(self, tol: float = DEFAULT_FLOAT_TOL) -> "OrderedProbVector":
        """Float-mode copy; the inverse direction needs a fresh exact parse."""
        return OrderedProbVector(map(float, self.entries), tol)

    def __str__(self) -> str:
        return "[" + ", ".join(scalar_str(e) for e in self.entries) + "]"


class LorenzCurve(_Frozen):
    """Cumulative values (S_0 = 0, ..., S_d = 1) of a sorted vector.

    The curve itself is the piecewise-linear interpolation through the
    integer points; it is non-decreasing and concave by invariant.
    """

    _fields = ("values", "tol")

    def __init__(self, values: Iterable[Scalar], tol: float = 0.0):
        values = tuple(values)
        if len(values) < 2:
            raise BadEndpointsError("need cumulative values S_0..S_d with d >= 1")
        values, tol = parse_values(values, tol)
        _check_cumulative(values, tol)
        self.__dict__.update(values=values, tol=tol)

    @property
    def d(self) -> int:
        return len(self.values) - 1

    def value_at(self, omega) -> Scalar:
        """Linear interpolation at any abscissa in [0, d], parsed in the curve's mode."""
        x = parse_scalar(omega, self.tol == 0)
        if x < 0 or x > self.d:
            raise ValueError(f"abscissa {shown(omega)} outside [0, {self.d}]")
        k = int(x)
        if k == self.d:
            return self.values[k]
        return self.values[k] + (self.values[k + 1] - self.values[k]) * (x - k)


def _check_entries(entries: Sequence[Scalar], tol: float) -> None:
    """Sign, order and sum checks of parsed, non-empty vector entries, in one pass.

    This is the one place the vector rule is written; ball vertex listing
    uses it too. The entries are checked over numeric.common_scale's one
    common denominator by _check_numerators: exact numerators are scaled
    one at a time as they are checked, so memory holds one numerator and
    the total.
    """
    one, (values,) = common_scale((entries,), tol)
    _check_numerators(values, one, tol, len(entries))


def _check_numerators(values: Iterable[Scalar], one: Scalar, tol: float, d: int) -> None:
    """_check_entries on d entries as numerators over one: exact, or the floats themselves over 1.0.

    Any negative entry is reported first, then the first rise by more
    than tol, then a sum more than tol * d away from one. An exact entry
    is shown in a message as Fraction(n, one). sum() takes the total, so
    a float total rounds as sum(entries) does on every Python (3.12
    changed that rounding).
    """
    rise = []

    def checked():
        for i, n in enumerate(values):
            if n < -tol:
                raise NegativeEntryError(f"negative entry {_shown_entry(n, one, tol)}")
            if i and not rise and n - previous > tol:
                rise.append((previous, n))
            previous = n
            yield n

    total = sum(checked())
    if rise:
        a, b = rise[0]
        raise NotSortedError(f"entries increase: {_shown_entry(a, one, tol)} < {_shown_entry(b, one, tol)}")
    if abs(total - one) > tol * d:
        raise NotNormalizedError(f"entries sum to {_shown_entry(total, one, tol)}, expected 1")


def _shown_entry(n: Scalar, one: Scalar, tol: float) -> str:
    """An entry given as a numerator over one, shown for an error message."""
    return shown(Fraction(n, one) if tol == 0 else n)


def _check_cumulative(values: Sequence[Scalar], tol: float, concave: bool = True) -> None:
    """Endpoint, monotonicity and (optionally) concavity checks of parsed S_0..S_d."""
    d = len(values) - 1
    zero = values[0] * 0
    if not eq(values[0], zero, tol):
        raise BadEndpointsError(f"S_0 must be 0, got {shown(values[0])}")
    if not eq(values[-1], zero + 1, tol * d):
        raise BadEndpointsError(f"S_d must be 1, got {shown(values[-1])}")
    for a, b in zip(values, values[1:]):
        if not geq(b, a, tol):
            raise NotMonotoneError(f"cumulative values decrease: {shown(a)} > {shown(b)}")
    if not concave:
        return
    for k in range(1, d):
        if not geq(values[k], (values[k - 1] + values[k + 1]) / 2, tol):
            raise NotConcaveError(f"concavity fails at index {k}")


def _trusted(cls, **fields):
    """A vector or curve built from values that are valid by construction.

    Kernel outputs come from inputs that already passed the public
    constructors, so their checks are not run again.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def make_vector(
    raw: Iterable[object],
    *,
    normalize: bool = False,
    sort: bool = False,
    tol: float | None = None,
) -> OrderedProbVector:
    """Build a validated vector from scalars, decimal strings, or ratios.

    With normalize, entries are rescaled to unit sum; with sort, they are
    reordered non-increasing. Without the flags the input must already
    satisfy the corresponding invariant. Mode is inferred from the entry
    types unless tol forces it (0 exact, positive float).
    """
    values = tuple(raw)
    if not values:
        raise EmptyInputError("no entries given")
    entries, tol = parse_values(values, tol)
    if normalize:
        total = sum(entries)
        if not total > 0:
            raise NotNormalizedError(f"cannot normalize entries that sum to {shown(total)}")
        entries = tuple(e / total for e in entries)
    if sort:
        entries = tuple(sorted(entries, reverse=True))
    _check_entries(entries, tol)
    return _trusted(OrderedProbVector, entries=entries, tol=tol)


def _check_dimension(d: object) -> int:
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ZeroDimensionError(f"dimension must be a positive integer, got {d!r}")
    return d


def top(d: int, *, tol: float | None = None) -> OrderedProbVector:
    """Point mass [1, 0, ..., 0], the greatest element of dimension d."""
    _check_dimension(d)
    exact, tol_eff = resolve_mode((), tol)
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    return _trusted(OrderedProbVector, entries=(one,) + (zero,) * (d - 1), tol=tol_eff)


def bottom(d: int, *, tol: float | None = None) -> OrderedProbVector:
    """Uniform vector [1/d, ..., 1/d], the least element of dimension d."""
    _check_dimension(d)
    exact, tol_eff = resolve_mode((), tol)
    share = Fraction(1, d) if exact else 1.0 / d
    return _trusted(OrderedProbVector, entries=(share,) * d, tol=tol_eff)


def _differences(sums: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Finite differences S_1 - S_0, ..., S_d - S_{d-1} of cumulative values."""
    return tuple(b - a for a, b in pairwise(sums))


def _from_sums(sums: Sequence[Scalar], tol: float) -> OrderedProbVector:
    """Finite differences of valid cumulative values S_0..S_d, trusted."""
    return _trusted(OrderedProbVector, entries=_differences(sums), tol=tol)


def partial_sums(x: OrderedProbVector) -> LorenzCurve:
    """Lorenz curve of x: the points (k, S_k) for k = 0..d."""
    return _trusted(LorenzCurve, values=cumulative_sums(x.entries), tol=x.tol)


def curve_to_vector(curve) -> OrderedProbVector:
    """Finite differences of a Lorenz curve; inverse of partial_sums.

    Accepts a LorenzCurve or a raw cumulative sequence (which is then
    validated, raising BadEndpoints/NotMonotone/NotConcave as needed).
    """
    if not isinstance(curve, LorenzCurve):
        curve = LorenzCurve(curve)
    return _from_sums(curve.values, curve.tol)


def pair_tolerance(x: OrderedProbVector, y: OrderedProbVector) -> float:
    """Common tolerance of two operands; rejects mode or dimension clashes."""
    if x.d != y.d:
        raise DimensionMismatchError(f"dimensions differ: {x.d} vs {y.d}")
    if x.is_exact != y.is_exact:
        raise ModeMismatchError("cannot combine exact and float vectors")
    return max(x.tol, y.tol)


def compare(x: OrderedProbVector, y: OrderedProbVector) -> MajOrdering:
    """Majorization comparison via prefix-sum dominance at k = 1..d-1.

    The k = d sums agree for probability vectors, so they never decide.
    Exact prefix sums are integer numerators over one common denominator.
    """
    tol = pair_tolerance(x, y)
    _, (rx, ry) = common_scale((x.entries, y.entries), tol)
    sums = tuple(zip(accumulate(rx), accumulate(ry)))[:-1]
    x_dominates = all(geq(a, b, tol) for a, b in sums)
    y_dominates = all(geq(b, a, tol) for a, b in sums)
    if x_dominates and y_dominates:
        return MajOrdering.EQUAL
    if x_dominates:
        return MajOrdering.MAJORIZES
    if y_dominates:
        return MajOrdering.MAJORIZED_BY
    return MajOrdering.INCOMPARABLE


def majorizes(x: OrderedProbVector, y: OrderedProbVector) -> bool:
    """Weak dominance: x majorizes y or equals it."""
    return compare(x, y) in (MajOrdering.MAJORIZES, MajOrdering.EQUAL)
