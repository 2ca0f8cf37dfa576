"""Ordered probability vectors, Lorenz curves, and the majorization order.

Vectors live in the ordered simplex: entries non-increasing, non-negative,
summing to one. Majorization compares prefix sums; geometrically, x
majorizes y exactly when the Lorenz curve of x lies nowhere below that
of y. Every type here is an immutable value and every operation a pure
function, so everything is safe to share across threads.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AbscissaOutOfRangeError,
    BadEndpointsError,
    DimensionMismatchError,
    EmptyInputError,
    MajlatError,
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
    lt,
    parse_scalar,
    read_row,
    resolve_mode,
    scalar_str,
    shown,
    unscale,
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

    An exact vector may also keep its integer form (one, numerators): its
    entries as integer numerators over one common denominator, as they
    were checked, so the kernels need not scale them again (_over_one).
    The form lives in the slot _form, outside __dict__; it is no field, and
    __getstate__ leaves it out, so a pickle or copy of the vector lacks it.
    """

    __slots__ = ("_form",)
    _fields = ("entries", "tol")

    def __init__(self, entries: Iterable[Scalar], tol: float = 0.0):
        built = make_vector(entries, tol=tol)
        self.__dict__.update(vars(built))
        if (form := getattr(built, "_form", None)) is not None:
            _FORM.__set__(self, form)

    def __getstate__(self):
        return self.__dict__

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


_FORM = OrderedProbVector._form  # the slot's descriptor: sets the form past _Frozen.__setattr__


class LorenzCurve(_Frozen):
    """Cumulative values (S_0 = 0, ..., S_d = 1) of a sorted vector.

    The curve itself is the piecewise-linear interpolation through the
    integer points. S_0 is 0 and the steps S_k - S_{k-1} pass the vector
    rule, so curve_to_vector gives a vector that make_vector accepts.
    """

    _fields = ("values", "tol")

    def __init__(self, values: Iterable[Scalar], tol: float = 0.0):
        values = tuple(values)
        if len(values) < 2:
            raise BadEndpointsError("need cumulative values S_0..S_d with d >= 1")
        tol, one, numerators, entries = read_row(values, tol)
        _check_cumulative(tuple(numerators), one, tol)
        self.__dict__.update(values=tuple(entries), tol=tol)

    @property
    def d(self) -> int:
        return len(self.values) - 1

    def value_at(self, omega) -> Scalar:
        """Linear interpolation at any abscissa in [0, d], parsed in the curve's mode.

        A float abscissa within tol outside [0, d] counts as the end it is near.
        """
        x = parse_scalar(omega, self.tol == 0)
        if lt(x, 0, self.tol) or lt(self.d, x, self.tol):
            raise AbscissaOutOfRangeError(f"abscissa {shown(omega)} outside [0, {self.d}]")
        x = min(max(x, 0), self.d)
        k = int(x)
        if k == self.d:
            return self.values[k]
        return self.values[k] + (self.values[k + 1] - self.values[k]) * (x - k)


def _numerators_fault(values: Iterable[Scalar], one: Scalar, tol: float, d: int) -> Callable[[], MajlatError] | None:
    """None when d entries given as numerators over one satisfy the vector rule;
    else a callable that builds the error naming the fault.

    _checked_vector raises that error; ball listing asks this about each
    candidate over its q from polytope.solve_square and builds no error, so
    no message is formatted for a rejected candidate. Float entries are their
    own numerators over 1.0; exact ones are taken one at a time, so memory
    holds one numerator and the total. Any negative entry is reported first,
    then the first rise by more than tol, then a sum more than tol * d away
    from one. An exact entry is shown as Fraction(n, one). sum() takes the
    total, so a float total rounds as sum(entries) does on every Python (3.12
    changed that).
    """
    faults = []
    total = sum(_scanned(values, tol, faults))
    if not faults and abs(total - one) > tol * d:
        faults.append((NotNormalizedError, "entries sum to {}, expected 1", total))
    if not faults:
        return None
    error, text, *numerators = faults[-1]
    return lambda: error(text.format(*[_shown_entry(n, one, tol) for n in numerators]))


def _scanned(values: Iterable[Scalar], tol: float, faults: list) -> Iterator[Scalar]:
    """values up to the first negative one, appending to faults the first rise by
    more than tol, then that negative entry; so the last fault appended wins."""
    previous = None
    for n in values:
        if n < -tol:
            faults.append((NegativeEntryError, "negative entry {}", n))
            return
        if not faults and previous is not None and n - previous > tol:
            faults.append((NotSortedError, "entries increase: {} < {}", previous, n))
        previous = n
        yield n


def _shown_entry(n: Scalar, one: Scalar, tol: float) -> str:
    """An entry given as a numerator over one, shown for an error message."""
    return shown(Fraction(n, one) if tol == 0 else n)


_CURVE_ERRORS = {NegativeEntryError: NotMonotoneError, NotSortedError: NotConcaveError,
                 NotNormalizedError: BadEndpointsError}


def _check_cumulative(values: Sequence[Scalar], one: Scalar, tol: float, concave: bool = True) -> None:
    """S_0..S_d as numerators over one, from read_row: S_0 within tol of 0, then the steps
    S_k - S_{k-1} (the entries curve_to_vector returns) by the vector rule of _numerators_fault,
    sorted first when not concave (an upper extremal map), as make_vector(sort=True) sorts. A
    negative step raises NotMonotoneError, a rise NotConcaveError, a bad sum BadEndpointsError."""
    if not eq(values[0], 0, tol):
        raise BadEndpointsError(f"S_0 must be 0, got {_shown_entry(values[0], one, tol)}")
    steps = _differences(values)
    if not concave:
        steps = sorted(steps, reverse=True)
    fault = _numerators_fault(steps, one, tol, len(steps))
    if fault:
        error = fault()
        raise _CURVE_ERRORS[type(error)](f"steps S_k - S_(k-1): {error}")


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

    numeric.read_row reads the row once: an exact row as integer
    numerators over the lcm of its denominators, a float row as floats
    over 1.0. normalize and sort work on those numerators, and
    _checked_vector checks them once, one at a time. The entries read_row
    built are kept unless the row was normalized or sorted; then they are
    the numerators unscaled. An exact row whose numerators read_row gives
    as a tuple keeps them, as checked, as the vector's integer form.
    """
    values = tuple(raw)
    if not values:
        raise EmptyInputError("no entries given")
    tol, one, numerators, entries = read_row(values, tol)
    keep = not tol and type(numerators) is tuple
    if normalize:
        numerators = tuple(numerators)
        total = sum(numerators)
        if not 0 < total < math.inf:  # a float sum that overflows would divide every entry to 0.0
            raise NotNormalizedError(f"cannot normalize entries that sum to {_shown_entry(total, one, tol)}")
        one, numerators = (total, numerators) if tol == 0 else (one, tuple(e / total for e in numerators))
    if sort:
        numerators = sorted(numerators, reverse=True)
    return _checked_vector(numerators, one, tol, len(values), None if normalize or sort else entries, keep)


def _checked_vector(numerators: Iterable[Scalar], one: Scalar, tol: float, d: int,
                    entries: Iterable[Scalar] | None = None, keep: bool = False) -> OrderedProbVector:
    """The vector of d entries given as numerators over one, once they pass the vector rule:
    raises the error _numerators_fault builds, else builds it trusted on entries (or on the
    numerators unscaled, a sequence then). With keep, the exact vector keeps (one, numerators)
    as its integer form. make_vector and the amplitudes of state_to_vector end here."""
    if keep:
        numerators = tuple(numerators)
    fault = _numerators_fault(numerators, one, tol, d)
    if fault:
        raise fault()
    vector = _trusted(OrderedProbVector, entries=unscale(numerators, one, tol) if entries is None else tuple(entries),
                      tol=tol)
    if keep:
        _FORM.__set__(vector, (one, numerators))
    return vector


def _over_one(vectors: Sequence[OrderedProbVector], tol: float) -> tuple[Scalar, list[Iterable[Scalar]]]:
    """(one, each vector's entries as numerators over one), for the kernels.

    Float entries are their own numerators over 1.0. In exact mode each
    vector gives its integer form (o, numerators), or common_scale's of its
    entries when it keeps none (a kernel output, a copy); one is the lcm of
    the o, and each form is scaled by the one integer one // o, and not at
    all when o is one.
    """
    if tol:
        return 1.0, [v.entries for v in vectors]
    forms = [getattr(v, "_form", None) or common_scale(v.entries, tol) for v in vectors]
    one = math.lcm(*{o for o, _ in forms})
    return one, [ns if o == one else map(mul, ns, repeat(one // o)) for o, ns in forms]


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
    return tuple(map(sub, sums[1:], sums))


def _from_sums(sums: Sequence[Scalar], tol: float) -> OrderedProbVector:
    """Finite differences of valid cumulative values S_0..S_d, trusted."""
    return _trusted(OrderedProbVector, entries=_differences(sums), tol=tol)


def partial_sums(x: OrderedProbVector) -> LorenzCurve:
    """Lorenz curve of x: the points (k, S_k) for k = 0..d."""
    return _trusted(LorenzCurve, values=cumulative_sums(x.entries), tol=x.tol)


def curve_to_vector(curve) -> OrderedProbVector:
    """Finite differences of a Lorenz curve; inverse of partial_sums.

    Accepts a LorenzCurve or a raw cumulative sequence, which LorenzCurve
    checks first: its steps are the entries returned, by the vector rule.
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
    Exact prefix sums are integer numerators over one common denominator
    (_over_one).
    The gaps S_k(x) - S_k(y) are taken once; x dominates when none is below
    -tol, y when none is above tol. A float b - a is exactly -(a - b), so
    these are the tests b - a <= tol and a - b <= tol of numeric.geq.
    """
    tol = pair_tolerance(x, y)
    _, (rx, ry) = _over_one((x, y), tol)
    gaps = [a - b for a, b in zip(accumulate(rx), accumulate(ry))][:-1]
    x_dominates = min(gaps, default=0) >= -tol
    y_dominates = max(gaps, default=0) <= tol
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
