"""Convex polytopes in the ordered simplex, l1 balls, and their lattice bounds.

Prefix sums of any hull point are convex combinations of vertex prefix
sums, so the infimum/supremum of a whole polytope equals the family
infimum/supremum of its vertex list. The l1 ball around a sorted vector
(clipped to the ordered simplex) is such a polytope, and ball_vertices
lists its vertices. Its supremum and infimum, the steepest and flattest
approximations, have O(d) closed forms (Horodecki, Oppenheim &
Sparaciari, J. Phys. A 51, 305301, 2018) and need no enumeration: sorting
never increases the l1 distance to a sorted center, so their bounds over
the whole simplex are the bounds over the ordered simplex.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .core import OrderedProbVector, _Frozen, _numerators_fault, _trusted, bottom
from .errors import DimensionTooLargeError, NegativeRadiusError
from .lattice import _members, family_inf, family_sup
from .numeric import Scalar, common_scale, leq, lt, parse_scalar, shown, unscale

MAX_DIMENSION = 10  # vertex listing cost explodes beyond this; the bounds need no cap


class Polytope(_Frozen):
    """Convex polytope given by vertices, deduplicated and canonically ordered."""

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[OrderedProbVector, ...]):
        self.__dict__.update(vertices=_canonical(*_members(vertices)))


def _canonical(members: Sequence[OrderedProbVector], tol: float) -> tuple[OrderedProbVector, ...]:
    """Checked members without duplicates (within tol per entry in float mode), sorted by entries."""
    if tol:
        unique: list[OrderedProbVector] = []
        for v in members:
            if not any(all(abs(a - b) <= tol for a, b in zip(v.entries, u.entries)) for u in unique):
                unique.append(v)
    else:
        unique = list({v.entries: v for v in members}.values())
    unique.sort(key=lambda v: v.entries)
    return tuple(unique)


class Ball(_Frozen):
    """l1 ball around a sorted vector, implicitly clipped to the ordered simplex."""

    _fields = ("center", "radius")

    def __init__(self, center: OrderedProbVector, radius: Scalar):
        radius = parse_scalar(radius, center.is_exact)
        if lt(radius, 0, center.tol):  # a float radius within tol below 0 is a point, as _is_point says
            raise NegativeRadiusError(f"radius must be non-negative, got {shown(radius)}")
        self.__dict__.update(center=center, radius=radius)


def polytope_inf(p: Polytope) -> OrderedProbVector:
    """Greatest lower bound of the whole hull; the fold over its vertices.

    The result need not belong to the polytope.
    """
    return family_inf(p.vertices)


def polytope_sup(p: Polytope) -> OrderedProbVector:
    """Least upper bound of the whole hull; the fold over its vertices."""
    return family_sup(p.vertices)


def ball_vertices(ball: Ball) -> Polytope:
    """All vertices of {x in the ordered simplex : ||x - center||_1 <= radius}.

    Candidates are solutions of square active-constraint systems on the
    unit-sum hyperplane: one l1 facet (sign pattern s, s.(x - center) =
    radius) plus d-2 further tight constraints drawn from coordinate ties
    with the center, ordering facets, and positivity; plus the simplex
    corners for the case where the ball constraint is slack. Several
    tight l1 facets at one point are equivalent to one facet plus
    coordinate ties, so the sweep reaches every vertex; constant sign
    patterns are pruned because they are never tight for a positive
    radius. The sweep runs on numerators, integers in exact mode: the
    center and radius over one (scaled once), each candidate over its own
    q from solve_square, which eliminates the augmented rows _candidates
    builds once per listing or per sign pattern. Each passes one check,
    _feasible: core._numerators_fault, the vector rule make_vector checks,
    then the l1 test. A rejected candidate raises nothing and formats no
    message.
    Only kept vertices become entries, built trusted, deduplicated and
    sorted as Polytope does it. Every matrix has entries -1, 0 and 1, so
    both modes find the same systems singular.

    The sweep solves (2^d - 2) * C(2d, d - 2) systems; the README gives
    their counts and measured times per d.

    Raises:
        DimensionTooLargeError: when the center dimension exceeds MAX_DIMENSION.
    """
    center = ball.center
    d = center.d
    if d > MAX_DIMENSION:
        raise DimensionTooLargeError(f"dimension {d} above enumeration cap {MAX_DIMENSION}")
    if _is_point(ball):
        return _trusted(Polytope, vertices=(center,))
    tol = center.tol
    one, (*x0, eps) = common_scale(center.entries + (ball.radius,), tol)
    kept = [
        _trusted(OrderedProbVector, entries=unscale(x, q, tol), tol=tol)
        for q, x in _candidates(x0, eps, one, tol)
        if _feasible(x, q, x0, eps, one, tol)
    ]
    return _trusted(Polytope, vertices=_canonical(kept, tol))


def _candidates(x0: Sequence[Scalar], eps: Scalar, one: Scalar, tol: float) -> Iterator[tuple[Scalar, tuple]]:
    """(q, numerators over q) of the d simplex corners, then of every unique solution of
    the active-constraint systems; x0 and eps are numerators over one.

    Rows are built once, augmented with their right-hand side: the sum row
    per listing, each sign row per sign pattern, and each pool row (a tie
    with the center, an ordering facet or the positivity facet) per listing.
    A system is the list [sum row, sign row, *d - 2 pool rows].
    """
    d = len(x0)
    zero = one * 0
    for k in range(1, d + 1):
        yield (one, (1 / k,) * k + (zero,) * (d - k)) if tol else (k, (1,) * k + (0,) * (d - k))

    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    pool = [unit[i] + (x0[i],) for i in range(d)]  # coordinate ties with the center
    pool += [tuple(a - b for a, b in zip(unit[i], unit[i + 1])) + (zero,) for i in range(d - 1)]  # ordering facets
    pool.append(unit[-1] + (zero,))  # positivity facet x_d = 0

    sum_row = (1,) * d + (one,)
    for signs in itertools.product((1, -1), repeat=d):
        if all(s == 1 for s in signs) or all(s == -1 for s in signs):
            continue
        sign_row = signs + (eps + sum(c if s == 1 else -c for s, c in zip(signs, x0)),)
        for extra in itertools.combinations(pool, d - 2):
            solution = solve_square([sum_row, sign_row, *extra], one, tol)
            if solution is not None:
                yield solution


def solve_square(rows: Sequence[Sequence[Scalar]], one: Scalar, tol: float) -> tuple[Scalar, list] | None:
    """(q, numerators over q) solving a square integer system given as augmented rows
    (coefficients, then the right-hand side as a numerator over one; floats over 1.0
    in float mode); None when no unique solution exists. rows is left unchanged.

    One fraction-free Gauss-Jordan pass (Bareiss, Math. Comp. 22, 1968): the
    pivot is the first nonzero integer in its column, so singularity is
    decided exactly; each other row becomes pivot * row - factor * pivot_row.
    Exact mode brings each b_i / a_ii to q = one * lcm(|a_ii|) as the integer
    b_i * (lcm // a_ii); float mode divides, over q = 1.0.
    """
    rows = list(rows)
    n = len(rows)
    for col in range(n):
        for r in range(col, n):
            if rows[r][col]:
                break
        else:
            return None
        pivot = rows[r]
        rows[r], rows[col] = rows[col], pivot
        pv = pivot[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                rows[r] = [pv * v - f * w for v, w in zip(row, pivot)]
    if tol:
        return one, [row[n] / row[i] for i, row in enumerate(rows)]
    lcm = math.lcm(*[row[i] for i, row in enumerate(rows)])
    return one * lcm, [row[n] * (lcm // row[i]) for i, row in enumerate(rows)]


def _feasible(x: Sequence[Scalar], q: Scalar, x0: Sequence[Scalar], eps: Scalar, one: Scalar, tol: float) -> bool:
    """x over q passes core._numerators_fault (sorted, non-negative, unit sum) and is in
    the ball (x0 and eps are over one). The vector rule goes first: it refuses most
    candidates, and costs less than the l1 test's 2 * d products."""
    if _numerators_fault(x, q, tol, len(x)):
        return False
    return leq(sum(abs(u * one - v * q) for u, v in zip(x, x0)), eps * q, tol * len(x0))


def _is_point(ball: Ball) -> bool:
    """Radius 0, or within tol of 0 in float mode: the ball is its center."""
    return leq(ball.radius, 0, ball.center.tol)


def steepest_approx(ball: Ball) -> OrderedProbVector:
    """Most concentrated vector within reach: majorizes every ball member.

    Moves radius/2 onto the largest entry, at most up to 1, and takes the
    same mass from the tail, smallest entries first. O(d).
    """
    center = ball.center
    if _is_point(ball):
        return center
    out = list(center.entries)
    move = min(ball.radius / 2, 1 - out[0])
    out[0] += move
    for i in range(len(out) - 1, 0, -1):
        if not move:
            break
        take = min(move, out[i])
        out[i] -= take
        move -= take
    return _trusted(OrderedProbVector, entries=tuple(out), tol=center.tol)


def flattest_approx(ball: Ball) -> OrderedProbVector:
    """Least concentrated vector within reach: majorized by every ball member.

    Lowers the largest entries to one level and raises the smallest to
    another, moving radius/2 each way; once radius/2 covers the mass above
    1/d, the uniform vector is within reach. O(d).
    """
    center = ball.center
    if _is_point(ball):
        return center
    x = center.entries
    half = ball.radius / 2
    uniform = bottom(center.d, tol=center.tol)
    share = uniform.entries[0]
    if half >= sum(e - share for e in x if e > share):
        return uniform
    ceiling = _water_level(x, half)
    floor = -_water_level(tuple(-e for e in reversed(x)), half)  # raising the smallest lowers the largest of -x
    entries = tuple(min(max(e, floor), ceiling) for e in x)
    return _trusted(OrderedProbVector, entries=entries, tol=center.tol)


def _water_level(entries: Sequence[Scalar], half: Scalar) -> Scalar:
    """Level to which the largest of non-increasing entries drop when half is taken off them."""
    head = entries[0] * 0
    for k, e in enumerate(entries, 1):
        head += e
        level = (head - half) / k
        if k == len(entries) or entries[k] <= level:
            return level
