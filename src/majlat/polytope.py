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
from typing import Iterator, Sequence

from .core import OrderedProbVector, _check_entries, _Frozen, _trusted, bottom
from .errors import (
    DimensionTooLargeError,
    NegativeEntryError,
    NegativeRadiusError,
    NotNormalizedError,
    NotSortedError,
)
from .lattice import _members, family_inf, family_sup
from .numeric import Scalar, leq, parse_scalar, shown, solve_square

MAX_DIMENSION = 10  # vertex listing cost explodes beyond this; the bounds need no cap


def _l1(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    return sum(abs(u - v) for u, v in zip(a, b))


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
        if radius < 0:
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
    radius. Each candidate passes one check, _feasible: the ball's l1
    test, then core._check_entries, the check OrderedProbVector runs. So
    the kept vertices and their Polytope are built trusted, deduplicated
    and sorted as Polytope does it. Exact mode stays entirely in rationals.

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
    kept = [
        _trusted(OrderedProbVector, entries=c, tol=tol)
        for c in _candidates(center.entries, ball.radius, tol)
        if _feasible(c, center.entries, ball.radius, tol)
    ]
    return _trusted(Polytope, vertices=_canonical(kept, tol))


def _candidates(x0: Sequence[Scalar], eps: Scalar, tol: float) -> Iterator[tuple[Scalar, ...]]:
    """The d simplex corners, then every unique solution of the active-constraint systems."""
    d = len(x0)
    zero = x0[0] * 0
    for k in range(1, d + 1):
        yield ((zero + 1) / k,) * k + (zero,) * (d - k)

    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    pool = [(unit[i], x0[i]) for i in range(d)]  # coordinate ties with the center
    pool += [(tuple(a - b for a, b in zip(unit[i], unit[i + 1])), zero) for i in range(d - 1)]  # ordering facets
    pool.append((unit[-1], zero))  # positivity facet x_d = 0

    ones = [1] * d
    for signs in itertools.product((1, -1), repeat=d):
        if all(s == 1 for s in signs) or all(s == -1 for s in signs):
            continue
        rhs_ball = eps + sum(s * c for s, c in zip(signs, x0))
        for extra in itertools.combinations(pool, d - 2):
            matrix = [ones, signs] + [row for row, _ in extra]
            rhs = [zero + 1, rhs_ball] + [value for _, value in extra]
            solution = solve_square(matrix, rhs, tol)
            if solution is not None:
                yield tuple(solution)


def _feasible(x: Sequence[Scalar], x0: Sequence[Scalar], eps: Scalar, tol: float) -> bool:
    """x is in the ball and passes core._check_entries: sorted, non-negative, unit sum."""
    if not leq(_l1(x, x0), eps, tol * len(x0)):
        return False
    try:
        _check_entries(x, tol)
    except (NegativeEntryError, NotSortedError, NotNormalizedError):
        return False
    return True


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
