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
from fractions import Fraction
from typing import Sequence

from .core import OrderedProbVector, _Frozen, _trusted, bottom
from .errors import DimensionTooLargeError, EmptyFamilyError, NegativeRadiusError
from .lattice import _members, family_inf, family_sup
from .numeric import Scalar, geq, leq, parse_scalar, shown, solve_square

MAX_DIMENSION = 10  # vertex listing cost explodes beyond this; the bounds need no cap


def _l1(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    return sum(abs(u - v) for u, v in zip(a, b))


class Polytope(_Frozen):
    """Convex polytope given by vertices, deduplicated and canonically ordered."""

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[OrderedProbVector, ...]):
        members, tol = _members(vertices)
        if tol:
            unique: list[OrderedProbVector] = []
            for v in members:
                if not any(all(abs(a - b) <= tol for a, b in zip(v.entries, u.entries)) for u in unique):
                    unique.append(v)
        else:
            unique = list({v.entries: v for v in members}.values())
        unique.sort(key=lambda v: v.entries)
        object.__setattr__(self, "vertices", tuple(unique))


class Ball(_Frozen):
    """l1 ball around a sorted vector, implicitly clipped to the ordered simplex."""

    _fields = ("center", "radius")

    def __init__(self, center: OrderedProbVector, radius: Scalar):
        radius = parse_scalar(radius, center.is_exact)
        if radius < 0:
            raise NegativeRadiusError(f"radius must be non-negative, got {shown(radius)}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


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
    radius. Every solution is re-checked against all constraints and
    deduplicated. Exact mode stays entirely in rationals.

    The sweep solves (2^d - 2) * C(2d, d - 2) systems: 3 600 at d = 5,
    30 690 at d = 6, 252 252 at d = 7, 2 034 032 at d = 8, 128 741 340
    at d = 10. One ball took 1.4 s exact / 0.13 s float at d = 5, 17 s /
    1.5 s at d = 6 and 12.6 s float at d = 7 (2 CPUs, Python 3.11.7);
    d = 8 to 10 pass the cap untimed.

    Raises:
        DimensionTooLargeError: when the center dimension exceeds MAX_DIMENSION.
    """
    center = ball.center
    d = center.d
    if d > MAX_DIMENSION:
        raise DimensionTooLargeError(f"dimension {d} above enumeration cap {MAX_DIMENSION}")
    if _is_point(ball):
        return Polytope((center,))
    tol = center.tol
    exact = center.is_exact
    eps = ball.radius
    x0 = center.entries
    zero = x0[0] * 0
    candidates: list[tuple[Scalar, ...]] = []

    for k in range(1, d + 1):
        share = Fraction(1, k) if exact else 1.0 / k
        corner = (share,) * k + (zero,) * (d - k)
        if leq(_l1(corner, x0), eps, tol * d):
            candidates.append(corner)

    pool: list[tuple[tuple[int, ...], Scalar]] = []
    for i in range(d):  # coordinate tie with the center
        row = [0] * d
        row[i] = 1
        pool.append((tuple(row), x0[i]))
    for i in range(d - 1):  # ordering facet x_i = x_{i+1}
        row = [0] * d
        row[i] = 1
        row[i + 1] = -1
        pool.append((tuple(row), zero))
    last = [0] * d
    last[d - 1] = 1
    pool.append((tuple(last), zero))  # positivity facet x_d = 0

    ones = [1] * d
    for signs in itertools.product((1, -1), repeat=d):
        if all(s == 1 for s in signs) or all(s == -1 for s in signs):
            continue
        rhs_ball = eps + sum(s * c for s, c in zip(signs, x0))
        for extra in itertools.combinations(pool, d - 2):
            matrix = [ones, list(signs)] + [list(row) for row, _ in extra]
            rhs = [zero + 1, rhs_ball] + [value for _, value in extra]
            solution = solve_square(matrix, rhs, exact=exact, pivot_tol=0.0 if exact else tol)
            if solution is None:
                continue
            if _feasible(solution, x0, eps, tol):
                candidates.append(tuple(solution))

    if not candidates:
        raise EmptyFamilyError("vertex enumeration found nothing; ball should be non-empty")
    return Polytope(tuple(OrderedProbVector(c, tol) for c in candidates))


def _feasible(x: Sequence[Scalar], x0: Sequence[Scalar], eps: Scalar, tol: float) -> bool:
    d = len(x0)
    if not leq(_l1(x, x0), eps, tol * d):
        return False
    if any(not geq(x[i], x[i + 1], tol) for i in range(d - 1)):
        return False
    return geq(x[-1], x[0] * 0, tol)


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
