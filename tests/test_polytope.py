import random
from fractions import Fraction

import pytest
from hypothesis import given

from majlat import (
    Ball,
    DimensionTooLargeError,
    EmptyFamilyError,
    ModeMismatchError,
    NegativeRadiusError,
    Polytope,
    ball_vertices,
    family_inf,
    family_sup,
    flattest_approx,
    majorizes,
    make_vector,
    polytope_inf,
    polytope_sup,
    steepest_approx,
)

from majlat.polytope import _candidates, _feasible

from .oracles import convex_mix, l1_distance, random_grid_vector, reference_feasible
from .strategies import vector_families, vectors

CENTER = ["0.525", "0.35", "0.125"]


class TestPolytope:
    def test_segment_example(self):
        hull = Polytope((make_vector(["0.5", "0.4", "0.1"]),
                         make_vector(["0.55", "0.3", "0.15"])))
        assert polytope_inf(hull).entries == (Fraction(1, 2), Fraction(7, 20), Fraction(3, 20))
        assert polytope_sup(hull).entries == (Fraction(11, 20), Fraction(7, 20), Fraction(1, 10))

    @given(vectors())
    def test_single_vertex(self, v):
        hull = Polytope((v,))
        assert polytope_inf(hull) == v
        assert polytope_sup(hull) == v

    def test_deduplication_and_canonical_order(self):
        a = make_vector(["0.5", "0.4", "0.1"])
        b = make_vector(["0.55", "0.3", "0.15"])
        assert Polytope((a, b, a)).vertices == Polytope((b, a)).vertices

    @given(vector_families(min_size=2, max_size=4))
    def test_redundant_vertex_changes_nothing(self, members):
        hull = Polytope(members)
        weights = [Fraction(1, len(members))] * len(members)
        padded = Polytope(members + (convex_mix(members, weights),))
        assert polytope_inf(hull) == polytope_inf(padded)
        assert polytope_sup(hull) == polytope_sup(padded)

    def test_sampled_hull_points_are_bounded(self):
        rng = random.Random(11)
        members = tuple(random_grid_vector(rng, 4, 24) for _ in range(4))
        hull = Polytope(members)
        low, high = polytope_inf(hull), polytope_sup(hull)
        for _ in range(1000):
            weights = [Fraction(rng.randint(0, 8)) for _ in members]
            if sum(weights) == 0:
                continue
            point = convex_mix(members, weights)
            assert majorizes(point, low)
            assert majorizes(high, point)

    def test_empty_rejected(self):
        with pytest.raises(EmptyFamilyError):
            Polytope(())


class TestBallVertices:
    def test_known_ball(self):
        hull = ball_vertices(Ball(make_vector(CENTER), "0.15"))
        assert flattest_approx(Ball(make_vector(CENTER), "0.15")).entries == (
            Fraction(9, 20), Fraction(7, 20), Fraction(1, 5))
        assert steepest_approx(Ball(make_vector(CENTER), "0.15")).entries == (
            Fraction(3, 5), Fraction(7, 20), Fraction(1, 20))
        expected_extremes = {
            (Fraction(9, 20), Fraction(7, 20), Fraction(1, 5)),
            (Fraction(3, 5), Fraction(7, 20), Fraction(1, 20)),
        }
        assert expected_extremes <= {v.entries for v in hull.vertices}

    def test_zero_radius_degenerates(self):
        center = make_vector(CENTER)
        assert ball_vertices(Ball(center, 0)).vertices == (center,)

    def test_dimension_two_closed_form(self):
        center = make_vector(["0.7", "0.3"])
        hull = ball_vertices(Ball(center, "0.2"))
        assert {v.entries for v in hull.vertices} == {
            (Fraction(4, 5), Fraction(1, 5)), (Fraction(3, 5), Fraction(2, 5))}
        clipped = ball_vertices(Ball(center, "0.5"))
        assert {v.entries for v in clipped.vertices} == {
            (Fraction(19, 20), Fraction(1, 20)), (Fraction(1, 2), Fraction(1, 2))}

    def test_dimension_one(self):
        one = make_vector(["1"])
        assert ball_vertices(Ball(one, "0.3")).vertices == (one,)

    def test_huge_radius_gives_simplex_corners(self):
        hull = ball_vertices(Ball(make_vector(CENTER), "5"))
        assert {v.entries for v in hull.vertices} == {
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        }

    def test_every_vertex_sits_on_a_facet(self):
        rng = random.Random(23)
        for _ in range(15):
            center = random_grid_vector(rng, 3, 40)
            eps = Fraction(rng.randint(1, 10), 40)
            ball = Ball(center, eps)
            for v in ball_vertices(ball).vertices:
                on_ball = l1_distance(v, center) == eps
                on_ordering = any(v.entries[i] == v.entries[i + 1] for i in range(v.d - 1))
                on_positivity = v.entries[-1] == 0
                assert on_ball or on_ordering or on_positivity

    def test_vertices_stay_feasible(self):
        rng = random.Random(29)
        for _ in range(10):
            center = random_grid_vector(rng, 4, 40)
            eps = Fraction(rng.randint(1, 12), 40)
            for v in ball_vertices(Ball(center, eps)).vertices:
                assert l1_distance(v, center) <= eps

    def test_float_listing_matches_exact_listing(self):
        rng = random.Random(59)
        for d in (1, 2, 3, 4) * 10:
            center = random_grid_vector(rng, d, 40)
            radius = Fraction(rng.randint(1, 40), 40)
            exact = ball_vertices(Ball(center, radius)).vertices
            approx = ball_vertices(Ball(center.to_float(), float(radius))).vertices
            assert len(approx) == len(exact)
            near = lambda v, w: all(abs(float(a) - b) <= d * w.tol for a, b in zip(v.entries, w.entries))
            assert all(any(near(v, w) for w in approx) for v in exact)
            assert all(any(near(v, w) for v in exact) for w in approx)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_feasible_matches_reference(self, mode):
        rng = random.Random(67)
        outcomes = set()
        for d in (2, 3, 4) * 4:
            center = random_grid_vector(rng, d, 40)
            radius = Fraction(rng.randint(1, 40), 40)
            if mode == "float":
                center, radius = center.to_float(), float(radius)
            x0, tol = center.entries, center.tol
            for c in _candidates(x0, radius, tol):
                want = reference_feasible(c, x0, radius, tol)
                assert _feasible(c, x0, radius, tol) == want
                outcomes.add(want)
        assert outcomes == {True, False}

    def test_dimension_cap(self):
        center = make_vector([Fraction(1, 11)] * 11)
        with pytest.raises(DimensionTooLargeError):
            ball_vertices(Ball(center, "0.1"))

    def test_negative_radius_rejected(self):
        with pytest.raises(NegativeRadiusError):
            Ball(make_vector(CENTER), "-0.1")

    def test_radius_mode_must_match_center(self):
        with pytest.raises(ModeMismatchError):
            Ball(make_vector(CENTER), 0.15)


class TestApproximations:
    def test_zero_radius_returns_center(self):
        center = make_vector(CENTER)
        ball = Ball(center, 0)
        assert steepest_approx(ball) == center
        assert flattest_approx(ball) == center

    def test_sandwich_on_sampled_members(self):
        rng = random.Random(37)
        for _ in range(5):
            center = random_grid_vector(rng, 3, 40)
            eps = Fraction(rng.randint(2, 10), 40)
            ball = Ball(center, eps)
            high, low = steepest_approx(ball), flattest_approx(ball)
            accepted = 0
            while accepted < 50:
                noise = [rng.randint(-20, 20) for _ in range(2)]
                noise.append(-sum(noise))
                if max(abs(n) for n in noise) > 20 or sum(abs(n) for n in noise) > 40:
                    continue
                candidate = [c + n * eps / 40 for c, n in zip(center.entries, noise)]
                if any(a < b for a, b in zip(candidate, candidate[1:])) or candidate[-1] < 0:
                    continue
                member = make_vector(candidate)
                accepted += 1
                assert majorizes(high, member)
                assert majorizes(member, low)

    def test_nesting_in_radius(self):
        rng = random.Random(41)
        for _ in range(5):
            center = random_grid_vector(rng, 4, 40)
            small = Ball(center, Fraction(1, 20))
            large = Ball(center, Fraction(3, 20))
            assert majorizes(flattest_approx(small), flattest_approx(large))
            assert majorizes(steepest_approx(large), steepest_approx(small))


# Centers with tied entries, with radii a few float tolerances wide: the balls
# where a float listing is most likely to drop candidates as duplicates.
TIED_CENTERS = {
    2: [["1/2", "1/2"]],
    3: [["1/3", "1/3", "1/3"], ["2/5", "2/5", "1/5"], ["1/2", "1/4", "1/4"]],
    4: [["1/4"] * 4, ["3/10", "3/10", "1/5", "1/5"], ["1/3", "1/3", "1/3", "0"]],
}
TINY_RADII = [Fraction(2, 10**12), Fraction(5, 10**12), Fraction(1, 10**11)]


class TestClosedFormsMatchVertexFold:
    """The O(d) bounds against the fold over every enumerated ball vertex.

    Each bound is a ball member that majorizes, or is majorized by, every
    other member, so it is itself one of the listed vertices.
    """

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_bounds_match_vertex_fold(self, d, mode):
        center = random_grid_vector(random.Random(d), d, 40)
        share = Fraction(1, d)
        to_point_mass = 2 * (1 - center.entries[0])
        to_uniform = 2 * sum(e - share for e in center.entries if e > share)
        radii = [Fraction(0), Fraction(1, 20), to_point_mass + Fraction(1, 10), to_uniform + Fraction(1, 10)]
        balls = [(center, radius) for radius in radii]
        balls += [(make_vector(tied), radius) for tied in TIED_CENTERS.get(d, []) for radius in TINY_RADII]
        for center, radius in balls:
            if mode == "float":
                center, radius = center.to_float(), float(radius)
            ball = Ball(center, radius)
            hull = ball_vertices(ball)
            pairs = [(steepest_approx(ball), family_sup(hull.vertices)),
                     (flattest_approx(ball), family_inf(hull.vertices))]
            for got, want in pairs:
                assert same_within_tol(got, want)
                assert any(same_within_tol(got, vertex) for vertex in hull.vertices)


def same_within_tol(x, y):
    """Equal entries in exact mode; within d * tol per entry in float mode."""
    if x.is_exact:
        return x.entries == y.entries
    return all(abs(a - b) <= x.d * x.tol for a, b in zip(x.entries, y.entries))
