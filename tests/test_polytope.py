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

from majlat import core, polytope
from majlat.numeric import common_scale, unscale
from majlat.polytope import _candidates, _feasible, solve_square

from .oracles import (
    convex_mix,
    l1_distance,
    random_grid_vector,
    reference_ball_vertices,
    reference_facet_vertices,
    reference_feasible,
    reference_solve_square,
)
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
        for d in (1, 2, 3, 4) * 10 + (5,) * 3:
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
            tol = center.tol
            one, (*x0, eps) = common_scale(center.entries + (radius,), tol)
            for q, x in _candidates(x0, eps, one, tol):
                want = reference_feasible(unscale(x, q, tol), center.entries, radius, tol)
                assert _feasible(x, q, x0, eps, one, tol) == want
                outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_listing_formats_no_message(self, mode, monkeypatch):
        """Listing refuses candidates without building an error for them: with
        core._shown_entry, which every error message of the vector rule calls,
        made to raise, balls at d = 3 and 4 list the same vertices as before."""
        rng = random.Random(89)
        balls = []
        for d in (3, 4) * 4:
            center = random_grid_vector(rng, d, 40)
            radius = Fraction(rng.randint(1, 40), 40)
            balls.append(Ball(center, radius) if mode == "exact" else Ball(center.to_float(), float(radius)))
        want = [ball_vertices(b).vertices for b in balls]

        def refuse(*args):
            raise AssertionError("listing formatted an error message")

        monkeypatch.setattr(core, "_shown_entry", refuse)
        assert [ball_vertices(b).vertices for b in balls] == want

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_solve_square_matches_reference(self, mode, monkeypatch):
        """Every system _candidates builds for seeded balls, and random singular
        systems: exact solutions equal, float ones within d * tol, None together,
        and the given row list unchanged. The reference takes each system split
        into matrix and right-hand side, as values (Fraction(v, one) in exact
        mode), and solve_square's (q, numerators) become entries."""
        rng = random.Random(71)
        systems = []
        monkeypatch.setattr(polytope, "solve_square", lambda *system: systems.append(system))
        for d in (2, 3, 4, 5) * 2:
            center = random_grid_vector(rng, d, 40)
            radius = Fraction(rng.randint(1, 40), 40)
            if mode == "float":
                center, radius = center.to_float(), float(radius)
            one, (*x0, eps) = common_scale(center.entries + (radius,), center.tol)
            list(_candidates(x0, eps, one, center.tol))
        tol = 0 if mode == "exact" else 1e-12
        singular = []
        for _ in range(200):
            n = rng.randint(2, 5)
            matrix = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n - 1)]
            a, b, s, t = rng.randrange(n - 1), rng.randrange(n - 1), rng.randint(-1, 1), rng.randint(-1, 1)
            matrix.insert(rng.randint(0, n - 1), [s * u + t * v for u, v in zip(matrix[a], matrix[b])])
            rhs = [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(n)]
            one, numerators = common_scale(rhs if tol == 0 else [float(v) for v in rhs], tol)
            singular.append(([(*row, v) for row, v in zip(matrix, numerators)], one, tol))
        outcomes = set()
        for rows, one, tol in systems + singular:
            given = list(rows)
            solved = solve_square(rows, one, tol)
            assert rows == given
            got = None if solved is None else list(unscale(solved[1], solved[0], tol))
            matrix, rhs = [row[:-1] for row in rows], [row[-1] for row in rows]
            want = reference_solve_square(matrix, [Fraction(v, one) for v in rhs] if tol == 0 else rhs, tol)
            outcomes.add(want is None)
            if got is None or want is None or tol == 0:
                assert got == want
            else:
                assert all(abs(u - v) <= len(got) * tol for u, v in zip(got, want))
        assert all(solve_square(*system) is None for system in singular)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_listing_matches_reference_sweep(self, mode):
        """Whole listings for d = 1..5 against the sweep on entries in oracles.py, at
        radius 0, a small radius and one past the point mass: exact lists identical,
        float lists equal as sets within d * tol."""
        rng = random.Random(79)
        for d in (1, 1, 2, 2, 3, 3, 4, 4, 5):
            center = random_grid_vector(rng, d, 40)
            past_point_mass = 2 * (1 - center.entries[0]) + Fraction(rng.randint(1, 6), 40)
            for radius in (Fraction(0), Fraction(rng.randint(1, 6), 40), past_point_mass):
                c, r = (center, radius) if mode == "exact" else (center.to_float(), float(radius))
                got = [v.entries for v in ball_vertices(Ball(c, r)).vertices]
                want = reference_ball_vertices(c.entries, r, c.tol)
                if mode == "exact":
                    assert got == want
                    continue
                assert len(got) == len(want)
                near = lambda v, w: all(abs(a - b) <= d * c.tol for a, b in zip(v, w))
                assert all(any(near(v, w) for w in want) for v in got)
                assert all(any(near(v, w) for v in got) for w in want)

    def test_listing_matches_facet_enumeration(self):
        """Exact listings for d = 1..4 against reference_facet_vertices, which
        solves every choice of tight facets of the full H-representation and so
        does not share the sweep's argument that one l1 facet plus coordinate
        ties reaches every vertex: lists identical, at radius 0, k/40 and past
        the point mass."""
        rng = random.Random(83)
        for d in (1,) * 2 + (2,) * 6 + (3,) * 8 + (4,) * 2:
            center = random_grid_vector(rng, d, 40)
            past_point_mass = 2 * (1 - center.entries[0]) + Fraction(rng.randint(1, 6), 40)
            for radius in (Fraction(0), Fraction(rng.randint(1, 40), 40), past_point_mass):
                got = [v.entries for v in ball_vertices(Ball(center, radius)).vertices]
                assert got == reference_facet_vertices(center.entries, radius)

    def test_dimension_cap(self):
        center = make_vector([Fraction(1, 11)] * 11)
        with pytest.raises(DimensionTooLargeError):
            ball_vertices(Ball(center, "0.1"))

    def test_dimension_cap_admits_its_own_dimension(self, monkeypatch):
        monkeypatch.setattr(polytope, "_candidates", lambda *args: iter(()))
        center = make_vector([Fraction(1, polytope.MAX_DIMENSION)] * polytope.MAX_DIMENSION)
        assert ball_vertices(Ball(center, "0.1")).vertices == ()

    def test_negative_radius_rejected(self):
        with pytest.raises(NegativeRadiusError):
            Ball(make_vector(CENTER), "-0.1")

    def test_float_radius_within_tol_below_zero_is_the_center(self):
        center = make_vector([0.5, 0.5], tol=1e-12)
        ball = Ball(center, -center.tol / 2)
        assert steepest_approx(ball) == flattest_approx(ball) == center
        assert ball_vertices(ball).vertices == (center,)
        with pytest.raises(NegativeRadiusError):
            Ball(center, -2 * center.tol)
        with pytest.raises(NegativeRadiusError):
            Ball(make_vector(["0.5", "0.5"]), "-1/10")

    def test_radius_mode_must_match_center(self):
        with pytest.raises(ModeMismatchError):
            Ball(make_vector(CENTER), 0.15)


class TestApproximations:
    def test_zero_radius_returns_center(self):
        center = make_vector(CENTER)
        ball = Ball(center, 0)
        assert steepest_approx(ball) == center
        assert flattest_approx(ball) == center

    def test_float_radius_within_tol_is_a_point(self):
        center = make_vector(CENTER).to_float()
        ball = Ball(center, center.tol / 2)
        assert steepest_approx(ball) == center
        assert flattest_approx(ball) == center
        assert ball_vertices(ball).vertices == (center,)

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
