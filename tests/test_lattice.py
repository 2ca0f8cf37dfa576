import random
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from majlat import (
    Ball,
    DimensionMismatchError,
    EmptyFamilyError,
    ExtremalFamily,
    InvalidExtremalError,
    LorenzCurve,
    ModeMismatchError,
    OrderedProbVector,
    Polytope,
    ResourceTheory,
    ball_vertices,
    bottom,
    compare,
    curve_to_vector,
    family_inf,
    family_sup,
    flattest_approx,
    join,
    majorizes,
    make_vector,
    meet,
    optimal_common_resource,
    partial_sums,
    polytope_inf,
    polytope_sup,
    steepest_approx,
    top,
)
from majlat.core import MajOrdering
from majlat.lattice import _flatten, _upper_envelope
from majlat.numeric import cumulative_sums

from .oracles import chord_envelope, grid_vectors, random_grid_vector
from .strategies import monotone_profiles, vector_families, vector_pairs, vector_triples, vectors

FIG_X = ["0.6", "0.16", "0.16", "0.08"]
FIG_Y = ["0.5", "0.3", "0.1", "0.1"]


def exact(*values):
    return [Fraction(v) for v in values]


class TestMeetJoin:
    def test_known_meet(self):
        got = meet(make_vector(FIG_X), make_vector(FIG_Y))
        assert got.entries == (Fraction(1, 2), Fraction(13, 50), Fraction(7, 50), Fraction(1, 10))

    def test_known_join(self):
        got = join(make_vector(FIG_X), make_vector(FIG_Y))
        assert got.entries == (Fraction(3, 5), Fraction(1, 5), Fraction(3, 25), Fraction(2, 25))

    def test_join_with_unsorted_raw_differences(self):
        x = make_vector(["0.3", "0.3", "0.3", "0.1"])
        y = make_vector(["0.48", "0.2", "0.17", "0.15"])
        expected = (Fraction(12, 25), Fraction(21, 100), Fraction(21, 100), Fraction(1, 10))
        assert join(x, y).entries == expected
        assert family_sup((x, y)).entries == expected

    @given(vectors())
    def test_idempotent(self, v):
        assert meet(v, v) == v
        assert join(v, v) == v

    @given(vectors())
    def test_absorption_with_extremes(self, v):
        assert meet(top(v.d), v) == v
        assert join(bottom(v.d), v) == v

    @given(vector_pairs())
    def test_commutative(self, pair):
        x, y = pair
        assert meet(x, y) == meet(y, x)
        assert join(x, y) == join(y, x)

    @given(vector_triples())
    def test_associative(self, triple):
        x, y, z = triple
        assert meet(meet(x, y), z) == meet(x, meet(y, z))
        assert join(join(x, y), z) == join(x, join(y, z))

    @given(vector_pairs())
    def test_absorption_laws(self, pair):
        x, y = pair
        assert join(x, meet(x, y)) == x
        assert meet(x, join(x, y)) == x

    @given(vector_pairs())
    def test_bounds(self, pair):
        x, y = pair
        low, high = meet(x, y), join(x, y)
        assert majorizes(x, low) and majorizes(y, low)
        assert majorizes(high, x) and majorizes(high, y)

    @given(vector_pairs())
    def test_join_routes_agree(self, pair):
        x, y = pair
        assert join(x, y) == family_sup((x, y))

    def test_join_on_long_pooled_run(self):
        # the max-prefix-sum differences pool into long blocks one value at a time
        d = 400
        x = make_vector([Fraction(1, 2)] + [Fraction(1, 2 * (d - 1))] * (d - 1))
        y = make_vector([Fraction(2 * (d - k), d * (d + 1)) for k in range(d)])
        start = time.perf_counter()
        got = join(x, y)
        elapsed = time.perf_counter() - start
        assert got == family_sup((x, y))
        assert elapsed < 0.5

    def test_optimality_against_grid(self):
        rng = random.Random(7)
        grid = list(grid_vectors(3, 10))
        for _ in range(10):
            x = random_grid_vector(rng, 3, 10)
            y = random_grid_vector(rng, 3, 10)
            low, high = meet(x, y), join(x, y)
            for z in grid:
                if majorizes(x, z) and majorizes(y, z):
                    assert majorizes(low, z)
                if majorizes(z, x) and majorizes(z, y):
                    assert majorizes(z, high)


class TestFlatten:
    def test_single_block_average(self):
        got = _flatten(exact("0.48", "0.2", "0.22", "0.1"), 0.0)
        assert got == (Fraction(12, 25), Fraction(21, 100), Fraction(21, 100), Fraction(1, 10))

    def test_sorted_input_unchanged(self):
        assert _flatten(exact("0.5", "0.3", "0.2"), 0.0) == (
            Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))

    def test_forced_averaging_in_dimension_two(self):
        assert _flatten(exact("0.2", "0.8"), 0.0) == (Fraction(1, 2), Fraction(1, 2))

    def test_agrees_with_envelope_oracle(self):
        raw = [Fraction(12, 25), Fraction(1, 5), Fraction(11, 50), Fraction(1, 10)]
        oracle = chord_envelope(cumulative_sums(raw))
        assert cumulative_sums(_flatten(raw, 0.0)) == oracle


class TestUpperEnvelope:
    def test_known_envelope(self):
        envelope = _upper_envelope(exact("0", "0.48", "0.68", "0.9", "1"), 0.0)
        assert envelope[2] == Fraction(69, 100)

    def test_strictly_concave_input_untouched(self):
        envelope = _upper_envelope(exact("0", "0.5", "0.8", "1"), 0.0)
        assert envelope == (0, Fraction(1, 2), Fraction(4, 5), 1)

    def test_collinear_run_skips_interior_points(self):
        # the last-maximum-slope rule jumps over collinear points; the
        # interpolation still reproduces them on concave input
        envelope = _upper_envelope(exact(0, "1/4", "1/2", "3/4", 1), 0.0)
        assert envelope == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)

    def test_plateau_with_tie_free_max_slope(self):
        envelope = _upper_envelope(exact(0, "0.5", "0.5", "0.5", "1"), 0.0)
        assert curve_to_vector(envelope).entries == (
            Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))

    @given(monotone_profiles())
    def test_matches_chord_oracle(self, values):
        oracle = chord_envelope(values)
        assert _upper_envelope(values, 0.0) == oracle
        differences = [b - a for a, b in zip(values, values[1:])]
        assert cumulative_sums(_flatten(differences, 0.0)) == oracle

    @given(monotone_profiles(max_d=5))
    def test_minimality_over_grid_majorants(self, values):
        envelope = _upper_envelope(values, 0.0)
        d = len(values) - 1
        for g in grid_vectors(d, 12):
            curve = partial_sums(g).values
            if all(a >= b for a, b in zip(curve, values)):
                assert all(a >= b for a, b in zip(curve, envelope))


class TestFamilies:
    def test_two_member_family_matches_pairwise(self):
        x, y = make_vector(FIG_X), make_vector(FIG_Y)
        family = (x, y)
        assert family_inf(family) == meet(x, y)
        assert family_sup(family) == join(x, y)

    def test_segment_vertices_example(self):
        family = (make_vector(["0.5", "0.4", "0.1"]), make_vector(["0.55", "0.3", "0.15"]))
        assert family_inf(family).entries == (Fraction(1, 2), Fraction(7, 20), Fraction(3, 20))
        assert family_sup(family).entries == (Fraction(11, 20), Fraction(7, 20), Fraction(1, 10))

    @given(vectors())
    def test_singleton(self, v):
        assert family_inf((v,)) == v
        assert family_sup((v,)) == v

    @given(vector_families(min_size=2, max_size=4))
    def test_family_bounds_members(self, members):
        low = family_inf(members)
        high = family_sup(members)
        for m in members:
            assert majorizes(m, low)
            assert majorizes(high, m)

    @given(vector_families(min_size=2, max_size=4))
    def test_adding_a_member_is_monotone(self, members):
        smaller = members[:-1]
        larger = members
        assert majorizes(family_inf(smaller), family_inf(larger))
        assert majorizes(family_sup(larger), family_sup(smaller))

    @given(vector_families(min_size=2, max_size=4))
    def test_matches_iterated_pairwise(self, members):
        low = members[0]
        high = members[0]
        for m in members[1:]:
            low, high = meet(low, m), join(high, m)
        assert family_inf(members) == low
        assert family_sup(members) == high

    def test_empty_family_rejected(self):
        for build in (family_inf, family_sup, Polytope):
            with pytest.raises(EmptyFamilyError):
                build(())

    def test_member_clash_rejected(self):
        clashes = [((top(3), top(4)), DimensionMismatchError), ((top(3), top(3).to_float()), ModeMismatchError)]
        for members, error in clashes:
            for build in (family_inf, family_sup, Polytope, lambda m: meet(*m), lambda m: join(*m),
                          lambda m: optimal_common_resource(m, ResourceTheory.COHERENCE)):
                with pytest.raises(error):
                    build(members)

    def test_uniform_extremal_lower_bound(self):
        d = 4
        lower = tuple(Fraction(k, d) for k in range(d + 1))
        upper = (Fraction(0),) + (Fraction(1),) * d
        family = ExtremalFamily(d, lower, upper)
        assert family_inf(family) == bottom(d)
        assert family_sup(family) == top(d)

    def test_extremal_validation(self):
        good = tuple(Fraction(k, 3) for k in range(4))
        ones = (Fraction(0), Fraction(1), Fraction(1), Fraction(1))
        with pytest.raises(InvalidExtremalError):  # endpoint
            ExtremalFamily(3, (Fraction(1, 10),) + good[1:], ones)
        with pytest.raises(InvalidExtremalError):  # length
            ExtremalFamily(3, good[:-1], ones)
        with pytest.raises(InvalidExtremalError):  # lower above upper
            ExtremalFamily(3, ones, good)
        with pytest.raises(InvalidExtremalError):  # below the uniform curve, so not concave
            ExtremalFamily(3, (0, Fraction(1, 10), Fraction(2, 3), 1), ones)
        with pytest.raises(InvalidExtremalError):  # non-monotone upper
            ExtremalFamily(3, good, (0, Fraction(2, 3), Fraction(1, 2), 1))

    def test_non_concave_lower_map_rejected_at_inf(self):
        # monotone and above the uniform curve, yet no family of Lorenz
        # curves can have these per-index infima; the family is rejected
        # where it is built
        with pytest.raises(InvalidExtremalError):
            ExtremalFamily(3, (0, Fraction(1, 2), Fraction(7, 10), 1), (Fraction(0),) + (Fraction(1),) * 3)

    def test_family_accepts_plain_sequences(self):
        x, y = make_vector(FIG_X), make_vector(FIG_Y)
        assert family_inf([x, y]) == meet(x, y)


@given(vector_pairs())
def test_meet_join_comparable_pairs_reduce_to_min_max(pair):
    x, y = pair
    if compare(x, y) is MajOrdering.MAJORIZES:
        assert meet(x, y) == y
        assert join(x, y) == x


REPAIRED_JOIN = (make_vector(["0.3", "0.3", "0.3", "0.1"]), make_vector(["0.48", "0.2", "0.17", "0.15"]))


@given(vector_families(min_size=1, max_size=4), st.booleans())
@example(REPAIRED_JOIN, True)
@example(REPAIRED_JOIN, False)
def test_kernel_outputs_pass_the_public_checks(members, exact_mode):
    tol = None if exact_mode else 1e-12
    if not exact_mode:
        members = tuple(m.to_float(tol) for m in members)
    d = members[0].d
    hull = Polytope(members)
    outputs = [op(x, y) for op in (meet, join) for x in members for y in members] + [
        family_inf(members), family_sup(members),
        polytope_inf(hull), polytope_sup(hull),
        top(d, tol=tol), bottom(d, tol=tol),
    ]
    for out in outputs:
        assert OrderedProbVector(out.entries, out.tol) == out
        curve = partial_sums(out)
        assert LorenzCurve(curve.values, curve.tol) == curve
        if exact_mode:  # float differencing of the sums need not round-trip
            assert curve_to_vector(curve) == out


@pytest.mark.parametrize("exact_mode", [True, False], ids=["exact", "float"])
def test_ball_listing_passes_the_public_checks(exact_mode):
    rng = random.Random(53)
    for d in (1, 2, 3, 4) * 4:
        center = random_grid_vector(rng, d, 40)
        radius = Fraction(rng.randint(1, 40), 40)
        if not exact_mode:
            center, radius = center.to_float(), float(radius)
        hull = ball_vertices(Ball(center, radius))
        for v in hull.vertices:
            assert OrderedProbVector(v.entries, v.tol) == v
        assert Polytope(hull.vertices) == hull


@given(vector_families(max_d=32, max_size=6), st.fractions(min_value=0, max_value=2, max_denominator=60))
def test_float_mode_agrees_with_exact_mode(members, radius):
    floats = tuple(m.to_float() for m in members)
    x, y, fx, fy = members[0], members[-1], floats[0], floats[-1]
    pairs = [
        (meet(x, y), meet(fx, fy)),
        (join(x, y), join(fx, fy)),
        (family_inf(members), family_inf(floats)),
        (family_sup(members), family_sup(floats)),
        (steepest_approx(Ball(x, radius)), steepest_approx(Ball(fx, float(radius)))),
        (flattest_approx(Ball(x, radius)), flattest_approx(Ball(fx, float(radius)))),
    ]
    for exact, approx in pairs:
        assert exact.is_exact and not approx.is_exact and approx.d == exact.d
        for e, f in zip(exact.entries, approx.entries):
            assert abs(f - float(e)) <= approx.d * approx.tol
