import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given

from majlat import (
    AlphaMinOutOfRangeError,
    AlphaOutOfRangeError,
    BlockDimensionError,
    Direction,
    EmptyInputError,
    ExtremalFamily,
    InvalidStateSpecError,
    MajOrdering,
    NegativeProbabilityError,
    NotNormalizedError,
    ResourceTheory,
    StateSpec,
    bottom,
    compare,
    family_inf,
    first_component_family,
    join,
    majorizes,
    make_vector,
    meet,
    ocr_first_component_bound,
    ocr_two_block_superposition,
    optimal_common_resource,
    state_to_vector,
    top,
    two_block_family,
)

from .oracles import grid_vectors, random_grid_vector
from .strategies import vectors

FIG_X = ["0.6", "0.16", "0.16", "0.08"]
FIG_Y = ["0.5", "0.3", "0.1", "0.1"]


class TestStateToVector:
    def test_amplitudes_drop_phases(self):
        spec = StateSpec(amplitudes=[2**-0.5, -(2**-0.5), 0.0])
        v = state_to_vector(spec, ResourceTheory.COHERENCE)
        assert v.entries == pytest.approx((0.5, 0.5, 0.0))

    def test_exact_amplitudes(self):
        spec = StateSpec(amplitudes=["1/2", "-1/2", "1/2", "1/2"])
        v = state_to_vector(spec, ResourceTheory.COHERENCE)
        assert v.entries == (Fraction(1, 4),) * 4

    def test_complex_pairs(self):
        spec = StateSpec(amplitudes=[("1/2", "1/2"), ("1/2", "-1/2")])
        v = state_to_vector(spec, ResourceTheory.COHERENCE)
        assert v.entries == (Fraction(1, 2), Fraction(1, 2))

    def test_complex_numbers(self):
        spec = StateSpec(amplitudes=[complex(0.6, 0.8)])
        v = state_to_vector(spec, ResourceTheory.COHERENCE)
        assert v.entries == pytest.approx((1.0,))

    def test_schmidt_weights_sorted(self):
        spec = StateSpec(schmidt_probs=["0.1", "0.6", "0.3"])
        v = state_to_vector(spec, ResourceTheory.ENTANGLEMENT)
        assert v.entries == (Fraction(3, 5), Fraction(3, 10), Fraction(1, 10))

    def test_uniform_spectrum(self):
        spec = StateSpec(spectrum=["0.25"] * 4)
        assert state_to_vector(spec, ResourceTheory.PURITY) == bottom(4)

    def test_kind_pairing_enforced(self):
        with pytest.raises(InvalidStateSpecError):
            state_to_vector(StateSpec(amplitudes=["1"]), ResourceTheory.PURITY)
        with pytest.raises(InvalidStateSpecError):
            state_to_vector(StateSpec(schmidt_probs=["1"]), ResourceTheory.COHERENCE)
        with pytest.raises(InvalidStateSpecError):
            state_to_vector(StateSpec(spectrum=["1"]), ResourceTheory.ENTANGLEMENT)

    @pytest.mark.parametrize("amplitude", [("1",), ("1", "0", "0")], ids=["1-tuple", "3-tuple"])
    def test_amplitude_pair_needs_two_components(self, amplitude):
        with pytest.raises(InvalidStateSpecError, match="amplitude pair needs"):
            state_to_vector(StateSpec(amplitudes=[amplitude]), ResourceTheory.COHERENCE)

    def test_exactly_one_field(self):
        with pytest.raises(InvalidStateSpecError):
            StateSpec()
        with pytest.raises(InvalidStateSpecError):
            StateSpec(amplitudes=["1"], spectrum=["1"])

    @pytest.mark.parametrize("field", ["amplitudes", "schmidt_probs", "spectrum"])
    def test_empty_data_rejected(self, field):
        with pytest.raises(EmptyInputError):
            StateSpec(**{field: []})

    def test_normalization_checked(self):
        with pytest.raises(NotNormalizedError):
            state_to_vector(StateSpec(spectrum=["0.5", "0.4"]), ResourceTheory.PURITY)

    def test_negative_probability(self):
        with pytest.raises(NegativeProbabilityError):
            state_to_vector(StateSpec(spectrum=["1.2", "-0.2"]), ResourceTheory.PURITY)


class TestOptimalCommonResource:
    def test_direction_mapping(self):
        assert ResourceTheory.PURITY.direction is Direction.DIRECT
        assert ResourceTheory.COHERENCE.direction is Direction.REVERSED
        assert ResourceTheory.ENTANGLEMENT.direction is Direction.REVERSED

    def test_reversed_theories_take_infimum(self):
        x, y = make_vector(FIG_X), make_vector(FIG_Y)
        expected = meet(x, y)
        assert optimal_common_resource([x, y], ResourceTheory.COHERENCE) == expected
        assert optimal_common_resource([x, y], ResourceTheory.ENTANGLEMENT) == expected

    def test_direct_theory_takes_supremum(self):
        x, y = make_vector(FIG_X), make_vector(FIG_Y)
        assert optimal_common_resource([x, y], ResourceTheory.PURITY) == join(x, y)

    @given(vectors())
    def test_singleton_target(self, v):
        for theory in ResourceTheory:
            assert optimal_common_resource([v], theory) == v

    @given(vectors())
    def test_uniform_vector_reaches_every_coherence_target(self, v):
        # the maximally coherent state maps to the uniform vector, which
        # every target majorizes
        assert majorizes(v, bottom(v.d))

    def test_ocr_bounds_targets(self):
        rng = random.Random(3)
        targets = [random_grid_vector(rng, 4, 30) for _ in range(3)]
        low = optimal_common_resource(targets, ResourceTheory.COHERENCE)
        high = optimal_common_resource(targets, ResourceTheory.PURITY)
        for t in targets:
            assert majorizes(t, low)
            assert majorizes(high, t)

    def test_small_scale_optimality(self):
        rng = random.Random(5)
        grid = list(grid_vectors(3, 10))
        for _ in range(5):
            targets = [random_grid_vector(rng, 3, 10) for _ in range(2)]
            ocr = optimal_common_resource(targets, ResourceTheory.COHERENCE)
            for z in grid:
                if all(majorizes(t, z) for t in targets):
                    assert majorizes(ocr, z)


def _assert_maps(family, lower, upper):
    """The family's maps equal the paper's explicit S_k: exactly, or within d*tol in float mode.

    The maps also pass the public ExtremalFamily constructor's checks.
    """
    assert (len(family.lower), len(family.upper)) == (len(lower), len(upper)) == (family.d + 1,) * 2
    if family.tol == 0:
        assert family.lower == tuple(lower) and family.upper == tuple(upper)
    else:
        for got, want in zip(family.lower + family.upper, lower + upper):
            assert abs(got - float(want)) <= family.d * family.tol
    assert ExtremalFamily(family.d, family.lower, family.upper, family.tol) == family


class TestFirstComponentBound:
    def test_paper_formula_instance(self):
        got = ocr_first_component_bound(Fraction(4, 5), 4)
        assert got.entries == (Fraction(16, 25), Fraction(3, 25), Fraction(3, 25), Fraction(3, 25))

    def test_alpha_one_gives_point_mass(self):
        assert ocr_first_component_bound(1, 5) == top(5)

    def test_extremal_route_agrees(self):
        for alpha, d in [(Fraction(4, 5), 4), (Fraction(3, 4), 3), (Fraction(9, 10), 6)]:
            closed = ocr_first_component_bound(alpha, d)
            family = first_component_family(alpha, d)
            assert family_inf(family) == closed
            assert family == two_block_family(1, d, alpha**2)
            a2 = alpha**2
            lower = [0] + [a2 + (k - 1) * (1 - a2) / (d - 1) for k in range(1, d + 1)]
            upper = [0] + [1] * d
            _assert_maps(family, lower, upper)
            _assert_maps(first_component_family(float(alpha), d), lower, upper)

    def test_grid_sampling_converges_from_above(self):
        alpha_sq = Fraction(1, 2)
        d = 3
        closed = make_vector([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        previous_gap = None
        for step in [Fraction(1, 10), Fraction(1, 100)]:
            members = []
            a = alpha_sq + step
            while a < 1:
                tail = (1 - a) / (d - 1)
                members.append(make_vector([a] + [tail] * (d - 1)))
                a += step
            members.append(top(d))
            sampled = family_inf(members)
            assert majorizes(sampled, closed)
            gap = max(
                sa - sc
                for sa, sc in zip(sampled.prefix_sums(), closed.prefix_sums())
            )
            assert gap <= step
            if previous_gap is not None:
                assert gap <= previous_gap
            previous_gap = gap

    def test_alpha_range_enforced(self):
        with pytest.raises(AlphaOutOfRangeError):
            ocr_first_component_bound(Fraction(1, 2), 4)  # alpha^2 == 1/4 not > 1/4
        with pytest.raises(AlphaOutOfRangeError):
            ocr_first_component_bound(Fraction(11, 10), 4)
        with pytest.raises(AlphaOutOfRangeError):
            ocr_first_component_bound(Fraction(-3, 4), 4)
        with pytest.raises(AlphaOutOfRangeError):
            ocr_first_component_bound(1, 1)  # needs alpha > 1 in dimension 1

    def test_float_alpha_squared_within_tol_above_one_over_d_refused(self):
        with pytest.raises(AlphaOutOfRangeError):
            ocr_first_component_bound(math.sqrt(1 / 4 + 0.5e-12), 4, tol=1e-12)

    @pytest.mark.parametrize("alpha", [1 + 0.5e-12, "1.0000000000005"], ids=["float", "string"])
    @pytest.mark.parametrize("helper", [ocr_first_component_bound, first_component_family])
    def test_alpha_within_tol_above_one_at_d_1(self, helper, alpha):
        """An alpha accepted within tol above 1 is 1, so at d = 1 it is out of range too,
        and the message shows the alpha as given."""
        with pytest.raises(AlphaOutOfRangeError, match=re.escape("got 1.0000000000005")):
            helper(alpha, 1, tol=1e-12)


class TestTwoBlockSuperposition:
    def test_paper_formula_instance(self):
        got = ocr_two_block_superposition(2, 4, "0.6")
        assert got.entries == (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5))

    def test_near_uniform_limit(self):
        d1, d = 2, 4
        got = ocr_two_block_superposition(d1, d, Fraction(1, 2) + Fraction(1, 1000))
        for entry in got.entries:
            assert abs(entry - Fraction(1, d)) <= Fraction(1, 1000)

    def test_single_block_matches_first_component_bound(self):
        got = ocr_two_block_superposition(1, 3, "0.5")
        assert got.entries == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        float_route = ocr_first_component_bound(math.sqrt(0.5), 3)
        assert float_route.entries == pytest.approx([float(e) for e in got.entries])

    def test_extremal_route_agrees(self):
        for d1, d, q in [(2, 4, Fraction(3, 5)), (1, 3, Fraction(1, 2)), (3, 7, Fraction(4, 5)), (10, 13, Fraction(7, 9))]:
            closed = ocr_two_block_superposition(d1, d, q)
            family = two_block_family(d1, d, q)
            assert family_inf(family) == closed
            lower = [k * q / d1 if k <= d1 else q + (k - d1) * (1 - q) / (d - d1) for k in range(d + 1)]
            upper = [min(Fraction(k, d1), 1) for k in range(d + 1)]
            _assert_maps(family, lower, upper)
            _assert_maps(two_block_family(d1, d, float(q)), lower, upper)

    def test_grid_sampling_recovers_closed_form(self):
        d1, d, q = 2, 5, Fraction(13, 20)
        closed = ocr_two_block_superposition(d1, d, q)
        members = []
        a = q
        while a <= 1:
            head, tail = a / d1, (1 - a) / (d - d1)
            members.append(make_vector([head] * d1 + [tail] * (d - d1), sort=True))
            a += Fraction(1, 50)
        assert family_inf(members) == closed

    def test_block_dimensions_enforced(self):
        with pytest.raises(BlockDimensionError):
            ocr_two_block_superposition(0, 4, "0.5")
        with pytest.raises(BlockDimensionError):
            ocr_two_block_superposition(4, 4, "0.9")
        for build in (ocr_two_block_superposition, two_block_family):
            for d1, d in ((1.0, 4), (True, 4), (1, 1.0), (1, True)):
                with pytest.raises(BlockDimensionError, match="block sizes must be integers"):
                    build(d1, d, "0.5")

    def test_alpha_min_range_enforced(self):
        with pytest.raises(AlphaMinOutOfRangeError):
            ocr_two_block_superposition(2, 4, "0.5")  # equals d1/d, needs strict
        with pytest.raises(AlphaMinOutOfRangeError):
            ocr_two_block_superposition(2, 4, "1.1")


@given(vectors(min_d=2))
def test_ocr_of_family_with_bottom_is_bottom(v):
    fam = [v, bottom(v.d)]
    assert optimal_common_resource(fam, ResourceTheory.COHERENCE) == bottom(v.d)
    result = compare(optimal_common_resource(fam, ResourceTheory.PURITY), v)
    assert result in (MajOrdering.EQUAL, MajOrdering.MAJORIZES)


def test_parameters_within_tolerance_above_one_count_as_one():
    above = 1 + 9e-13  # accepted by the range checks at tol=1e-12
    point_mass = (1.0, 0.0)
    assert ocr_first_component_bound(above, 2, tol=1e-12).entries == point_mass
    assert family_inf(first_component_family(above, 2, tol=1e-12)).entries == point_mass
    assert ocr_two_block_superposition(1, 2, above, tol=1e-12).entries == point_mass
    assert family_inf(two_block_family(1, 2, above, tol=1e-12)).entries == point_mass
