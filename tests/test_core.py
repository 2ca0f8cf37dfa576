import math
import re
from fractions import Fraction
from types import ModuleType

import hypothesis.strategies as st
import pytest
from hypothesis import given

import majlat.errors
from majlat import (
    BadEndpointsError,
    DimensionMismatchError,
    EmptyInputError,
    ExtremalFamily,
    InvalidExtremalError,
    LorenzCurve,
    MajOrdering,
    ModeMismatchError,
    NegativeEntryError,
    NotConcaveError,
    NotMonotoneError,
    NotNormalizedError,
    NotSortedError,
    OrderedProbVector,
    ParseError,
    ZeroDimensionError,
    bottom,
    compare,
    curve_to_vector,
    majorizes,
    make_vector,
    partial_sums,
    top,
)
from majlat.numeric import parse_scalar, scalar_str

from .strategies import vector_pairs, vector_triples, vectors

FIG_X = ["0.6", "0.16", "0.16", "0.08"]
FIG_Y = ["0.5", "0.3", "0.1", "0.1"]


class TestMakeVector:
    def test_sorted_input_accepted(self):
        v = make_vector(["0.5", "0.3", "0.2"])
        assert v.entries == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
        assert v.is_exact

    def test_sort_flag_reorders(self):
        v = make_vector(["0.2", "0.5", "0.3"], sort=True)
        assert v.entries == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))

    def test_unsorted_rejected_without_flag(self):
        with pytest.raises(NotSortedError):
            make_vector(["0.2", "0.5", "0.3"])

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            make_vector(["0.5", "0.3", "0.1"])

    def test_normalize_flag(self):
        v = make_vector(["0.5", "0.3", "0.1"], normalize=True)
        assert v.entries == (Fraction(5, 9), Fraction(3, 9), Fraction(1, 9))

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntryError):
            make_vector(["0.5", "0.7", "-0.2"], sort=True)

    def test_empty_rejected(self):
        # The constructor builds through make_vector, so both doors say the same.
        for build in (make_vector, OrderedProbVector):
            for raw in ([], iter(())):
                with pytest.raises(EmptyInputError, match="no entries given"):
                    build(raw)

    def test_zero_sum_normalize_rejected(self):
        with pytest.raises(NotNormalizedError):
            make_vector([0, 0], normalize=True)
        with pytest.raises(NotNormalizedError, match="cannot normalize entries that sum to inf"):
            make_vector([1e308, 1e308], normalize=True)  # a float sum that overflows

    def test_mixed_modes_rejected(self):
        with pytest.raises(ModeMismatchError):
            make_vector([0.5, Fraction(1, 2)])

    def test_float_mode_inferred(self):
        v = make_vector([0.5, 0.3, 0.2])
        assert not v.is_exact
        assert v.tol == 1e-12

    def test_explicit_float_tolerance(self):
        v = make_vector(["0.5", "0.5"], tol=1e-9)
        assert v.entries == (0.5, 0.5)
        assert v.tol == 1e-9

    def test_decimal_strings_round_trip(self):
        text = "0.123456789"
        v = make_vector(["0.876543211", text])
        assert v.entries[1] == Fraction(123456789, 10**9)
        assert scalar_str(v.entries[1]) == text


class TestTopBottom:
    def test_top(self):
        assert top(4).entries == (1, 0, 0, 0)

    def test_bottom(self):
        assert bottom(4).entries == (Fraction(1, 4),) * 4

    def test_dimension_one_collapse(self):
        assert top(1) == bottom(1) == OrderedProbVector(x for x in ("1",))
        assert top(1).entries == (1,)

    @pytest.mark.parametrize("d", [0, -2, 1.5])
    def test_bad_dimension(self, d):
        with pytest.raises(ZeroDimensionError):
            top(d)
        with pytest.raises(ZeroDimensionError):
            bottom(d)


class TestLorenzCurve:
    def test_partial_sums_example(self):
        curve = partial_sums(make_vector(FIG_X))
        assert curve.values == (0, Fraction(3, 5), Fraction(19, 25), Fraction(23, 25), 1)

    def test_partial_sums_top(self):
        assert partial_sums(top(4)).values == (0, 1, 1, 1, 1)

    def test_partial_sums_uniform(self):
        assert partial_sums(bottom(3)).values == (0, Fraction(1, 3), Fraction(2, 3), 1)

    def test_curve_to_vector_differences(self):
        v = curve_to_vector(["0", "0.5", "0.85", "1"])
        assert v.entries == (Fraction(1, 2), Fraction(7, 20), Fraction(3, 20))
        assert curve_to_vector(LorenzCurve(x for x in (0, 1))) == top(1)

    @given(vectors())
    def test_round_trip(self, v):
        assert curve_to_vector(partial_sums(v)) == v

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_float_curve_gives_float_vector(self, tol):
        # dyadic entries, so the sums and their differences are exact in floats
        v = make_vector([0.5, 0.25, 0.125, 0.125], tol=tol)
        assert curve_to_vector(partial_sums(v)) == v
        assert curve_to_vector(LorenzCurve([0.0, 0.5, 0.75, 0.875, 1.0], tol)) == v

    def test_raw_row_picks_its_mode(self):
        # a raw row is read with tol=None, as make_vector reads one
        v = curve_to_vector([0.0, 0.5, 1.0])
        assert v == make_vector([0.5, 0.5]) and v.entries == (0.5, 0.5) and not v.is_exact
        assert curve_to_vector(["0", "2/3", "1"]).entries == (Fraction(2, 3), Fraction(1, 3))
        assert curve_to_vector(LorenzCurve([0.0, 0.5, 1.0], 1e-6)).tol == 1e-6
        with pytest.raises(ModeMismatchError):
            curve_to_vector([0.0, "0.5", 1.0])

    @given(vectors())
    def test_round_trip_other_direction(self, v):
        curve = partial_sums(v)
        assert partial_sums(curve_to_vector(curve)) == curve

    def test_not_concave(self):
        with pytest.raises(NotConcaveError):
            curve_to_vector(["0", "0.2", "0.6", "1"])

    def test_not_monotone(self):
        with pytest.raises(NotMonotoneError):
            LorenzCurve((Fraction(0), Fraction(1, 2), Fraction(2, 5), Fraction(1)))

    def test_bad_endpoints(self):
        # S_0 is a numerator over the lcm 10, and shown as the value it stands for
        with pytest.raises(BadEndpointsError, match=re.escape("S_0 must be 0, got Fraction(1, 10)")):
            LorenzCurve(("1/10", "1/2", "1"))
        with pytest.raises(BadEndpointsError):
            LorenzCurve((Fraction(1, 10), Fraction(1, 2), Fraction(1)))
        with pytest.raises(BadEndpointsError):
            LorenzCurve((Fraction(0), Fraction(1, 2), Fraction(9, 10)))
        with pytest.raises(BadEndpointsError):
            LorenzCurve(iter(()))

    # A binary tolerance, so that every sum and difference of these values is exact.
    @pytest.mark.parametrize("values, error", [
        ((1 / 1024, 0.75, 1.0), None),  # S_0 within tol of 0
        ((1.5 / 1024, 0.75, 1.0), BadEndpointsError),
        ((0.0, 0.75, 1 + 2 / 1024), None),  # S_d within tol * d of 1
        ((0.0, 0.75, 1 + 2.5 / 1024), BadEndpointsError),
        ((0.0, 1 + 1 / 1024, 1.0), None),  # a fall of tol
        ((0.0, 1 + 1.5 / 1024, 1.0), NotMonotoneError),
        ((0.0, 0.5 - 0.5 / 1024, 1.0), None),  # a rise of tol between the steps
        ((0.0, 0.5 - 0.75 / 1024, 1.0), NotConcaveError),
    ], ids=["S_0-inside", "S_0-outside", "S_d-inside", "S_d-outside", "fall-inside", "fall-outside",
            "concave-inside", "concave-outside"])
    def test_float_slacks(self, values, error):
        """Each float slack at its documented width: tol for S_0, a fall of S_k and a
        rise between its steps, tol * d for the sum of the steps."""
        if error is None:
            assert LorenzCurve(values, 1 / 1024).values == values
        else:
            with pytest.raises(error):
                LorenzCurve(values, 1 / 1024)

    def test_steps_follow_the_vector_rule(self):
        """A curve within its own slacks whose steps make_vector refuses is refused too,
        as the curve error the step fault stands for."""
        with pytest.raises(NotConcaveError, match=re.escape("entries increase: 0.4 < 0.40000000000150004")):
            LorenzCurve([0.0, 0.4, 0.8 + 1.5e-12, 1.0], tol=1e-12)
        with pytest.raises(BadEndpointsError, match=re.escape("entries sum to 1.0029296875, expected 1")):
            LorenzCurve([-1 / 1024, 0.5, 1 + 2 / 1024], tol=1 / 1024)
        with pytest.raises(NotMonotoneError, match=re.escape("negative entry Fraction(-1, 10)")):
            LorenzCurve((0, "1/2", "2/5", 1))
        with pytest.raises(InvalidExtremalError, match=re.escape("upper map: steps S_k - S_(k-1): entries sum")):
            ExtremalFamily(2, (0, "1/2", 1), (0, 1, "11/10"))

    @given(st.data(), st.integers(1, 6), st.sampled_from([2**-10, 1e-9, 1e-12]))
    def test_accepted_curves_difference_into_vectors(self, data, d, tol):
        """Float curves and lower maps with every S_k moved by up to 1.5 tol: each one
        accepted differences into a vector that make_vector accepts; an accepted
        family's upper map does so once sorted."""
        weights = sorted(data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)), reverse=True)
        nudges = data.draw(st.lists(st.sampled_from([-3, -2, -1, 0, 1, 2, 3]), min_size=d + 1, max_size=d + 1))
        sums = [sum(weights[:k]) / sum(weights) + n * tol / 2 for k, n in enumerate(nudges)]
        try:
            curve = LorenzCurve(sums, tol)
        except (BadEndpointsError, NotMonotoneError, NotConcaveError):
            pass
        else:
            make_vector(curve_to_vector(curve).entries, tol=curve.tol)
        upper = [0.0] + data.draw(st.lists(st.sampled_from([1.0, 1 + tol]), min_size=d, max_size=d))
        try:
            family = ExtremalFamily(d, sums, upper, tol)
        except InvalidExtremalError:
            return
        make_vector([b - a for a, b in zip(family.lower, family.lower[1:])], tol=tol)
        make_vector([b - a for a, b in zip(family.upper, family.upper[1:])], sort=True, tol=tol)

    def test_value_at_interpolates(self):
        curve = partial_sums(make_vector(FIG_X))
        assert curve.value_at(Fraction(3, 2)) == Fraction(3, 5) + Fraction(16, 100) / 2
        assert curve.value_at(0) == 0
        assert curve.value_at(4) == 1
        with pytest.raises(ValueError):
            curve.value_at(5)
        # the abscissa is parsed in the curve's mode, as every public scalar is
        assert curve.value_at("3/2") == Fraction(17, 25)
        assert type(curve.value_at("1.5")) is Fraction
        with pytest.raises(ModeMismatchError):
            curve.value_at(1.5)
        with pytest.raises(ParseError):
            curve.value_at(True)
        with pytest.raises(ValueError):
            curve.value_at("-1/2")
        assert partial_sums(make_vector(FIG_X, tol=1e-12)).value_at("3/2") == pytest.approx(0.68)

    @pytest.mark.parametrize("omega, want", [
        ("2.0000000000001", 1.0), (-5e-13, 0.0), (2 + 2e-12, None), (-2e-12, None),
    ], ids=["above-within-tol", "below-within-tol", "above-past-tol", "below-past-tol"])
    def test_value_at_clamps_within_tol(self, omega, want):
        """A float abscissa within tol of [0, d] is read as the end it is near, as
        _check_alpha clamps alpha; one past tol raises an error of the contract."""
        curve = LorenzCurve([0.0, 0.5, 1.0], tol=1e-12)
        if want is not None:
            assert curve.value_at(omega) == want
            return
        with pytest.raises(majlat.errors.AbscissaOutOfRangeError) as caught:
            curve.value_at(omega)
        assert isinstance(caught.value, majlat.errors.MajlatError) and isinstance(caught.value, ValueError)
        with pytest.raises(majlat.errors.AbscissaOutOfRangeError):
            partial_sums(make_vector(FIG_X)).value_at(Fraction(-1, 10**30))


class TestCompare:
    def test_known_incomparable_pair(self):
        assert compare(make_vector(FIG_X), make_vector(FIG_Y)) is MajOrdering.INCOMPARABLE

    @given(vectors())
    def test_top_majorizes_everything(self, v):
        e = top(v.d)
        assert majorizes(e, v)
        if v != e:
            assert compare(e, v) is MajOrdering.MAJORIZES

    @given(vectors())
    def test_bottom_is_majorized(self, v):
        assert majorizes(v, bottom(v.d))

    @given(vectors())
    def test_reflexive(self, v):
        assert compare(v, v) is MajOrdering.EQUAL

    @given(vector_pairs())
    def test_antisymmetric(self, pair):
        x, y = pair
        if compare(x, y) is MajOrdering.EQUAL:
            assert x.entries == y.entries

    @given(vector_triples())
    def test_transitive(self, triple):
        x, y, z = triple
        if majorizes(x, y) and majorizes(y, z):
            assert majorizes(x, z)

    @given(vector_pairs())
    def test_symmetry_of_outcomes(self, pair):
        x, y = pair
        forward, backward = compare(x, y), compare(y, x)
        flipped = {
            MajOrdering.MAJORIZES: MajOrdering.MAJORIZED_BY,
            MajOrdering.MAJORIZED_BY: MajOrdering.MAJORIZES,
            MajOrdering.EQUAL: MajOrdering.EQUAL,
            MajOrdering.INCOMPARABLE: MajOrdering.INCOMPARABLE,
        }
        assert backward is flipped[forward]

    @given(vector_pairs())
    def test_matches_curve_dominance(self, pair):
        x, y = pair
        cx, cy = partial_sums(x).values, partial_sums(y).values
        dominates = all(a >= b for a, b in zip(cx, cy))
        assert majorizes(x, y) == dominates

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compare(top(3), top(4))

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            compare(top(3), top(3).to_float())

    def test_float_tie_counts_as_equal(self):
        x = make_vector([0.5 + 4e-13, 0.5 - 4e-13], sort=True)
        y = make_vector([0.5, 0.5])
        assert compare(x, y) is MajOrdering.EQUAL

    def test_dimension_one(self):
        one = make_vector(["1"])
        assert compare(one, one) is MajOrdering.EQUAL


def test_parse_scalar_rejects_float_in_exact_mode():
    with pytest.raises(ModeMismatchError):
        parse_scalar(0.5, True)


@pytest.mark.parametrize("raw", [
    [math.inf, 0.0],
    [math.nan, 0.0],
    ["1e400", "0"],
    [10**400, 0],
], ids=["inf", "nan", "overflowing-decimal", "overflowing-int"])
def test_float_mode_rejects_non_finite_values(raw):
    with pytest.raises(ParseError):
        make_vector(raw, tol=1e-12)


@pytest.mark.parametrize("text", ["1e10001", "1E-10001", "2.5e+1_0001", "1e00000000010001"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_decimal_exponent_is_bounded(text, exact):
    with pytest.raises(ParseError, match="decimal exponent"):
        parse_scalar(text, exact)


def test_decimal_exponent_at_the_bound_parses():
    assert parse_scalar("1e-10000", True) == Fraction(1, 10**10000)
    assert parse_scalar("1e+1_0000", True) == 10**10000
    assert parse_scalar("1e-10000", False) == 0.0


def test_vector_str_uses_canonical_strings():
    assert str(make_vector(FIG_X)) == "[0.6, 0.16, 0.16, 0.08]"
    assert str(bottom(3)) == "[1/3, 1/3, 1/3]"


HALF = Fraction(1, 2)

# The same raw data, the vector [1/2, 1/2], through every entry point that
# parses values; kind maps each exact value to the raw form under test.
TOLERANT_BUILDERS = {
    "make_vector": lambda kind, tol: make_vector([kind(HALF), kind(HALF)], tol=tol),
    "OrderedProbVector": lambda kind, tol: OrderedProbVector((kind(HALF), kind(HALF)), tol),
    "LorenzCurve": lambda kind, tol: LorenzCurve((kind(0), kind(HALF), kind(1)), tol),
    "ExtremalFamily": lambda kind, tol: ExtremalFamily(
        2, (kind(0), kind(HALF), kind(1)), (kind(0), kind(1), kind(1)), tol
    ),
}
each_builder = pytest.mark.parametrize("build", TOLERANT_BUILDERS.values(), ids=TOLERANT_BUILDERS.keys())


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9, True, False])
@each_builder
def test_tolerance_must_be_finite_and_non_negative(build, tol):
    with pytest.raises(ModeMismatchError):
        build(Fraction, tol)


@each_builder
def test_positive_tolerance_converts_fractions_to_floats(build):
    built = build(Fraction, 1e-9)
    scalars = [x for field in vars(built).values() if isinstance(field, tuple) for x in field]
    assert scalars and all(type(x) is float for x in scalars)
    assert built.tol == 1e-9


@pytest.mark.parametrize("kind, tol, error", [
    (float, 0, ModeMismatchError),
    (bool, 0, ParseError),
    (bool, 1e-9, ParseError),
], ids=["float-exact", "bool-exact", "bool-float"])
@each_builder
def test_entry_kind_rejected(build, kind, tol, error):
    with pytest.raises(error):
        build(kind, tol)


def test_package_exports_every_error_class_and_no_module():
    errors = {name: cls for name, cls in vars(majlat.errors).items()
              if isinstance(cls, type) and issubclass(cls, majlat.MajlatError)}
    assert all(getattr(majlat, name) is cls for name, cls in errors.items())
    assert set(errors) <= set(majlat.__all__) and majlat.__all__ == sorted(majlat.__all__)
    assert not any(isinstance(getattr(majlat, name), ModuleType) for name in majlat.__all__)
