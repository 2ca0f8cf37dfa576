"""The lattice kernels, compare and state_to_vector against the Fraction-only
references in oracles.py.

Exact mode computes on integer numerators over one common denominator and
builds Fractions only for the results, so every exact result must equal the
reference's in value and every entry must be a Fraction: an int / int float
slipping in would still compare equal. Float mode keeps its float kernels, so
every float result must repeat the reference bit for bit.
"""

import copy
import pickle
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from majlat import (
    ExtremalFamily,
    ResourceTheory,
    StateSpec,
    compare,
    family_inf,
    family_sup,
    first_component_family,
    join,
    make_vector,
    meet,
    state_to_vector,
    two_block_family,
)
from majlat.errors import MajlatError
from majlat.lattice import _flatten
from majlat.numeric import common_scale, scalar_str

from .oracles import (
    grid_vectors,
    reference_compare,
    reference_denominator,
    reference_family_inf,
    reference_family_sup,
    reference_flatten,
    reference_fold,
    reference_join,
    reference_keeps_form,
    reference_state_to_vector,
)


def _assert_same(got, want):
    """Equal vectors whose entries have the reference's type and repr (so float bits)."""
    assert got == want and got.tol == want.tol
    kind = Fraction if want.is_exact else float
    assert all(type(e) is kind for e in got.entries)
    assert list(map(repr, got.entries)) == list(map(repr, want.entries))


def _assert_kernels_match(members):
    x, y = members[0], members[-1]
    _assert_same(family_inf(members), reference_family_inf(members))
    _assert_same(family_sup(members), reference_family_sup(members))
    _assert_same(meet(x, y), reference_family_inf((x, y)))
    _assert_same(join(x, y), reference_join(x, y))
    for a, b in product(members, repeat=2):
        assert compare(a, b) is reference_compare(a, b)


@st.composite
def _member(draw, d):
    """One vector given as "p/q" strings over its own total, or as decimal strings."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 40), min_size=d, max_size=d).filter(sum))
        raw = [f"{w}/{sum(weights)}" for w in sorted(weights, reverse=True)]
    else:
        scale = 10 ** draw(st.integers(0, 3))
        cuts = sorted(draw(st.lists(st.integers(0, scale), min_size=d - 1, max_size=d - 1)))
        parts = sorted((b - a for a, b in zip([0, *cuts], [*cuts, scale])), reverse=True)
        raw = [scalar_str(Fraction(p, scale)) for p in parts]
    return make_vector(raw)


@st.composite
def _families(draw, max_d=10, max_size=5):
    d = draw(st.integers(1, max_d))
    return tuple(draw(_member(d)) for _ in range(draw(st.integers(1, max_size))))


MIXED = (make_vector(["1/3", "1/3", "1/3"]), make_vector(["0.5", "0.3", "0.2"]), make_vector(["3/7", "2/7", "2/7"]))
REPAIRED_JOIN = (make_vector(["0.3", "0.3", "0.3", "0.1"]), make_vector(["0.48", "0.2", "0.17", "0.15"]))
# The max-prefix-sum differences pool into one long block, one value at a time.
LONG_RUN = (
    make_vector([Fraction(1, 2)] + [Fraction(1, 78)] * 39),
    make_vector([Fraction(2 * (40 - k), 40 * 41) for k in range(40)]),
)


@given(_families())
@example(MIXED)
@example((make_vector(["1"]),))
@example((make_vector(["1"]), make_vector(["3/3"])))
@example(REPAIRED_JOIN)
@example(LONG_RUN)
def test_kernels_match_references(members):
    _assert_kernels_match(members)
    _assert_kernels_match(tuple(m.to_float() for m in members))


_COPIES = {"pickle": lambda v: pickle.loads(pickle.dumps(v)), "pickle-0": lambda v: pickle.loads(pickle.dumps(v, 0)),
           "copy": copy.copy, "deepcopy": copy.deepcopy}
# Vectors that keep their integer forms: over 10, over 9 (squared amplitudes over 3**2) and over 7.
KEPT = (make_vector(["0.5", "0.3", "0.2"]),
        state_to_vector(StateSpec(amplitudes=("2/3", ("2/3", "0"), "1/3")), ResourceTheory.COHERENCE),
        make_vector(["3/7", "2/7", "2/7"]))


@given(_families(), st.lists(st.sampled_from([None, *_COPIES]), min_size=5, max_size=5))
@example(KEPT, ["pickle", None, "pickle-0"])
@example(KEPT, ["copy", "deepcopy", None])
def test_kernels_agree_on_copies(members, how):
    """A pickle (protocol 0 too), copy or deepcopy of a vector equals it and carries no
    integer form. The kernels on a family of copies, or of copies beside vectors that
    keep their forms, give the references' results, as on the originals."""
    copied = tuple(m if h is None else _COPIES[h](m) for m, h in zip(members, how))
    for m, c, h in zip(members, copied, how):
        assert c == m and (h is None or getattr(c, "_form", None) is None)
    _assert_kernels_match(copied)


def _extremal(members):
    lower, tol = reference_fold(members, min)
    upper, _ = reference_fold(members, max)
    return ExtremalFamily(members[0].d, lower, upper, tol)


@pytest.mark.parametrize("family", [
    two_block_family(2, 5, "3/5"),
    two_block_family(3, 7, 0.5),
    first_component_family("0.8", 4),
    first_component_family(0.9, 3),
    ExtremalFamily(1, (0, 1), (0, 1)),
    _extremal(MIXED),
    _extremal(tuple(m.to_float() for m in MIXED)),
], ids=["two-block", "two-block-float", "first-component", "first-component-float", "d1", "mixed", "mixed-float"])
def test_extremal_family_matches_references(family):
    _assert_same(family_inf(family), reference_family_inf(family))
    _assert_same(family_sup(family), reference_family_sup(family))


@given(_families(max_d=8, max_size=4))
def test_extremal_family_of_members_matches_references(members):
    for family in (_extremal(members), _extremal(tuple(m.to_float() for m in members))):
        _assert_same(family_inf(family), reference_family_inf(family))
        _assert_same(family_sup(family), reference_family_sup(family))


_pav_values = st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=1, max_size=30)


@given(_pav_values)
@example([Fraction(3, 10), Fraction(1, 5), Fraction(2, 5), Fraction(1, 10)])  # a pool that ties the block above
@example([Fraction(1, 4)] * 6)  # a run of ties pools nothing
@example([Fraction(1, 4), Fraction(1, 4), Fraction(0), Fraction(1, 2)])  # a pool that reaches back over ties
@example([Fraction(0)] * 20 + [Fraction(1)])  # one long run pooled into one block
@example([Fraction(1, k) for k in range(30, 0, -1)])  # every value pools into the block below
def test_flatten_matches_reference(values):
    want = reference_flatten(values, 0.0)
    one, numerators = common_scale(values, 0.0)
    for got in (_flatten(values, 1, 0.0), _flatten(list(numerators), one, 0.0)):
        assert got == want and all(type(e) is Fraction for e in got)
    floats = [float(v) for v in values]
    assert list(map(repr, _flatten(floats, 1.0, 1e-12))) == list(map(repr, reference_flatten(floats, 1e-12)))


@pytest.mark.parametrize("d, denominator", [(3, 12), (4, 8)])
def test_grid_pairs_match_references(d, denominator):
    grid = list(grid_vectors(d, denominator))
    floats = [v.to_float() for v in grid]
    for vectors in (grid, floats):
        for x, y in product(vectors, repeat=2):
            _assert_same(meet(x, y), reference_family_inf((x, y)))
            _assert_same(join(x, y), reference_join(x, y))
            _assert_same(family_sup((x, y)), reference_family_sup((x, y)))
            assert compare(x, y) is reference_compare(x, y)


@st.composite
def _sphere_point(draw, n):
    """A rational point of the unit sphere in n dimensions, by inverse stereographic projection."""
    t = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=9), min_size=n - 1, max_size=n - 1))
    norm = sum((c * c for c in t), Fraction(0))
    return [2 * c / (norm + 1) for c in t] + [(norm - 1) / (norm + 1)]


@st.composite
def _amplitudes(draw):
    """Amplitudes as scalars, "p/q" strings and (re, im) pairs, normalized or not."""
    point = draw(_sphere_point(draw(st.integers(1, 9))))
    if draw(st.booleans()):
        point[0] += draw(st.fractions(min_value=-1, max_value=1, max_denominator=5))
    amplitudes = []
    while point:
        if len(point) > 1 and draw(st.booleans()):
            amplitudes.append((point.pop(), point.pop()))
        else:
            c = point.pop()
            amplitudes.append(str(c) if draw(st.booleans()) else c)
    return amplitudes


@st.composite
def _probabilities(draw):
    """Schmidt weights or a spectrum in any order, as Fractions, ints and "p/q" strings: unit
    sum or not, some entries negative."""
    weights = draw(st.lists(st.integers(-2, 9), min_size=1, max_size=9))
    if sum(weights) > 0 and draw(st.booleans()):
        probs = [Fraction(w, sum(weights)) for w in weights]
    else:
        probs = [Fraction(w, draw(st.integers(1, 12))) for w in weights]
    return [draw(st.sampled_from([p, str(p)] + [int(p)] * (p.denominator == 1))) for p in probs]


def _states():
    """(field, data, theory): amplitudes under coherence or entanglement, Schmidt weights
    under entanglement, a spectrum under purity."""
    return (
        st.tuples(st.just("amplitudes"), _amplitudes(),
                  st.sampled_from([ResourceTheory.COHERENCE, ResourceTheory.ENTANGLEMENT]))
        | st.tuples(st.just("schmidt_probs"), _probabilities(), st.just(ResourceTheory.ENTANGLEMENT))
        | st.tuples(st.just("spectrum"), _probabilities(), st.just(ResourceTheory.PURITY))
    )


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except MajlatError as exc:
        return type(exc), str(exc)


def _as_float(a):
    return tuple(float(Fraction(c)) for c in a) if isinstance(a, tuple) else float(Fraction(a))


@given(_states())
@example(("amplitudes", ["3/5", "4/5"], ResourceTheory.COHERENCE))
@example(("amplitudes", ["0.6", ("0", "0.8")], ResourceTheory.ENTANGLEMENT))
@example(("amplitudes", ["1/2", "-1/2", "1/2", "1/2"], ResourceTheory.COHERENCE))
@example(("amplitudes", ["-0.6", ("-0", "-0.8")], ResourceTheory.COHERENCE))  # signed float text
@example(("amplitudes", ["1"], ResourceTheory.COHERENCE))
@example(("amplitudes", ["1/2", "1/2"], ResourceTheory.COHERENCE))  # not normalized
@example(("spectrum", ["1/4", "1/2", "1/4"], ResourceTheory.PURITY))  # not sorted
@example(("schmidt_probs", ["0.2", 1, "-0.2"], ResourceTheory.ENTANGLEMENT))  # negative
@example(("spectrum", ["1/2", "1/3"], ResourceTheory.PURITY))  # not normalized
@example(("schmidt_probs", [Fraction(1, 4), "0.25", 0, "1/2"], ResourceTheory.ENTANGLEMENT))
@example(("spectrum", ["0.5", 0.5], ResourceTheory.PURITY))  # floats mixed with strings
@example(("spectrum", ["1/2", "1/2"], ResourceTheory.ENTANGLEMENT))  # wrong theory
def test_state_to_vector_matches_reference(state):
    field, data, theory = state
    for spec, tol in ((StateSpec(**{field: tuple(data)}), None),
                      (StateSpec(**{field: tuple(data)}), 1e-12),
                      (StateSpec(**{field: tuple(map(_as_float, data))}), 1e-12)):
        got = _outcome(state_to_vector, spec, theory, tol=tol)
        want = _outcome(reference_state_to_vector, spec, theory, tol=tol)
        if field == "amplitudes" and tol is None and not isinstance(got, tuple):
            # the squares keep their integer form under the size rule on the components' denominators
            components = [c for a in data for c in (a if isinstance(a, tuple) else (a,))]
            form = getattr(got, "_form", None)
            assert (form is not None) == reference_keeps_form(list(map(reference_denominator, components)))
            assert form is None or [Fraction(n, form[0]) for n in form[1]] == list(got.entries)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same(got, want)


# Eight members at d = 64: 63 entries 1/p over primes no other entry uses, and a
# first entry 1 - sum whose denominator is the product of the member's primes. The
# common denominator is the product of 504 primes, the largest it can be here.
_PRIMES = [p for p in range(127, 4000) if all(p % q for q in range(2, int(p**0.5) + 1))]
WORST_CASE = tuple(
    make_vector([1 - sum(tail), *tail])
    for tail in (sorted((Fraction(1, p) for p in _PRIMES[63 * i: 63 * (i + 1)]), reverse=True) for i in range(8))
)


def test_worst_case_denominators_match_references():
    assert len({e.denominator for m in WORST_CASE for e in m.entries[1:]}) == 8 * 63
    _assert_kernels_match(WORST_CASE)
    _assert_kernels_match(tuple(m.to_float() for m in WORST_CASE))
