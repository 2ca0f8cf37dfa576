"""Value semantics of the six frozen value types.

Equality, hashing, repr text, keyword construction, immutability and the
instance fields are part of the public behaviour; these tests pin them
independently of how the classes are written. Values that make_vector and
the kernels build without running __init__ must keep the same semantics
as the values the public constructors build.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from majlat import (
    Ball,
    ExtremalFamily,
    LorenzCurve,
    OrderedProbVector,
    Polytope,
    StateSpec,
    ball_vertices,
    family_sup,
    make_vector,
    meet,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EXACT_VECTOR = "OrderedProbVector(entries=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), tol=0.0)"
FLOAT_VECTOR = "OrderedProbVector(entries=(0.5, 0.25, 0.25), tol=1e-09)"


def _vector(kind, entries=("1/2", "1/4", "1/4")):
    return OrderedProbVector(entries=entries, tol=0.0 if kind == "exact" else 1e-9)


# name -> (build(kind), build a different value(kind), kinds, {kind: repr}, field names)
CASES = {
    "OrderedProbVector": (
        _vector, lambda kind: _vector(kind, ("1/2", "1/2")), ("exact", "float"),
        {"exact": EXACT_VECTOR, "float": FLOAT_VECTOR},
        ("entries", "tol"),
    ),
    "LorenzCurve": (
        lambda kind: LorenzCurve(values=("0", "1/2", "1")) if kind == "exact"
        else LorenzCurve(values=(0.0, 0.5, 1.0), tol=1e-9),
        lambda kind: LorenzCurve(values=("0", "2/3", "1")) if kind == "exact"
        else LorenzCurve(values=(0.0, 0.75, 1.0), tol=1e-9),
        ("exact", "float"),
        {"exact": "LorenzCurve(values=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), tol=0.0)",
         "float": "LorenzCurve(values=(0.0, 0.5, 1.0), tol=1e-09)"},
        ("values", "tol"),
    ),
    "ExtremalFamily": (
        lambda kind: ExtremalFamily(d=2, lower=("0", "1/2", "1"), upper=("0", "1", "1")) if kind == "exact"
        else ExtremalFamily(d=2, lower=(0.0, 0.5, 1.0), upper=(0.0, 1.0, 1.0), tol=1e-9),
        lambda kind: ExtremalFamily(d=2, lower=("0", "1/2", "1"), upper=("0", "3/4", "1")) if kind == "exact"
        else ExtremalFamily(d=2, lower=(0.0, 0.5, 1.0), upper=(0.0, 0.75, 1.0), tol=1e-9),
        ("exact", "float"),
        {"exact": "ExtremalFamily(d=2, lower=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), "
                  "upper=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1)), tol=0.0)",
         "float": "ExtremalFamily(d=2, lower=(0.0, 0.5, 1.0), upper=(0.0, 1.0, 1.0), tol=1e-09)"},
        ("d", "lower", "upper", "tol"),
    ),
    "Polytope": (
        lambda kind: Polytope(vertices=[_vector(kind)]),
        lambda kind: Polytope(vertices=[_vector(kind), _vector(kind, ("1", "0", "0"))]),
        ("exact", "float"),
        {"exact": f"Polytope(vertices=({EXACT_VECTOR},))", "float": f"Polytope(vertices=({FLOAT_VECTOR},))"},
        ("vertices",),
    ),
    "Ball": (
        lambda kind: Ball(center=_vector(kind), radius="1/10" if kind == "exact" else 0.1),
        lambda kind: Ball(center=_vector(kind), radius="1/5" if kind == "exact" else 0.2),
        ("exact", "float"),
        {"exact": f"Ball(center={EXACT_VECTOR}, radius=Fraction(1, 10))",
         "float": f"Ball(center={FLOAT_VECTOR}, radius=0.1)"},
        ("center", "radius"),
    ),
    "StateSpec": (
        lambda kind: {"spectrum": StateSpec(spectrum=["1/2", "1/2"]),
                      "amplitudes": StateSpec(amplitudes=[1, 1j]),
                      "schmidt_probs": StateSpec(schmidt_probs=[0.5, 0.5])}[kind],
        lambda kind: StateSpec(spectrum=["1/2", "1/4", "1/4"]),
        ("spectrum", "amplitudes", "schmidt_probs"),
        {"spectrum": "StateSpec(amplitudes=None, schmidt_probs=None, spectrum=('1/2', '1/2'))",
         "amplitudes": "StateSpec(amplitudes=(1, 1j), schmidt_probs=None, spectrum=None)",
         "schmidt_probs": "StateSpec(amplitudes=None, schmidt_probs=(0.5, 0.5), spectrum=None)"},
        ("amplitudes", "schmidt_probs", "spectrum"),
    ),
}
PARAMS = [(name, kind) for name, case in CASES.items() for kind in case[2]]

_OTHER = ("7/16", "7/16", "1/8")  # crosses _vector's Lorenz curve; all entries are exact in binary
_BALL_VERTICES = [("7/16", "9/32", "9/32"), ("7/16", "5/16", "1/4"), ("1/2", "5/16", "3/16"),
                  ("9/16", "7/32", "7/32"), ("9/16", "1/4", "3/16")]

# Values make_vector and the kernels build: name -> (build(kind), the same value
# built through a public constructor(kind), field names).
BUILT = {
    "make_vector": (
        lambda kind: make_vector(["1/2", "1/4", "1/4"], tol=0.0 if kind == "exact" else 1e-9), _vector,
        ("entries", "tol"),
    ),
    "meet": (
        lambda kind: meet(_vector(kind), _vector(kind, _OTHER)),
        lambda kind: _vector(kind, ("7/16", "5/16", "1/4")), ("entries", "tol"),
    ),
    "family_sup": (
        lambda kind: family_sup([_vector(kind), _vector(kind, _OTHER)]),
        lambda kind: _vector(kind, ("1/2", "3/8", "1/8")), ("entries", "tol"),
    ),
    "ball_vertices": (
        lambda kind: ball_vertices(Ball(_vector(kind), "1/8" if kind == "exact" else 0.125)),
        lambda kind: Polytope(vertices=[_vector(kind, v) for v in _BALL_VERTICES]), ("vertices",),
    ),
}
BUILT_PARAMS = [(name, kind) for name in BUILT for kind in ("exact", "float")]


def _case(name):
    """(build(kind), build an equal value(kind), field names) of a value type or a built value."""
    if name in BUILT:
        return BUILT[name]
    build, _, _, _, fields = CASES[name]
    return build, build, fields


@pytest.mark.parametrize("name, kind", PARAMS + BUILT_PARAMS)
def test_equal_values_are_equal_and_hash_alike(name, kind):
    build, build_equal, fields = _case(name)
    a, b = build(kind), build_equal(kind)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


@pytest.mark.parametrize("name, kind", PARAMS)
def test_unequal_values_differ(name, kind):
    build, build_other, _, _, _ = CASES[name]
    a, b = build(kind), build_other(kind)
    assert a != b and not a == b
    assert hash(a) != hash(b)


@pytest.mark.parametrize("name, kind", PARAMS)
def test_other_types_never_equal(name, kind):
    a = CASES[name][0](kind)
    assert not a == 3 and a != 3
    assert a.__eq__(3) is NotImplemented
    assert a != tuple(vars(a).values())


def test_subclass_with_equal_fields_is_not_equal():
    class Sub(OrderedProbVector):
        pass

    vector = _vector("exact")
    sub = Sub(vector.entries)
    assert vector != sub and not vector == sub
    assert vector.__eq__(sub) is NotImplemented and sub.__eq__(vector) is NotImplemented


@pytest.mark.parametrize("name, kind", PARAMS)
def test_repr_text(name, kind):
    build, _, _, reprs, _ = CASES[name]
    assert repr(build(kind)) == reprs[kind]


@pytest.mark.parametrize("name, kind", PARAMS + BUILT_PARAMS)
def test_vars_are_exactly_the_fields(name, kind):
    build, _, fields = _case(name)
    assert tuple(vars(build(kind))) == fields


@pytest.mark.parametrize("name, kind", PARAMS)
@pytest.mark.parametrize("attribute", ["field", "other"])
def test_assignment_and_deletion_raise(name, kind, attribute):
    build, _, _, _, fields = CASES[name]
    obj = build(kind)
    target = fields[0] if attribute == "field" else "extra"
    before = dict(vars(obj))
    with pytest.raises(AttributeError):
        setattr(obj, target, None)
    with pytest.raises(AttributeError):
        delattr(obj, target)
    assert vars(obj) == before


@pytest.mark.parametrize("name, kind", PARAMS + BUILT_PARAMS)
def test_pickle_and_copy_round_trip(name, kind):
    obj = _case(name)[0](kind)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj


def test_vector_str():
    assert str(_vector("exact")) == "[0.5, 0.25, 0.25]"
    assert str(OrderedProbVector(("2/3", "1/3"))) == "[2/3, 1/3]"
    assert str(_vector("float")) == "[0.5, 0.25, 0.25]"


def test_positional_and_keyword_construction_agree():
    assert OrderedProbVector((HALF, QUARTER, QUARTER), 0.0) == OrderedProbVector(entries=(HALF, QUARTER, QUARTER))
    assert LorenzCurve((0, HALF, 1)) == LorenzCurve(values=(0, HALF, 1), tol=0.0)
    family = ExtremalFamily(2, (0, HALF, 1), (0, 1, 1), 0.0)
    assert family == ExtremalFamily(d=2, lower=(0, HALF, 1), upper=(0, 1, 1))
    vector = _vector("exact")
    assert Polytope((vector,)) == Polytope(vertices=(vector,))
    assert Ball(vector, "1/10") == Ball(center=vector, radius=Fraction(1, 10))
    assert StateSpec(None, None, ("1",)) == StateSpec(spectrum=["1"])
    assert StateSpec(("1",)) == StateSpec(amplitudes=("1",))
