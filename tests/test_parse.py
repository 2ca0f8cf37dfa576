"""Parsing, entry checks and canonical text against the Fraction-only references in oracles.py.

parse_scalar reads plain ASCII decimals and ratios directly and sends every
other string through Fraction. _check_entries checks both modes in one pass,
exact entries on integer numerators scaled one at a time, so its memory holds
one numerator and the total. Both must behave exactly as the references do:
equal values of the same type (the same repr in float mode, signed zero
included) and the same exception class and message. scalar_str works on the
numerator and denominator as integers and must give the reference's text, or
its ValueError past the int-to-text digit limit.
"""

import json
import math
import time
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from majlat import make_vector
from majlat.cli import main
from majlat.core import _check_entries
from majlat.errors import MajlatError, NotNormalizedError
from majlat.numeric import parse_scalar, scalar_str

from .oracles import reference_check_entries, reference_parse_scalar, reference_scalar_str

_sign = st.sampled_from(["", "-", "+"])
_digits = st.text("0123456789", max_size=12)
_exponent = st.builds(
    lambda e, sign, n: f"{e}{sign}{n}",
    st.sampled_from("eE"), _sign, st.integers(0, 400) | st.integers(9_990, 10_010),
)


@st.composite
def _decimals(draw):
    text = draw(_sign) + draw(_digits)
    if draw(st.booleans()):
        text += "." + draw(_digits)
    if draw(st.booleans()):
        text += draw(_exponent)
    return text


_ratios = st.builds(lambda s, p, q: f"{s}{p}/{q}", _sign, _digits, _digits)


@st.composite
def _altered(draw):
    """A decimal or ratio with underscores, whitespace or other digits put in."""
    text = draw(_decimals() | _ratios)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["_", " ", "\t", "\n", "\xa0", "٣", "１", "५"])) + text[at:]
    return text


_SPECIAL = [
    "-0", "-0.0", "-.0", "-0.", "+0", "-0e5", "-0/7", "-00.000", "-1e-400", "1e-400", "-5e-324",
    "1e400", "-1e400", "1.7976931348623157e308", "1.7976931348623159e308",
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "infinity", "+INF",
    "1 /2", "1/ 2", " 1/2 ", "1\t/2", "1_0.5", "1_0/3", "1e1_0", "1__0", "_1", "1_",
    "0." + "0" * 5000 + "1", "1" * 4300, "1" * 4301, "-" + "1" * 4300, "1" * 3000 + "." + "1" * 3000,
    "1" * 400, "1" * 400 + "/3", "0x10", "1.5e", ".e1", ".", "", "-", "/", "5/0", "0/0", "1/-2",
    "5/00", "-3/007", "007/010", "1e10000", "1e-10000", "1e10001", "1e-10001", "-.5E+10001", "1.e-10001",
    "1e" + "0" * 20 + "10000", "1e" + "0" * 20 + "10001", "1e" + "9" * 5000,
]


_scalars = (
    _decimals() | _ratios | _altered() | st.sampled_from(_SPECIAL)
    | st.text(st.sampled_from("0123456789.-+/eE_ \tnaifty٣"), max_size=10) | st.text(max_size=6)
    | st.integers() | st.fractions() | st.floats() | st.booleans()
)


def _outcome(fn, *args):
    """fn's result, or the class and message of the MajlatError it raises."""
    try:
        return fn(*args)
    except MajlatError as exc:
        return type(exc), str(exc)


def _assert_same_parse(value, exact):
    want = _outcome(reference_parse_scalar, value, exact)
    got = _outcome(parse_scalar, value, exact)
    assert type(got) is type(want) and got == want
    if isinstance(want, float):
        assert repr(got) == repr(want)


@given(_scalars, st.booleans())
def test_parse_scalar_matches_fraction_route(value, exact):
    _assert_same_parse(value, exact)


def test_special_strings_match_fraction_route():
    for value in _SPECIAL:
        for exact in (True, False):
            _assert_same_parse(value, exact)


# The primes below 1020: every entry of a d = 64 vector over them has its own
# prime denominator, the worst case for the common denominator.
_PRIMES = [p for p in range(2, 1020) if all(p % q for q in range(2, int(p**0.5) + 1))]


@st.composite
def _exact_entries(draw):
    """Mostly invalid vectors: negative, unsorted or unnormalized entries."""
    if draw(st.booleans()):
        dens = draw(st.permutations(_PRIMES))[:64]
    else:
        dens = draw(st.lists(st.integers(1, 60), min_size=1, max_size=9))
    entries = [Fraction(draw(st.integers(-3, 60)), q) for q in dens]
    if draw(st.booleans()):
        entries.sort(reverse=True)
    if draw(st.booleans()):
        entries[0] = 1 - sum(entries[1:])
    return tuple(entries)


_VALID_64 = sorted((Fraction(1, p) for p in _PRIMES[30:93]), reverse=True)

# With tol = 1e-12 and d = 2, 1.0 + 2e-12 is the largest float total the sum check
# accepts; the next float is the smallest total above 1 it refuses. 1.0 - 2e-12 is
# the smallest total below 1 it accepts.
_HIGH = 1.0 + 1e-12 * 2
_LOW = 1.0 - 1e-12 * 2


@given(_exact_entries())
@example((1 - sum(_VALID_64), *_VALID_64))
@example((Fraction(1, 2), Fraction(3, 5), Fraction(-1, 10)))  # a negative entry outranks an earlier rise
@example((Fraction(1, 10), Fraction(1, 5), Fraction(1, 10), Fraction(3, 5)))  # the first of two rises
@example((1 - 1e-12, 0.0, 1e-12))  # a float rise of exactly tol is no rise
@example((1 - 1e-12, 0.0, math.nextafter(1e-12, 1)))
@example((_HIGH - 0.5, 0.5))
@example((math.nextafter(_HIGH, 2) - 0.5, 0.5))
@example((0.5, _LOW - 0.5))
@example((0.5, math.nextafter(_LOW, 0) - 0.5))
@example((-0.0,))
@example((0.3,) * 10)  # a total that sum() rounds apart from a running sum on Python 3.12+
def test_check_entries_matches_fraction_checks(entries):
    """Exact mode on the entries as Fractions, float mode on them as floats."""
    exact = tuple(map(Fraction, entries))
    assert _outcome(_check_entries, exact, 0) == _outcome(reference_check_entries, exact, 0)
    floats = tuple(map(float, entries))
    assert _outcome(_check_entries, floats, 1e-12) == _outcome(reference_check_entries, floats, 1e-12)


def test_exact_check_holds_one_numerator_at_a_time():
    """Numerators over the lcm of 500 hundred-digit denominators take about 20 KB
    each; the check keeps one of them and the total, not all 500 (about 11 MB)."""
    entries = tuple(Fraction(1, 10**100 + i) for i in range(500))
    tracemalloc.start()
    try:
        with pytest.raises(NotNormalizedError):
            _check_entries(entries, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("raw, shown", [
    (["1", "-0"], "[1.0, 0.0]"),
    (["1", "-0.000e7"], "[1.0, 0.0]"),
    (["1", "-1e-400"], "[1.0, -0.0]"),
], ids=["zero", "zero-with-exponent", "underflow"])
def test_float_mode_signed_zero(raw, shown):
    assert str(make_vector(raw, tol=1e-12)) == shown


def test_cli_float_meet_on_negative_zero_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [["0.5", "0.5", "-0.000"], ["1", "0", "0"]]
    (tmp_path / "z.json").write_text(json.dumps({"vectors": rows}), encoding="utf-8")
    assert main(["meet", "-i", "z.json", "--mode", "float"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "command": "meet",\n  "mode": "float",\n  "tolerance": "1e-12",\n  "inputs": {\n'
        '    "paths": [\n      "z.json"\n    ],\n    "d": 3,\n    "vectors": [\n'
        '      [\n        "0.5",\n        "0.5",\n        "0.0"\n      ],\n'
        '      [\n        "1.0",\n        "0.0",\n        "0.0"\n      ]\n    ]\n  },\n'
        '  "result": {\n    "d": 3,\n    "vectors": [\n'
        '      [\n        "0.5",\n        "0.5",\n        "0.0"\n      ]\n    ]\n  }\n}\n'
    )


_decimal_denominators = st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 60), st.integers(0, 60))
_denominators = _decimal_denominators | st.builds(  # times a factor other than 2 and 5: no terminating decimal
    lambda q, k: q * (10 * k + 3), _decimal_denominators, st.integers(0, 10**6)
)
_LIMIT = 4300  # Python's default int-to-text digit limit


def _text(value):
    """scalar_str's and the reference's text of value, or the ValueError each raises."""
    outcomes = []
    for fn in (scalar_str, reference_scalar_str):
        try:
            outcomes.append(fn(value))
        except ValueError as exc:
            outcomes.append((ValueError, str(exc)))
    return outcomes


@given(
    st.integers() | st.fractions() | st.floats() | st.builds(Fraction, st.integers(), _denominators),
    st.integers(0, _LIMIT + 100),
    st.integers(0, _LIMIT + 100),
)
@example(Fraction(0), 0, 0)
@example(0, 0, 0)
@example(-0.0, 0, 0)
@example(Fraction(-1, 2**60 * 5**60), 0, 0)
@example(1, _LIMIT, _LIMIT)
@example(-7, 0, _LIMIT + 1)
@example(Fraction(3, 7), _LIMIT, _LIMIT - 1)
def test_scalar_str_matches_fraction_route(value, a, b):
    """value, and an exact value over a further 2**a * 5**b: a denominator with
    about as many factors of five as the digit limit, on either side of it. That
    value is built here, since hypothesis shows each example by repr, which raises
    past the limit."""
    got, want = _text(value)
    assert got == want
    if not isinstance(value, float):
        got, want = _text(Fraction(value, 2**a * 5**b))
        assert got == want


def test_scalar_str_time_grows_slowly_with_factors_of_five():
    # Stripping the 4000 factors of five one division at a time takes about 10 ms a call.
    value = Fraction(1, 10**4000)
    start = time.perf_counter()
    for _ in range(300):
        scalar_str(value)
    assert time.perf_counter() - start < 1


# Values past the digit limit are built inside the test: hypothesis shows each
# example by repr, which raises for them.
@given(st.sampled_from([1, -1]), st.integers(_LIMIT - 70, _LIMIT + 5), st.integers(0, 10**6), _denominators)
@example(1, _LIMIT, -1, 1)  # the last integer of _LIMIT digits
@example(-1, _LIMIT, 0, 1)
@example(1, _LIMIT - 20, 1, 2**41)  # its digits pass the limit only once scaled by 5**41
@example(1, _LIMIT, 1, 3)
@example(1, 3000, 0, 5**_LIMIT)  # 4295 digits once scaled by 2**4300
@example(-1, 3010, 7, 5**_LIMIT)  # 4305 digits
def test_scalar_str_matches_fraction_route_at_the_digit_limit(sign, n, r, q):
    got, want = _text(Fraction(sign * (10**n + r), q))
    assert got == want
