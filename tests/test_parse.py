"""Parsing and entry checks against the Fraction-only references in oracles.py.

parse_scalar reads plain ASCII decimals and ratios directly and sends every
other string through Fraction; _check_entries checks exact entries on integer
numerators. Both must behave exactly as the references do: equal values of
the same type (the same repr in float mode, signed zero included) and the same
exception class and message.
"""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from majlat import make_vector
from majlat.cli import main
from majlat.core import _check_entries
from majlat.errors import MajlatError
from majlat.numeric import parse_scalar

from .oracles import reference_check_entries, reference_parse_scalar

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


@given(_exact_entries())
@example((1 - sum(_VALID_64), *_VALID_64))
def test_check_entries_matches_fraction_checks(entries):
    assert _outcome(_check_entries, entries, 0) == _outcome(reference_check_entries, entries, 0)
    floats = tuple(map(float, entries))
    assert _outcome(_check_entries, floats, 1e-12) == _outcome(reference_check_entries, floats, 1e-12)


@pytest.mark.parametrize("raw, shown", [
    (["1", "-0"], "[1.0, 0.0]"),
    (["1", "-0.000e7"], "[1.0, 0.0]"),
    (["1", "-1e-400"], "[1.0, -0.0]"),
], ids=["zero", "zero-with-exponent", "underflow"])
def test_float_mode_signed_zero(raw, shown):
    assert str(make_vector(raw, tol=1e-12)) == shown


def test_cli_float_meet_on_negative_zero_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.json").write_text(json.dumps({"vectors": [["0.5", "0.5", "-0.000"], ["1", "0", "0"]]}))
    assert main(["meet", "-i", "z.json", "--mode", "float"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "command": "meet",\n  "mode": "float",\n  "tolerance": "1e-12",\n  "inputs": {\n'
        '    "paths": [\n      "z.json"\n    ],\n    "d": 3,\n    "vectors": [\n'
        '      [\n        "0.5",\n        "0.5",\n        "0.0"\n      ],\n'
        '      [\n        "1.0",\n        "0.0",\n        "0.0"\n      ]\n    ]\n  },\n'
        '  "result": {\n    "d": 3,\n    "vectors": [\n'
        '      [\n        "0.5",\n        "0.5",\n        "0.0"\n      ]\n    ]\n  }\n}\n'
    )
