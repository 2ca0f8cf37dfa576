"""Parsing, entry checks and canonical text against the Fraction-only references in oracles.py.

parse_scalar reads a lone value: plain ASCII decimals directly in float mode (a
minus sign only before a nonzero mantissa), every other value through Fraction.
read_row is the one reader of a raw row, as numerators over one common
denominator: a plain exact row whole as integer pairs, any other row one entry at
a time through parse_scalar, whose Fractions or floats it keeps as entries.
make_vector normalizes and sorts the numerators and checks them once in
_checked_vector, the door it and state_to_vector end in. That check raises
the fault _numerators_fault finds in one pass over either mode, exact
numerators one at a time, so its memory holds one numerator and the total;
ball listing asks _numerators_fault about each candidate, over its own
denominator, and raises nothing.
LorenzCurve, curve_to_vector and ExtremalFamily (its two maps as one row) check
the numerators read_row gives with _check_cumulative: S_0, then the steps by the
vector rule. The coherence helpers read their parameter as a one-entry row. All must behave exactly as the
references do: equal values of the same type (the same repr in float mode,
signed zero included) and the same exception class and message. scalar_str
works on the numerator and denominator as integers and must give the
reference's text, or its ValueError past the int-to-text digit limit.
"""

import json
import math
import time
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from majlat import (
    ExtremalFamily,
    LorenzCurve,
    OrderedProbVector,
    curve_to_vector,
    first_component_family,
    make_vector,
    numeric,
    ocr_first_component_bound,
    ocr_two_block_superposition,
    two_block_family,
)
from majlat.cli import main
from majlat.core import _checked_vector, _numerators_fault
from majlat.errors import MajlatError, NotNormalizedError
from majlat.numeric import common_scale, parse_scalar, read_row, scalar_str

from .oracles import (
    reference_check_entries,
    reference_curve_to_vector,
    reference_denominator,
    reference_extremal_family,
    reference_first_component_family,
    reference_keeps_form,
    reference_lorenz_curve,
    reference_make_vector,
    reference_ocr_first_component_bound,
    reference_ocr_two_block_superposition,
    reference_parse_scalar,
    reference_parse_values,
    reference_scalar_str,
    reference_two_block_family,
)

_sign = st.sampled_from(["", "-", "+"])
_digits = st.text("0123456789", max_size=12)
_exponent = st.builds(
    lambda e, sign, n: f"{e}{sign}{n}",
    st.sampled_from("eE"), _sign, st.integers(0, 400) | st.integers(9_990, 10_010),
)


@st.composite
def _decimals(draw, sign=_sign, digits=_digits, exponent=True):
    text = draw(sign) + draw(digits)
    if draw(st.booleans()):
        text += "." + draw(digits)
    if exponent and draw(st.booleans()):
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
    "-0.5", "-.5e-3", "-00.0010", "-0e-0001", "-.0e9", "-0.0e-0", "-1.e-9999", "-9e9999",
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


def _outcome(fn, *args, **kwargs):
    """fn's result, or the class and message of the MajlatError it raises."""
    try:
        return fn(*args, **kwargs)
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


_LONG = "1" * 4301  # one digit past the int-to-text digit limit


class _OwnFloat(str):
    """Text whose __float__ gives another value; the reference reads the text, through Fraction."""

    def __float__(self):
        return 0.125


@st.composite
def _rows(draw):
    """1-70 entries: plain decimals and ratios only, or plain float text only,
    either mixed with ints and Fractions, with entries that decline the row,
    or with both."""
    sign = st.just("") if draw(st.booleans()) else _sign
    digits = st.text("0123456789", min_size=1, max_size=12)
    if draw(st.booleans()):
        plain = _decimals(sign, digits) | st.floats(0, 1).map(repr) | st.sampled_from(["+.5", "5.", "-.5"])
        entry = plain
    else:
        plain = _decimals(sign, digits, exponent=False)
        entry = plain | st.builds(lambda s, p, q: f"{s}{p}/{q}", sign, digits, digits)
    if draw(st.booleans()):
        entry |= st.integers(-1, 3) | st.fractions(0, 1, max_denominator=100)
    if draw(st.booleans()):
        entry |= (_decimals() | _ratios | _altered() | st.builds(_OwnFloat, plain)
                  | st.sampled_from([*_SPECIAL, _LONG, "0.\n5", "1\n", "5e-00010000", "1.5E+10001"]))
    return draw(st.lists(entry, min_size=1, max_size=70))


def _shown(outcome):
    """A vector's or read_row's entries by type and value, each float by repr (so
    -0.0 is not 0.0), with the tolerance; or an error's class and message."""
    if isinstance(outcome, OrderedProbVector):
        entries, tol = outcome.entries, outcome.tol
    elif isinstance(outcome[0], tuple):
        entries, tol = outcome
    else:
        return outcome
    return [(type(e), repr(e) if type(e) is float else e) for e in entries], tol


@given(_rows(), st.sampled_from([None, 0, 1e-12]), st.booleans(), st.booleans())
@example(["1/3", "0.5", "1/6"], None, False, False)  # a rise, found over the lcm 30 of 3, 10 and 6
@example(["1/3", "0.5", "1/6"], None, True, False)
@example(["1/3", "0.5", "1/6"], 0, False, True)
@example(["0.5", "5/0"], None, False, False)
@example(["0.5\n0.5"], None, False, False)  # one entry holding a newline, not two entries
@example(["1", "-0"], None, False, False)
@example(["+.5", "0.5"], 0, False, False)
@example(["2/4", "1/2"], None, False, False)
# Fraction reads the first entry; int() of its 6000 digits cannot
@example(["1" * 3000 + "." + "1" * 3000, "1"], None, False, True)
@example(["1" * 3000 + "." + "1" * 3000, "1"], None, False, False)  # the same row with no flags
@example([Fraction(1, 4), Fraction(1, 2)], None, True, False)  # sorted, sums to 3/4
@example(["1/2", Fraction(-1, 4), "0.5"], None, False, True)  # normalized, -1/3 negative
@example(["0", "0/3", "0.0"], None, False, True)  # cannot normalize: Fraction(0, 1)
@example(["-1/2", "0.25"], 0, True, True)  # cannot normalize: Fraction(-1, 4)
@example(["0.9", "1e-1"], None, True, False)  # an exponent declines the whole row, read entry by entry
@example(["+.5", "5.", "0.5e-9999"], 1e-12, False, True)  # plain float text, read by float()
@example(["1", "-0"], 1e-12, False, False)  # a signed zero takes the Fraction route: 0.0
@example(["1.5", "-0.5"], 1e-12, False, False)  # a signed nonzero is plain: -0.5 is negative
@example(["1", "-1e-400"], 1e-12, False, False)  # -0.0, as Fraction gives
@example(["0.5", "0.5", "-0.000"], 1e-12, True, False)  # sorted, with the 0.0 Fraction gives last
@example(["1", "1e400"], 1e-12, False, False)  # float() gives inf; Fraction overflows
@example(["1", "1e" + "0" * 20 + "10000"], 1e-12, False, False)  # 10**10000, a five-digit exponent
@example(["1", "1e-10001"], 1e-12, False, False)  # past MAX_DECIMAL_EXPONENT
@example(["1" * 3000 + "." + "1" * 3000, "1"], 1e-12, False, True)  # past the digit limit
@example(["0.75", _OwnFloat("0.25")], 1e-12, False, False)  # read as 0.25, not by its __float__
def test_rows_match_per_entry_route(row, tol, sort, normalize):
    """make_vector and read_row on a whole row: the same vector or entries,
    Fractions or floats of the same repr, or the same error as parsing and
    checking one entry at a time."""
    got = _outcome(make_vector, row, tol=tol, sort=sort, normalize=normalize)
    want = _outcome(reference_make_vector, row, tol=tol, sort=sort, normalize=normalize)
    assert _shown(got) == _shown(want)
    assert _shown(_outcome(_read_entries, row, tol)) == _shown(_outcome(reference_parse_values, row, tol))


def _read_entries(row, tol):
    """read_row's entries of row, and its tolerance."""
    tol, _, _, entries = read_row(row, tol)
    return tuple(entries), tol


@st.composite
def _sums(draw, d):
    """S_0..S_d of d small weights over their total, as Fractions: usually sorted, so
    the curve is concave, sometimes not, and sometimes moved at one index."""
    weights = draw(st.lists(st.integers(0, 9), min_size=d, max_size=d).filter(any))
    if draw(st.integers(0, 3)):
        weights.sort(reverse=True)
    sums = [Fraction(sum(weights[:k]), sum(weights)) for k in range(d + 1)]
    if not draw(st.integers(0, 4)):
        sums[draw(st.integers(0, d))] += draw(st.sampled_from([Fraction(1, 10), Fraction(-1, 10), Fraction(1, 7)]))
    return sums


_STRAYS = ["-0", "1e-3", "abc", True, "5/0", " 1/2", 0.5, Fraction(1, 2), "1/3", 2]


@st.composite
def _raw(draw, values, tol):
    """values as one kind of raw entry: ratio strings, decimal strings where they
    terminate, Fractions with ints where whole, or floats, some of them nudged by
    0.5, 1.5 or 2.5 times the float tolerance; sometimes one entry replaced by
    another kind or a bad value."""
    kind = draw(st.sampled_from(["ratio", "decimal", "fraction", "float"]))
    if kind == "ratio":
        raw = [f"{v.numerator}/{v.denominator}" for v in values]
    elif kind == "decimal":
        raw = [scalar_str(v) for v in values]
    elif kind == "fraction":
        raw = [int(v) if v.denominator == 1 else v for v in values]
    else:
        raw = [float(v) for v in values]
        for i in draw(st.lists(st.integers(0, len(raw) - 1), max_size=3)):
            raw[i] += draw(st.sampled_from([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])) * (tol or 1e-12)
    if not draw(st.integers(0, 5)):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.sampled_from(_STRAYS))
    return raw


def _built(fn, *args, **kwargs):
    """fn's result by class and fields, each scalar by type and repr, or the class and
    message of the MajlatError it raises."""
    try:
        built = fn(*args, **kwargs)
    except MajlatError as exc:
        return type(exc), str(exc)
    return type(built), [(name, [(type(e), repr(e)) for e in value] if isinstance(value, tuple) else value)
                         for name, value in vars(built).items()]


@given(st.data(), st.integers(1, 7), st.sampled_from([None, 0, 1e-12, 2**-10]))
def test_curves_and_families_match_fraction_checks(data, d, tol):
    """LorenzCurve, curve_to_vector and ExtremalFamily on raw rows, and the four
    coherence helpers on a raw parameter, give the fields or errors of their
    references, which parse value by value and check Fractions or floats."""
    lower, upper = data.draw(_sums(d)), data.draw(_sums(d))
    if data.draw(st.integers(0, 3)):
        lower, upper = list(map(min, lower, upper)), list(map(max, lower, upper))
    raw = data.draw(_raw(lower + upper, tol))
    curve = raw[: d + 1]
    assert _built(LorenzCurve, curve, tol) == _built(reference_lorenz_curve, curve, tol)
    assert _built(curve_to_vector, curve) == _built(reference_curve_to_vector, curve)
    assert _built(ExtremalFamily, d, curve, raw[d + 1 :], tol) == _built(
        reference_extremal_family, d, curve, raw[d + 1 :], tol)
    (alpha,) = data.draw(_raw([data.draw(st.fractions(0, Fraction(6, 5), max_denominator=20))], tol))
    d1 = data.draw(st.integers(1, d))
    for fn, reference, args in (
        (ocr_first_component_bound, reference_ocr_first_component_bound, (alpha, d)),
        (first_component_family, reference_first_component_family, (alpha, d)),
        (ocr_two_block_superposition, reference_ocr_two_block_superposition, (d1, d, alpha)),
        (two_block_family, reference_two_block_family, (d1, d, alpha)),
    ):
        assert _built(fn, *args, tol=tol) == _built(reference, *args, tol=tol)


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
def test_entry_check_matches_fraction_checks(entries):
    """Exact mode on the entries as Fractions, float mode on them as floats. The
    fault _numerators_fault finds is None exactly when _checked_vector builds the
    vector of the entries, and otherwise builds the error _checked_vector raises."""
    for values, tol in ((tuple(map(Fraction, entries)), 0), (tuple(map(float, entries)), 1e-12)):
        checked = _outcome(_check_scaled, values, tol)
        want = _outcome(reference_check_entries, values, tol)
        fault = _check_scaled(values, tol, fault=True)
        if want is None:
            assert fault is None and checked.entries == values
        else:
            assert checked == want
            error = fault()
            assert isinstance(error, MajlatError) and (type(error), str(error)) == checked


def _check_scaled(entries, tol, fault=False):
    """_checked_vector, or with fault _numerators_fault, on entries brought over one
    denominator by common_scale, as make_vector's parsed rows (beside their entries)
    and ball listing's candidates (over their own q) reach it."""
    one, numerators = common_scale(entries, tol)
    if fault:
        return _numerators_fault(numerators, one, tol, len(entries))
    return _checked_vector(numerators, one, tol, len(entries), entries)


def test_exact_check_holds_one_numerator_at_a_time():
    """Numerators over the lcm of 500 hundred-digit denominators take about 20 KB
    each; the check keeps one of them and the total, not all 500 (about 11 MB),
    on Fractions and on a plain row's integer pairs alike."""
    entries = tuple(Fraction(1, 10**100 + i) for i in range(500))
    row = [f"1/{10**100 + i}" for i in range(500)]
    for check in (lambda: _check_scaled(entries, 0), lambda: make_vector(row)):
        tracemalloc.start()
        try:
            with pytest.raises(NotNormalizedError):
                check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


@st.composite
def _form_rows(draw):
    """(row, route): 1-8 entries over one shared denominator or each over its own, as plain
    "p/q" strings, plain decimals, or Fractions and ints read entry by entry."""
    d = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(0, 40), min_size=d, max_size=d))
    route = draw(st.sampled_from(["ratios", "decimals", "fractions"]))
    if route == "decimals":
        places = [draw(st.integers(0, 3))] * d if draw(st.booleans()) else draw(
            st.lists(st.integers(0, 3), min_size=d, max_size=d))
        return [f"{w // 10**k}.{w % 10**k:0{k}d}" if k else str(w) for w, k in zip(weights, places)], route
    shared = draw(st.integers(1, 60))
    dens = [shared] * d if draw(st.booleans()) else draw(st.lists(st.integers(1, 60), min_size=d, max_size=d))
    if route == "ratios":
        return [f"{w}/{q}" for w, q in zip(weights, dens)], route
    return [int(f) if f.denominator == 1 else f for f in map(Fraction, weights, dens)], route


@given(_form_rows(), st.sampled_from([None, 1e-12]), st.booleans(), st.booleans())
@example((["3/12", "2/6", "5/12"], "ratios"), None, True, False)  # kept as sorted: 5, 4, 3 over 12
@example((["1/6", "1/10", "11/15"], "ratios"), None, True, False)  # the lcm 30 is none of them: no form
@example((["0.5", "0.25", "0.25"], "decimals"), None, False, False)  # over 100, one of the denominators
@example(([Fraction(1, 6), Fraction(1, 2), 1], "fractions"), None, True, True)  # over the total 10: 6, 3, 1
# over 60, but the factors 30, 20, 15, 12, 1 take 19 bits and the denominators 16: no form
@example((["1/2", "1/3", "1/4", "1/5", "1/60"], "ratios"), None, True, True)
# one more entry over 60: 20 bits against 22, a form, though the distinct denominators read 19 against 16
@example((["1/2", "1/3", "1/4", "1/5", "1/60", "1/60"], "ratios"), None, True, True)
def test_integer_form_matches_entries(data, tol, sort, normalize):
    """make_vector keeps an exact row's integer form (one, numerators) exactly when the row
    passes the size rule (reference_keeps_form) on the denominators read_row takes; each
    numerator over one is then the entry, in the vector's order, and the form is never one
    of the vector's fields."""
    row, route = data
    try:
        vector = make_vector(row, tol=tol, sort=sort, normalize=normalize)
    except MajlatError:
        return
    assert tuple(vars(vector)) == ("entries", "tol")
    form = getattr(vector, "_form", None)
    keeps = tol is None and reference_keeps_form(list(map(reference_denominator, row)))
    assert (form is not None) == keeps, (row, route)
    if form is not None:
        one, numerators = form
        assert type(one) is int and one > 0 and len(numerators) == vector.d
        assert all(type(n) is int and Fraction(n, one) == e for n, e in zip(numerators, vector.entries))


def test_row_past_the_size_rule_keeps_no_form():
    """500 entries over 250 distinct hundred-digit denominators 250 * (10**100 + i),
    (r - 1)/(250 r) and 1/(250 r), sum to one. Their lcm is none of them, so the vector
    keeps no integer form and its check holds one numerator at a time: all 500 numerators
    over the lcm would take about 5 MB."""
    rs = [10**100 + i for i in range(250)]
    row = [f"{r - 1}/{250 * r}" for r in reversed(rs)] + [f"1/{250 * r}" for r in rs]
    tracemalloc.start()
    try:
        vector = make_vector(row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert getattr(vector, "_form", None) is None and vector.d == 500
    assert peak < 2_000_000


def test_form_is_never_longer_than_its_row():
    """8000 entries, 7998 of them 1/8000 and two over 10**4000, sum to one. Their lcm
    10**4000 is one of the denominators, but its 7998 factors 10**4000 // 8000 take
    about 13 MB as numerators where the row's pairs take 60 KB: the size rule keeps
    no form, and the vector holds its 8000 entries, under 1 MB, and no more."""
    a = 10**4000 // 8000
    row = [f"{a + 1}/{10**4000}"] + ["1/8000"] * 7998 + [f"{a - 1}/{10**4000}"]
    tracemalloc.start()
    try:
        vector = make_vector(row)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert getattr(vector, "_form", None) is None and vector.d == 8000
    assert held < 2_000_000


@pytest.mark.parametrize("row", [
    ["1/64"] * 63 + [" 1/64"],  # the space declines the row, read entry by entry
    [Fraction(1, 64)] * 64,
], ids=["declined-strings", "fractions"])
def test_declined_row_keeps_parsed_entries(row, monkeypatch):
    """A row read entry by entry keeps the Fractions parse_scalar returned as its
    entries: each is built once, not again from its integer pair."""
    returned = []

    def recording(value, exact):
        returned.append(parse_scalar(value, exact))
        return returned[-1]

    monkeypatch.setattr(numeric, "parse_scalar", recording)
    entries = make_vector(row).entries
    assert len(entries) == len(returned) == 64
    assert all(e is r for e, r in zip(entries, returned))


def test_plain_exact_row_is_read_whole(monkeypatch):
    """A row of plain decimal and ratio strings takes _plain_pairs' route, never parse_scalar."""
    def refuse(value, exact):
        raise AssertionError(f"parse_scalar called on {value!r}")

    monkeypatch.setattr(numeric, "parse_scalar", refuse)
    assert make_vector(["1/2", "0.25", "1/4"]).entries == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


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
