"""Scalar plumbing: exact rationals, or floats with one absolute tolerance.

A computation is either exact (Fraction values, tolerance 0) or float
(float values, fixed tolerance tau); the two kinds never mix inside one
value. The rule that picks the mode (resolve_mode) and all tolerant
comparisons live here, so every entry point parses alike and the tie
policy is uniform: a difference within tau counts as zero.

read_row is the one reader of a raw row: the entries of make_vector,
state_to_vector's amplitudes, a LorenzCurve's values, an ExtremalFamily's
two maps as one row, and each coherence parameter as a one-entry row. It
gives the entries and their numerators over one common denominator,
integers in exact mode: a plain exact row of decimal and ratio strings in
one regular-expression match as integer pairs (n, q), any other row value
by value through parse_scalar. _over_lcm scales a plain row's pairs, and
common_scale every row of built entries; under _over_lcm's size rule the
vector built from the numerators keeps them as its integer form, and the
kernels start from them (core._over_one), scaling an operand without a
form by common_scale. parse_scalar alone reads a lone value of known
mode (a Ball radius, LorenzCurve.value_at): exact values through
Fraction, plain float text (_PLAIN_FLOAT) by float().
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import accumulate, repeat, starmap
from typing import Iterable, Sequence, Union

from .errors import ModeMismatchError, ParseError

Scalar = Union[Fraction, float]

DEFAULT_FLOAT_TOL = 1e-12
_LOG2_5 = math.log2(5)  # scalar_str's exponent of a power of five from its bit length

# Largest decimal exponent magnitude of a scalar string. Fraction("1e<n>") builds 10**n
# before any digit limit applies: minutes at n = 10**8, 0.4 ms at n = 10**4.
MAX_DECIMAL_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")

# A plain exact row: ASCII decimals and ratios with a nonzero denominator, each
# followed by a newline. A row holding any other string (whitespace, underscores,
# non-ASCII digits, exponents, words, "5/0") takes the per-entry route through
# Fraction, so each Python keeps its own Fraction grammar and errors for them.
_PLAIN_ROW = re.compile(r"(?:[-+]?(?=\.?[0-9])[0-9]*(?:\.[0-9]*|/0*[1-9][0-9]*)?\n)*")
# Plain float text: an ASCII decimal whose exponent has fewer digits after its leading zeros than
# MAX_DECIMAL_EXPONENT. A minus sign needs a nonzero mantissa digit: Fraction gives 0.0 for "-0",
# where float() gives -0.0. Such zeros and longer exponents go through Fraction.
_PLAIN_FLOAT = re.compile(
    rf"(?:\+|-(?=[0-9.]*[1-9]))?(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?"
    rf"(?:[eE][-+]?0*[0-9]{{1,{len(str(MAX_DECIMAL_EXPONENT)) - 1}}})?"
)


def read_row(values: Sequence[object], tol: float | None) -> tuple[float, Scalar, Iterable[Scalar], Iterable[Scalar]]:
    """(tol, one, numerators, entries) of a raw row, in the mode resolve_mode picks.

    A row _plain_pairs reads is scaled from its integer pairs (n, q) by
    _over_lcm, and its Fractions are built from them lazily. Every other
    row (float rows, exact rows _plain_pairs declines) is built entry by
    entry by parse_scalar, with its errors, and scaled by common_scale.
    make_vector and state_to_vector keep a tuple of numerators as the
    vector's integer form.
    """
    exact, tol = resolve_mode(values, tol)
    pairs = _plain_pairs(values) if exact else None
    if pairs is None:
        entries = tuple(parse_scalar(v, exact) for v in values)
        return (tol, *common_scale(entries, tol), entries)
    return (tol, *_over_lcm(pairs), starmap(Fraction, pairs))


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[int, Iterable[int]]:
    """(one, numerators) of integer pairs (n, q): one = the lcm of the q, each numerator n * (one // q);
    a tuple when one is one of the q and, over more than one distinct q, the factors one // q take no
    more bits in sum than the q, so never longer than the pairs; else yielded lazily, one at a time."""
    denominators = {q for _, q in pairs}
    one = math.lcm(*denominators)
    numerators = (n * (one // q) for n, q in pairs)
    keep = one in denominators and (len(denominators) == 1 or sum(
        (one // q).bit_length() - q.bit_length() for _, q in pairs) <= 0)
    return one, tuple(numerators) if keep else numerators


def _plain_pairs(values: Sequence[object]) -> list[tuple[int, int]] | None:
    """The integer pairs of a row of plain decimal and ratio strings, or None.

    One fullmatch of _PLAIN_ROW checks the whole row, joined with a newline
    after each value. The row is declined (None) when a value is not
    exactly a str, is longer than the int-to-text digit limit (where
    Fraction(value) raises but int() of the joined digits might not), or
    holds a newline, so the joined text has more than len(values) of them.
    A decimal gives the pair (int(whole + frac), 10**len(frac)), a ratio
    (int(p), int(q)).
    """
    try:
        text = "\n".join(values) + "\n"
    except TypeError:  # a value that is no str
        return None
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit and max(map(len, values)) > limit:
        return None
    if text.count("\n") != len(values) or _PLAIN_ROW.fullmatch(text) is None:
        return None
    pairs = []
    for v in values:
        if type(v) is not str:
            return None
        p, slash, q = v.partition("/")
        if slash:
            pairs.append((int(p), int(q)))
        else:
            whole, _, frac = v.partition(".")
            pairs.append((int(whole + frac), 10 ** len(frac)))
    return pairs


def _plain_float(value: object) -> float | None:
    """value read by float() when it is exactly a str matching _PLAIN_FLOAT, else None.

    None past the int-to-text digit limit, where Fraction(value) raises but
    float(value) does not, and for an overflow to inf, where the Fraction
    route raises OverflowError.
    """
    if type(value) is not str or _PLAIN_FLOAT.fullmatch(value) is None:
        return None
    limit = sys.get_int_max_str_digits()
    if limit and len(value) > limit:
        return None
    x = float(value)
    return None if math.isinf(x) else x


def parse_scalar(value: object, exact: bool) -> Scalar:
    """Coerce a string, int, Fraction, or float into the requested mode.

    Exact mode accepts decimal strings ("0.26"), ratio strings ("13/50"),
    ints, and Fractions; those conversions are lossless. Floats are
    rejected there so binary rounding cannot leak into exact results.
    Float mode accepts finite values only. In both modes a string's
    decimal exponent may not exceed MAX_DECIMAL_EXPONENT in magnitude.

    In float mode, plain float text is tried first and read by float(),
    which rounds correctly to the same value as float(Fraction(s)). Every
    other value, every string _plain_float declines and every exact value
    goes through Fraction, so both routes accept the same strings and give
    equal values.
    """
    if not exact and (x := _plain_float(value)) is not None:
        return x
    if isinstance(value, bool):
        raise ParseError(f"not a scalar: {value!r}")
    if isinstance(value, str) and (found := _EXPONENT.search(value)):
        digits = found.group(1).replace("_", "").lstrip("0")  # int() refuses over 4300 digits
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ParseError(f"decimal exponent above {MAX_DECIMAL_EXPONENT} in magnitude: {value!r}")
    if exact:
        if isinstance(value, float):
            raise ModeMismatchError(
                "float value in exact mode; pass a decimal string, int, or Fraction"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"not an exact scalar: {value!r}") from exc
    try:
        x = float(Fraction(value)) if isinstance(value, str) else float(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ParseError(f"not a float scalar: {value!r}") from exc
    if not math.isfinite(x):
        raise ParseError(f"not a finite float: {value!r}")
    return x


def resolve_mode(values: Sequence[object], tol: float | None) -> tuple[bool, float]:
    """Map (raw values, requested tolerance) to (exact?, effective tolerance).

    This is the one mode rule. tol None: exact unless floats appear (then
    the default tolerance); floats may not mix with strings or Fractions.
    tol 0: exact, and floats are rejected. tol > 0: float mode with that
    tolerance, and every value is converted to float. A bool tol is
    rejected, as parse_scalar rejects a bool value.
    """
    if tol is not None:
        if isinstance(tol, bool):  # float(True) would be a tolerance of 1.0
            raise ModeMismatchError(f"tolerance must be a number, not {tol!r}")
        t = float(tol)
        if not 0 <= t < math.inf:  # NaN fails every comparison
            raise ModeMismatchError(f"tolerance must be finite and non-negative, got {t!r}")
        return t == 0, t
    if not any(type(v) is float for v in values):
        return True, 0.0
    if any(isinstance(v, (Fraction, str)) for v in values):
        raise ModeMismatchError("floats mixed with exact values; pick one mode")
    return False, DEFAULT_FLOAT_TOL


def leq(a: Scalar, b: Scalar, tol: float) -> bool:
    """a <= b, counting a difference within tol as equality."""
    return a <= b if tol == 0 else a - b <= tol


def geq(a: Scalar, b: Scalar, tol: float) -> bool:
    return leq(b, a, tol)


def eq(a: Scalar, b: Scalar, tol: float) -> bool:
    return a == b if tol == 0 else abs(a - b) <= tol


def lt(a: Scalar, b: Scalar, tol: float) -> bool:
    """a < b by more than tol."""
    return a < b if tol == 0 else b - a > tol


def common_scale(row: Sequence[Scalar], tol: float) -> tuple[Scalar, Iterable[Scalar]]:
    """A row's entries over one common denominator: (one, numerators).

    Exact mode reads each entry once as its pair (n, q) by
    as_integer_ratio() and scales the pairs by _over_lcm, as read_row
    scales a plain row's: integers that add, compare and sort as the
    Fractions do, at a fraction of the cost. Float mode returns the row,
    with one = 1.0. The one path from built entries to numerators: a row
    read_row reads value by value, and in the kernels what has no integer
    form, a kernel output or copy (core._over_one), an ExtremalFamily's
    map, a Ball.
    """
    if tol:
        return 1.0, row
    return _over_lcm([e.as_integer_ratio() for e in row])


def unscale(values: Iterable[Scalar], one: Scalar, tol: float) -> tuple[Scalar, ...]:
    """Numerators over one back to entries: Fraction(v, one) in exact mode, the values in float mode."""
    if tol:
        return tuple(values)
    return tuple(map(Fraction, values, repeat(one)))


def cumulative_sums(entries: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """(S_0, S_1, ..., S_d) with the convention S_0 = 0."""
    return tuple(accumulate(entries, initial=entries[0] * 0))


def shown(value: object) -> str:
    """repr of a value for an error message; never raises.

    repr of a Fraction or int past the int-to-text digit limit raises
    ValueError, which would replace the error being reported.
    """
    try:
        return repr(value)
    except ValueError:
        return f"<a number with more than {sys.get_int_max_str_digits()} digits>"


def scalar_str(value: Scalar) -> str:
    """Canonical text form: exact decimal when terminating, 'p/q' otherwise.

    Takes a Fraction, an int or a float. An exact value p/q terminates
    when q = 2**a * 5**b; its digits are then the integer p * 10**s / q with
    s = max(a, b) decimal places, none of them a trailing zero because
    p/q is in lowest terms. Past the int-to-text digit limit, str() of the
    digits or of p raises ValueError. The odd part r = q >> a is a power of
    five only if r is 1 or divisible by 5; then the one candidate b is
    round(log2(r) / log2(5)), with log2(r) taken as r.bit_length() - 1, and
    one big-int power tests 5**b == r. That quotient lies less than 0.431
    below b, so float rounding could pick another b only past b = 10**14.
    """
    if isinstance(value, float):
        return repr(value)
    p, q = value.as_integer_ratio()
    twos = (q & -q).bit_length() - 1
    rest = q >> twos
    if rest % 5 and rest != 1:
        return f"{p}/{q}"
    fives = round((rest.bit_length() - 1) / _LOG2_5)
    if 5**fives != rest:
        return f"{p}/{q}"
    scale = max(twos, fives)
    sign = "-" if p < 0 else ""
    digits = abs(p) * 5 ** (scale - fives) << (scale - twos)  # abs(p) * 10**scale // q
    if scale == 0:
        return sign + str(digits)
    text = str(digits).rjust(scale + 1, "0")
    return f"{sign}{text[:-scale]}.{text[-scale:]}"
