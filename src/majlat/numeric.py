"""Scalar plumbing: exact rationals, or floats with one absolute tolerance.

A computation is either exact (Fraction values, tolerance 0) or float
(float values, fixed tolerance tau); the two kinds never mix inside one
value. The rule that picks the mode (resolve_mode) and all tolerant
comparisons live here, so every entry point parses alike and the tie
policy is uniform: a difference within tau counts as zero.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Union

from .errors import ModeMismatchError, ParseError

Scalar = Union[Fraction, float]

DEFAULT_FLOAT_TOL = 1e-12

# Largest decimal exponent magnitude of a scalar string. Fraction("1e<n>") builds 10**n
# before any digit limit applies: minutes at n = 10**8, 0.4 ms at n = 10**4.
MAX_DECIMAL_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")

# Plain ASCII forms, read without Fraction's string grammar: a decimal or a ratio in
# exact mode, a decimal with an optional exponent in float mode. Every other string
# (whitespace, underscores, non-ASCII digits, words) takes the Fraction route, so each
# Python keeps its own Fraction grammar for them.
_PLAIN_EXACT = re.compile(r"([-+]?(?=\.?[0-9])[0-9]*)(?:\.([0-9]*)|/([0-9]+))?")
_PLAIN_FLOAT = re.compile(r"[-+]?(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?")


def _plain(pattern: re.Pattern, text: str) -> re.Match | None:
    """pattern's full match of text; None past the int-to-text digit limit, where
    Fraction(text) raises but int() of the joined digits or float(text) might not."""
    limit = sys.get_int_max_str_digits()
    return pattern.fullmatch(text) if not limit or len(text) <= limit else None


def _exact_from_text(text: str) -> Fraction:
    found = _plain(_PLAIN_EXACT, text)
    if found is None:
        return Fraction(text)
    whole, frac, den = found.groups()
    if den is not None:
        return Fraction(int(whole), int(den))
    if frac:
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(whole))


def _float_from_text(text: str) -> float:
    if _plain(_PLAIN_FLOAT, text) is None:
        return float(Fraction(text))
    x = float(text)
    if x == 0 and text[0] == "-" or math.isinf(x):
        # Fraction's route gives 0.0 for a zero value ("-0") but -0.0 for a negative
        # value that underflows, and raises OverflowError where float() gives inf.
        return float(Fraction(text))
    return x


def parse_scalar(value: object, exact: bool) -> Scalar:
    """Coerce a string, int, Fraction, or float into the requested mode.

    Exact mode accepts decimal strings ("0.26"), ratio strings ("13/50"),
    ints, and Fractions; those conversions are lossless. Floats are
    rejected there so binary rounding cannot leak into exact results.
    Float mode accepts finite values only. In both modes a string's
    decimal exponent may not exceed MAX_DECIMAL_EXPONENT in magnitude.

    Plain ASCII strings within the int-to-text digit limit are read
    directly: decimals ("-0.25", ".5", "1.") and ratios ("13/50") in exact
    mode as Fraction(int, 10**k) and Fraction(int, int), decimals with or
    without an exponent in float mode by float(), which rounds correctly
    to the same value as float(Fraction(s)). Every other string goes
    through Fraction(s), so both routes accept the same strings and give
    equal values.
    """
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
            return _exact_from_text(value) if isinstance(value, str) else Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"not an exact scalar: {value!r}") from exc
    try:
        x = _float_from_text(value) if isinstance(value, str) else float(value)
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
    tolerance, and every value is converted to float.
    """
    if tol is not None:
        t = float(tol)
        if not 0 <= t < math.inf:  # NaN fails every comparison
            raise ModeMismatchError(f"tolerance must be finite and non-negative, got {t!r}")
        return t == 0, t
    if not any(type(v) is float for v in values):
        return True, 0.0
    if any(isinstance(v, (Fraction, str)) for v in values):
        raise ModeMismatchError("floats mixed with exact values; pick one mode")
    return False, DEFAULT_FLOAT_TOL


def parse_values(values: Sequence[object], tol: float | None) -> tuple[tuple[Scalar, ...], float]:
    """Every value parsed in the mode resolve_mode picks, and that mode's tolerance."""
    exact, t = resolve_mode(values, tol)
    return tuple(parse_scalar(v, exact) for v in values), t


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
    """Canonical text form: exact decimal when terminating, 'p/q' otherwise."""
    if isinstance(value, float):
        return repr(value)
    f = Fraction(value)
    if f < 0:
        return "-" + scalar_str(-f)
    twos = fives = 0
    rest = f.denominator
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{f.numerator}/{f.denominator}"
    scale = max(twos, fives)
    digits = f.numerator * 10**scale // f.denominator
    if scale == 0:
        return str(digits)
    text = str(digits).rjust(scale + 1, "0")
    frac = text[-scale:].rstrip("0")
    whole = text[:-scale]
    return whole if not frac else f"{whole}.{frac}"


def solve_square(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar], tol: float) -> list[Scalar] | None:
    """Solve a square linear system in the type of rhs[0]; None when no unique solution exists.

    Exact mode (tol == 0) pivots on the first nonzero entry and stays in
    rationals; float mode partial-pivots and treats magnitudes <= tol as
    zero.
    """
    n = len(matrix)
    kind = type(rhs[0])
    aug = [[kind(v) for v in row] + [kind(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = None
        if tol == 0:
            for r in range(col, n):
                if aug[r][col] != 0:
                    pivot_row = r
                    break
        else:
            best = tol
            for r in range(col, n):
                mag = abs(aug[r][col])
                if mag > best:
                    best = mag
                    pivot_row = r
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
