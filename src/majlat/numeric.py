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
from typing import Sequence, Union

from .errors import ModeMismatchError, ParseError

Scalar = Union[Fraction, float]

DEFAULT_FLOAT_TOL = 1e-12

# Largest decimal exponent magnitude of a scalar string. Fraction("1e<n>") builds 10**n
# before any digit limit applies: minutes at n = 10**8, 0.4 ms at n = 10**4.
MAX_DECIMAL_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_scalar(value: object, exact: bool) -> Scalar:
    """Coerce a string, int, Fraction, or float into the requested mode.

    Exact mode accepts decimal strings ("0.26"), ratio strings ("13/50"),
    ints, and Fractions; those conversions are lossless. Floats are
    rejected there so binary rounding cannot leak into exact results.
    Float mode accepts finite values only. In both modes a string's
    decimal exponent may not exceed MAX_DECIMAL_EXPONENT in magnitude.
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
    acc = entries[0] * 0  # zero of the right type
    out = [acc]
    for e in entries:
        acc = acc + e
        out.append(acc)
    return tuple(out)


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
