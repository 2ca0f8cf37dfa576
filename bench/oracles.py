"""Reference results the benchmark checks majlat's outputs against.

Nothing here imports majlat. Every reference is computed in exact
`Fraction` arithmetic from the raw input strings: per-index minima of
prefix sums for meets and infima, a monotone chain (Andrew, 1979) for the
least concave majorant behind joins and suprema, and the O(d) closed forms
of Horodecki, Oppenheim & Sparaciari (arXiv:1706.05264) for the l1-ball
bounds. Float-mode results are accepted within `slack`, which callers set
to d * tol.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]


class CheckError(Exception):
    """An output disagrees with its reference."""


def exact(raw: Sequence[str]) -> Vec:
    return tuple(Fraction(s) for s in raw)


def prefix_sums(entries: Sequence[Fraction]) -> Vec:
    out = [Fraction(0)]
    for e in entries:
        out.append(out[-1] + e)
    return tuple(out)


def differences(sums: Sequence[Fraction]) -> Vec:
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def concave_majorant(ys: Sequence[Fraction]) -> tuple[Vec, int]:
    """Least concave majorant of (k, ys[k]) at every integer k, and its kink count.

    The kink count is the number of hull vertices, collinear points dropped.
    """
    hull: list[tuple[int, Fraction]] = []
    for k, y in enumerate(ys):
        while len(hull) >= 2:
            (k1, y1), (k2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (k - k1) <= (y - y1) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append((k, y))
    values = []
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        step = (y2 - y1) / (k2 - k1)
        values.extend(y1 + step * (k - k1) for k in range(k1, k2))
    values.append(hull[-1][1])
    return tuple(values), len(hull)


def family_inf(members: Sequence[Vec]) -> Vec:
    sums = [prefix_sums(m) for m in members]
    return differences(tuple(min(col) for col in zip(*sums)))


def family_sup(members: Sequence[Vec]) -> tuple[Vec, dict]:
    """Supremum, plus how much repair work its max-prefix-sum polygon needs."""
    sums = [prefix_sums(m) for m in members]
    maxes = tuple(max(col) for col in zip(*sums))
    envelope, kinks = concave_majorant(maxes)
    facts = {"repair_inputs": int(envelope != maxes), "support_points": kinks}
    return differences(envelope), facts


def ordering(x: Vec, y: Vec) -> str:
    sx, sy = prefix_sums(x), prefix_sums(y)
    x_dom = all(a >= b for a, b in zip(sx, sy))
    y_dom = all(b >= a for a, b in zip(sx, sy))
    if x_dom and y_dom:
        return "equal"
    if x_dom:
        return "majorizes"
    if y_dom:
        return "majorized_by"
    return "incomparable"


def majorizes(x: Sequence, y: Sequence, slack: Fraction) -> bool:
    return all(a >= b - slack for a, b in zip(prefix_sums(x), prefix_sums(y)))


def steepest(center: Vec, eps: Fraction) -> Vec:
    """Ball supremum: move eps/2 onto the first entry, taken from the tail."""
    move = min(eps / 2, 1 - center[0])
    out = list(center)
    out[0] += move
    left = move
    for i in range(len(out) - 1, 0, -1):
        take = min(left, out[i])
        out[i] -= take
        left -= take
    return tuple(out)


def flattest(center: Vec, eps: Fraction) -> Vec:
    """Ball infimum: water-fill the top down and the bottom up by eps/2 each."""
    d = len(center)
    half = eps / 2
    if half >= sum(max(x - Fraction(1, d), 0) for x in center):
        return (Fraction(1, d),) * d
    top = bottom = None
    head = tail = Fraction(0)
    for k in range(1, d + 1):
        head += center[k - 1]
        level = (head - half) / k
        if top is None and (k == d or center[k] <= level):
            top = level
        tail += center[d - k]
        level = (tail + half) / k
        if bottom is None and (k == d or center[d - k - 1] >= level):
            bottom = level
    return tuple(min(max(x, bottom), top) for x in center)


def in_ball(x: Sequence, center: Vec, eps: Fraction, slack: Fraction) -> bool:
    return (
        abs(sum(x) - 1) <= slack
        and all(a >= b - slack for a, b in zip(x, x[1:]))
        and x[-1] >= -slack
        and sum(abs(a - c) for a, c in zip(x, center)) <= eps + slack
    )


def parse_result(strings: Sequence[str], float_mode: bool) -> Vec:
    """Exact value of a serialized result; float text must be a float repr."""
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        raise CheckError(f"result is not a list of strings: {strings!r}")
    try:
        return tuple(Fraction(float(s)) if float_mode else Fraction(s) for s in strings)
    except (ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"unparsable result entry: {exc}") from exc


def close(got: Sequence, want: Sequence, slack: Fraction) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= slack for a, b in zip(got, want))


def expect_close(got: Sequence, want: Sequence, slack: Fraction, what: str) -> None:
    if not close(got, want, slack):
        raise CheckError(f"{what}: got {[str(v) for v in got][:8]}, want {[str(v) for v in want][:8]}")


def bits(values: Sequence[Fraction]) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)
