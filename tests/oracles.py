"""Brute-force reference computations the fast paths are checked against.

Everything here is deliberately naive: exhaustive chords for the concave
majorant, full grid enumeration for optimality, plain sums for distances,
Fraction's own string grammar for parsing entries one at a time and
building vectors, Lorenz curves, extremal families and the coherence
targets from them, Fraction arithmetic for the canonical text of a value,
the entry checks, the checks of cumulative values, the lattice kernels (with their own copy of the
upper envelope) and the squared moduli, a ball test with its own copy
of the entry checks, Gauss-Jordan on Fractions for the square systems
of ball vertex listing, the whole listing sweep on entries, and the ball's
vertices from its full H-representation.
"""

import math
import re
from fractions import Fraction
from itertools import combinations, islice, product

from majlat import LorenzCurve, OrderedProbVector, ResourceTheory, make_vector
from majlat.core import MajOrdering, _check_dimension, _trusted, pair_tolerance
from majlat.errors import (
    AlphaMinOutOfRangeError,
    AlphaOutOfRangeError,
    BadEndpointsError,
    BlockDimensionError,
    EmptyInputError,
    InvalidExtremalError,
    InvalidStateSpecError,
    ModeMismatchError,
    NegativeEntryError,
    NegativeProbabilityError,
    NotConcaveError,
    NotMonotoneError,
    NotNormalizedError,
    NotSortedError,
    ParseError,
)
from majlat.lattice import ExtremalFamily, _members
from majlat.numeric import MAX_DECIMAL_EXPONENT, eq, geq, leq, lt, resolve_mode, shown
from majlat.resource_theory import _amplitude_components, _block_family, _two_blocks

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def reference_parse_scalar(value, exact):
    """numeric.parse_scalar without its plain float reader: every string goes
    through Fraction(value), as every exact value does in the library."""
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


def reference_parse_values(values, tol):
    """numeric.parse_values on reference_parse_scalar: resolve_mode's rule,
    then reference_parse_scalar on each value."""
    exact, t = resolve_mode(values, tol)
    return tuple(reference_parse_scalar(v, exact) for v in values), t


def reference_make_vector(raw, *, normalize=False, sort=False, tol=None):
    """core.make_vector as it was before it read exact rows as integer pairs:
    entries parsed one at a time, normalized and sorted as Fractions, then
    the Fraction checks."""
    values = tuple(raw)
    if not values:
        raise EmptyInputError("no entries given")
    entries, tol = reference_parse_values(values, tol)
    if normalize:
        total = sum(entries)
        if not total > 0:
            raise NotNormalizedError(f"cannot normalize entries that sum to {shown(total)}")
        entries = tuple(e / total for e in entries)
    if sort:
        entries = tuple(sorted(entries, reverse=True))
    reference_check_entries(entries, tol)
    return _trusted(OrderedProbVector, entries=entries, tol=tol)


def reference_denominator(entry):
    """The denominator numeric.read_row takes an entry over, in a row of plain strings or of
    no strings: a plain string's unreduced one, else the Fraction's."""
    if isinstance(entry, str):
        p, slash, q = entry.partition("/")
        return int(q) if slash else 10 ** len(entry.partition(".")[2])
    return Fraction(entry).denominator


def reference_keeps_form(denominators):
    """The size rule of an exact vector's integer form, on the denominator of each entry
    as the row gave it: their lcm is one of them, and the scale factors lcm // q take
    no more bits in sum than the q (always so when the q are all equal)."""
    one = math.lcm(*denominators)
    factors = sum((one // q).bit_length() for q in denominators)
    return one in denominators and factors <= sum(q.bit_length() for q in denominators)


_CURVE_ERRORS = {NegativeEntryError: NotMonotoneError, NotSortedError: NotConcaveError,
                 NotNormalizedError: BadEndpointsError}


def reference_check_cumulative(values, tol, concave=True):
    """core._check_cumulative on parsed S_0..S_d, in Fraction or float arithmetic:
    S_0 within tol of 0, then reference_check_entries on the steps S_k - S_{k-1}
    (sorted non-increasing when not concave), its error raised as the curve class
    that fault stands for, with the library's message."""
    if not eq(values[0], values[0] * 0, tol):
        raise BadEndpointsError(f"S_0 must be 0, got {shown(values[0])}")
    steps = [b - a for a, b in zip(values, values[1:])]
    if not concave:
        steps.sort(reverse=True)
    try:
        reference_check_entries(steps, tol)
    except tuple(_CURVE_ERRORS) as exc:
        raise _CURVE_ERRORS[type(exc)](f"steps S_k - S_(k-1): {exc}") from exc


def reference_lorenz_curve(values, tol=0.0):
    """LorenzCurve(values, tol) on reference_parse_values and reference_check_cumulative."""
    values = tuple(values)
    if len(values) < 2:
        raise BadEndpointsError("need cumulative values S_0..S_d with d >= 1")
    values, tol = reference_parse_values(values, tol)
    reference_check_cumulative(values, tol)
    return _trusted(LorenzCurve, values=values, tol=tol)


def reference_curve_to_vector(curve):
    """curve_to_vector of a raw cumulative row, built by reference_lorenz_curve in the
    mode the row picks (tol=None)."""
    curve = reference_lorenz_curve(curve, None)
    return reference_from_sums(curve.values, curve.tol)


def reference_extremal_family(d, lower, upper, tol=0.0):
    """ExtremalFamily(d, lower, upper, tol) on reference_parse_values and
    reference_check_cumulative: lower + upper parsed as one row."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidExtremalError(f"dimension must be a positive integer, got {d!r}")
    lower, upper = tuple(lower), tuple(upper)
    if len(lower) != d + 1 or len(upper) != d + 1:
        raise InvalidExtremalError("extrema maps must cover k = 0..d")
    values, tol = reference_parse_values(lower + upper, tol)
    lower, upper = values[: d + 1], values[d + 1 :]
    for name, sums, concave in (("lower", lower, True), ("upper", upper, False)):
        try:
            reference_check_cumulative(sums, tol, concave)
        except (BadEndpointsError, NotMonotoneError, NotConcaveError) as exc:
            raise InvalidExtremalError(f"{name} map: {exc}") from exc
    for k in range(d + 1):
        if not geq(upper[k], lower[k], tol):
            raise InvalidExtremalError(f"upper map below lower map at k={k}")
    return _trusted(ExtremalFamily, d=d, lower=lower, upper=upper, tol=tol)


def _reference_check_alpha(alpha, d, tol):
    _check_dimension(d)
    (given,), tol_eff = reference_parse_values((alpha,), tol)
    zero = given * 0
    one = zero + 1
    a = min(given, one)
    if not (lt(zero, given, tol_eff) and leq(given, one, tol_eff) and lt(one / d, a * a, tol_eff)):
        raise AlphaOutOfRangeError(f"need 1/sqrt({d}) < alpha <= 1, got {shown(given)}")
    return a * a, tol_eff


def _reference_check_blocks(d1, d, alpha_min_sq, tol):
    for value in (d1, d):
        if not isinstance(value, int) or isinstance(value, bool):
            raise BlockDimensionError(f"block sizes must be integers, got {value!r}")
    if not 1 <= d1 < d:
        raise BlockDimensionError(f"need 1 <= d1 < d, got d1={d1}, d={d}")
    (q,), tol_eff = reference_parse_values((alpha_min_sq,), tol)
    one = q * 0 + 1
    if not (lt(one * d1 / d, q, tol_eff) and leq(q, one, tol_eff)):
        raise AlphaMinOutOfRangeError(f"need {d1}/{d} < alpha_min_sq <= 1, got {shown(q)}")
    return min(q, one), tol_eff


def reference_ocr_first_component_bound(alpha, d, *, tol=None):
    return _two_blocks(1, d, *_reference_check_alpha(alpha, d, tol))


def reference_first_component_family(alpha, d, *, tol=None):
    return _block_family(1, d, *_reference_check_alpha(alpha, d, tol))


def reference_ocr_two_block_superposition(d1, d, alpha_min_sq, *, tol=None):
    return _two_blocks(d1, d, *_reference_check_blocks(d1, d, alpha_min_sq, tol))


def reference_two_block_family(d1, d, alpha_min_sq, *, tol=None):
    return _block_family(d1, d, *_reference_check_blocks(d1, d, alpha_min_sq, tol))


def reference_scalar_str(value):
    """numeric.scalar_str as it was before it worked on the integers of the value:
    Fraction sign tests and a division of numerator * 10**scale by the denominator."""
    if isinstance(value, float):
        return repr(value)
    f = Fraction(value)
    if f < 0:
        return "-" + reference_scalar_str(-f)
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


def reference_check_entries(entries, tol):
    """The vector rule of core._numerators_fault, raised as core._checked_vector raises
    it, on parsed entries without integer numerators: Fraction comparisons and a
    Fraction sum."""
    zero = entries[0] * 0
    for e in entries:
        if not geq(e, zero, tol):
            raise NegativeEntryError(f"negative entry {shown(e)}")
    for a, b in zip(entries, entries[1:]):
        if not geq(a, b, tol):
            raise NotSortedError(f"entries increase: {shown(a)} < {shown(b)}")
    total = sum(entries)
    if not eq(total, zero + 1, tol * len(entries)):
        raise NotNormalizedError(f"entries sum to {shown(total)}, expected 1")


def reference_feasible(x, x0, eps, tol):
    """polytope._feasible without core._numerators_fault: the ball test and
    its own order, sign and sum tests."""
    d = len(x0)
    zero = x0[0] * 0
    return (
        leq(sum(abs(u - v) for u, v in zip(x, x0)), eps, tol * d)
        and all(geq(a, b, tol) for a, b in zip(x, x[1:]))
        and all(geq(e, zero, tol) for e in x)
        and eq(sum(x), zero + 1, tol * d)
    )


def reference_solve_square(matrix, rhs, tol):
    """solve_square as it was before it eliminated on integers: Gauss-Jordan
    in the type of rhs[0], with each pivot row normalized. Exact mode pivots on the
    first nonzero entry; float mode partial-pivots and treats magnitudes <= tol as
    zero. None when no unique solution exists."""
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


def reference_ball_vertices(x0, eps, tol):
    """polytope.ball_vertices as it was before the listing ran on numerators, as
    sorted entry tuples: the simplex corners and the sweep of square
    active-constraint systems on the entries themselves (Fractions or floats),
    each solved by reference_solve_square and kept if reference_feasible;
    duplicates within tol per entry dropped. No shortcut for a zero radius."""
    d = len(x0)
    zero = x0[0] * 0
    found = [((zero + 1) / k,) * k + (zero,) * (d - k) for k in range(1, d + 1)]
    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    pool = [(unit[i], x0[i]) for i in range(d)]  # coordinate ties with the center
    pool += [(tuple(a - b for a, b in zip(unit[i], unit[i + 1])), zero) for i in range(d - 1)]  # ordering facets
    pool.append((unit[-1], zero))  # positivity facet x_d = 0
    for signs in product((1, -1), repeat=d):
        if len(set(signs)) == 1:
            continue
        rhs_ball = eps + sum(s * c for s, c in zip(signs, x0))
        for extra in combinations(pool, d - 2):
            matrix = [[1] * d, signs] + [row for row, _ in extra]
            solution = reference_solve_square(matrix, [zero + 1, rhs_ball] + [value for _, value in extra], tol)
            if solution is not None:
                found.append(tuple(solution))
    unique = []
    for x in found:
        if reference_feasible(x, x0, eps, tol) and not any(
                all(abs(a - b) <= tol for a, b in zip(x, u)) for u in unique):
            unique.append(x)
    return sorted(unique)


def reference_facet_vertices(x0, eps):
    """The vertices of the exact l1 ball around x0 in the ordered simplex, as sorted
    entry tuples, from the polytope's full H-representation on the hyperplane
    sum(x) = 1: the 2^d l1 facets s.(x - x0) <= eps, the d - 1 ordering facets
    x_(i+1) - x_i <= 0 and -x_d <= 0. Each (d - 1)-subset of them, tight beside
    the sum row, is solved by reference_solve_square in Fractions, and a point that
    satisfies every facet is a vertex (brute-force vertex enumeration; compare
    Avis & Fukuda, Discrete Comput. Geom. 8, 1992). Unlike the sweep, it does not
    rest on one l1 facet plus coordinate ties reaching every vertex."""
    d = len(x0)
    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    facets = [(s, eps + sum(a * c for a, c in zip(s, x0))) for s in product((1, -1), repeat=d)]
    facets += [(tuple(b - a for a, b in zip(unit[i], unit[i + 1])), 0) for i in range(d - 1)]
    facets.append((tuple(-u for u in unit[-1]), 0))
    found = set()
    for tight in combinations(facets, d - 1):
        matrix = [(1,) * d] + [a for a, _ in tight]
        x = reference_solve_square(matrix, [Fraction(1)] + [Fraction(b) for _, b in tight], 0)
        if x is not None and all(sum(u * v for u, v in zip(a, x)) <= b for a, b in facets):
            found.add(tuple(x))
    return sorted(found)


# The lattice kernels, compare and state_to_vector as they were before exact
# mode computed on integer numerators over one common denominator: every step
# is a Fraction operation.


def reference_fold(family, pick):
    """Per-index prefix-sum minima (pick=min) or maxima (pick=max), and the tolerance."""
    if isinstance(family, ExtremalFamily):
        return (family.lower if pick is min else family.upper), family.tol
    members, tol = _members(family)
    return tuple(map(pick, zip(*(m.prefix_sums() for m in members)))), tol


def reference_from_sums(sums, tol):
    """The vector whose prefix sums are sums, differenced here rather than by the library."""
    return _trusted(OrderedProbVector, entries=tuple(b - a for a, b in zip(sums, sums[1:])), tol=tol)


def reference_family_inf(family):
    return reference_from_sums(*reference_fold(family, min))


def reference_family_sup(family):
    sums, tol = reference_fold(family, max)
    return reference_from_sums(reference_upper_envelope(sums, tol), tol)


def reference_upper_envelope(vals, tol):
    """lattice._upper_envelope, copied so that the library's copy can change or go.

    Least concave majorant of the polygon through (k, S_k), k = 0..d.
    Scans left to right: from index i, jump to the last index attaining
    the maximum slope among all remaining points (float mode merges slope
    ties within tolerance toward the later index). The interpolation
    through the kept indices is the envelope.
    """
    d = len(vals) - 1
    kept = [0]
    i = 0
    while i < d:
        best = None
        best_j = None
        for j in range(i + 1, d + 1):
            slope = (vals[j] - vals[i]) / (j - i)
            if best is None or slope > best:
                best, best_j = slope, j
            elif geq(slope, best, tol):
                best_j = j  # tie within tolerance: later index wins
        kept.append(best_j)
        i = best_j
    env = [vals[0]]
    for left, right in zip(kept, kept[1:]):
        step = (vals[right] - vals[left]) / (right - left)
        for k in range(left + 1, right + 1):
            env.append(vals[right] if k == right else vals[left] + step * (k - left))
    return tuple(env)


def reference_flatten(values, tol):
    """Pool-adjacent-violators on (sum, count, mean) blocks, comparing Fraction or float means."""
    blocks = []
    for v in values:
        total, count, mean = v, 1, v
        while blocks and lt(blocks[-1][2], mean, tol):
            below, size, _ = blocks.pop()
            total, count = below + total, size + count
            mean = total / count
        blocks.append((total, count, mean))
    return tuple(mean for _, count, mean in blocks for _ in range(count))


def reference_join(x, y):
    maxes, tol = reference_fold((x, y), max)
    z = [maxes[k + 1] - maxes[k] for k in range(x.d)]
    return _trusted(OrderedProbVector, entries=reference_flatten(z, tol), tol=tol)


def reference_compare(x, y):
    tol = pair_tolerance(x, y)
    sx = x.prefix_sums()
    sy = y.prefix_sums()
    x_dominates = all(geq(sx[k], sy[k], tol) for k in range(1, x.d))
    y_dominates = all(geq(sy[k], sx[k], tol) for k in range(1, x.d))
    if x_dominates and y_dominates:
        return MajOrdering.EQUAL
    if x_dominates:
        return MajOrdering.MAJORIZES
    if y_dominates:
        return MajOrdering.MAJORIZED_BY
    return MajOrdering.INCOMPARABLE


def reference_state_to_vector(spec, theory, tol=None):
    """resource_theory.state_to_vector with the squared moduli summed and sorted as Fractions."""
    if spec.amplitudes is not None:
        if theory is ResourceTheory.PURITY:
            raise InvalidStateSpecError("purity takes a spectrum, not amplitudes")
        parts = _amplitude_components(spec.amplitudes)
        values, tol = reference_parse_values([c for part in parts for c in part], tol)
        components = iter(values)
        probs = [sum(c * c for c in islice(components, len(part))) for part in parts]
    else:
        if spec.schmidt_probs is not None:
            if theory is not ResourceTheory.ENTANGLEMENT:
                raise InvalidStateSpecError("Schmidt weights belong to entanglement")
            raw = spec.schmidt_probs
        else:
            if theory is not ResourceTheory.PURITY:
                raise InvalidStateSpecError("a spectrum belongs to purity")
            raw = spec.spectrum
        probs, tol = reference_parse_values(raw, tol)
    probs = tuple(sorted(probs, reverse=True))
    try:
        reference_check_entries(probs, tol)
    except NegativeEntryError as exc:
        raise NegativeProbabilityError(str(exc)) from exc
    return _trusted(OrderedProbVector, entries=probs, tol=tol)


def chord_envelope(values):
    """Least concave majorant at integer abscissae, by exhaustive chords.

    The majorant at k is the best value of any chord (i, S_i)-(j, S_j)
    with i <= k <= j; in one dimension two support points always suffice.
    """
    d = len(values) - 1
    out = []
    for k in range(d + 1):
        best = values[k]
        for i in range(k + 1):
            for j in range(max(k, i + 1), d + 1):
                if j == i:
                    continue
                chord = values[i] + (values[j] - values[i]) * Fraction(k - i, j - i)
                if chord > best:
                    best = chord
        out.append(best)
    return tuple(out)


def grid_vectors(d, denominator):
    """Every sorted probability vector with entries on the 1/denominator grid."""

    def parts(remaining, slots, cap):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        lowest = -(-remaining // slots)  # first part at least the average
        for first in range(min(cap, remaining), lowest - 1, -1):
            for rest in parts(remaining - first, slots - 1, first):
                yield (first,) + rest

    for combo in parts(denominator, d, denominator):
        yield make_vector([Fraction(c, denominator) for c in combo])


def random_grid_vector(rng, d, denominator):
    """Uniform-ish random sorted vector on the 1/denominator grid."""
    cuts = sorted(rng.randint(0, denominator) for _ in range(d - 1))
    bounds = [0] + cuts + [denominator]
    weights = sorted((bounds[i + 1] - bounds[i] for i in range(d)), reverse=True)
    return make_vector([Fraction(w, denominator) for w in weights])


def l1_distance(x: OrderedProbVector, y: OrderedProbVector):
    return sum(abs(a - b) for a, b in zip(x.entries, y.entries))


def convex_mix(vectors, weights):
    """Convex combination of same-dimension sorted vectors (stays sorted)."""
    total = sum(weights)
    entries = [
        sum(w * v.entries[i] for w, v in zip(weights, vectors)) / total
        for i in range(vectors[0].d)
    ]
    return make_vector(entries)
