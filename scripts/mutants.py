#!/usr/bin/env python3
"""Mutant check: every mutant of the library must fail the tests named for it.

    python3 scripts/mutants.py

A mutant is one or more exact text replacements in a file of src/majlat,
each of which must occur exactly once there. For each mutant, src/, tests/
and pyproject.toml are copied to a fresh temporary directory, the mutant is
applied to the copy, and the named tests run there under pytest (with
hypothesis, both required). A mutant whose tests all pass survived: the
tests cannot tell it from the library. The unchanged copy must first pass
every named test. Exit status: 0 when every mutant is killed, 1 when one
survives or the unchanged copy fails, 2 when a mutant no longer applies.

Equivalent mutants compute the same results as the library, so no test can
kill them; they are listed with the reason and not run. Each change that
rewrites a kernel adds mutants for the code it replaces.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKS = "tests/test_parse.py::test_entry_check_matches_fraction_checks"
ROWS = "tests/test_parse.py::test_rows_match_per_entry_route"
KERNELS = "tests/test_kernels.py"
SPECIAL = "tests/test_parse.py::test_special_strings_match_fraction_route"
SOLVE = "tests/test_polytope.py::TestBallVertices::test_solve_square_matches_reference"
FEASIBLE = "tests/test_polytope.py::TestBallVertices::test_feasible_matches_reference"
NO_MESSAGE = "tests/test_polytope.py::TestBallVertices::test_listing_formats_no_message"
LISTING = "tests/test_polytope.py::TestBallVertices::test_listing_matches_reference_sweep"
FACETS = "tests/test_polytope.py::TestBallVertices::test_listing_matches_facet_enumeration"
CLOSED = "tests/test_polytope.py::TestClosedFormsMatchVertexFold"
POINT = "tests/test_polytope.py::TestApproximations::test_float_radius_within_tol_is_a_point"
BELOW_ZERO = "tests/test_polytope.py::TestBallVertices::test_float_radius_within_tol_below_zero_is_the_center"
CAP = "tests/test_polytope.py::TestBallVertices::test_dimension_cap_admits_its_own_dimension"
SCALAR_STR = "tests/test_parse.py::test_scalar_str_matches_fraction_route"
CURVES = "tests/test_core.py::TestLorenzCurve"
EXTREMAL = "tests/test_lattice.py::TestFamilies"
FORMS = "tests/test_parse.py::test_integer_form_matches_entries"

# (name, file under src/majlat, [(old text, new text), ...], tests to run)
MUTANTS = [
    # The vector rule (core._numerators_fault): the vector door core._checked_vector raises its fault
    # for make_vector and state_to_vector, and ball listing asks it first about each candidate.
    ("rise at >=", "core.py", [("n - previous > tol", "n - previous >= tol")], [CHECKS]),
    ("sum slack tol, not tol * d", "core.py",
     [("abs(total - one) > tol * d", "abs(total - one) > tol")], [CHECKS]),
    ("-0.0 counted negative", "core.py", [("if n < -tol:", "if n < -tol or str(n)[0] == '-':")], [CHECKS]),
    ("rise reported before negatives", "core.py", [("faults[-1]", "faults[0]")], [CHECKS]),
    ("last rise, not first", "core.py",
     [("if not faults and previous is not None and n - previous", "if previous is not None and n - previous")],
     [CHECKS]),
    ("fault scan stops at the first rise", "core.py",
     [('faults.append((NotSortedError, "entries increase: {} < {}", previous, n))\n',
       'faults.append((NotSortedError, "entries increase: {} < {}", previous, n))\n            return\n')],
     [CHECKS]),
    ("float start for the total", "core.py",
     [("total = sum(_scanned(values, tol, faults))", "total = sum(_scanned(values, tol, faults), 0.0)")], [CHECKS]),
    ("-0.0 start for the total", "core.py",
     [("total = sum(_scanned(values, tol, faults))", "total = sum(_scanned(values, tol, faults), -0.0)")], [CHECKS]),
    ("the vector door returns the fault unraised", "core.py", [("raise fault()", "fault()")], [CHECKS]),
    ("_feasible without the vector rule", "polytope.py",
     [("    if _numerators_fault(x, q, tol, len(x)):\n        return False\n", "")], [FEASIBLE]),
    ("_feasible builds the error of each refused candidate", "polytope.py",
     [("if _numerators_fault(x, q, tol, len(x)):", "if (fault := _numerators_fault(x, q, tol, len(x))) and fault():")],
     [NO_MESSAGE]),
    ("_feasible without the l1 test", "polytope.py",
     [("return leq(sum(abs(u * one - v * q) for u, v in zip(x, x0)), eps * q, tol * len(x0))", "return True")],
     [FEASIBLE]),
    # Ball listing on numerators: the center and radius over one, each candidate over its q.
    ("l1 test without * one", "polytope.py", [("abs(u * one - v * q)", "abs(u - v * q)")], [FEASIBLE]),
    ("l1 test without * q", "polytope.py", [("abs(u * one - v * q)", "abs(u * one - v)")], [FEASIBLE]),
    ("radius left off the sign row", "polytope.py",
     [("(eps + sum(c if s == 1", "(sum(c if s == 1")], [LISTING]),
    ("positivity facet left out of the pool", "polytope.py",
     [("    pool.append(unit[-1] + (zero,))  # positivity facet x_d = 0\n", "")], [FACETS, LISTING]),
    ("listing cap refuses d = MAX_DIMENSION", "polytope.py", [("if d > MAX_DIMENSION:", "if d >= MAX_DIMENSION:")],
     [CAP]),
    # The fraction-free elimination of ball vertex listing (polytope.solve_square).
    ("q without the one factor", "polytope.py", [("return one * lcm, ", "return lcm, ")], [SOLVE]),
    ("numerators over |a_ii|", "polytope.py",
     [("row[n] * (lcm // row[i])", "row[n] * (lcm // abs(row[i]))")], [SOLVE]),
    ("pivot searched from row 0", "polytope.py", [("for r in range(col, n):", "for r in range(n):")], [SOLVE]),
    ("rows not scaled by the pivot", "polytope.py", [("pv * v - f * w", "v - f * w")], [SOLVE]),
    ("singular column not detected", "polytope.py", [("        else:\n            return None\n", "")], [SOLVE]),
    ("given rows eliminated in place", "polytope.py", [("    rows = list(rows)\n", "")], [SOLVE]),
    # The O(d) closed forms of the ball bounds (steepest_approx, flattest_approx, _water_level).
    ("radius test without its slack", "polytope.py",
     [("if lt(radius, 0, center.tol):", "if radius < 0:")], [BELOW_ZERO]),
    ("float radius within tol not a point", "polytope.py",
     [("return leq(ball.radius, 0, ball.center.tol)", "return ball.radius == 0")], [POINT]),
    ("steepest without the 1 - out[0] cap", "polytope.py",
     [("move = min(ball.radius / 2, 1 - out[0])", "move = ball.radius / 2")], [CLOSED]),
    ("steepest moves the whole radius", "polytope.py",
     [("min(ball.radius / 2, 1 - out[0])", "min(ball.radius, 1 - out[0])")], [CLOSED]),
    ("steepest takes from the largest tail entries first", "polytope.py",
     [("for i in range(len(out) - 1, 0, -1):", "for i in range(1, len(out)):")], [CLOSED]),
    ("flattest floor from the unreversed entries", "polytope.py",
     [("tuple(-e for e in reversed(x))", "tuple(-e for e in x)")], [CLOSED]),
    ("water level over k + 1", "polytope.py", [("level = (head - half) / k", "level = (head - half) / (k + 1)")],
     [CLOSED]),
    ("flattest without its uniform shortcut", "polytope.py",
     [("    if half >= sum(e - share for e in x if e > share):\n        return uniform\n", "")], [CLOSED]),
    # The exact kernels on integer numerators over one common denominator.
    ("unscale as v / one", "numeric.py",
     [("tuple(map(Fraction, values, repeat(one)))", "tuple(v / one for v in values)")], [KERNELS]),
    ("differences taken backwards", "core.py", [("map(sub, sums[1:], sums)", "map(sub, sums, sums[1:])")], [KERNELS]),
    ("PAV means as total / (count * one)", "lattice.py",
     [("Fraction(total, count * one) if tol == 0", "total / (count * one) if tol == 0")], [KERNELS]),
    ("family_sup differences the suprema, not their envelope", "lattice.py",
     [("steps = _differences(_upper_envelope(maxes, tol))", "steps = _differences(maxes)")], [KERNELS]),
    ("family_sup entries left over one", "lattice.py", [("entries=unscale(steps, one, tol)", "entries=steps")],
     [KERNELS]),
    # family_sup's shortcut: exact suprema whose steps never rise are their own envelope.
    ("shortcut in float mode", "lattice.py", [("if tol or any(map(gt,", "if any(map(gt,")], [KERNELS]),
    ("shortcut for every exact family", "lattice.py",
     [("if tol or any(map(gt, steps[1:], steps)):", "if tol:")], [KERNELS]),
    ("shortcut never taken", "lattice.py", [("if tol or any(map(gt, steps[1:], steps)):", "if True:")],
     ["tests/test_lattice.py::TestFamilies::test_concave_exact_suprema_skip_the_scan"]),
    ("exact envelope slopes by /", "lattice.py",
     [("Fraction(vals[j] - base, j - i) if exact", "(vals[j] - base) / (j - i) if exact")],
     ["tests/test_lattice.py::TestUpperEnvelope::test_exact_slopes_at_any_numerator_size"]),
    ("exact envelope steps by /", "lattice.py",
     [("step = Fraction(rise, run) if exact else rise / run", "step = rise / run")],
     ["tests/test_lattice.py::TestUpperEnvelope::test_integer_numerators_scale_the_envelope"]),
    ("curve_to_vector builds an exact vector from any curve", "core.py",
     [("entries=_differences(curve.values), tol=curve.tol)", "entries=_differences(curve.values), tol=0.0)")],
     [CURVES]),
    ("curve_to_vector reads a raw row with tol 0", "core.py",
     [("curve = LorenzCurve(curve, tol=None)", "curve = LorenzCurve(curve)")], [CURVES]),
    ("one from the first row only", "core.py",
     [("one = math.lcm(*{o for o, _ in forms})", "one = math.lcm(*{o for o, _ in forms[:1]})")], [KERNELS]),
    ("ascending sort of squares", "resource_theory.py",
     [("for part in parts), reverse=True)", "for part in parts), reverse=False)")], [KERNELS]),
    ("compare drops one more prefix sum", "core.py",
     [("accumulate(ry))][:-1]", "accumulate(ry))][:-2]")], [KERNELS]),
    ("compare gaps against +tol", "core.py",
     [("min(gaps, default=0) >= -tol", "min(gaps, default=0) >= tol")], [KERNELS]),
    ("amplitude pair squared as one component", "resource_theory.py",
     [("next(c) + next(c) if len(part) == 2", "next(c) if len(part) == 2")], [KERNELS]),
    ("float PAV with tol 0", "lattice.py",
     [("lt(below / size, total / count, tol)", "lt(below / size, total / count, 0)")], [KERNELS]),
    ("lt without its float slack", "numeric.py", [("return a < b if tol == 0", "return a < b if tol != 0")],
     ["tests/test_lattice.py::TestMeetJoin::test_float_join_pools_only_past_tol",
      "tests/test_resource_theory.py::TestFirstComponentBound::"
      "test_float_alpha_squared_within_tol_above_one_over_d_refused"]),
    # The plain float reader and the canonical text of a value.
    ("padded scale", "numeric.py", [("scale = max(twos, fives)", "scale = max(twos, fives) + 1")], [SCALAR_STR]),
    ("power of five one low", "numeric.py",
     [("fives = round((rest.bit_length() - 1) / _LOG2_5)", "fives = math.floor((rest.bit_length() - 1) / _LOG2_5)")],
     [SCALAR_STR]),
    ("plain float exponents of five digits", "numeric.py",
     [("{len(str(MAX_DECIMAL_EXPONENT)) - 1}", "{len(str(MAX_DECIMAL_EXPONENT))}")], [SPECIAL]),
    ("signed zeros read as plain floats", "numeric.py", [('rf"(?:\\+|-(?=[0-9.]*[1-9]))?', 'rf"[-+]?')], [SPECIAL]),
    ("plain floats overflow to inf", "numeric.py", [("return None if math.isinf(x) else x", "return x")], [SPECIAL]),
    ("str subclasses read as plain floats", "numeric.py",
     [("if type(value) is not str or _PLAIN_FLOAT", "if not isinstance(value, str) or _PLAIN_FLOAT")], [ROWS]),
    # The row reader (numeric.read_row) and make_vector on its numerators and entries.
    ("no newline-count guard", "numeric.py", [('text.count("\\n") != len(values) or ', "")], [ROWS]),
    ("max(q) in place of the lcm", "numeric.py",
     [("one = math.lcm(*denominators)", "one = max(denominators)")], [ROWS]),
    ("no digit-limit decline", "numeric.py",
     [("if limit and len(text) > limit and max(map(len, values)) > limit:", "if False:")], [ROWS]),
    ("zero denominators read", "numeric.py", [("/0*[1-9][0-9]*)?", "/[0-9]+)?")], [ROWS]),
    ("_plain_pairs always declining", "numeric.py",
     [("    except TypeError:  # a value that is no str\n        return None\n",
       "    except TypeError:  # a value that is no str\n        return None\n    return None\n")],
     ["tests/test_parse.py::test_plain_exact_row_is_read_whole"]),
    ("exact normalize leaves one unchanged", "core.py",
     [("one, numerators = (total, numerators) if tol == 0", "one, numerators = (one, numerators) if tol == 0")],
     [ROWS]),
    ("make_vector sorts ascending", "core.py",
     [("numerators = sorted(numerators, reverse=True)", "numerators = sorted(numerators)")], [ROWS]),
    ("read_row reads plain float rows as exact pairs", "numeric.py",
     [("pairs = _plain_pairs(values) if exact else None", "pairs = _plain_pairs(values)")],
     ["tests/test_parse.py::test_float_mode_signed_zero"]),
    ("read_row rebuilds a declined row's entries from its pairs", "numeric.py",
     [("        return (tol, *common_scale(entries, tol), entries)\n",
       "        if exact:\n"
       "            entries = tuple(Fraction(e.numerator, e.denominator) for e in entries)\n"
       "        return (tol, *common_scale(entries, tol), entries)\n")],
     ["tests/test_parse.py::test_declined_row_keeps_parsed_entries"]),
    ("read_row scales a declined float row as exact", "numeric.py",
     [("common_scale(entries, tol), entries)", "common_scale(entries, 0), entries)")], [ROWS]),
    ("make_vector's numerators unchecked", "core.py",
     [("    fault = _numerators_fault(numerators, one, tol, d)\n    if fault:\n        raise fault()\n", "")], [ROWS]),
    # The integer form (one, numerators) a vector keeps from its parse under numeric._over_lcm's size
    # rule, and the kernels that read it (core._over_one).
    ("form kept in its pre-sort order", "core.py",
     [("    if sort:\n        numerators = sorted(numerators, reverse=True)\n    return _checked_vector(",
       "    unsorted = numerators\n    if sort:\n        numerators = sorted(numerators, reverse=True)\n"
       "    vector = _checked_vector("),
      ("None if normalize or sort else entries, keep)\n",
       "None if normalize or sort else entries, keep)\n"
       "    if keep:\n        _FORM.__set__(vector, (one, tuple(unsorted)))\n    return vector\n")],
     [FORMS]),
    ("size rule dropped: the form always kept", "numeric.py",
     [("keep = one in denominators and (len(denominators) == 1 or sum(", "keep = True or (sum(")],
     [FORMS, "tests/test_parse.py::test_row_past_the_size_rule_keeps_no_form"]),
    ("bit sum over distinct denominators, not entries", "numeric.py",
     [("for _, q in pairs) <= 0", "for q in denominators) <= 0")], [FORMS]),
    ("bit test dropped", "numeric.py",
     [("(len(denominators) == 1 or sum(", "(True or sum(")],
     [FORMS, "tests/test_parse.py::test_form_is_never_longer_than_its_row"]),
    ("form scaled by one, not one // o", "core.py", [("repeat(one // o)", "repeat(one)")], [KERNELS]),
    ("compare reads one member's form for both", "core.py",
     [('getattr(v, "_form", None) or common_scale', 'getattr(vectors[0], "_form", None) or common_scale')],
     [KERNELS]),
    ("the door ignoring state_to_vector's keep flag", "resource_theory.py",
     [(", keep=not tol and type(numerators) is tuple)", ")")],
     ["tests/test_kernels.py::test_state_to_vector_matches_reference"]),
    # The curve rule (core._check_cumulative): S_0, then the steps by the vector rule, for
    # LorenzCurve and ExtremalFamily, and the order of the two maps.
    ("upper map checked as concave", "lattice.py",
     [('("upper", numerators[d + 1 :], False)', '("upper", numerators[d + 1 :], True)')], [EXTREMAL]),
    ("order of the two maps unchecked", "lattice.py",
     [("        for k in range(d + 1):\n            if not geq(numerators[d + 1 + k], numerators[k], tol):\n"
       '                raise InvalidExtremalError(f"upper map below lower map at k={k}")\n', "")], [EXTREMAL]),
    ("S_0 shown as its numerator", "core.py",
     [("got {_shown_entry(values[0], one, tol)}", "got {shown(values[0])}")], [CURVES]),
    ("upper map's steps left unsorted", "core.py",
     [("    if not concave:\n        steps = sorted(steps, reverse=True)\n", "")], [EXTREMAL]),
    ("curve classes of a fall and a rise swapped", "core.py",
     [("NegativeEntryError: NotMonotoneError, NotSortedError: NotConcaveError",
       "NegativeEntryError: NotConcaveError, NotSortedError: NotMonotoneError")], [CURVES]),
    ("S_0 unchecked", "core.py",
     [("    if not eq(values[0], 0, tol):\n"
       '        raise BadEndpointsError(f"S_0 must be 0, got {_shown_entry(values[0], one, tol)}")\n', "")],
     [CURVES]),
    ("step sum slack tol * (d + 1)", "core.py",
     [("_numerators_fault(steps, one, tol, len(steps))", "_numerators_fault(steps, one, tol, len(values))")],
     [CURVES]),
    # The one mode rule (numeric.resolve_mode).
    ("bool tolerance read as a number", "numeric.py",
     [("        if isinstance(tol, bool):  # float(True) would be a tolerance of 1.0\n"
       '            raise ModeMismatchError(f"tolerance must be a number, not {tol!r}")\n', "")],
     ["tests/test_core.py::test_tolerance_must_be_finite_and_non_negative"]),
]

EQUIVALENT = [
    ("PAV pools ties (<=)", "lattice.py", "below * count < total * size -> <=",
     "pooling two blocks of equal means leaves every mean unchanged"),
    ("uniform shortcut only past the tie (>)", "polytope.py", "half >= sum(...) -> >",
     "at a tie both water levels reach 1/d, which is the uniform vector"),
    ("water level stops only past a tie (<)", "polytope.py", "entries[k] <= level -> <",
     "an entry equal to the level leaves the level unchanged when it is taken in"),
    ("scalar_str without its early exit", "numeric.py", "drop the rest % 5 test",
     "a rest that 5 does not divide and that is not 1 fails 5**fives == rest too; only time changes"),
]


def _copy(tmp: Path) -> None:
    shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", tmp / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _apply(tmp: Path, name: str, file: str, edits) -> None:
    path = tmp / "src" / "majlat" / file
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        if text.count(old) != 1:
            sys.exit(f"mutant {name!r} no longer applies: {old!r} occurs {text.count(old)} times in {file}")
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")


def _passes(tmp: Path, tests) -> bool:
    """The tests pass on the copy in tmp; the first failure stops the run."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               *tests]
    proc = subprocess.run(command, cwd=tmp, env=dict(os.environ, PYTHONPATH=str(tmp / "src")),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    start = time.perf_counter()
    everything = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        if not _passes(Path(tmp), everything):
            print(f"the unchanged library fails {' '.join(everything)}")
            return 1
    survivors = []
    for name, file, edits, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            _apply(Path(tmp), name, file, edits)
            survived = _passes(Path(tmp), tests)
        print(f"{'SURVIVED' if survived else 'killed  '}  {file:<19} {name}")
        if survived:
            survivors.append(name)
    for name, file, change, reason in EQUIVALENT:
        print(f"{'equal':<8}  {file:<19} {name} ({change}): {reason}")
    seconds = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {seconds:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
