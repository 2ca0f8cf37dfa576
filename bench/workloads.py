"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload is a list of rounds, each a list of operations. A run executes
whole rounds, cycling through them, so every run sees the same mix of
operation kinds, dimensions and modes whatever its seed. An operation
receives only raw input strings, as a script user would pass them, and
returns what that user would keep: serialized result entries, an ordering
name, or a CLI exit code with its output. `check` compares that output
with the references in `oracles` and returns counters for the traced run.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from pathlib import Path

import oracles as O

# References are wrapped in functools.cache: computed on first check, not during set-up.

TOL = 1e-12  # majlat's default float tolerance; float-mode operations pass it explicitly
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


@dataclass
class Workload:
    rounds: list  # operations timed end to end
    warmup: list  # operations run untimed during set-up
    params: dict  # recorded with every result
    traced_rounds: list | None = None  # operations of the traced run, when they differ
    before_trace: object = None  # callable run before the traced pass, untimed
    final_checks: list = field(default_factory=list)  # callables returning a failure count


class LibraryOp:
    """One script-level call sequence on fixed raw inputs.

    The first output that passes its check is kept; a later output equal
    to it passes without recomputing the reference.
    """

    __slots__ = ("kind", "run", "_verify", "_good", "_facts")
    probe = "arithmetic"  # the speed probe whose slowdown scales this operation's time

    def __init__(self, kind, run, verify):
        self.kind, self.run, self._verify = kind, run, verify
        self._good = self._facts = None

    def check(self, output) -> dict:
        if self._good is not None and output == self._good:
            return self._facts
        facts = self._verify(output)
        self._good, self._facts = output, facts
        return facts


# ---------------------------------------------------------------- inputs


def _weights(rng, d: int, top: int = 1000, powers=(1, 2, 3)) -> list[int]:
    power = rng.choice(powers)
    w = sorted((rng.randrange(top) ** power for _ in range(d)), reverse=True)
    w[0] += 1  # positive sum
    return w


def _skewed(rng, d: int, spiked: bool) -> list[int]:
    """Power-law weights, either flat with a spike on the first entry or steep.

    A spiked member's Lorenz curve starts higher and a steep one's rises
    faster after, so families mixing both have crossing curves and their
    suprema need the concave-majorant repair.
    """
    alpha = rng.uniform(0.1, 0.2) if spiked else rng.uniform(0.85, 0.95)
    w = sorted((int(10**6 * (i + 1) ** -alpha) + rng.randrange(1000) for i in range(d)), reverse=True)
    if spiked:
        share = rng.uniform(0.35, 0.45)
        w[0] += int(share / (1 - share) * sum(w))
    return w


def _decimal_strings(w: list[int], digits: int) -> list[str]:
    """Decimal strings summing to exactly one, non-increasing like w."""
    scale, total = 10**digits, sum(w)
    parts = [x * scale // total for x in w]
    for i in range(scale - sum(parts)):
        parts[i] += 1
    return ["1" if p == scale else f"0.{p:0{digits}d}" for p in parts]


def _exact_strings(rng, w: list[int]) -> list[str]:
    if rng.random() < 0.5:
        total = sum(w)
        return [f"{x}/{total}" for x in w]
    return _decimal_strings(w, 9)


def _float_strings(w: list[int]) -> list[str]:
    total = sum(w)
    return [repr(x / total) for x in w]


def _amplitudes(rng, d: int) -> list:
    """d rational amplitudes, some as (re, im) pairs, with squared moduli summing to one.

    Inverse stereographic projection of a rational point gives a rational
    unit vector, so the state is exactly normalized.
    """
    pairs = rng.randint(0, d // 2)
    n = d + pairs
    q = rng.randint(1, 9)
    a = [rng.randint(-9, 9) for _ in range(n - 1)]
    s = sum(x * x for x in a)
    den = q * q + s
    comps = [f"{2 * x * q}/{den}" for x in a] + [f"{s - q * q}/{den}"]
    amps = [(comps[2 * i], comps[2 * i + 1]) for i in range(pairs)] + comps[2 * pairs :]
    rng.shuffle(amps)
    return amps


def _squared_moduli(amps) -> O.Vec:
    mods = [
        Fraction(a[0]) ** 2 + Fraction(a[1]) ** 2 if isinstance(a, tuple) else Fraction(a) ** 2
        for a in amps
    ]
    return tuple(sorted(mods, reverse=True))


# ----------------------------------------------------- library operations


def _serialize(M, v):
    return [M.scalar_str(e) for e in v.entries]


def _parse(tr, M, raws, tol):
    return [tr.call("core.parse", M.make_vector, raw, tol=tol) for raw in raws]


def _vector_check(want, float_mode: bool, d: int, entries: int = 0, facts=None):
    """Check a serialized vector against want(); facts() adds counters for the trace."""
    slack = Fraction(d * TOL) if float_mode else Fraction(0)

    def verify(out):
        got = O.parse_result(out, float_mode)
        O.expect_close(got, want(), slack, "result")
        extra = {"core.entries": entries, **(facts() if facts else {})}
        if not float_mode:
            extra["numeric.result_bits_max"] = O.bits(got)
        return extra

    return verify


def _family_op(M, kind, raws, tol, want, facts=None):
    fn = {"meet": M.meet, "join": M.join, "family_inf": M.family_inf, "family_sup": M.family_sup}[kind]
    span = {"family_inf": "lattice.inf", "family_sup": "lattice.sup"}.get(kind, "lattice.meet_join")
    pair = kind in ("meet", "join")
    entries = sum(len(r) for r in raws)

    def run(tr):
        vs = _parse(tr, M, raws, tol)
        z = tr.call(span, fn, *vs) if pair else tr.call(span, fn, vs)
        return tr.call("numeric.serialize", _serialize, M, z)

    return LibraryOp(kind, run, _vector_check(want, tol is not None, len(raws[0]), entries, facts))


def _lattice_facts(sup):
    return lambda: {"lattice.repair_inputs": sup()[1]["repair_inputs"],
                    "lattice.support_points": sup()[1]["support_points"]}


def _compare_op(M, raws):
    want = cache(lambda: O.ordering(O.exact(raws[0]), O.exact(raws[1])))
    entries = len(raws[0]) + len(raws[1])

    def run(tr):
        x, y = _parse(tr, M, raws, None)
        return tr.call("core.compare", M.compare, x, y).value

    def verify(out):
        if out != want():
            raise O.CheckError(f"ordering {out!r}, want {want()!r}")
        return {"core.entries": entries}

    return LibraryOp("compare", run, verify)


def _state_vector(M, theory, tol, amplitudes=None, spectrum=None):
    spec = M.StateSpec(amplitudes=amplitudes) if amplitudes is not None else M.StateSpec(spectrum=spectrum)
    return M.state_to_vector(spec, M.ResourceTheory(theory), tol=tol)


def _ocr_op(M, theory, states, tol, want, key):
    def run(tr):
        vs = [tr.call("resource_theory.state", _state_vector, M, theory, tol, **{key: s}) for s in states]
        z = tr.call("resource_theory.ocr", M.optimal_common_resource, vs, M.ResourceTheory(theory))
        return tr.call("numeric.serialize", _serialize, M, z)

    d = len(states[0])
    return LibraryOp("ocr", run, _vector_check(want, tol is not None, d))


def _hull_sup(M, vectors):
    return M.polytope_sup(M.Polytope(tuple(vectors)))


def _hull_op(M, raws, tol, want):
    def run(tr):
        vs = _parse(tr, M, raws, tol)
        z = tr.call("polytope.hull", _hull_sup, M, vs)
        return tr.call("numeric.serialize", _serialize, M, z)

    entries = sum(len(r) for r in raws)
    return LibraryOp("polytope_sup", run, _vector_check(want, tol is not None, len(raws[0]), entries))


# ------------------------------------------------------------ small-exact

SMALL_DIMS = (4, 8, 16, 64)
SMALL_KINDS = ("compare", "meet", "join", "family_inf", "family_sup", "ocr")


def small_exact(M, rng) -> Workload:
    rounds = []
    for r in range(24):
        ops = []
        for d in SMALL_DIMS:
            for kind in SMALL_KINDS:
                for i in range(2):
                    # members cycle through 2..8 so every run sees the same sizes
                    ops.append(_small_op(M, rng, d, kind, 2 + (2 * r + i) % 7))
        rounds.append(ops)
    params = {"dims": SMALL_DIMS, "kinds": SMALL_KINDS, "members": [2, 8], "mode": "exact",
              "ops_per_round": len(rounds[0]), "distinct_rounds": len(rounds)}
    return Workload(rounds, rounds[0][: len(SMALL_KINDS) * 2 : 2], params)


def _small_op(M, rng, d, kind, members):
    if kind == "ocr":
        theory = rng.choice(("coherence", "entanglement"))
        states = [_amplitudes(rng, d) for _ in range(members)]
        want = cache(lambda: O.family_inf([_squared_moduli(s) for s in states]))
        return _ocr_op(M, theory, states, None, want, "amplitudes")
    if kind in ("compare", "meet", "join"):
        members = 2
    raws = [_exact_strings(rng, _weights(rng, d)) for _ in range(members)]
    if kind == "compare":
        return _compare_op(M, raws)
    exact = cache(lambda: [O.exact(r) for r in raws])
    if kind in ("meet", "family_inf"):
        return _family_op(M, kind, raws, None, lambda: O.family_inf(exact()))
    sup = cache(lambda: O.family_sup(exact()))
    return _family_op(M, kind, raws, None, lambda: sup()[0], _lattice_facts(sup))


# ---------------------------------------------------------------- large-d

LARGE_KINDS = ("family_sup", "join", "polytope_sup", "ocr", "family_inf")
# (d, mode, operations) per family in a round. The cheap d=128 family runs
# two kinds only and d=2048 appears twice, so the median falls inside the
# 90-150 ms operations and p90 inside the d=2048 suprema, not in a gap
# between clusters of operation costs.
LARGE_SHAPES = ((128, "exact", ("family_sup", "family_inf")), (256, "exact", LARGE_KINDS),
                (1024, "float", LARGE_KINDS), (2048, "float", LARGE_KINDS), (2048, "float", LARGE_KINDS))


def large_d(M, rng) -> Workload:
    rounds = []
    for r in range(6):  # a run completes about six rounds, so it sees no input twice
        ops = []
        for i, (d, mode, kinds) in enumerate(LARGE_SHAPES):
            ws = [_skewed(rng, d, j % 2 == 0) for j in range(2 + (r + i) % 3)]
            tol = TOL if mode == "float" else None
            raws = [_float_strings(w) if tol else _exact_strings(rng, w) for w in ws]
            ops.extend(op for op in _large_ops(M, raws, tol) if op.kind in kinds)
        rounds.append(ops)
    params = {"shapes": LARGE_SHAPES, "members": [2, 4], "tol": TOL,
              "ops_per_round": len(rounds[0]), "distinct_rounds": len(rounds)}
    return Workload(rounds, rounds[0][:2], params)


def _large_ops(M, raws, tol):
    exact = cache(lambda: [O.exact(r) for r in raws])
    sup = cache(lambda: O.family_sup(exact()))
    pair_sup = cache(lambda: O.family_sup(exact()[:2]))
    return [
        _family_op(M, "family_sup", raws, tol, lambda: sup()[0], _lattice_facts(sup)),
        _family_op(M, "join", raws[:2], tol, lambda: pair_sup()[0], _lattice_facts(pair_sup)),
        _hull_op(M, raws, tol, lambda: sup()[0]),
        _ocr_op(M, "purity", raws, tol, lambda: sup()[0], "spectrum"),
        _family_op(M, "family_inf", raws, tol, lambda: O.family_inf(exact())),
    ]


# ------------------------------------------------------------------- ball

BALL_KINDS = ("ball_vertices", "steepest_approx", "flattest_approx")
# Operations per round for each (d, mode), so that each dimension takes a
# comparable share of the time: one exact d=5 enumeration costs about as
# much as 12 at d=4 or 200 at d=3.
BALL_MIX = {(3, "exact"): 150, (3, "float"): 400, (4, "exact"): 10, (4, "float"): 40,
            (5, "exact"): 1, (5, "float"): 4}
BALL_RADII = ("zero", "small", "corner")


def ball(M, rng) -> Workload:
    rounds = [[] for _ in range(8)]
    for (d, mode), count in BALL_MIX.items():
        # A lone exact d=5 operation per round always enumerates, so every
        # round costs the same; radius 0 shows up in every other group.
        radii = BALL_RADII[1:] if count < len(BALL_RADII) else BALL_RADII
        n = 0
        for ops in rounds:
            for _ in range(count):
                kind = BALL_KINDS[(n // len(radii)) % len(BALL_KINDS)]
                ops.append(_ball_op(M, rng, d, mode, kind, radii[n % len(radii)]))
                n += 1
    for ops in rounds:
        rng.shuffle(ops)
    warmup = [_ball_op(M, rng, 3, mode, kind, "small") for mode in ("exact", "float") for kind in BALL_KINDS]
    params = {"mix": {f"d{d}-{m}": c for (d, m), c in BALL_MIX.items()}, "kinds": BALL_KINDS,
              "radii": BALL_RADII, "tol": TOL, "ops_per_round": len(rounds[0]), "distinct_rounds": len(rounds)}
    return Workload(rounds, warmup, params)


def _ball_op(M, rng, d, mode, kind, radius):
    w = _weights(rng, d, 60, (1,))  # small entries keep exact enumeration costs alike
    float_mode = mode == "float"
    center_raw = _float_strings(w) if float_mode else _exact_strings(rng, w)
    center = O.exact(center_raw)
    if radius == "zero":
        eps = Fraction(0)
    elif radius == "small":
        eps = (1 - center[0]) * Fraction(rng.randint(1, 19), 10)
    else:  # far enough to reach the point mass, a corner of the simplex
        eps = 2 * (1 - center[0]) + Fraction(rng.randint(1, 10), 10)
    eps_raw = repr(float(eps)) if float_mode else str(eps)
    tol = TOL if float_mode else None

    def run(tr):
        (c,) = _parse(tr, M, [center_raw], tol)
        b = M.Ball(c, eps_raw)
        if kind == "ball_vertices":
            hull = tr.call("polytope.vertices", M.ball_vertices, b)
            return tr.call("numeric.serialize", lambda: [_serialize(M, v) for v in hull.vertices])
        z = tr.call("polytope.bound", getattr(M, kind), b)
        return tr.call("numeric.serialize", _serialize, M, z)

    return LibraryOp(kind, run, _ball_check(kind, center_raw, eps_raw, float_mode))


def _ball_check(kind, center_raw, eps_raw, float_mode):
    d = len(center_raw)
    slack = Fraction(d * TOL) if float_mode else Fraction(0)

    def verify(out):
        c, eps = O.exact(center_raw), Fraction(eps_raw)
        top, low = O.steepest(c, eps), O.flattest(c, eps)
        if kind == "steepest_approx":
            O.expect_close(O.parse_result(out, float_mode), top, slack, "steepest")
            return {"core.entries": d}
        if kind == "flattest_approx":
            O.expect_close(O.parse_result(out, float_mode), low, slack, "flattest")
            return {"core.entries": d}
        if not isinstance(out, list) or not out:
            raise O.CheckError("no vertices listed")
        verts = [O.parse_result(v, float_mode) for v in out]
        for v in verts:
            if len(v) != d or not O.in_ball(v, c, eps, slack):
                raise O.CheckError(f"vertex outside the ball: {[str(x) for x in v]}")
            if not (O.majorizes(top, v, slack) and O.majorizes(v, low, slack)):
                raise O.CheckError("a vertex escapes the closed-form bounds")
        for bound, name in ((top, "steepest"), (low, "flattest")):
            if not any(O.close(v, bound, slack) for v in verts):
                raise O.CheckError(f"{name} bound is not among the vertices")
        return {"core.entries": d, "polytope.vertices_out": len(verts)}

    return verify


# -------------------------------------------------------------------- cli

CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CLI_WORK = OUT / "cli"
CLI_ROUNDS = 4
CLI_BAD_INPUTS = {  # file content -> expected exit code
    '{"d": 4, "vectors": [["0.4", "0.3",': 2,  # truncated JSON
    '{"d": 3}': 2,  # no vectors field
    '{"d": 3, "vectors": [["0.2", "0.3", "0.5"], ["0.5", "0.3", "0.2"]]}': 1,  # unsorted
}


def majlat_process(argv):
    proc = subprocess.run([sys.executable, "-m", "majlat", *argv], cwd=ROOT, env=CLI_ENV,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _main_in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliJob:
    """One `python -m majlat` invocation and the result it must produce."""

    probe = "interpreter"

    def __init__(self, render, kind, argv, code, svg=None, expect=None):
        self.render, self.kind, self.argv, self.code, self.svg = render, kind, argv, code, svg
        self.expect = cache(expect) if expect else None  # -> (result block, ordering, curves)

    def run(self, tr):
        return tr.call("cli.process", majlat_process, self.argv)

    def check(self, output) -> dict:
        code, stdout, stderr = output
        if code != self.code:
            raise O.CheckError(f"{self.kind}: exit {code}, want {self.code}: {stderr.strip()[:200]}")
        if "Traceback" in stderr:
            raise O.CheckError(f"{self.kind}: traceback on stderr")
        if self.code != 0:
            if stdout:
                raise O.CheckError(f"{self.kind}: output on a failed run")
            return {}
        block, ordering, curves = self.expect()
        doc = json.loads(stdout)
        if doc.get("result") != block or doc.get("ordering") != ordering:
            raise O.CheckError(f"{self.kind}: result differs from the in-process library result")
        if self.svg:
            want = self.render(curves).encode()
            if Path(ROOT / self.svg).read_bytes() != want:
                raise O.CheckError(f"{self.kind}: SVG differs from the in-process rendering")
        return {}


class InProcessJob:
    """The same job through `majlat.cli.main` in this process, plus its plot."""

    probe = "arithmetic"

    def __init__(self, job: CliJob, main):
        self.job, self.main, self.kind = job, main, job.kind

    def run(self, tr):
        result = tr.call("cli.main", _main_in_process, self.main, self.job.argv)
        if self.job.code != 0:
            return result, 0
        curves = self.job.expect()[2]  # computed by before_trace
        return result, len(tr.call("svg.render", self.job.render, curves))

    def check(self, output) -> dict:
        result, svg_bytes = output
        self.job.check(result)
        return {"svg.bytes_out": svg_bytes} if svg_bytes else {}


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path.relative_to(ROOT))


def _library_result(M, command, rows, which, extra):
    """(result vectors, ordering, reference vector) for one CLI job."""
    vs = [M.make_vector(r) for r in rows]
    members = [O.exact(r) for r in rows]
    if command == "compare":
        return [], M.compare(vs[0], vs[1]).value, O.ordering(members[0], members[1])
    if command == "lorenz":
        return [], None, None
    if command == "ball":
        result = M.steepest_approx(M.Ball(vs[0], extra))
        return [result], None, O.steepest(members[0], Fraction(extra))
    up = command in ("join", "sup") or which in ("sup", "purity")
    fn = {"meet": M.meet, "join": M.join}.get(command)
    result = fn(vs[0], vs[1]) if fn else (M.family_sup(vs) if up else M.family_inf(vs))
    return [result], None, O.family_sup(members)[0] if up else O.family_inf(members)


def _expectation(M, command, rows, which=None, extra=None):
    def expect():
        results, ordering, reference = _library_result(M, command, rows, which, extra)
        if command == "compare":
            if ordering != reference:
                raise O.CheckError(f"library ordering {ordering}, reference {reference}")
        elif results and tuple(results[0].entries) != reference:
            raise O.CheckError(f"library {command} disagrees with the reference")
        block = None
        if results:
            block = {"d": results[0].d,
                     "vectors": [[M.scalar_str(e) for e in v.entries] for v in results],
                     "rationals": [[str(e) for e in v.entries] for v in results]}
        curves = [(f"x{i + 1}", M.partial_sums(M.make_vector(r))) for i, r in enumerate(rows)]
        curves += [(command, M.partial_sums(v)) for v in results]
        return block, ordering, curves

    return expect


def cli(M, rng) -> Workload:
    CLI_WORK.mkdir(parents=True, exist_ok=True)
    render = importlib.import_module("majlat.svg").emit_lorenz_svg
    rounds = []
    bad = list(CLI_BAD_INPUTS.items())
    for r in range(CLI_ROUNDS):
        def vectors(count):
            d = rng.choice((4, 8, 16))
            return [_exact_strings(rng, _weights(rng, d)) for _ in range(count)]

        def infile(name, rows, csv=False):
            path = CLI_WORK / f"r{r}-{name}.{'csv' if csv else 'json'}"
            text = "".join(",".join(v) + "\n" for v in rows) if csv else json.dumps({"d": len(rows[0]), "vectors": rows})
            return _write(path, text)

        jobs = []
        for command in ("meet", "join", "compare"):
            rows = vectors(2)
            argv = [command, "-i", infile(command, rows)]
            svg = None
            if command == "join":
                svg = str((CLI_WORK / f"r{r}-join.svg").relative_to(ROOT))
                argv += ["--svg", svg]
            jobs.append(CliJob(render, command, argv, 0, svg, _expectation(M, command, rows)))
        for command, csv in (("sup", False), ("inf", True)):
            rows = vectors(rng.randint(2, 6))
            jobs.append(CliJob(render, command, [command, "-i", infile(command, rows, csv)], 0,
                               expect=_expectation(M, command, rows)))
        which = ("inf", "sup")[r % 2]
        rows = vectors(rng.randint(2, 6))
        jobs.append(CliJob(render, "polytope", ["polytope", f"--{which}", "-i", infile("polytope", rows)], 0,
                           expect=_expectation(M, "polytope", rows, which)))
        theory = ("coherence", "purity", "entanglement")[r % 3]
        rows = vectors(rng.randint(2, 6))
        jobs.append(CliJob(render, "ocr", ["ocr", "--theory", theory, "-i", infile("ocr", rows)], 0,
                           expect=_expectation(M, "ocr", rows, theory)))
        for d in (3, 4, 4):  # two d=4 enumerations per round put p90 inside their cluster
            center = _exact_strings(rng, _weights(rng, d, 60))
            eps = str(Fraction(rng.randint(1, 15), 10) * (1 - Fraction(center[0])))
            jobs.append(CliJob(render, "ball", ["ball", "--center", ",".join(center), "--eps", eps, "--sup"], 0,
                               expect=_expectation(M, "ball", [center], extra=eps)))
        rows = vectors(rng.randint(1, 4))
        svg = str((CLI_WORK / f"r{r}-lorenz.svg").relative_to(ROOT))
        jobs.append(CliJob(render, "lorenz", ["lorenz", "-i", infile("lorenz", rows), "--svg", svg], 0, svg,
                           _expectation(M, "lorenz", rows)))
        text, code = bad[r % len(bad)]
        command = ("meet", "sup", "inf")[r % 3]
        jobs.append(CliJob(render, "bad-input", [command, "-i", _write(CLI_WORK / f"r{r}-bad.json", text)], code))
        rng.shuffle(jobs)
        rounds.append(jobs)

    main = importlib.import_module("majlat.cli").main
    rerun = next(j for j in rounds[0] if j.kind == "join")
    params = {"commands": ["meet", "join --svg", "compare", "sup", "inf (csv)", "polytope", "ocr",
                           "ball --sup", "lorenz --svg", "bad-input"],
              "dims": [4, 8, 16], "ball_dims": [3, 4], "ops_per_round": len(rounds[0]),
              "distinct_rounds": len(rounds)}
    return Workload(rounds, [next(j for j in rounds[0] if j.kind == "compare")], params,
                    traced_rounds=[[InProcessJob(j, main) for j in ops] for ops in rounds],
                    before_trace=lambda: [j.expect() for ops in rounds for j in ops if j.expect],
                    final_checks=[lambda: _rerun_identical(rerun)])


def _rerun_identical(job: CliJob) -> int:
    """Run one `join --svg` twice; its JSON and SVG must repeat byte for byte."""
    outputs = []
    for _ in range(2):
        code, stdout, _ = majlat_process(job.argv)
        outputs.append((code, stdout, Path(ROOT / job.svg).read_bytes()))
    if outputs[0] != outputs[1]:
        print("bench: join --svg output differs between two identical runs", file=sys.stderr)
        return 1
    return 0


class StartupOp:
    """A bare interpreter start, or one that imports majlat.cli."""

    probe = "arithmetic"  # not "interpreter", which would make cli.interpreter_ms a constant

    def __init__(self, kind, code):
        self.kind, self.argv = kind, [sys.executable, "-c", code]

    def run(self, tr):
        return tr.call(self.kind, subprocess.run, self.argv, cwd=ROOT, env=CLI_ENV, capture_output=True).returncode

    def check(self, code) -> dict:
        if code != 0:
            raise O.CheckError(f"{self.kind}: exit {code}")
        return {}


def startup_ops() -> list:
    return [StartupOp("cli.interpreter", "pass"), StartupOp("cli.import", "import majlat.cli")]


WORKLOADS = {"small-exact": small_exact, "large-d": large_d, "ball": ball, "cli": cli}
