#!/usr/bin/env python3
"""Run version-sensitive checks under each other supported Python installed by pyenv.

    python3 scripts/versions.py

For each of VERSIONS it looks for $PYENV_ROOT/versions/<version>/bin/python3
($PYENV_ROOT defaults to ~/.pyenv), reports a missing one and skips it, and
runs this script under it with the argument --child. The child needs only
the standard library and majlat from this checkout. It runs:

- the worked examples (scripts/run_examples.py) into a temporary directory,
  byte for byte against out/;
- the README examples through doctest;
- a pickle, copy and hash round trip of every value class; three exact
  vectors from make_vector and state_to_vector whose rows pass the size
  rule of numeric._over_lcm keep their integer forms, their copies carry
  none, and family_inf gives the same vector on a copy, on the original
  and on both;
- scalar_str, compare and state_to_vector against tests/oracles.py's
  references on seeded inputs, in exact and float mode: the float
  logarithm of scalar_str, Fraction.as_integer_ratio, by which
  common_scale reads a row of entries, and float sums, whose rounding
  changed in 3.12.

Exit status: 0 when every interpreter found passes, 1 when one fails. Not a
tier-1 test: the interpreters need not be there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = ("3.10.13", "3.12.1", "3.13.0")


def _examples():
    import contextlib
    import importlib.util
    import io
    import tempfile

    spec = importlib.util.spec_from_file_location("run_examples", ROOT / "scripts" / "run_examples.py")
    examples = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(examples)
    with tempfile.TemporaryDirectory() as tmp:
        examples.OUT = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):  # keep the child's report short
            examples.pair_example()
            examples.segment_example()
            examples.ball_example()
        written = sorted(Path(tmp).iterdir())
        differ = [p.name for p in written if p.read_bytes() != (ROOT / "out" / p.name).read_bytes()]
    assert len(written) == 6 and not differ, f"out/ differs: {differ or len(written)}"
    return f"{len(written)} files identical"


def _readme():
    import doctest

    results = doctest.testfile(str(ROOT / "README.md"), module_relative=False, encoding="utf-8")
    assert results.attempted and not results.failed, f"{results.failed} of {results.attempted} failed"
    return f"{results.attempted} passed"


def _round_trips():
    import copy
    import pickle

    from majlat import (Ball, ExtremalFamily, LorenzCurve, Polytope, ResourceTheory, StateSpec, family_inf,
                        first_component_family, make_vector, partial_sums, state_to_vector)

    x = make_vector(["0.5", "0.3", "0.2"])
    state = StateSpec(amplitudes=("3/5", ("0", "4/5")))
    kept = [x, make_vector(["1/6", "1/2", "1/3"], sort=True), state_to_vector(state, ResourceTheory.COHERENCE)]
    assert all(getattr(v, "_form", None) is not None for v in kept), "a vector keeps no integer form"
    values = [*kept, x.to_float(), partial_sums(x), LorenzCurve(["0", "1/2", "1"]), first_component_family("0.8", 3),
              ExtremalFamily(2, ["0", "1/2", "1"], ["0", "1", "1"]), Polytope((x, make_vector(["0.6", "0.4", "0"]))),
              Ball(x, "1/10"), Ball(x.to_float(), 0.1), state]
    for v in values:
        for other in (*(pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
                      copy.copy(v), copy.deepcopy(v)):
            assert other == v and hash(other) == hash(v) and repr(other) == repr(v), repr(v)
            if any(v is k for k in kept):
                assert getattr(other, "_form", None) is None, f"a copy of {v!r} keeps an integer form"
                assert family_inf((other, v)) == family_inf((other, other)) == family_inf((v, v)) == v, repr(v)
    return f"{len({type(v) for v in values})} classes, {len(values)} values, {len(kept)} with integer forms"


def _references():
    import random
    from fractions import Fraction

    from majlat import MajlatError, ResourceTheory, StateSpec, compare, scalar_str, state_to_vector
    from tests.oracles import (random_grid_vector, reference_compare, reference_scalar_str,
                               reference_state_to_vector)

    rng = random.Random(31)
    scalars = [rng.randrange(-10**6, 10**6) for _ in range(200)]
    scalars += [Fraction(rng.randrange(-10**9, 10**9), 2 ** rng.randrange(400) * 5 ** rng.randrange(400))
                for _ in range(1000)]
    scalars += [Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9)) for _ in range(1000)]
    scalars += [rng.uniform(-1, 1) for _ in range(200)] + [Fraction(1, 10**4000), Fraction(3, 2**70 * 5**6000)]
    for v in scalars:
        assert scalar_str(v) == reference_scalar_str(v), repr(v)
    pairs = 0
    for d in (1, 2, 3, 5, 8, 16):
        for _ in range(60):
            x, y = random_grid_vector(rng, d, 20), random_grid_vector(rng, d, 20)
            for a, b in ((x, y), (x, x), (x.to_float(), y.to_float()), (x.to_float(), x.to_float())):
                assert compare(a, b) is reference_compare(a, b), (a, b)
                pairs += 1
    states = 0
    for n in (1, 2, 3, 5, 8):  # components, on the unit sphere by inverse stereographic projection
        for _ in range(100):
            t = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(n - 1)]
            s = sum(c * c for c in t)
            unit = [2 * c / (1 + s) for c in t] + [(1 - s) / (1 + s)]
            if rng.random() < 0.1:  # a tenth not normalized
                unit = [2 * c for c in unit]
            parts, i = [], 0
            while i < n:  # each amplitude a real component or an (re, im) pair
                pair = i + 1 < n and rng.random() < 0.5
                parts.append(tuple(unit[i:i + 2]) if pair else unit[i])
                i += 1 + pair
            for convert, tol in ((str, None), (float, 1e-9)):
                data = tuple(tuple(map(convert, a)) if isinstance(a, tuple) else convert(a) for a in parts)
                results = []
                for fn in (state_to_vector, reference_state_to_vector):
                    try:
                        results.append(list(map(repr, fn(StateSpec(amplitudes=data), ResourceTheory.COHERENCE,
                                                          tol=tol).entries)))
                    except MajlatError as exc:  # both must refuse alike
                        results.append((type(exc), str(exc)))
                assert results[0] == results[1], data
                states += 1
    return f"{len(scalars)} scalar_str, {pairs} compare, {states} state_to_vector"


def child() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    failed = 0
    for check in (_examples, _readme, _round_trips, _references):
        try:
            print(f"  {check.__name__.strip('_'):<12} ok: {check()}")
        except Exception as exc:
            print(f"  {check.__name__.strip('_'):<12} FAILED: {type(exc).__name__}: {exc}")
            failed += 1
    return 1 if failed else 0


def main() -> int:
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    failed = 0
    for version in VERSIONS:
        python = root / version / "bin" / "python3"
        if not python.exists():
            print(f"Python {version}: not installed, skipped")
            continue
        print(f"Python {version}:", flush=True)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        failed += subprocess.run([str(python), __file__, "--child"], cwd=ROOT, env=env).returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(child() if sys.argv[1:] == ["--child"] else main())
