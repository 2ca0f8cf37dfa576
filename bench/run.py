"""Benchmark for majlat: one workload per run, every result checked.

    python3 bench/run.py --workload small-exact --seed 1 --seconds 10 --trace 0

With --trace 0 the run measures the workload end to end; with --trace 1 it
reports per-layer metrics from traced passes instead (see README.md). The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
majlat is imported from ./src of the checkout the command runs in.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads as W
from oracles import CheckError
from tracing import NullTracer, Tracer

SETUP_REPEATS = 3
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
STARTUP_REPEATS = 7  # interpreter and import start-ups timed in the traced cli pass
TIME_LIMIT = 150.0  # seconds; a run stops measuring after this, whatever --seconds says

# Times are scaled to a reference machine speed: each operation's wall time
# is divided by the slowdown a probe of the same kind of work measured next
# to it. On shared hosts the same code runs up to twice as slow for seconds
# at a time; the probe slows with it, so the ratio cancels that out. The
# reference times are about the probes' times on an idle 2.1 GHz Xeon core
# under CPython 3.11; they only set the unit. Raw wall times go to the run
# record.
REFERENCE_ARITHMETIC_S = 1.75e-4
REFERENCE_INTERPRETER_S = 0.041

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, workload it is measured on, how).
#   ("mean", span): mean self time per call, in ms
#   ("median", span): median time per call, in ms
#   ("per_call", fact, spans): a counter from the checks divided by the calls of spans
#   ("total", fact): a counter from the checks, summed (or the maximum, for *_max)
PER_LAYER = {
    "core.parse_ms": ("ms/call", "small-exact", ("mean", "core.parse")),
    "core.entries": ("count/call", "small-exact", ("per_call", "core.entries", ("core.parse",))),
    "core.compare_ms": ("ms/call", "small-exact", ("mean", "core.compare")),
    "lattice.meet_join_ms": ("ms/call", "small-exact", ("mean", "lattice.meet_join")),
    "lattice.sup_ms": ("ms/call", "large-d", ("mean", "lattice.sup")),
    "lattice.inf_ms": ("ms/call", "large-d", ("mean", "lattice.inf")),
    "lattice.repair_inputs": ("count", "large-d", ("total", "lattice.repair_inputs")),
    "lattice.support_points": ("count/call", "large-d",
                               ("per_call", "lattice.support_points", ("lattice.sup", "lattice.meet_join"))),
    "polytope.bound_ms": ("ms/call", "ball", ("mean", "polytope.bound")),
    "polytope.vertices_ms": ("ms/call", "ball", ("mean", "polytope.vertices")),
    "polytope.vertices_out": ("count/call", "ball", ("per_call", "polytope.vertices_out", ("polytope.vertices",))),
    "polytope.hull_ms": ("ms/call", "large-d", ("mean", "polytope.hull")),
    "resource_theory.state_ms": ("ms/call", "small-exact", ("mean", "resource_theory.state")),
    "resource_theory.ocr_ms": ("ms/call", "small-exact", ("mean", "resource_theory.ocr")),
    "numeric.serialize_ms": ("ms/call", "large-d", ("mean", "numeric.serialize")),
    "numeric.result_bits_max": ("bits", "large-d", ("total", "numeric.result_bits_max")),
    "svg.render_ms": ("ms/call", "cli", ("mean", "svg.render")),
    "svg.bytes_out": ("bytes/call", "cli", ("per_call", "svg.bytes_out", ("svg.render",))),
    "cli.interpreter_ms": ("ms", "cli", ("median", "cli.interpreter")),
    "cli.import_ms": ("ms", "cli", ("median", "cli.import")),  # minus cli.interpreter_ms, below
    "cli.main_ms": ("ms/call", "cli", ("mean", "cli.main")),
}
LAYERS = ("numeric", "core", "lattice", "polytope", "resource_theory", "svg", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (W.SRC / "majlat" / "__init__.py").is_file():
        print(f"bench: no majlat package under {W.SRC}; run from a checkout with src/", file=sys.stderr)
        return 2
    os.chdir(W.ROOT)
    sys.path.insert(0, str(W.SRC))
    nproc = len(os.sched_getaffinity(0))
    # One CPU for this process and the majlat processes it starts, so that
    # the speed probe runs where the operation it scales runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    deadline = perf_counter() + TIME_LIMIT
    result, record = (traced if args.trace else untraced)(args, deadline)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "commit": git_commit(), "python": sys.version.split()[0], "nproc": nproc, **record,
              "attempted": result["attempted"], "failed": result["failed"],
              "error_rate": result["failed"] / result["attempted"], "metrics": result["metrics"]}
    W.OUT.mkdir(exist_ok=True)
    with open(W.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=2)
    report(record)
    print(json.dumps(result))
    return 0


def arithmetic_slowdown() -> float:
    """Time of a fixed piece of pure-Python rational arithmetic, over its reference."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    return (perf_counter() - start) / REFERENCE_ARITHMETIC_S


def interpreter_slowdown() -> float:
    """Time to start and stop a bare interpreter, over its reference."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=W.ROOT, env=W.CLI_ENV, check=True)
    return (perf_counter() - start) / REFERENCE_INTERPRETER_S


PROBES = {"arithmetic": arithmetic_slowdown, "interpreter": interpreter_slowdown}


def speed_factors(slowdowns: list[float]) -> list[float]:
    """Scale for each operation: one over the median of its slowdown and its neighbours'."""
    factors = []
    for i in range(len(slowdowns)):
        near = sorted(slowdowns[max(i - 1, 0) : i + 2])
        factors.append(1 / near[len(near) // 2])
    return factors


def set_up(name: str, seed: int):
    """Fresh import of majlat from src/, seeded inputs, untimed warm-up.

    Returns the workload, the set-up's wall time, and that time scaled by
    probes of the kind its warm-up operations use, taken just after it.
    """
    start = perf_counter()
    for module in [m for m in sys.modules if m == "majlat" or m.startswith("majlat.")]:
        del sys.modules[module]
    M = importlib.import_module("majlat")
    if not Path(M.__file__).resolve().is_relative_to(W.SRC):
        raise SystemExit(f"bench: imported majlat from {M.__file__}, not from {W.SRC}")
    workload = W.WORKLOADS[name](M, random.Random(f"{name}:{seed}"))
    null = NullTracer()
    for op in workload.warmup:
        op.run(null)
    seconds = perf_counter() - start
    probe = PROBES[workload.warmup[0].probe]
    return workload, seconds, seconds / statistics.median(probe() for _ in range(5))


class Tally:
    """Latencies, probe slowdowns, failures and check counters of a sequence of operations."""

    def __init__(self):
        self.latencies, self.slowdowns, self.failed, self.facts = [], [], 0, {}

    def attempt(self, op, tracer) -> None:
        """Probe, time one operation alone, then check its output."""
        self.slowdowns.append(PROBES[op.probe]())
        start = perf_counter()
        try:
            output = tracer.run_op(op.kind, op.run)
        except Exception as exc:  # counted, reported, and the run goes on
            self.latencies.append(perf_counter() - start)
            self._fail(op, exc)
            return
        self.latencies.append(perf_counter() - start)
        try:
            facts = op.check(output)
        except Exception as exc:
            self._fail(op, exc)
            return
        for key, value in facts.items():
            old = self.facts.get(key)
            self.facts[key] = value if old is None else max(old, value) if key.endswith("_max") else old + value

    def _fail(self, op, exc) -> None:
        self.failed += 1
        if self.failed <= 5:
            detail = str(exc) if isinstance(exc, CheckError) else traceback.format_exc()
            print(f"bench: {op.kind} failed: {detail}", file=sys.stderr)

    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, speed_factors(self.slowdowns))]


def measure(rounds, tracers, seconds, min_ops, deadline) -> list[Tally]:
    """Run whole rounds until the first tracer's tally has `seconds` of
    scaled operation time and `min_ops` operations.

    Each operation runs once under each tracer, back to back, in an order
    that alternates from one operation to the next.
    """
    tallies = [Tally() for _ in tracers]
    order = list(range(len(tracers)))
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            for k in order:
                tallies[k].attempt(op, tracers[k])
            order.reverse()
        r += 1
        first = tallies[0]
        if len(first.latencies) >= min_ops and sum(first.scaled()) >= seconds:
            return tallies
        if perf_counter() > deadline:
            print("bench: time limit reached; stopping early", file=sys.stderr)
            return tallies


def latency_metrics(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {"ops_per_s": len(ordered) / sum(ordered),
            "latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_p90_ms": ordered[math.ceil(0.9 * len(ordered)) - 1] * 1e3}


def untraced(args, deadline):
    setups = [set_up(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workload = setups[-1][0]
    (tally,) = measure(workload.rounds, [NullTracer()], args.seconds, MIN_OPS, deadline)
    failed = tally.failed + sum(check() for check in workload.final_checks)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {**latency_metrics(tally.scaled()),
               "setup_s": statistics.median(s[2] for s in setups),
               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    result = {"correct": failed == 0, "attempted": len(tally.latencies) + len(workload.final_checks),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}
    wall = {**latency_metrics(tally.latencies), "setup_s": statistics.median(s[1] for s in setups),
            "slowdown_median": statistics.median(tally.slowdowns)}
    return result, {"params": workload.params, "samples": len(tally.latencies), "wall_metrics": wall}


def traced(args, deadline):
    """Trace every workload for a share of the run.

    Each per-layer metric comes from the workload PER_LAYER assigns it.
    Operations of the workload named on the command line also run untraced,
    each next to its traced run; trace.overhead_ratio is the traced
    operation time over the untraced.
    """
    share = args.seconds / len(W.WORKLOADS)
    passes, attempted, failed = {}, 0, 0
    W.OUT.mkdir(exist_ok=True)
    spans_path = W.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as spans:
        for name in W.WORKLOADS:
            workload = set_up(name, args.seed)[0]
            rounds = workload.traced_rounds or workload.rounds
            if workload.before_trace:
                workload.before_trace()
            tracer = Tracer()
            if name == args.workload:
                plain, tally = measure(rounds, [NullTracer(), tracer], share, 1, deadline)
                overhead = sum(tally.scaled()) / sum(plain.scaled())
                attempted, failed = attempted + len(plain.latencies), failed + plain.failed
            else:
                (tally,) = measure(rounds, [tracer], share, 1, deadline)
            tallies = [tally]
            if name == "cli":
                tallies += measure([W.startup_ops()], [tracer], 0, 2 * STARTUP_REPEATS, deadline)
            factors = [f for t in tallies for f in speed_factors(t.slowdowns)]  # in operation order
            for t in tallies:
                attempted, failed = attempted + len(t.latencies), failed + t.failed
            passes[name] = (tracer, factors, tally.facts, len(tally.latencies))
            tracer.write(spans, name)

    summaries = {name: tracer.summary(factors) for name, (tracer, factors, _, _) in passes.items()}
    metrics = {}
    for metric, (unit, name, how) in PER_LAYER.items():
        tracer, factors, facts, _ = passes[name]
        summary = summaries[name]
        if how[0] == "mean":
            calls, seconds, _ = summary.get(how[1], (0, 0.0, 0))
            value = seconds / calls * 1e3 if calls else 0.0
        elif how[0] == "median":
            value = statistics.median(tracer.durations(how[1], factors)) * 1e3
        elif how[0] == "per_call":
            calls = sum(summary.get(s, (0,))[0] for s in how[2])
            value = facts.get(how[1], 0) / calls if calls else 0.0
        else:
            value = facts.get(how[1], 0)
        metrics[metric] = {"value": value, "unit": unit}
    metrics["cli.import_ms"]["value"] -= metrics["cli.interpreter_ms"]["value"]
    for layer in LAYERS:
        stats = [v for summary in summaries.values() for n, v in summary.items() if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = {"value": sum(s[0] for s in stats), "unit": "count"}
        metrics[f"{layer}.errors"] = {"value": sum(s[2] for s in stats), "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    samples = {name: p[3] for name, p in passes.items()}
    return result, {"spans": str(spans_path.relative_to(W.ROOT)), "samples": samples}


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"commit {record['commit']}  python {record['python']}  nproc {record['nproc']}")
    print(f"samples {record['samples']}  attempted {record['attempted']}  failed {record['failed']}  "
          f"error_rate {record['error_rate']:.6g}")
    for name, metric in record["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in record.get("wall_metrics", {}).items():
        print(f"  wall {name:23s} {value:14.6g}")


if __name__ == "__main__":
    sys.exit(main())
