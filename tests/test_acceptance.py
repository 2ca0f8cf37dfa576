"""End-to-end acceptance checks; each test prints one PASS line when it holds.

Everything runs in exact mode on seeded randomness, so reruns are
bit-for-bit reproducible.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from majlat import (
    Ball,
    Polytope,
    ball_vertices,
    family_inf,
    family_sup,
    first_component_family,
    flattest_approx,
    join,
    majorizes,
    make_vector,
    meet,
    ocr_first_component_bound,
    ocr_two_block_superposition,
    polytope_inf,
    polytope_sup,
    steepest_approx,
    top,
    two_block_family,
)

from .oracles import grid_vectors, random_grid_vector

FIG_X = ["0.6", "0.16", "0.16", "0.08"]
FIG_Y = ["0.5", "0.3", "0.1", "0.1"]


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def _best_time(op, repeats=200):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_pairwise_reproduction_and_speed():
    x, y = make_vector(FIG_X), make_vector(FIG_Y)
    low, high = meet(x, y), join(x, y)
    assert low.entries == (Fraction(1, 2), Fraction(13, 50), Fraction(7, 50), Fraction(1, 10))
    assert high.entries == (Fraction(3, 5), Fraction(1, 5), Fraction(3, 25), Fraction(2, 25))
    meet_time = _best_time(lambda: meet(x, y))
    join_time = _best_time(lambda: join(x, y))
    assert meet_time < 1e-3 and join_time < 1e-3
    _report(1, f"pairwise meet/join bit-exact; best times {meet_time * 1e6:.0f}us / {join_time * 1e6:.0f}us")


def test_criterion_2_segment_polytope_reproduction():
    hull = Polytope((make_vector(["0.5", "0.4", "0.1"]), make_vector(["0.55", "0.3", "0.15"])))
    assert polytope_inf(hull).entries == (Fraction(1, 2), Fraction(7, 20), Fraction(3, 20))
    assert polytope_sup(hull).entries == (Fraction(11, 20), Fraction(7, 20), Fraction(1, 10))
    _report(2, "segment polytope infimum/supremum bit-exact")


def test_criterion_3_ball_reproduction():
    ball = Ball(make_vector(["0.525", "0.35", "0.125"]), "0.15")
    hull = ball_vertices(ball)
    assert family_inf(hull.vertices).entries == (
        Fraction(9, 20), Fraction(7, 20), Fraction(1, 5))
    assert family_sup(hull.vertices).entries == (
        Fraction(3, 5), Fraction(7, 20), Fraction(1, 20))
    _report(3, "l1-ball vertex route reproduces infimum/supremum bit-exact")


def _random_alpha(rng, d):
    while True:
        q = rng.randint(10, 40)
        alpha = Fraction(rng.randint(1, q), q)
        if alpha * alpha > Fraction(1, d) and alpha <= Fraction(19, 20):
            return alpha


def _random_alpha_min_sq(rng, d1, d):
    while True:
        q = rng.randint(10, 40)
        value = Fraction(rng.randint(1, q), q)
        if Fraction(d1, d) < value <= Fraction(19, 20):
            return value


def _first_component_members(alpha_sq, d, step):
    members = []
    a = alpha_sq + step
    while a < 1:
        members.append(make_vector([a] + [(1 - a) / (d - 1)] * (d - 1)))
        a += step
    members.append(top(d))
    return members


def _two_block_members(alpha_min_sq, d1, d, step):
    members = []
    a = alpha_min_sq + step
    while a < 1:
        members.append(make_vector([a / d1] * d1 + [(1 - a) / (d - d1)] * (d - d1)))
        a += step
    members.append(make_vector([Fraction(1, d1)] * d1 + [Fraction(0)] * (d - d1)))
    return members


def _convergence_gaps(closed, member_builder, steps):
    gaps = []
    for step in steps:
        sampled = family_inf(member_builder(step))
        assert majorizes(sampled, closed)  # refinement approaches from above
        gaps.append(max(
            sa - sc for sa, sc in zip(sampled.prefix_sums(), closed.prefix_sums())
        ))
    return gaps


def test_criterion_4_coherence_closed_forms():
    rng = random.Random(2024)
    steps = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]
    for _ in range(20):
        d = rng.randint(2, 6)
        alpha = _random_alpha(rng, d)
        a2 = alpha * alpha
        closed = ocr_first_component_bound(alpha, d)
        assert closed.entries == (a2,) + ((1 - a2) / (d - 1),) * (d - 1)
        assert family_inf(first_component_family(alpha, d)) == closed
        gaps = _convergence_gaps(closed, lambda s: _first_component_members(a2, d, s), steps)
        assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] <= Fraction(1, 1000)
    for _ in range(20):
        d = rng.randint(2, 6)
        d1 = rng.randint(1, d - 1)
        a2min = _random_alpha_min_sq(rng, d1, d)
        closed = ocr_two_block_superposition(d1, d, a2min)
        assert closed.entries == (a2min / d1,) * d1 + ((1 - a2min) / (d - d1),) * (d - d1)
        assert family_inf(two_block_family(d1, d, a2min)) == closed
        gaps = _convergence_gaps(closed, lambda s: _two_block_members(a2min, d1, d, s), steps)
        assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] <= Fraction(1, 1000)
    _report(4, "closed forms match symbolically; grid sampling converges within 1e-3")


def test_criterion_5_lattice_laws_bulk():
    rng = random.Random(99)
    for i in range(10000):
        d = 2 + i % 7
        x = random_grid_vector(rng, d, 60)
        y = random_grid_vector(rng, d, 60)
        z = random_grid_vector(rng, d, 60)
        low, high = meet(x, y), join(x, y)
        assert meet(x, x) == x and join(x, x) == x
        assert low == meet(y, x) and high == join(y, x)
        assert meet(low, z) == meet(x, meet(y, z))
        assert join(high, z) == join(x, join(y, z))
        assert join(x, low) == x and meet(x, high) == x
        assert majorizes(x, low) and majorizes(y, low)
        assert majorizes(high, x) and majorizes(high, y)
    _report(5, "10000 random triples satisfy every lattice law (exact mode)")


def test_criterion_6_optimality_oracle():
    start = time.perf_counter()
    rng = random.Random(123)
    for d in (3, 4):
        grid = list(grid_vectors(d, 20))
        for _ in range(100):
            x = random_grid_vector(rng, d, 20)
            y = random_grid_vector(rng, d, 20)
            low, high = meet(x, y), join(x, y)
            for z in grid:
                if majorizes(x, z) and majorizes(y, z):
                    assert majorizes(low, z)
                if majorizes(z, x) and majorizes(z, y):
                    assert majorizes(z, high)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(6, f"grid brute force confirms greatest/least bounds in {elapsed:.1f}s")


def test_criterion_7_join_path_equivalence():
    x = make_vector(["0.3", "0.3", "0.3", "0.1"])
    y = make_vector(["0.48", "0.2", "0.17", "0.15"])
    pinned = join(x, y)
    assert pinned.entries == (Fraction(12, 25), Fraction(21, 100), Fraction(21, 100), Fraction(1, 10))
    assert pinned == family_sup((x, y))
    rng = random.Random(7777)
    for i in range(10000):
        d = 2 + i % 7
        a = random_grid_vector(rng, d, 60)
        b = random_grid_vector(rng, d, 60)
        assert join(a, b) == family_sup((a, b))
    _report(7, "PAV join and envelope supremum agree on 10000 random pairs")


def _sample_member(rng, center, eps):
    d = center.d
    span = 40
    scale = eps / (2 * span)
    while True:
        noise = [rng.randint(-span, span) for _ in range(d - 1)]
        noise.append(-sum(noise))
        if abs(noise[-1]) > span or sum(abs(n) for n in noise) > 2 * span:
            continue
        candidate = [c + n * scale for c, n in zip(center.entries, noise)]
        if any(a < b for a, b in zip(candidate, candidate[1:])) or candidate[-1] < 0:
            continue
        return make_vector(candidate)


def test_criterion_8_approximation_sandwich():
    rng = random.Random(424242)
    for trial in range(100):
        d = 3 if trial % 2 == 0 else 4
        center = random_grid_vector(rng, d, 40)
        eps = Fraction(rng.randint(2, 10), 40)
        ball = Ball(center, eps)
        high = steepest_approx(ball)
        low = flattest_approx(ball)
        for _ in range(500):
            member = _sample_member(rng, center, eps)
            assert majorizes(high, member)
            assert majorizes(member, low)
    _report(8, "steepest/flattest sandwich holds on 100 balls x 500 members")


def test_criterion_9_cli_determinism(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"d": 4, "vectors": [FIG_X, FIG_Y]}), encoding="utf-8")
    out = tmp_path / "result.json"
    svg = tmp_path / "curves.svg"
    argv = [
        sys.executable, "-m", "majlat", "meet",
        "--in", str(pair), "--out", str(out), "--svg", str(svg),
    ]
    subprocess.run(argv, check=True, capture_output=True)
    first = (out.read_bytes(), svg.read_bytes())
    out.unlink()
    svg.unlink()
    subprocess.run(argv, check=True, capture_output=True)
    second = (out.read_bytes(), svg.read_bytes())
    assert first == second
    _report(9, "identical CLI invocations give byte-identical JSON and SVG")
