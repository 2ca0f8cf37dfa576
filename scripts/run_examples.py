#!/usr/bin/env python3
"""Recompute the worked examples and write JSON + SVG artifacts to ./out.

Covers the three standard pictures: an incomparable pair in dimension 4
with its meet and join, a two-vertex segment polytope in dimension 3, and
an l1 ball with its vertices and its steepest/flattest bounds.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # majlat from this checkout, installed or not

from majlat import (
    Ball,
    Polytope,
    ball_vertices,
    bottom,
    emit_lorenz_svg,
    flattest_approx,
    join,
    make_vector,
    meet,
    partial_sums,
    polytope_inf,
    polytope_sup,
    scalar_str,
    steepest_approx,
    top,
)

OUT = ROOT / "out"


def strings(vector):
    return [scalar_str(e) for e in vector.entries]


def dump(name, payload, curves):
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")
    (OUT / f"{name}.svg").write_text(emit_lorenz_svg(curves))
    print(f"{name}:")
    for key, value in payload.items():
        print(f"  {key}: {value}")


def pair_example():
    x = make_vector(["0.6", "0.16", "0.16", "0.08"])
    y = make_vector(["0.5", "0.3", "0.1", "0.1"])
    low, high = meet(x, y), join(x, y)
    dump(
        "incomparable_pair",
        {"x": strings(x), "y": strings(y), "meet": strings(low), "join": strings(high)},
        [
            ("e4", partial_sums(top(4))),
            ("u4", partial_sums(bottom(4))),
            ("x", partial_sums(x)),
            ("y", partial_sums(y)),
            ("meet", partial_sums(low)),
            ("join", partial_sums(high)),
        ],
    )


def segment_example():
    a = make_vector(["0.5", "0.4", "0.1"])
    b = make_vector(["0.55", "0.3", "0.15"])
    hull = Polytope((a, b))
    low, high = polytope_inf(hull), polytope_sup(hull)
    dump(
        "segment_polytope",
        {"v1": strings(a), "v2": strings(b), "inf": strings(low), "sup": strings(high)},
        [
            ("v1", partial_sums(a)),
            ("v2", partial_sums(b)),
            ("inf", partial_sums(low)),
            ("sup", partial_sums(high)),
        ],
    )


def ball_example():
    center = make_vector(["0.525", "0.35", "0.125"])
    ball = Ball(center, "0.15")
    hull = ball_vertices(ball)
    low, high = flattest_approx(ball), steepest_approx(ball)
    dump(
        "l1_ball",
        {
            "center": strings(center),
            "eps": "0.15",
            "vertices": [strings(v) for v in hull.vertices],
            "flattest": strings(low),
            "steepest": strings(high),
        },
        [("center", partial_sums(center)),
         ("flattest", partial_sums(low)),
         ("steepest", partial_sums(high))],
    )


if __name__ == "__main__":
    pair_example()
    segment_example()
    ball_example()
    print(f"artifacts under {OUT}")
