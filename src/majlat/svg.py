"""Deterministic SVG rendering of Lorenz curves.

Element order, coordinate formatting, and colors are all fixed functions
of the input, so identical calls produce byte-identical documents.
"""

from __future__ import annotations

from typing import Sequence

from .core import LorenzCurve
from .errors import DimensionMismatchError, EmptyInputError

WIDTH = 800
HEIGHT = 600

_LEFT = 70.0
_RIGHT = 170.0
_TOP = 30.0
_BOTTOM = 50.0
_PLOT_W = WIDTH - _LEFT - _RIGHT
_PLOT_H = HEIGHT - _TOP - _BOTTOM

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
_Y_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)
_GRID = {"stroke": "#dddddd", "stroke-width": 1}
_MONO = {"font-family": "monospace"}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _element(tag: str, attrs: dict[str, object], text: object = None) -> str:
    """One element with its attributes in the order given; without text it closes with />.

    Attribute values are this module's own numbers and colors and are written as given.
    Text is escaped by hand: importing xml.sax.saxutils pulls in urllib, http and email.
    """
    head = tag + "".join([f' {name}="{value}"' for name, value in attrs.items()])
    if text is None:
        return f"<{head}/>"
    text = str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{head}>{text}</{tag}>"


def emit_lorenz_svg(curves: Sequence[tuple[str, LorenzCurve]]) -> str:
    """Render labelled curves on the fixed 800x600 canvas."""
    items = list(curves)
    if not items:
        raise EmptyInputError("no curves to plot")
    d = items[0][1].d
    for _, curve in items:
        if curve.d != d:
            raise DimensionMismatchError(f"curve dimensions differ: {curve.d} vs {d}")

    def px(omega: float) -> str:
        return _fmt(_LEFT + (omega / d) * _PLOT_W)

    def py(value: float) -> str:
        return _fmt(_TOP + (1.0 - value) * _PLOT_H)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        _element("rect", {"x": 0, "y": 0, "width": WIDTH, "height": HEIGHT, "fill": "#ffffff"}),
    ]

    x_step = max(1, -(-d // 16))  # at most ~16 labelled ticks
    for k in range(0, d + 1, x_step):
        x = px(k)
        parts.append(_element("line", {"x1": x, "y1": py(0.0), "x2": x, "y2": py(1.0), **_GRID}))
        parts.append(_element("text", {"x": x, "y": _fmt(_TOP + _PLOT_H + 20), **_MONO, "font-size": 12,
                                       "text-anchor": "middle"}, k))
    for tick in _Y_TICKS:
        y = py(tick)
        parts.append(_element("line", {"x1": px(0), "y1": y, "x2": px(d), "y2": y, **_GRID}))
        parts.append(_element("text", {"x": _fmt(_LEFT - 8), "y": y, **_MONO, "font-size": 12, "text-anchor": "end",
                                       "dominant-baseline": "middle"}, f"{tick:g}"))
    parts.append(_element("rect", {"x": _fmt(_LEFT), "y": _fmt(_TOP), "width": _fmt(_PLOT_W), "height": _fmt(_PLOT_H),
                                   "fill": "none", "stroke": "#000000", "stroke-width": 1}))
    parts.append(_element("text", {"x": _fmt(_LEFT + _PLOT_W / 2), "y": _fmt(HEIGHT - 12), **_MONO, "font-size": 13,
                                   "text-anchor": "middle"}, "index"))
    mid = _fmt(_TOP + _PLOT_H / 2)
    parts.append(_element("text", {"x": 16, "y": mid, **_MONO, "font-size": 13, "text-anchor": "middle",
                                   "transform": f"rotate(-90 16 {mid})"}, "cumulative probability"))

    # Legend rows sit 18 px apart while 31 fit; more rows close up so that the last stays at
    # y = HEIGHT - 16, inside the canvas. Past 46 rows the step is below the 12 px font, so the
    # swatch shrinks by step / 12 and the font to the step, rounded down to 0.01 px.
    step = min(18, (HEIGHT - 16 - _TOP - 14) / max(1, len(items) - 1))
    scale = min(1.0, step / 12)
    swatch = {"width": f"{round(14 * scale, 2):g}", "height": f"{round(10 * scale, 2):g}"}
    font = {**_MONO, "font-size": f"{min(12, int(step * 100) / 100):g}"}
    for idx, (label, curve) in enumerate(items):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(k)},{py(float(v))}" for k, v in enumerate(curve.values))
        parts.append(_element("polyline", {"points": points, "fill": "none", "stroke": color, "stroke-width": 2}))
        ly = _TOP + 14 + step * idx
        parts.append(_element("rect", {"x": _fmt(WIDTH - _RIGHT + 14), "y": _fmt(ly - 9 * scale), **swatch,
                                       "fill": color}))
        parts.append(_element("text", {"x": _fmt(WIDTH - _RIGHT + 34), "y": _fmt(ly), **font}, label))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
