"""Self-contained SVG band plots for Rashomon profiles (no plotting deps)."""

from __future__ import annotations

import math
import os
from html import escape

from .pdp import RashomonPdpResult

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 78
MARGIN_RIGHT = 22
MARGIN_TOP = 46
MARGIN_BOTTOM = 58

BAND_FILL = "#9ecae1"
MEAN_COLOR = "#1f4e79"
BEST_COLOR = "#c03028"
MEMBER_COLOR = "#9a9a9a"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] on a 1/2/5 ladder."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw_step = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw_step <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    return format(v, ".6g")


def _fmt_px(v: float) -> str:
    return format(v, ".2f")


def emit_svg(result: RashomonPdpResult, path: str | os.PathLike[str], *,
             dataset_name: str = "", target_name: str = "prediction",
             epsilon: float | None = None) -> None:
    """Render the profile: shaded band, mean line, dashed best-model line,
    faint member curves, axes, legend, and a parameter-carrying title.
    Output is a pure function of the inputs."""
    grid = result.grid
    series = [result.mean, result.ci_lo, result.ci_hi, result.curves]
    y_min = min(float(s.min()) for s in series)
    y_max = max(float(s.max()) for s in series)
    if y_max - y_min <= 0:
        pad = max(abs(y_min) * 0.1, 1.0)
        y_min, y_max = y_min - pad, y_max + pad
    else:
        pad = (y_max - y_min) * 0.06
        y_min, y_max = y_min - pad, y_max + pad
    x_min, x_max = float(grid[0]), float(grid[-1])
    if x_max - x_min <= 0:
        x_min, x_max = x_min - 0.5, x_max + 0.5

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    def points(ys) -> str:
        return " ".join(f"{_fmt_px(px(float(g)))},{_fmt_px(py(float(v)))}"
                        for g, v in zip(grid, ys))

    feature = result.feature_name or f"feature {result.feature_index}"
    title_bits = []
    if dataset_name:
        title_bits.append(dataset_name)
    title_bits.append(feature)
    if epsilon is not None:
        title_bits.append(f"epsilon={_fmt_tick(epsilon)}")
    title_bits.append(f"B={result.n_boot}")
    title_bits.append(f"alpha={_fmt_tick(result.alpha)}")
    title = " | ".join(title_bits)

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">'
    )
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="15" '
        f'fill="#222222">{escape(title, quote=False)}</text>'
    )

    # axes frame and ticks
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_min, x_max):
        if not x_min <= t <= x_max:
            continue
        x = px(t)
        out.append(
            f'<line x1="{_fmt_px(x)}" y1="{MARGIN_TOP + plot_h}" x2="{_fmt_px(x)}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt_px(x)}" y="{MARGIN_TOP + plot_h + 19}" text-anchor="middle" '
            f'font-size="11" fill="#333333">{escape(_fmt_tick(t), quote=False)}</text>'
        )
    for t in _nice_ticks(y_min, y_max):
        if not y_min <= t <= y_max:
            continue
        y = py(t)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt_px(y)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt_px(y)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{_fmt_px(y + 4)}" text-anchor="end" '
            f'font-size="11" fill="#333333">{escape(_fmt_tick(t), quote=False)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-size="13" fill="#222222">{escape(feature, quote=False)}</text>'
    )
    out.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" font-size="13" '
        f'fill="#222222" transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.0f})">'
        f'{escape(target_name, quote=False)}</text>'
    )

    # confidence band (degenerates to a zero-height polygon for singletons)
    band_pts = points(result.ci_hi) + " " + " ".join(
        f"{_fmt_px(px(float(g)))},{_fmt_px(py(float(v)))}"
        for g, v in zip(grid[::-1], result.ci_lo[::-1])
    )
    out.append(f'<polygon points="{band_pts}" fill="{BAND_FILL}" fill-opacity="0.55" stroke="none"/>')

    for values in result.curves:
        out.append(
            f'<polyline points="{points(values)}" fill="none" '
            f'stroke="{MEMBER_COLOR}" stroke-opacity="0.45" stroke-width="1"/>'
        )
    out.append(
        f'<polyline points="{points(result.mean)}" fill="none" stroke="{MEAN_COLOR}" '
        f'stroke-width="2.5"/>'
    )
    out.append(
        f'<polyline points="{points(result.best_values)}" fill="none" '
        f'stroke="{BEST_COLOR}" stroke-width="2" stroke-dasharray="7,4"/>'
    )

    # legend
    lx = MARGIN_LEFT + 12
    ly = MARGIN_TOP + 12
    entries = [
        (f"Rashomon mean ({len(result.model_ids)} models)", MEAN_COLOR, None),
        ("best model", BEST_COLOR, "7,4"),
        (f"{100 * (1 - result.alpha):g}% band", BAND_FILL, "band"),
    ]
    if len(result.model_ids) > 1:
        entries.append(("member profiles", MEMBER_COLOR, None))
    out.append(
        f'<rect x="{lx - 6}" y="{ly - 6}" width="208" height="{16 * len(entries) + 10}" '
        f'fill="#ffffff" fill-opacity="0.85" stroke="#cccccc"/>'
    )
    for i, (label, color, style) in enumerate(entries):
        yy = ly + 16 * i + 6
        if style == "band":
            out.append(
                f'<rect x="{lx}" y="{yy - 6}" width="22" height="9" fill="{color}" '
                f'fill-opacity="0.55"/>'
            )
        else:
            dash = f' stroke-dasharray="{style}"' if style else ""
            out.append(
                f'<line x1="{lx}" y1="{yy - 2}" x2="{lx + 22}" y2="{yy - 2}" '
                f'stroke="{color}" stroke-width="2.5"{dash}/>'
            )
        out.append(
            f'<text x="{lx + 28}" y="{yy + 2}" font-size="11" fill="#333333">'
            f'{escape(label, quote=False)}</text>'
        )
    out.append("</svg>")

    with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
