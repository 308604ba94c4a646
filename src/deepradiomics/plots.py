"""Minimal deterministic SVG and PGM writers for report output.

Plots are built by direct string assembly so that two runs with the same
inputs emit byte-identical files; no plotting library is involved.
"""

from __future__ import annotations

import numpy as np

from .errors import write_output

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 36, 48
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#9a7d0a")
N_TICKS, LINE_WIDTH = 5, 1.5  # ticks per axis, curve stroke width


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    """XML character data: `&`, `<` and `>` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (N_TICKS - 1) for i in range(N_TICKS)]


class _Canvas:
    def __init__(self, title: str, xlim, ylim, xlabel: str, ylabel: str):
        self.xlim = xlim
        self.ylim = ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        self.text(
            f'x="{WIDTH // 2}" y="20" text-anchor="middle" font-family="sans-serif" font-size="14"',
            title,
        )
        self._axes(xlabel, ylabel)

    def text(self, attrs: str, content: str):
        """Append a <text> element; every label enters the SVG here, XML-escaped."""
        self.parts.append(f"<text {attrs}>{_escape(content)}</text>")

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        frac = 0.0 if hi == lo else (x - lo) / (hi - lo)
        return MARGIN_L + frac * PLOT_W

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        frac = 0.0 if hi == lo else (y - lo) / (hi - lo)
        return MARGIN_T + (1.0 - frac) * PLOT_H

    def _axes(self, xlabel, ylabel):
        x0, y0 = MARGIN_L, MARGIN_T + PLOT_H
        x1, y1 = MARGIN_L + PLOT_W, MARGIN_T
        self.parts.append(
            f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" stroke="black" fill="none"/>'
        )
        for tx in _ticks(*self.xlim):
            px = self.px(tx)
            self.parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" stroke="black"/>')
            self.text(
                f'x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
                'font-family="sans-serif" font-size="11"',
                _fmt(tx),
            )
        for ty in _ticks(*self.ylim):
            py = self.py(ty)
            self.parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
            self.text(
                f'x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                'font-family="sans-serif" font-size="11"',
                _fmt(ty),
            )
        self.text(
            f'x="{MARGIN_L + PLOT_W // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
            'font-family="sans-serif" font-size="12"',
            xlabel,
        )
        self.text(
            f'x="14" y="{MARGIN_T + PLOT_H // 2}" text-anchor="middle" '
            'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {MARGIN_T + PLOT_H // 2})"',
            ylabel,
        )

    def polyline(self, xs, ys, color: str):
        pts = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{LINE_WIDTH}"/>'
        )

    def bar(self, x0: float, x1: float, y: float, color: str):
        left = self.px(x0)
        top = self.py(y)
        self.parts.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(self.px(x1) - left)}" '
            f'height="{_fmt(self.py(self.ylim[0]) - top)}" fill="{color}" stroke="none"/>'
        )

    def legend(self, entries: list[tuple[str, str]]):
        for i, (label, color) in enumerate(entries):
            y = MARGIN_T + 14 + 16 * i
            x = MARGIN_L + PLOT_W - 150
            self.parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            self.text(f'x="{x + 28}" y="{y}" font-family="sans-serif" font-size="11"', label)

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def km_svg(curves: list[tuple[str, list]], title: str) -> str:
    """Step plot of one or more Kaplan-Meier curves.

    `curves` holds (label, steps) pairs, where steps are KmStep records.
    """
    t_max = max((s.time for _, steps in curves for s in steps), default=1.0)
    canvas = _Canvas(title, (0.0, max(t_max, 1e-9)), (0.0, 1.0), "months", "survival")
    entries = []
    for i, (label, steps) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        xs, ys = [0.0], [1.0]
        for s in steps:
            xs += [s.time, s.time]
            ys += [ys[-1], s.survival]
        xs.append(canvas.xlim[1])
        ys.append(ys[-1])
        canvas.polyline(xs, ys, color)
        entries.append((label, color))
    canvas.legend(entries)
    return canvas.render()


def histogram_svg(
    counts: np.ndarray, edges: np.ndarray, curve_x, curve_y, title: str
) -> str:
    """Histogram bars with a fitted density curve scaled to counts."""
    peak = float(max(counts.max(), max(curve_y, default=0.0), 1.0))
    canvas = _Canvas(
        title,
        (float(edges[0]), float(edges[-1]) if edges[-1] > edges[0] else float(edges[0]) + 1.0),
        (0.0, 1.05 * peak),
        "activation value",
        "voxel count",
    )
    for i, c in enumerate(counts):
        canvas.bar(float(edges[i]), float(edges[i + 1]), float(c), "#d5e4f0")
    if len(curve_x):
        canvas.polyline(curve_x, curve_y, _COLORS[0])
    return canvas.render()


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5) of a 2-D array min-max scaled to 0..255."""
    img = np.asarray(image, dtype=np.float64)
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        gray = np.round(255.0 * (img - lo) / (hi - lo)).astype(np.uint8)
    else:
        gray = np.zeros(img.shape, dtype=np.uint8)
    h, w = gray.shape
    write_output(path, f"P5\n{w} {h}\n255\n".encode() + gray.tobytes(), "image")
