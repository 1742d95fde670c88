"""Tiny deterministic SVG charts.

Hand-rolled on purpose: the report command must produce byte-identical
files across runs, so every coordinate goes through a fixed %.2f format
and nothing depends on system fonts or a plotting backend. There is one
chart shape, the line chart `kc report` draws its metrics on. Each point
also gets a small circle: a metric that only one manifest reports is a
one-point series, and a one-point polyline draws nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_chart", "PALETTE"]

# One colour per series; past ten, a colour comes back dashed.
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

_W, _H = 640, 420
_MARGIN = {"left": 56.0, "right": 16.0, "top": 34.0, "bottom": 40.0}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


class _Axes:
    """Maps data coordinates into one pixel rectangle, y flipped."""

    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0 = x0, y0
        self.width, self.height = width, height
        self.xlim, self.ylim = xlim, ylim

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        span = hi - lo if hi > lo else 1.0
        return self.x0 + (x - lo) / span * self.width

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        span = hi - lo if hi > lo else 1.0
        return self.y0 + self.height - (y - lo) / span * self.height

    def frame(self, out: list, title: str) -> None:
        out.append(
            f'<rect x="{_fmt(self.x0)}" y="{_fmt(self.y0)}" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            'fill="none" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(self.x0 + self.width / 2)}" y="{_fmt(self.y0 - 10)}" '
            'font-family="monospace" font-size="14" text-anchor="middle" '
            f'fill="#222222">{_esc(title)}</text>'
        )
        for frac in (0.0, 0.5, 1.0):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            out.append(
                f'<text x="{_fmt(self.px(xv))}" y="{_fmt(self.y0 + self.height + 16)}" '
                'font-family="monospace" font-size="10" text-anchor="middle" '
                f'fill="#444444">{_fmt(xv)}</text>'
            )
            out.append(
                f'<text x="{_fmt(self.x0 - 6)}" y="{_fmt(self.py(yv) + 3)}" '
                'font-family="monospace" font-size="10" text-anchor="end" '
                f'fill="#444444">{_fmt(yv)}</text>'
            )


def _limits(arrays) -> tuple:
    lo = min(float(np.min(a)) for a in arrays)
    hi = max(float(np.max(a)) for a in arrays)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _document(body: list) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    return "\n".join([head, f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>'] + body + ["</svg>"])


def line_chart(path: str, series, title: str) -> None:
    """Plot (label, xs, ys) series as polylines with point markers and a
    small legend."""
    if not series:
        raise ValueError("line_chart needs at least one series")
    xlim = _limits([np.asarray(xs, float) for _, xs, _ in series])
    ylim = _limits([np.asarray(ys, float) for _, _, ys in series])
    ax = _Axes(
        _MARGIN["left"],
        _MARGIN["top"],
        _W - _MARGIN["left"] - _MARGIN["right"],
        _H - _MARGIN["top"] - _MARGIN["bottom"],
        xlim,
        ylim,
    )
    body: list = []
    ax.frame(body, title)
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        cycle = idx // len(PALETTE)
        dash = f' stroke-dasharray="{4 * cycle},2"' if cycle else ""
        points = [
            (_fmt(ax.px(x)), _fmt(ax.py(y)))
            for x, y in zip(np.asarray(xs, float).tolist(), np.asarray(ys, float).tolist())
        ]
        body.append(
            f'<polyline points="{" ".join(f"{x},{y}" for x, y in points)}" '
            f'fill="none" stroke="{color}"{dash} stroke-width="1.5"/>'
        )
        body.extend(f'<circle cx="{x}" cy="{y}" r="2.50" fill="{color}"/>' for x, y in points)
        ly = ax.y0 + 14 + 14 * idx
        lx = ax.x0 + ax.width - 150
        body.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}"{dash} stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_fmt(lx + 24)}" y="{_fmt(ly)}" font-family="monospace" '
            f'font-size="11" fill="#222222">{_esc(label)}</text>'
        )
    with open(path, "w") as fh:
        fh.write(_document(body) + "\n")
