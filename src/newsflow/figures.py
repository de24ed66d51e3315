"""Hand-built SVG figures: sentiment-volatility scatter with smoothed curves
and uniform bands.  Plain string assembly keeps the output byte-stable across
runs, and the files are assertable as text in tests."""

from __future__ import annotations

import math

import numpy as np

from .simulate.smoother import SmootherFit

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48

_POS_COLOR = "#1f77b4"
_NEG_COLOR = "#d62728"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


class _Canvas:
    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def x(self, value: float) -> float:
        frac = (value - self.x0) / (self.x1 - self.x0)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def y(self, value: float) -> float:
        frac = (value - self.y0) / (self.y1 - self.y0)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def inside(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def _scatter(canvas, xs, ys, color, max_points):
    stride = max(1, len(xs) // max_points) if len(xs) else 1
    parts = []
    for x, y in zip(xs[::stride], ys[::stride]):
        if not (math.isfinite(x) and math.isfinite(y)) or not canvas.inside(x, y):
            continue
        parts.append(
            f'<circle cx="{_fmt(canvas.x(x))}" cy="{_fmt(canvas.y(y))}" r="1.5" '
            f'fill="{color}" fill-opacity="0.25"/>'
        )
    return parts


def _polyline(canvas, xs, ys, color, dashed=False):
    points = " ".join(
        f"{_fmt(canvas.x(x))},{_fmt(canvas.y(y))}"
        for x, y in zip(xs, ys)
        if math.isfinite(y)
    )
    dash = ' stroke-dasharray="6,3"' if dashed else ""
    return f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"{dash}/>'


def _band(canvas, fit: SmootherFit, color):
    ok = np.isfinite(fit.band_lower) & np.isfinite(fit.band_upper)
    xs = fit.grid[ok]
    upper = fit.band_upper[ok]
    lower = fit.band_lower[ok]
    if len(xs) == 0:
        return ""
    forward = [f"{_fmt(canvas.x(x))},{_fmt(canvas.y(v))}" for x, v in zip(xs, upper)]
    back = [f"{_fmt(canvas.x(x))},{_fmt(canvas.y(v))}" for x, v in zip(xs[::-1], lower[::-1])]
    return (
        f'<polygon points="{" ".join(forward + back)}" fill="{color}" '
        f'fill-opacity="0.15" stroke="none"/>'
    )


def _axes(canvas, x_label, y_label, title):
    parts = [
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="#333333"/>'
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = canvas.x0 + frac * (canvas.x1 - canvas.x0)
        yv = canvas.y0 + frac * (canvas.y1 - canvas.y0)
        xs = _fmt(canvas.x(xv))
        ys = _fmt(canvas.y(yv))
        parts.append(f'<line x1="{xs}" y1="{_HEIGHT - _MARGIN_B}" x2="{xs}" y2="{_HEIGHT - _MARGIN_B + 4}" stroke="#333333"/>')
        parts.append(
            f'<text x="{xs}" y="{_HEIGHT - _MARGIN_B + 16}" font-size="10" text-anchor="middle">{_tick_label(xv)}</text>'
        )
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{ys}" x2="{_MARGIN_L}" y2="{ys}" stroke="#333333"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{ys}" font-size="10" text-anchor="end" dominant-baseline="middle">{_tick_label(yv)}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.1f}" y="{_HEIGHT - 10}" font-size="12" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.1f})">{y_label}</text>'
    )
    parts.append(f'<text x="{_WIDTH / 2:.1f}" y="20" font-size="14" text-anchor="middle">{title}</text>')
    return parts


def scatter_band_figure(
    title: str,
    pos_points: tuple[np.ndarray, np.ndarray],
    neg_points: tuple[np.ndarray, np.ndarray],
    pos_fit: SmootherFit,
    neg_fit: SmootherFit,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
    max_points: int = 2000,
) -> str:
    """Scatter of simulated outcomes with both smoothed curves and bands; both fits come from uniform_band."""
    all_x = np.concatenate([pos_points[0], neg_points[0], pos_fit.grid, neg_fit.grid])
    bands = (pos_fit.band_lower, pos_fit.band_upper, neg_fit.band_lower, neg_fit.band_upper)
    all_y = np.concatenate([pos_points[1], neg_points[1], *(band[np.isfinite(band)] for band in bands)])
    if x_range is None:
        lo, hi = float(all_x.min()), float(all_x.max())
        pad = 0.02 * (hi - lo or 1.0)
        x_range = (lo - pad, hi + pad)
    if y_range is None:
        lo, hi = float(all_y.min()), float(all_y.max())
        pad = 0.05 * (hi - lo or 1.0)
        y_range = (lo - pad, hi + pad)
    canvas = _Canvas(x_range, y_range)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    parts.extend(_axes(canvas, "sentiment proportion", "simulated log volatility", title))
    parts.extend(_scatter(canvas, *pos_points, _POS_COLOR, max_points))
    parts.extend(_scatter(canvas, *neg_points, _NEG_COLOR, max_points))
    parts.append(_band(canvas, pos_fit, _POS_COLOR))
    parts.append(_band(canvas, neg_fit, _NEG_COLOR))
    parts.append(_polyline(canvas, pos_fit.grid, pos_fit.curve, _POS_COLOR))
    parts.append(_polyline(canvas, neg_fit.grid, neg_fit.curve, _NEG_COLOR, dashed=True))
    legend_y = _MARGIN_T + 14
    parts.append(
        f'<rect x="{_WIDTH - 180}" y="{_MARGIN_T + 2}" width="160" height="34" fill="white" '
        f'fill-opacity="0.8" stroke="#999999"/>'
    )
    parts.append(
        f'<line x1="{_WIDTH - 172}" y1="{legend_y}" x2="{_WIDTH - 140}" y2="{legend_y}" stroke="{_POS_COLOR}" stroke-width="1.8"/>'
        f'<text x="{_WIDTH - 134}" y="{legend_y + 3}" font-size="11">positive proportion</text>'
    )
    parts.append(
        f'<line x1="{_WIDTH - 172}" y1="{legend_y + 14}" x2="{_WIDTH - 140}" y2="{legend_y + 14}" stroke="{_NEG_COLOR}" stroke-width="1.8" stroke-dasharray="6,3"/>'
        f'<text x="{_WIDTH - 134}" y="{legend_y + 17}" font-size="11">negative proportion</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
