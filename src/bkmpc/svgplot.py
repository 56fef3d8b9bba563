"""Deterministic SVG line plots.

Hand-rolled so that identical inputs produce byte-identical files: no
timestamps, no generated ids, fixed float formatting. It draws the one
figure the CLI asks for: titled and labelled series of positive values on
a log10 y-axis, each with its shaded band (a filled polygon between
y - hw and y + hw, clamped at 1e-300).
"""

import math
import warnings

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v):
    return f"{v:.6g}"


def _ticks(lo, hi, count=6):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / max(count - 1, 1)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


class Series:
    def __init__(self, name, x, y, band_halfwidth):
        self.name = name
        self.x = list(map(float, x))
        self.y = list(map(float, y))
        self.band = list(map(float, band_halfwidth))


def emit_svg(series, path, title, xlabel, ylabel):
    """Write the figure; returns False (with a warning) on empty input."""
    series = [s for s in series if len(s.x) and len(s.y)]
    if not series:
        warnings.warn("emit_svg: no usable series, figure not written")
        return False

    def ty(v):
        return math.log10(max(v, 1e-300))

    xs = [v for s in series for v in s.x]
    ys = [ty(y + d) for s in series for y, hw in zip(s.y, s.band) for d in (-hw, hw)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (ty(v) - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-size="16" font-family="sans-serif">{title}</text>'
    )
    # axes box
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>'
    )
    for t in _ticks(x_lo, x_hi):
        X = px(t)
        out.append(
            f'<line x1="{_fmt(X)}" y1="{_H - _MB}" x2="{_fmt(X)}" '
            f'y2="{_H - _MB + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_fmt(X)}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        Y = _H - _MB - (t - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)
        out.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(Y)}" x2="{_ML}" y2="{_fmt(Y)}" '
            f'stroke="#333"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(Y + 4)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">1e{_fmt(t)}</text>'
        )
    out.append(
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_H // 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_H // 2})">'
        f"{ylabel}</text>"
    )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        upper = [
            f"{_fmt(px(x))},{_fmt(py(y + b))}" for x, y, b in zip(s.x, s.y, s.band)
        ]
        lower = [
            f"{_fmt(px(x))},{_fmt(py(y - b))}"
            for x, y, b in zip(reversed(s.x), reversed(s.y), reversed(s.band))
        ]
        out.append(
            f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.x, s.y))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * i
        out.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 95}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 90}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{s.name}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return True
