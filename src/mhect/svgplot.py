"""Minimal self-contained SVG line plots (no plotting dependency).

Good enough for run diagnostics: polylines or point markers, axis ticks and
a simple legend.  Not a general plotting layer.
"""

import math

_W, _H = 720, 400
_ML, _MR, _MT, _MB = 62, 16, 34, 44
# a span below this fraction of the values' magnitude is rounding noise, not
# data, and is drawn as a constant series
_REL_RES = 1e-12


def _axis_range(lo, hi):
    """[lo, hi], widened to length max(1, |lo|) when it is empty or below
    float resolution relative to its end points."""
    if hi - lo <= _REL_RES * max(abs(lo), abs(hi)):
        hi = lo + max(1.0, abs(lo))
    return lo, hi


def _ticks(lo, hi, n=5):
    lo, hi = _axis_range(lo, hi)
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1, 2, 2.5, 5, 10):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step)
    last = math.floor(hi / step + 1e-9)
    return [k * step for k in range(first, last + 1)]


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(path, series, *, title="", xlabel="", ylabel=""):
    """Write an SVG line plot.

    series: list of dicts with keys x (array), y (array), label (str),
    color (css color), and optionally line=False to draw point markers
    instead of a polyline.
    """
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    if not xs:
        xs = ys = [0.0, 1.0]
    x_lo, x_hi = _axis_range(min(xs), max(xs))
    y_lo, y_hi = _axis_range(min(ys), max(ys))
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def X(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * iw

    def Y(v):
        return _MT + (y_hi - v) / (y_hi - y_lo) * ih

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        parts.append(f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="13">{title}</text>')
    # axes and ticks
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" fill="none" stroke="#444"/>')
    for t in _ticks(x_lo, x_hi):
        x = X(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_MT + ih}" x2="{x:.1f}" y2="{_MT + ih + 4}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MT + ih + 16}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = Y(t)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_ML - 7}" y="{y + 3.5:.1f}" text-anchor="end">{_fmt(t)}</text>')
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_ML + iw}" y2="{y:.1f}" stroke="#ddd"/>')
    if xlabel:
        parts.append(f'<text x="{_ML + iw / 2}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_MT + ih / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_MT + ih / 2})">{ylabel}</text>')
    # data
    for s in series:
        color = s.get("color", "#1f77b4")
        if s.get("line", True) and len(s["x"]) > 1:
            pts = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(s["x"], s["y"]))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"/>')
        if not s.get("line", True):
            for a, b in zip(s["x"], s["y"]):
                parts.append(f'<circle cx="{X(a):.2f}" cy="{Y(b):.2f}" r="2.4" fill="{color}"/>')
    # legend
    lx, ly = _ML + 10, _MT + 14
    for s in series:
        if not s.get("label"):
            continue
        color = s.get("color", "#1f77b4")
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 23}" y="{ly}">{s["label"]}</text>')
        ly += 15
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
