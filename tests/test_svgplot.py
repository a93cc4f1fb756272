import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mhect import Equidistant, make_sampler
from mhect.svgplot import _H, _MB, _ML, _MR, _MT, _W, _axis_range, _fmt, _ticks, line_plot


def tick_counts(path):
    """(x ticks, y ticks) drawn in a line_plot SVG."""
    body = path.read_text()
    return body.count('y2="360"'), body.count('<line x1="58"')


def test_nearly_constant_series_get_few_ticks(tmp_path):
    # equidistant sampling times accumulate rounding, so their gaps spread
    # by a few ulps around 0.1
    st = make_sampler(Equidistant(0.1), 5.0, 0.01, horizon=2.0).times
    gaps = np.diff(np.concatenate(([0.0], st)))
    assert 0.0 < np.ptp(gaps) < 1e-14
    one_ulp = np.array([0.2, np.nextafter(0.2, 1.0)])
    for x, y in ((st, gaps), (np.array([0.0, 1.0]), one_ulp), (one_ulp, np.array([0.0, 1.0]))):
        assert len(_ticks(y.min(), y.max())) <= 12
        path = tmp_path / "plot.svg"
        line_plot(str(path), [{"x": x, "y": y, "label": "s"}])
        nx, ny = tick_counts(path)
        assert 1 <= nx <= 12 and 1 <= ny <= 12
        assert path.stat().st_size < 20000


def test_small_magnitude_series_keep_their_ticks(tmp_path):
    ticks = _ticks(1e-20, 3e-20)
    assert 3 <= len(ticks) <= 12
    assert all(1e-20 <= t <= 3e-20 * (1 + 1e-12) for t in ticks)
    path = tmp_path / "plot.svg"
    line_plot(str(path), [{"x": np.array([0.0, 1.0]), "y": np.array([1e-20, 3e-20])}])
    assert tick_counts(path)[1] >= 3


def test_ticks_are_multiples_of_the_step():
    assert _ticks(0.0, 1.0) == [k * 0.2 for k in range(6)]
    assert _ticks(-3.0, 7.0) == [k * 2.0 for k in range(-1, 4)]
    assert _ticks(5.0, 5.0) == [k * 1.0 for k in range(5, 11)]   # widened to [5, 10]
    # a subnormal span, whose fifth underflows, is widened as an empty one
    assert _ticks(0.0, 5e-324) == _ticks(0.0, 0.0) == _ticks(0.0, 1.0)


def per_point_line_plot(path, series, *, title="", xlabel="", ylabel=""):
    """line_plot as it mapped and formatted one point at a time, through
    scalar closures and min/max over numpy scalars; the reference for the
    array version."""
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
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


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(n=st.integers(1, 60), data=st.data())
def test_line_plot_matches_the_per_point_writer(tmp_path_factory, n, data):
    # the same bytes on random polylines and markers, a constant series and
    # a marker series, with titles, labels and ticks around them
    x = data.draw(arrays(float, n, elements=finite))
    series = [{"x": x, "y": data.draw(arrays(float, n, elements=finite)), "label": "a"},
              {"x": x, "y": np.full(n, data.draw(finite)), "label": "constant",
               "color": "#d62728"},
              {"x": x, "y": data.draw(arrays(float, n, elements=finite)), "label": "",
               "line": data.draw(st.booleans())},
              {"x": np.sort(x), "y": data.draw(arrays(float, n, elements=finite)),
               "label": "markers", "line": False}]
    d = tmp_path_factory.mktemp("plots")
    for subset in (series, series[1:2], series[3:]):
        line_plot(str(d / "new.svg"), subset, title="t", xlabel="x", ylabel="y")
        per_point_line_plot(str(d / "ref.svg"), subset, title="t", xlabel="x", ylabel="y")
        assert (d / "new.svg").read_bytes() == (d / "ref.svg").read_bytes()
