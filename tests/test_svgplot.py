import numpy as np

from mhect import Equidistant, make_sampler
from mhect.svgplot import _ticks, line_plot


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
