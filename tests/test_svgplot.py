import math
import xml.etree.ElementTree as ET

import numpy as np

from slopestrike import svgplot

SVG = "{http://www.w3.org/2000/svg}"


def _polylines(path):
    """The root's viewBox (x, y, w, h) and each polyline's (n, 2) points."""
    root = ET.parse(path).getroot()
    box = [float(v) for v in root.get("viewBox").split()]
    lines = [np.array([[float(c) for c in pt.split(",")] for pt in el.get("points").split()])
             for el in root.iter(f"{SVG}polyline")]
    return box, lines


def _assert_inside(box, pts):
    x0, y0, w, h = box
    assert all(math.isfinite(v) for v in pts.reshape(-1))
    assert np.all((pts[:, 0] >= x0) & (pts[:, 0] <= x0 + w))
    assert np.all((pts[:, 1] >= y0) & (pts[:, 1] <= y0 + h))


def _line_series():
    days = np.arange(40, 70)
    rng = np.random.default_rng(5)
    return [("truth", days, 80.0 + np.cumsum(rng.normal(0, 1, 30))),
            ("forecast", days, 80.0 + np.linspace(-2.0, 3.0, 30))]


def test_line_chart_is_deterministic_and_draws_each_series_inside_the_box(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        svgplot.line_chart(path, _line_series(), title="T", x_label="day", y_label="adjprc")
    assert a.read_bytes() == b.read_bytes()
    box, lines = _polylines(a)
    assert len(lines) == 2
    for pts in lines:
        assert pts.shape == (30, 2)
        _assert_inside(box, pts)


def test_histogram_chart_is_deterministic_and_draws_each_sample_inside_the_box(tmp_path):
    rng = np.random.default_rng(6)
    samples = [rng.normal(0, 0.01, 500), rng.normal(0.002, 0.015, 400)]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        svgplot.histogram_chart(path, samples, ["real", "generated"], title="T")
    assert a.read_bytes() == b.read_bytes()
    box, lines = _polylines(a)
    assert len(lines) == 2
    for pts in lines:
        assert pts.shape == (2 * svgplot.BINS, 2)
        _assert_inside(box, pts)


def test_flat_series_still_draws(tmp_path):
    path = tmp_path / "flat.svg"
    svgplot.line_chart(path, [("flat", np.arange(10), np.full(10, 3.0))])
    box, lines = _polylines(path)
    assert len(lines) == 1 and lines[0].shape == (10, 2)
    _assert_inside(box, lines[0])
    assert np.all(lines[0][:, 1] == lines[0][0, 1])


def test_markup_in_text_is_escaped(tmp_path):
    path = tmp_path / "amp.svg"
    texts = ["AT&T GSA eps%=2", "day <t>", "price & \"size\"", "A&B", "x < y"]
    title, x_label, y_label, *labels = texts
    series = [(label, xs, ys) for label, (_, xs, ys) in zip(labels, _line_series())]
    svgplot.line_chart(path, series, title=title, x_label=x_label, y_label=y_label)
    root = ET.parse(path).getroot()
    assert [el.text for el in root.iter(f"{SVG}text") if not el.text[0].isdigit()] == texts
