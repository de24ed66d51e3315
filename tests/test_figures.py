import xml.etree.ElementTree as ET

import numpy as np

from newsflow.figures import scatter_band_figure
from newsflow.simulate.smoother import local_linear_fit, uniform_band

SVG_NS = "{http://www.w3.org/2000/svg}"


def _fits(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 0.05, 400)
    y_pos = 1.55 + 0.2 * x + 0.02 * rng.standard_normal(400)
    y_neg = 1.55 + 0.9 * x + 0.02 * rng.standard_normal(400)
    grid = np.linspace(0.002, 0.048, 41)
    fit_pos = uniform_band(local_linear_fit(x, y_pos, 0.01, grid), x, y_pos, n_boot=150, rng_seed=1)
    fit_neg = uniform_band(local_linear_fit(x, y_neg, 0.01, grid), x, y_neg, n_boot=150, rng_seed=2)
    return (x, y_pos), (x, y_neg), fit_pos, fit_neg


def test_svg_structure():
    pos_pts, neg_pts, fit_pos, fit_neg = _fits()
    svg = scatter_band_figure("demo", pos_pts, neg_pts, fit_pos, fit_neg)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    polygons = root.findall(f"{SVG_NS}polygon")
    circles = root.findall(f"{SVG_NS}circle")
    assert len(polylines) == 2  # one curve per polarity
    assert len(polygons) >= 2  # one band per polarity
    assert len(circles) > 100  # scatter


def test_svg_deterministic():
    pos_pts, neg_pts, fit_pos, fit_neg = _fits()
    a = scatter_band_figure("demo", pos_pts, neg_pts, fit_pos, fit_neg)
    b = scatter_band_figure("demo", pos_pts, neg_pts, fit_pos, fit_neg)
    assert a == b


def test_svg_plot_range_restricts_view_only():
    pos_pts, neg_pts, fit_pos, fit_neg = _fits()
    narrow = scatter_band_figure(
        "demo", pos_pts, neg_pts, fit_pos, fit_neg,
        x_range=(0.0, 0.04), y_range=(1.45, 1.65),
    )
    root = ET.fromstring(narrow)
    # fewer scatter points inside the restricted window, but still a valid figure
    assert root.findall(f"{SVG_NS}polyline")
