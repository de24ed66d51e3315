import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_equivalent_weights, reference_uniform_band
from newsflow.errors import DegenerateX, InputError, TooFewPoints
from newsflow.simulate.smoother import (
    band_overlap_region,
    local_linear_fit,
    plugin_bandwidth,
    uniform_band,
)


def predict_at(x, y, h, points, chunk=512):
    """Local-linear fitted values at arbitrary points, chunked: the reference for local_linear_fit."""
    out = np.empty(len(points))
    for start in range(0, len(points), chunk):
        weights, empty = reference_equivalent_weights(x, points[start : start + chunk], h)
        values = np.where(np.isnan(weights), 0.0, weights) @ y
        values[empty] = np.nan
        out[start : start + chunk] = values
    return out


def test_affine_exactness_any_bandwidth():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 300)
    y = 2.5 - 1.25 * x
    grid = np.linspace(0.05, 0.95, 31)
    for h in (0.01, 0.1, 1.0, 50.0):
        fit = local_linear_fit(x, y, h, grid)
        assert fit.curve == pytest.approx(2.5 - 1.25 * grid, abs=1e-10)


def test_large_bandwidth_tends_to_global_ols():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 400)
    y = 1.0 + 2.0 * x + rng.normal(0, 0.3, 400)
    grid = np.linspace(0.1, 0.9, 9)
    fit = local_linear_fit(x, y, 1e6, grid)
    coeffs = np.polyfit(x, y, 1)
    assert fit.curve == pytest.approx(np.polyval(coeffs, grid), abs=1e-6)


def test_sine_recovery_with_plugin_bandwidth():
    rng = np.random.default_rng(2)
    n = 2000
    x = rng.uniform(0, 1, n)
    truth = np.sin(3.0 * x)
    y = truth + rng.normal(0, 0.2, n)
    h = plugin_bandwidth(x, y)
    grid = np.linspace(0.05, 0.95, 61)
    fit = local_linear_fit(x, y, h, grid)
    assert np.max(np.abs(fit.curve - np.sin(3.0 * grid))) < 0.1


def test_empty_neighborhood_marked():
    x = np.linspace(0, 1, 50)
    y = x.copy()
    grid = np.array([0.5, 25.0])  # second point is far outside the data
    fit = local_linear_fit(x, y, 0.01, grid)
    assert np.isfinite(fit.curve[0])
    assert np.isnan(fit.curve[1])
    assert fit.n_empty == 1


@pytest.mark.parametrize("grid", [[0.2, 0.2, 0.4], [0.4, 0.2]], ids=["repeated", "decreasing"])
def test_fit_rejects_a_grid_that_is_not_strictly_increasing(grid):
    x = np.linspace(0, 1, 50)
    with pytest.raises(InputError, match="^evaluation grid must be strictly increasing$"):
        local_linear_fit(x, x, 0.1, np.array(grid))


def test_predict_at_matches_gridwise_fit():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 200)
    y = np.cos(2 * x) + rng.normal(0, 0.1, 200)
    points = np.sort(rng.uniform(0.1, 0.9, 40))
    direct = local_linear_fit(x, y, 0.1, points).curve
    # predict_at accepts unsorted points; shuffle and unshuffle to check
    perm = rng.permutation(40)
    chunked = predict_at(x, y, 0.1, points[perm], chunk=7)[np.argsort(perm)]
    assert chunked == pytest.approx(direct, abs=1e-12)


@st.composite
def _smoother_case(draw):
    """Tied (a pool of at most 20 values) or untied x, plus a far cluster and grid points beyond the data."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 150))
    if draw(st.booleans()):
        pool = np.sort(rng.choice(100, size=draw(st.integers(2, 20)), replace=False)) / 100.0
        x = pool[rng.integers(len(pool), size=n)]
        x[:2] = pool[0], pool[-1]
    else:
        x = rng.uniform(0.0, 1.0, n)
    u = np.unique(x)
    # a bandwidth of at least the widest gap keeps every local line inside the
    # data well conditioned, so the two summation orders agree to rounding
    h = float(np.diff(u).max()) * draw(st.floats(1.0, 4.0))
    # a cluster 60 h away: at its value all kernel mass sits on one x value
    far = u[-1] + 60.0 * h
    x = np.concatenate([x, np.full(draw(st.integers(1, 3)), far)])
    y = 10.0 + np.sin(3.0 * x) + rng.normal(0.0, 0.3, len(x))
    inside = np.linspace(u[0], u[-1], 15)
    grid = np.concatenate([[u[0] - 30.0 * h], inside, [u[-1] + 30.0 * h, far, far + 30.0 * h]])
    return x, y, h, grid, draw(st.integers(100, 200)), draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_smoother_case())
def test_distinct_value_sums_match_the_per_point_oracle(case):
    x, y, h, grid, n_boot, seed = case
    fit = local_linear_fit(x, y, h, grid)
    banded = uniform_band(fit, x, y, level=0.95, n_boot=n_boot, rng_seed=seed)
    curve, se, critical, lower, upper = reference_uniform_band(x, y, h, grid, 0.95, n_boot, seed)
    # three grid points lie beyond the data; the far cluster's own value is the degenerate fallback
    assert fit.n_empty == 3 and np.isnan(fit.curve[[0, -3, -1]]).all()
    assert fit.curve[-2] == pytest.approx(y[x == grid[-2]].mean(), rel=1e-12)
    assert (fit.n_points, fit.n_distinct) == (len(x), len(np.unique(x)))
    np.testing.assert_allclose(fit.curve, curve, rtol=1e-12)
    np.testing.assert_allclose(banded.pointwise_se, se, rtol=1e-12)
    assert banded.critical_value == pytest.approx(critical, rel=1e-12)
    np.testing.assert_allclose(banded.band_lower, lower, rtol=1e-12)
    np.testing.assert_allclose(banded.band_upper, upper, rtol=1e-12)


def test_leverage_in_blocks_matches_the_per_point_oracle():
    # 1,100 distinct values take three blocks of leverage rows, the last one partial
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(0.0, 1.0, 1000), np.repeat(rng.uniform(0.0, 1.0, 100), 3)])
    y = 10.0 + np.sin(3.0 * x) + rng.normal(0.0, 0.3, len(x))
    grid = np.linspace(0.0, 1.0, 21)
    banded = uniform_band(local_linear_fit(x, y, 0.05, grid), x, y, n_boot=100, rng_seed=13)
    assert banded.n_distinct == 1100
    curve, se, critical, lower, upper = reference_uniform_band(x, y, 0.05, grid, 0.95, 100, 13)
    np.testing.assert_allclose(banded.pointwise_se, se, rtol=1e-12)
    assert banded.critical_value == pytest.approx(critical, rel=1e-12)
    np.testing.assert_allclose(banded.band_upper, upper, rtol=1e-12)


# plug-in bandwidth ---------------------------------------------------------------

def test_plugin_scale_equivariance():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, 500)
    y = np.sin(4 * x) + rng.normal(0, 0.3, 500)
    h = plugin_bandwidth(x, y)
    for lam in (0.5, 2.0, 10.0):
        assert plugin_bandwidth(lam * x, y) == pytest.approx(lam * h, rel=1e-9)


def test_plugin_linear_hits_cap():
    # zero-curvature limit: the estimated second derivative vanishes and the
    # bandwidth lands on the documented guard cap (the support length)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 2, 300)
    y = 3.0 + 0.5 * x
    h = plugin_bandwidth(x, y)
    assert h == pytest.approx(x.max() - x.min(), abs=1e-12)


def test_plugin_within_factor_two_of_cv_oracle():
    rng = np.random.default_rng(6)
    n = 500
    x = rng.uniform(0, 1, n)
    y = np.sin(6 * x) + rng.normal(0, 0.3, n)

    # leave-one-out CV oracle over a bandwidth grid
    def loo_cv(h):
        dx = x[None, :] - x[:, None]
        w = np.exp(-0.5 * (dx / h) ** 2)
        np.fill_diagonal(w, 0.0)
        s0 = w.sum(axis=1)
        s1 = (w * dx).sum(axis=1)
        s2 = (w * dx * dx).sum(axis=1)
        denom = s0 * s2 - s1**2
        l = w * (s2[:, None] - dx * s1[:, None]) / denom[:, None]
        pred = (l * y[None, :]).sum(axis=1)
        return float(np.mean((y - pred) ** 2))

    grid = np.geomspace(0.01, 0.5, 25)
    best = min(grid, key=loo_cv)
    h = plugin_bandwidth(x, y)
    assert best / 2 <= h <= best * 2


def test_plugin_guards():
    with pytest.raises(TooFewPoints):
        plugin_bandwidth(np.arange(5.0), np.arange(5.0))
    with pytest.raises(DegenerateX):
        plugin_bandwidth(np.full(50, 1.0), np.random.default_rng(7).normal(0, 1, 50))


# uniform band ---------------------------------------------------------------------

def _banded(n=400, noise=0.3, level=0.95, n_boot=200, seed=8):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = np.sin(3 * x) + noise * rng.normal(0, 1, n)
    grid = np.linspace(0.1, 0.9, 41)
    fit = local_linear_fit(x, y, 0.08, grid)
    return uniform_band(fit, x, y, level=level, n_boot=n_boot, rng_seed=seed), x, y, grid


def test_band_noiseless_affine_zero_width():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 200)
    y = 1.0 + 4.0 * x
    grid = np.linspace(0.2, 0.8, 13)
    fit = local_linear_fit(x, y, 0.2, grid)
    banded = uniform_band(fit, x, y, n_boot=200, rng_seed=10)
    assert banded.band_upper == pytest.approx(banded.curve, abs=1e-8)
    assert banded.band_lower == pytest.approx(banded.curve, abs=1e-8)


def test_band_contains_curve_and_dominates_pointwise():
    banded, x, y, grid = _banded()
    assert np.all(banded.band_lower <= banded.curve + 1e-12)
    assert np.all(banded.band_upper >= banded.curve - 1e-12)
    # uniform critical value never below the pointwise normal quantile
    assert banded.critical_value >= 1.959963 - 1e-9
    pointwise_half = 1.959964 * banded.pointwise_se
    assert np.all((banded.band_upper - banded.curve) >= pointwise_half - 1e-12)


def test_band_level_monotonicity():
    fits = {}
    for level in (0.80, 0.90, 0.95, 0.99):
        banded, *_ = _banded(level=level, seed=11)
        fits[level] = banded
    widths = {level: fits[level].band_upper - fits[level].band_lower for level in fits}
    assert np.all(widths[0.90] >= widths[0.80] - 1e-12)
    assert np.all(widths[0.95] >= widths[0.90] - 1e-12)
    assert np.all(widths[0.99] >= widths[0.95] - 1e-12)


def test_band_memory_does_not_grow_with_the_points_of_a_value():
    # 5,000 points on 50 values: per-point multipliers alone would take 40 MB
    rng = np.random.default_rng(14)
    x = rng.choice(rng.uniform(0.0, 1.0, 50), 5000)
    y = np.sin(3.0 * x) + rng.normal(0.0, 0.3, len(x))
    fit = local_linear_fit(x, y, 0.1, np.linspace(0.1, 0.9, 41))
    tracemalloc.start()
    try:
        uniform_band(fit, x, y, n_boot=1000, rng_seed=15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_band_coverage_on_tied_x():
    # criterion 10's coverage check with x rounded to 61 values, so one draw
    # per value and one per point are different bootstraps
    truth = lambda t: np.sin(3.0 * t)
    grid = np.linspace(0.1, 0.9, 41)
    covered = 0
    for rep in range(200):
        rng = np.random.default_rng(2000 + rep)
        x = np.round(60.0 * rng.uniform(0.0, 1.0, 500)) / 60.0
        y = truth(x) + 0.3 * rng.standard_normal(len(x))
        fit = local_linear_fit(x, y, 0.7 * plugin_bandwidth(x, y), grid)
        banded = uniform_band(fit, x, y, level=0.95, n_boot=500, rng_seed=int(rng.integers(2**31)))
        covered += bool(np.all((banded.band_lower <= truth(grid)) & (truth(grid) <= banded.band_upper)))
    assert covered / 200 >= 0.90


# overlap ---------------------------------------------------------------------------

def _const_fit(grid, value, half_width):
    from newsflow.simulate.smoother import SmootherFit

    curve = np.full(len(grid), float(value))
    return SmootherFit(
        grid=grid, curve=curve, bandwidth=0.1,
        band_lower=curve - half_width, band_upper=curve + half_width,
    )


def test_overlap_identical_fits():
    grid = np.linspace(0, 1, 21)
    fit = _const_fit(grid, 1.0, 0.1)
    assert band_overlap_region(fit, fit) == []


def test_overlap_fully_separated():
    grid = np.linspace(0, 1, 21)
    low = _const_fit(grid, 1.0, 0.1)
    high = _const_fit(grid, 2.0, 0.1)
    assert band_overlap_region(low, high) == [(0.0, 1.0)]


def test_overlap_constructed_interval():
    grid = np.linspace(0, 0.1, 101)  # step 0.001
    lower = _const_fit(grid, 1.0, 0.1)
    curve = np.where((grid >= 0.02) & (grid <= 0.05), 3.0, 1.0)
    from newsflow.simulate.smoother import SmootherFit

    upper = SmootherFit(
        grid=grid, curve=curve, bandwidth=0.1,
        band_lower=curve - 0.1, band_upper=curve + 0.1,
    )
    intervals = band_overlap_region(lower, upper)
    assert len(intervals) == 1
    start, end = intervals[0]
    assert start == pytest.approx(0.02, abs=0.0011)
    assert end == pytest.approx(0.05, abs=0.0011)
