import datetime as dt
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_fit_detrend_model, symbol_day_array
from newsflow.corpus import TradingCalendar
from newsflow.errors import InputError, PriceParseError
from newsflow.indicators import (
    PRICE_FIELDS,
    _log,
    AttentionGroup,
    attention_groups,
    attention_ratio,
    compute_indicators,
    fit_detrend_model,
    garman_klass_log_vol,
    load_market_bars,
    log_returns,
)


def load_bar(tmp_path, o, h, l, c, volume=1000.0):
    """One bar read through the price CSV loader, which checks it."""
    path = tmp_path / "p.csv"
    path.write_text(f"symbol,date,open,high,low,close,volume\nA,2020-01-06,{o},{h},{l},{c},{volume}\n",
                    encoding="utf-8")
    return load_market_bars(path, _calendar())


def gk_oracle(o, h, l, c):
    """High-precision direct evaluation, independent of the implementation."""
    mp.mp.dps = 50
    u = mp.log(h) - mp.log(o)
    d = mp.log(l) - mp.log(o)
    cc = mp.log(c) - mp.log(o)
    var = mp.mpf("0.511") * (u - d) ** 2 - mp.mpf("0.019") * (cc * (u + d) - 2 * u * d) \
        - mp.mpf("0.383") * cc**2
    return float(mp.log(var) / 2)


def test_gk_spec_example():
    value = garman_klass_log_vol(100, 102, 99, 101)
    assert value == pytest.approx(-3.90202879526, abs=1e-9)
    assert math.exp(2 * value) == pytest.approx(4.08075810603e-4, rel=1e-9)


def test_gk_matches_oracle():
    value = garman_klass_log_vol(100, 102, 99, 101)
    assert value == pytest.approx(gk_oracle(100, 102, 99, 101), rel=1e-12)


def test_gk_degenerate_bar():
    # a degenerate bar has no volatility: a missing cell, counted by compute_indicators
    assert np.isnan(garman_klass_log_vol(100, 100, 100, 100))


def test_gk_scale_invariance():
    base = garman_klass_log_vol(100, 102, 99, 101)
    for lam in (0.5, 2.0, 10.0):
        scaled = garman_klass_log_vol(100 * lam, 102 * lam, 99 * lam, 101 * lam)
        assert scaled == pytest.approx(base, abs=1e-12)


def test_bar_invariants(tmp_path):
    with pytest.raises(InputError):
        load_bar(tmp_path, 100, 99, 98, 100)  # high below open
    with pytest.raises(InputError):
        load_bar(tmp_path, 100, 102, 101, 100)  # low above open
    with pytest.raises(InputError):
        load_bar(tmp_path, -1, 102, 99, 101)
    with pytest.raises(InputError):
        load_bar(tmp_path, 100, 102, 99, 101, volume=-5)


def log_return(close_t, close_prev):
    return log_returns([close_prev, close_t])[1]


def test_log_return():
    assert log_return(100, 100) == 0.0
    assert log_return(101, 100) == pytest.approx(math.log(1.01))
    assert log_return(101, 100) == pytest.approx(0.00995, abs=5e-6)
    # no previous close, no return
    assert np.isnan(log_return(100, np.nan))


def test_log_return_telescoping():
    rng = np.random.default_rng(3)
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 50)))
    total = sum(log_return(closes[t], closes[t - 1]) for t in range(1, 50))
    assert total == pytest.approx(math.log(closes[-1] / closes[0]), abs=1e-12)


# detrended volume -------------------------------------------------------------

def quad_series(n, a=10.0, b=0.01, c=-1e-4):
    s = np.arange(n, dtype=float)
    return a + b * s + c * s**2


def detrended(series):
    """Each day's residual against its forecast from fit_detrend_model on the whole series."""
    return series - fit_detrend_model(series)


def test_detrend_exact_quadratic_zero_residual():
    series = quad_series(121)
    assert abs(detrended(series)[120]) < 1e-9


def test_detrend_constant_zero_residual():
    series = np.full(125, 13.2)
    assert abs(detrended(series)[124]) < 1e-9


def test_detrend_shock_recovery():
    series = quad_series(121)
    series[120] += 0.5
    assert detrended(series)[120] == pytest.approx(0.5, abs=1e-9)


def test_detrend_matches_normal_equation_oracle():
    rng = np.random.default_rng(11)
    series = quad_series(140) + rng.normal(0, 0.05, 140)
    t = 133
    # independent oracle: explicit normal equations on the window
    s = np.arange(t - 120, t, dtype=float)
    t0 = t - 120
    X = np.vstack([np.ones_like(s), s - t0, (s - t0) ** 2]).T
    y = series[t - 120 : t]
    coef = np.linalg.solve(X.T @ X, X.T @ y)
    forecast = coef[0] + coef[1] * (t - t0) + coef[2] * (t - t0) ** 2
    assert detrended(series)[t] == pytest.approx(series[t] - forecast, abs=1e-9)


def test_detrend_insufficient_history():
    # day 99 has 99 days before it, fewer than the 120-day window
    assert np.isnan(fit_detrend_model(quad_series(100))[99])


def test_detrend_no_look_ahead():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(125, 160))
        series = rng.normal(10, 0.3, n)
        t = int(rng.integers(120, n))
        poisoned = series.copy()
        poisoned[t + 1 :] = rng.normal(1000, 500, max(n - t - 1, 0))
        before = fit_detrend_model(series)[: t + 1]
        assert np.array_equal(fit_detrend_model(poisoned)[: t + 1], before, equal_nan=True)


def test_detrend_skips_missing_history():
    series = quad_series(130)
    series[5] = np.nan
    series[60] = np.nan
    # window takes the last 120 finite observations before t
    forecast = fit_detrend_model(series)
    assert np.isnan(forecast[121]) and not np.isnan(forecast[122])  # 119, then 120 finite days before
    assert abs(detrended(series)[128]) < 1e-8


def test_detrend_trend_invariance():
    rng = np.random.default_rng(13)
    base = rng.normal(0, 0.2, 140)
    trend = 4.0 + 0.02 * np.arange(140) + 3e-4 * np.arange(140) ** 2
    v_base = detrended(base + 10.0)[130]
    v_trended = detrended(base + 10.0 + trend)[130]
    assert v_trended == pytest.approx(v_base, abs=1e-9)


def gapped_log_volume(n, seed):
    """Log volume with days missing and zero-volume days, both NaN."""
    rng = np.random.default_rng(seed)
    log_volume = quad_series(n, a=13.0) + rng.normal(0, 0.4, n)
    log_volume[rng.random(n) < 0.08] = np.nan
    return log_volume


def normal_equation_forecast(log_volume, t, window=120):
    """Day t's forecast from the explicit normal equations on its window."""
    finite = np.flatnonzero(~np.isnan(log_volume))
    support = finite[finite < t][-window:]
    x = (support - support[0]).astype(float)
    X = np.column_stack([np.ones_like(x), x, x * x])
    coef = np.linalg.solve(X.T @ X, X.T @ log_volume[support])
    x_t = t - support[0]
    return coef[0] + coef[1] * x_t + coef[2] * x_t * x_t


def test_detrend_forecast_matches_mpmath_oracle_on_gapped_windows():
    log_volume = gapped_log_volume(200, seed=17)
    forecast = fit_detrend_model(log_volume)
    finite = np.flatnonzero(~np.isnan(log_volume))
    mp.mp.dps = 50
    worst = 0.0
    for t in range(len(log_volume)):
        support = finite[finite < t][-120:]
        if len(support) < 120:
            assert np.isnan(forecast[t])
            continue
        assert np.diff(support).max() > 1  # every window here spans a gap
        X = mp.matrix([[1, int(s), int(s) ** 2] for s in support])
        y = mp.matrix([mp.mpf(float(log_volume[s])) for s in support])
        coef = mp.lu_solve(X.T * X, X.T * y)
        worst = max(worst, abs(float(coef[0] + coef[1] * t + coef[2] * t * t) - forecast[t]))
    assert worst <= 1e-13


def test_detrend_no_look_ahead_in_the_batch():
    log_volume = gapped_log_volume(180, seed=18)
    forecast = fit_detrend_model(log_volume)
    for t in range(120, 180, 7):
        poisoned = log_volume.copy()
        poisoned[t:] = 1e3
        assert np.array_equal(fit_detrend_model(poisoned)[: t + 1], forecast[: t + 1], equal_nan=True)


@st.composite
def gapped_windows(draw):
    """(log volume, window): 3-400 days, NaN on 0-30% of them, maybe a NaN run longer than the window."""
    n = draw(st.integers(3, 400))
    window = draw(st.integers(3, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_volume = rng.normal(draw(st.floats(0.0, 25.0)), draw(st.floats(0.01, 2.0)), n)
    log_volume[rng.random(n) < draw(st.floats(0.0, 0.3))] = np.nan
    run = draw(st.sampled_from([0, window + 1, 2 * window, 3 * window]))
    start = draw(st.integers(0, n - 1))
    log_volume[start : start + run] = np.nan
    return log_volume, window


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=gapped_windows())
def test_detrend_matches_the_qr_reference(case):
    # days after a long NaN run extrapolate far beyond their window, and days
    # that are NaN themselves get a forecast too
    log_volume, window = case
    forecast = fit_detrend_model(log_volume, window)
    expected = reference_fit_detrend_model(log_volume, window)
    assert np.array_equal(np.isnan(forecast), np.isnan(expected))
    defined = ~np.isnan(expected)
    assert np.all(np.abs(forecast - expected)[defined] <= 1e-12 * np.maximum(1.0, np.abs(expected[defined])))


def test_detrend_matches_mpmath_across_a_gap_longer_than_the_history():
    # one day, 3,000 missing days, then 140 days: the first window puts one
    # point at x = -1 and the other 119 within 0.08 of x = 1
    rng = np.random.default_rng(21)
    log_volume = np.full(3141, np.nan)
    log_volume[0] = 12.0
    log_volume[3001:] = 13.0 + rng.normal(0, 0.4, 140)
    forecast = fit_detrend_model(log_volume)
    finite = np.flatnonzero(~np.isnan(log_volume))
    mp.mp.dps = 50
    worst = 0.0
    for t in range(3120, 3141):
        support = finite[finite < t][-120:]
        X = mp.matrix([[1, int(s), int(s) ** 2] for s in support])
        y = mp.matrix([mp.mpf(float(log_volume[s])) for s in support])
        coef = mp.lu_solve(X.T * X, X.T * y)
        worst = max(worst, abs(float(coef[0] + coef[1] * t + coef[2] * t * t) - forecast[t]))
    assert np.flatnonzero(~np.isnan(forecast))[0] == 3120
    assert worst <= 1e-12

# compute_indicators -----------------------------------------------------------

def make_bars(symbol, n, rng):
    """(symbol, day, *PRICE_FIELDS) rows of a random walk."""
    bars = []
    close = 100.0
    for day in range(n):
        prev = close
        close = prev * math.exp(rng.normal(0, 0.01))
        open_ = prev
        hi = max(open_, close) * math.exp(abs(rng.normal(0, 0.004)) + 1e-5)
        lo = min(open_, close) * math.exp(-abs(rng.normal(0, 0.004)) - 1e-5)
        bars.append((symbol, day, open_, hi, lo, close, float(rng.uniform(1e5, 2e5))))
    return bars


def bar_array(bars, n_days):
    return symbol_day_array(PRICE_FIELDS, bars, n_days)


def test_compute_indicators_warmup_130_days():
    rng = np.random.default_rng(5)
    points, warnings = compute_indicators(bar_array(make_bars("A", 130, rng), 130))
    assert points.values.shape == (3, 1, 130)
    missing_v = np.flatnonzero(np.isnan(points.plane("detrended_volume")[0])).tolist()
    assert missing_v == list(range(120))  # defined from ordinal 120 onward
    assert warnings.warmup_days == 120
    ret = points.plane("ret")[0]
    assert np.isnan(ret[0])
    assert not np.isnan(ret[1:]).any()


def test_compute_indicators_degenerate_and_zero_volume():
    rng = np.random.default_rng(6)
    bars = make_bars("A", 20, rng)
    bars[3] = ("A", 3, 50, 50, 50, 50, 1000.0)
    bars[5] = ("A", 5, *(b := (100, 101, 99, 100.5)), 0.0)
    points, warnings = compute_indicators(bar_array(bars, 20))
    assert warnings.degenerate_bars == 1
    assert warnings.zero_volume_days == 1
    assert np.isnan(points.plane("log_vol")[0, 3])


def per_bar_log_vol(open_, high, low, close):
    """The Garman-Klass formula in Python floats, one bar at a time."""
    u = math.log(high) - math.log(open_)
    d = math.log(low) - math.log(open_)
    c = math.log(close) - math.log(open_)
    var = 0.511 * (u - d) ** 2 - 0.019 * (c * (u + d) - 2.0 * u * d) - 0.383 * c**2
    return 0.5 * math.log(var)


def test_gk_and_returns_equal_the_per_bar_formulas_to_the_last_bit():
    # np.log and numpy's x * x each differ from libm in the last bit on some
    # of these bars; the stage keeps the per-bar values exactly
    rng = np.random.default_rng(20)
    n = 50_000
    open_ = rng.uniform(5, 500, n)
    close = open_ * np.exp(rng.normal(0, 0.02, n))
    high = np.maximum(open_, close) * np.exp(np.abs(rng.normal(0, 0.01, n)) + 1e-6)
    low = np.minimum(open_, close) * np.exp(-np.abs(rng.normal(0, 0.01, n)) - 1e-6)
    prices = [p.tolist() for p in (open_, high, low, close)]
    assert garman_klass_log_vol(open_, high, low, close).tolist() == [per_bar_log_vol(*bar) for bar in zip(*prices)]
    closes = prices[3]
    expected = [math.log(c) - math.log(prev) for c, prev in zip(closes[1:], closes)]
    assert log_returns(close)[1:].tolist() == expected


@pytest.mark.parametrize("shape", [(0,), (7,), (3, 40), ()], ids=["empty", "flat", "symbol_by_day", "scalar"])
def test_log_equals_the_per_element_libm_log_to_the_bit(shape):
    rng = np.random.default_rng(11)
    values = np.exp(rng.normal(3.0, 2.0, size=shape))
    special = np.array([np.nan, 0.0, -0.0, -1.5, np.inf, -np.inf, 5e-324, 1.0])
    flat = values.reshape(-1)
    flat[: min(flat.size, special.size)] = special[: flat.size]
    got = _log(values)
    want = np.array([math.log(x) if x > 0 else math.nan for x in values.ravel().tolist()]).reshape(values.shape)
    assert got.shape == values.shape
    assert got.tobytes() == want.tobytes()


def test_compute_indicators_on_gapped_bars_with_zero_volume_days_match_per_day_references():
    rng = np.random.default_rng(19)
    bars = make_bars("A", 220, rng)
    for day in (30, 95, 150, 181, 200):
        bars[day] = (*bars[day][:6], 0.0)
    bars = [bar for bar in bars if rng.random() > 0.05]  # days without a bar
    points, warnings = compute_indicators(bar_array(bars, 220))

    log_vol, detrended, ret = points.values[:, 0]
    close_of = {day: close for _, day, _, _, _, close, _ in bars}
    log_volume = np.full(220, np.nan)
    for _, day, *_, volume in bars:
        if volume > 0:
            log_volume[day] = math.log(volume)
    expected = np.full(220, np.nan)
    for _, day, open_, high, low, close, _ in bars:
        assert log_vol[day] == per_bar_log_vol(open_, high, low, close)
        if day - 1 in close_of:
            assert ret[day] == math.log(close) - math.log(close_of[day - 1])
        else:
            assert np.isnan(ret[day])
        if not np.isnan(log_volume[day]) and np.count_nonzero(~np.isnan(log_volume[:day])) >= 120:
            expected[day] = log_volume[day] - normal_equation_forecast(log_volume, day)
    assert np.array_equal(np.isnan(detrended), np.isnan(expected))
    assert np.nanmax(np.abs(detrended - expected)) <= 1e-12
    assert warnings.zero_volume_days == sum(bar[6] == 0.0 for bar in bars)
    assert warnings.warmup_days == len(bars) - np.count_nonzero(~np.isnan(expected))


# csv loading ------------------------------------------------------------------

def _calendar(n=3):
    days = [dt.date(2020, 1, 6) + dt.timedelta(days=i) for i in range(n)]
    return TradingCalendar(days=tuple(days))


def test_load_market_bars(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "symbol,date,open,high,low,close,volume\n"
        "aapl,2020-01-06,100,102,99,101,5000\n"
        "AAPL,2020-01-07,101,103,100,102,6000\n",
        encoding="utf-8",
    )
    grouped = load_market_bars(path, _calendar())
    assert grouped.symbols == ("AAPL",)
    assert np.flatnonzero(~np.isnan(grouped.plane("close")[0])).tolist() == [0, 1]


def test_load_market_bars_bad_row_line_number(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "symbol,date,open,high,low,close,volume\n"
        "AAPL,2020-01-06,100,102,99,101,5000\n"
        "AAPL,2020-01-07,101,99,100,102,6000\n",  # high < low
        encoding="utf-8",
    )
    with pytest.raises(PriceParseError) as err:
        load_market_bars(path, _calendar())
    assert err.value.line == 3


def test_load_market_bars_date_not_in_calendar(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "symbol,date,open,high,low,close,volume\n"
        "AAPL,2021-06-06,100,102,99,101,5000\n",
        encoding="utf-8",
    )
    with pytest.raises(PriceParseError):
        load_market_bars(path, _calendar())


# attention ---------------------------------------------------------------------

def _active(active_days, n_days):
    return np.array([1.0 if d in active_days else 0.0 for d in range(n_days)])


def test_attention_ratio():
    assert attention_ratio(_active(set(), 10), 10) == 0.0
    assert attention_ratio(_active(set(range(10)), 10), 10) == 1.0
    assert attention_ratio(_active(set(range(1027)), 1255), 1255) == pytest.approx(0.818, abs=5e-4)


def test_attention_groups_quartile_example():
    groups = attention_groups({"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4})
    assert groups == {
        "A": AttentionGroup.LOW,
        "B": AttentionGroup.MEDIAN,
        "C": AttentionGroup.HIGH,
        "D": AttentionGroup.EXTREMELY_HIGH,
    }


def test_attention_groups_two_per_group():
    ratios = {f"S{i}": 0.1 * (i + 1) for i in range(8)}
    groups = attention_groups(ratios)
    counts = {}
    for g in groups.values():
        counts[g] = counts.get(g, 0) + 1
    assert counts == {g: 2 for g in AttentionGroup}


def test_attention_groups_all_equal():
    groups = attention_groups({s: 0.5 for s in "ABCD"})
    assert set(groups.values()) == {AttentionGroup.EXTREMELY_HIGH}


def test_attention_groups_needs_four():
    with pytest.raises(InputError):
        attention_groups({"A": 0.1, "B": 0.2, "C": 0.3})
