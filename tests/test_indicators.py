import datetime as dt
import math

import mpmath as mp
import numpy as np
import pytest

from newsflow.corpus import TradingCalendar
from newsflow.errors import (
    DegenerateBar,
    InputError,
    InsufficientHistory,
    MissingPrevious,
    PriceParseError,
)
from newsflow.indicators import (
    AttentionGroup,
    MarketBar,
    attention_groups,
    attention_ratio,
    compute_indicators,
    detrended_volume,
    fit_detrend_model,
    garman_klass_log_vol,
    load_market_bars,
    log_return,
)


def bar(o, h, l, c, volume=1000.0, symbol="A", day=0):
    return MarketBar(symbol=symbol, day=day, open=o, high=h, low=l, close=c, volume=volume)


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
    value = garman_klass_log_vol(bar(100, 102, 99, 101))
    assert value == pytest.approx(-3.90202879526, abs=1e-9)
    assert math.exp(2 * value) == pytest.approx(4.08075810603e-4, rel=1e-9)


def test_gk_matches_oracle():
    value = garman_klass_log_vol(bar(100, 102, 99, 101))
    assert value == pytest.approx(gk_oracle(100, 102, 99, 101), rel=1e-12)


def test_gk_degenerate_bar():
    with pytest.raises(DegenerateBar):
        garman_klass_log_vol(bar(100, 100, 100, 100))


def test_gk_scale_invariance():
    base = garman_klass_log_vol(bar(100, 102, 99, 101))
    for lam in (0.5, 2.0, 10.0):
        scaled = garman_klass_log_vol(bar(100 * lam, 102 * lam, 99 * lam, 101 * lam))
        assert scaled == pytest.approx(base, abs=1e-12)


def test_bar_invariants():
    with pytest.raises(InputError):
        bar(100, 99, 98, 100)  # high below open
    with pytest.raises(InputError):
        bar(100, 102, 101, 100)  # low above open
    with pytest.raises(InputError):
        bar(-1, 102, 99, 101)
    with pytest.raises(InputError):
        bar(100, 102, 99, 101, volume=-5)


def test_log_return():
    assert log_return(100, 100) == 0.0
    assert log_return(101, 100) == pytest.approx(math.log(1.01))
    assert log_return(101, 100) == pytest.approx(0.00995, abs=5e-6)
    with pytest.raises(MissingPrevious):
        log_return(100, None)


def test_log_return_telescoping():
    rng = np.random.default_rng(3)
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 50)))
    total = sum(log_return(closes[t], closes[t - 1]) for t in range(1, 50))
    assert total == pytest.approx(math.log(closes[-1] / closes[0]), abs=1e-12)


# detrended volume -------------------------------------------------------------

def quad_series(n, a=10.0, b=0.01, c=-1e-4):
    s = np.arange(n, dtype=float)
    return a + b * s + c * s**2


def test_detrend_exact_quadratic_zero_residual():
    series = quad_series(121)
    assert abs(detrended_volume(series, 120)) < 1e-9


def test_detrend_constant_zero_residual():
    series = np.full(125, 13.2)
    assert abs(detrended_volume(series, 124)) < 1e-9


def test_detrend_shock_recovery():
    series = quad_series(121)
    series[120] += 0.5
    assert detrended_volume(series, 120) == pytest.approx(0.5, abs=1e-9)


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
    assert detrended_volume(series, t) == pytest.approx(series[t] - forecast, abs=1e-9)


def test_detrend_insufficient_history():
    with pytest.raises(InsufficientHistory):
        detrended_volume(quad_series(100), 99)


def test_detrend_no_look_ahead():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(125, 160))
        series = rng.normal(10, 0.3, n)
        t = int(rng.integers(120, n))
        poisoned = series.copy()
        poisoned[t + 1 :] = rng.normal(1000, 500, max(n - t - 1, 0))
        assert detrended_volume(series, t) == detrended_volume(poisoned, t)


def test_detrend_skips_missing_history():
    series = quad_series(130)
    series[5] = np.nan
    series[60] = np.nan
    # window takes the last 120 finite observations before t
    model = fit_detrend_model(series, 128)
    assert model.window == 120
    assert abs(detrended_volume(series, 128)) < 1e-8


def test_detrend_trend_invariance():
    rng = np.random.default_rng(13)
    base = rng.normal(0, 0.2, 140)
    trend = 4.0 + 0.02 * np.arange(140) + 3e-4 * np.arange(140) ** 2
    v_base = detrended_volume(base + 10.0, 130)
    v_trended = detrended_volume(base + 10.0 + trend, 130)
    assert v_trended == pytest.approx(v_base, abs=1e-9)


# compute_indicators -----------------------------------------------------------

def make_bars(symbol, n, rng):
    bars = []
    close = 100.0
    for day in range(n):
        prev = close
        close = prev * math.exp(rng.normal(0, 0.01))
        open_ = prev
        hi = max(open_, close) * math.exp(abs(rng.normal(0, 0.004)) + 1e-5)
        lo = min(open_, close) * math.exp(-abs(rng.normal(0, 0.004)) - 1e-5)
        bars.append(MarketBar(symbol, day, open_, hi, lo, close, float(rng.uniform(1e5, 2e5))))
    return bars


def test_compute_indicators_warmup_130_days():
    rng = np.random.default_rng(5)
    points, warnings = compute_indicators(make_bars("A", 130, rng), n_days=130)
    assert len(points) == 130
    missing_v = [p.day for p in points if p.detrended_volume is None]
    assert missing_v == list(range(120))  # defined from ordinal 120 onward
    assert warnings.warmup_days == 120
    assert points[0].ret is None
    assert all(p.ret is not None for p in points[1:])


def test_compute_indicators_degenerate_and_zero_volume():
    rng = np.random.default_rng(6)
    bars = make_bars("A", 20, rng)
    bars[3] = MarketBar("A", 3, 50, 50, 50, 50, 1000.0)
    bars[5] = MarketBar("A", 5, *(b := (100, 101, 99, 100.5)), 0.0)
    points, warnings = compute_indicators(bars, n_days=20)
    assert warnings.degenerate_bars == 1
    assert warnings.zero_volume_days == 1
    assert points[3].log_vol is None


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
    assert set(grouped) == {"AAPL"}
    assert [b.day for b in grouped["AAPL"]] == [0, 1]


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
