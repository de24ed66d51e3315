"""Daily stock-reaction indicators from OHLCV bars.

Three indicators per symbol-day: range-based log volatility from the
open/high/low/close log ratios, detrended log trading volume (residual
against a rolling out-of-sample quadratic time trend), and close-to-close
log returns.  All three are computed on symbol × day arrays that are NaN
where a symbol has no bar.  Degenerate bars and warm-up windows yield
missing values, never silently clamped numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import FLOAT, KEY, SymbolDayArray, column_codes, numbers, read_csv_columns, reject, reject_repeats
from .corpus import TradingCalendar
from .errors import InputError, MalformedRecord, PriceParseError

DETREND_WINDOW = 120
PRICE_FIELDS = ("open", "high", "low", "close", "volume")
INDICATOR_FIELDS = ("log_vol", "detrended_volume", "ret")


def _log(values) -> np.ndarray:
    """math.log of each element; NaN where an element is NaN or not positive.

    math.log maps over the positive elements rather than np.log, which
    differs from the libm log by one ulp on some prices: log_vol and ret are
    pinned to the libm values.
    """
    values = np.asarray(values, dtype=float)
    logs = np.full(values.shape, np.nan)
    positive = values > 0
    logs[positive] = np.fromiter(map(math.log, values[positive].tolist()), dtype=float)
    return logs


def garman_klass_log_vol(open_, high, low, close) -> np.ndarray:
    """Log of the range-based daily volatility of each bar, on price arrays of one shape.

    NaN where the bar is absent (NaN prices) or degenerate (variance <= 0).
    """
    return _garman_klass(*map(_log, (open_, high, low, close)))


def _garman_klass(log_open, log_high, log_low, log_close) -> np.ndarray:
    """garman_klass_log_vol from the log prices."""
    up, down, body = (log_price - log_open for log_price in (log_high, log_low, log_close))
    # squared by Python's float ** (libm pow), to which log_vol is pinned: numpy's
    # x * x differs from it in the last bit for about 1 value in 1,000
    var = [
        0.511 * (u - d) ** 2 - 0.019 * (c * (u + d) - 2.0 * u * d) - 0.383 * c**2
        for u, d, c in zip(up.ravel().tolist(), down.ravel().tolist(), body.ravel().tolist())
    ]
    return 0.5 * _log(np.array(var, dtype=float).reshape(up.shape))


def log_returns(close) -> np.ndarray:
    """Close-to-close log returns along the last (day) axis; NaN on the first day and after a missing close."""
    return _differences(_log(close))


def _differences(log_close: np.ndarray) -> np.ndarray:
    """log_returns from the log closes."""
    out = np.full(log_close.shape, np.nan)
    out[..., 1:] = log_close[..., 1:] - log_close[..., :-1]
    return out


def fit_detrend_model(log_volume: Sequence[float], window: int = DETREND_WINDOW) -> np.ndarray:
    """One-step-ahead forecast of every day's log volume from a rolling quadratic time trend.

    Day t's trend is the OLS quadratic on the last `window` (>= 3) finite
    observations before t; NaN days are skipped, so the window slides over
    the available history, and no forecast reads day t or later.  A day
    with fewer than `window` finite observations before it gets NaN.

    Every window is fitted once, by its normal equations: x is centred and
    scaled to [-1, 1] in each window and y centred on the window's mean, the
    moments sum x**k (k <= 4) and x**k * (y - mean) (k <= 2) are summed over
    the window itself, and all the 3 x 3 systems are solved in one batch.
    The days whose windows coincide (a day after a missing one) share a fit.
    """
    values = np.asarray(log_volume, dtype=float)
    forecast = np.full(len(values), np.nan)
    finite = np.flatnonzero(~np.isnan(values))
    history = np.searchsorted(finite, np.arange(len(values)))  # finite days before each day
    days = np.flatnonzero(history >= window)
    if len(days) == 0:
        return forecast
    fit = history[days] - window  # each day's window, by its first finite day
    support = sliding_window_view(finite, window)[: fit[-1] + 1]
    y = sliding_window_view(values[finite], window)[: fit[-1] + 1]
    centre = (support[:, 0] + support[:, -1]) / 2.0
    half_width = (support[:, -1] - support[:, 0]) / 2.0
    x = (support - centre[:, None]) / half_width[:, None]
    x2 = x * x
    level = y.mean(axis=1)
    dy = y - level[:, None]
    s1, s2, s3, s4 = x.sum(axis=1), x2.sum(axis=1), _row_dot(x2, x), _row_dot(x2, x2)
    gram = np.stack([np.full_like(s1, window), s1, s2, s1, s2, s3, s2, s3, s4], axis=-1).reshape(-1, 3, 3)
    moments = np.stack([dy.sum(axis=1), _row_dot(x, dy), _row_dot(x2, dy)], axis=-1)
    coef = np.linalg.solve(gram, moments[..., None])[fit, :, 0]
    x_t = (days - centre[fit]) / half_width[fit]
    forecast[days] = level[fit] + coef[:, 0] + coef[:, 1] * x_t + coef[:, 2] * x_t * x_t
    return forecast


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b."""
    return np.einsum("ij,ij->i", a, b)


@dataclass
class IndicatorWarnings:
    degenerate_bars: int = 0
    zero_volume_days: int = 0
    warmup_days: int = 0


def compute_indicators(
    bars: SymbolDayArray,
    window: int = DETREND_WINDOW,
) -> tuple[SymbolDayArray, IndicatorWarnings]:
    """INDICATOR_FIELDS on the symbol and day axes of `bars` (PRICE_FIELDS, NaN where no bar).

    Besides the days without a bar, a cell is NaN for log_vol on a
    degenerate bar, for ret when the day before has no bar, and for
    detrended_volume on a zero-volume day or before `window` days with volume.
    """
    close, volume = bars.plane("close"), bars.plane("volume")
    present = ~np.isnan(close)
    log_open, log_high, log_low, log_close, log_volume = (_log(bars.plane(name)) for name in PRICE_FIELDS)
    log_vol = _garman_klass(log_open, log_high, log_low, log_close)
    detrended = np.full(log_volume.shape, np.nan)
    for i, series in enumerate(log_volume):
        detrended[i] = series - fit_detrend_model(series, window)
    warnings = IndicatorWarnings(
        degenerate_bars=int(np.count_nonzero(present & np.isnan(log_vol))),
        zero_volume_days=int(np.count_nonzero(present & ~(volume > 0))),
        warmup_days=int(np.count_nonzero(present & np.isnan(detrended))),
    )
    values = np.stack([log_vol, detrended, _differences(log_close)])
    return SymbolDayArray(INDICATOR_FIELDS, bars.symbols, values), warnings


def load_market_bars(path: str | Path, calendar: TradingCalendar) -> SymbolDayArray:
    """Price CSV (symbol,date,open,high,low,close,volume) as PRICE_FIELDS on symbol × day axes.

    Symbols are upper-cased.  A row with the wrong number of fields, an empty
    symbol, a date off the calendar, a second row for a (symbol, date), a
    non-finite or nonpositive price, a negative volume, or prices out of the
    order low <= open, close <= high raise PriceParseError with the line.
    """
    def convert(columns):
        symbols, symbol = column_codes(columns["symbol"].map(str.upper))
        blank = [code for code, name in enumerate(symbols) if not name.strip()]
        reject(np.isin(symbol, blank), lambda row: "empty symbol")
        day = calendar.days_of(columns["date"], lambda cell, date: f"date {date} not in trading calendar")

        def where(row):
            return f"{symbols[symbol[row]]} {calendar.days[day[row]]}"

        reject_repeats(symbol * len(calendar) + day,
                       lambda row: f"second bar for {symbols[symbol[row]]} on {calendar.days[day[row]]}")
        values = np.stack([numbers(columns[name]) for name in PRICE_FIELDS])
        open_, high, low, close, volume = values
        reject(values[:4].min(axis=0) <= 0, lambda row: f"{where(row)}: prices must be positive")
        reject(volume < 0, lambda row: f"{where(row)}: negative volume")
        reject(~((low <= np.minimum(open_, close)) & (np.maximum(open_, close) <= high)), lambda row: (
            f"{where(row)}: OHLC ordering violated (low {low[row].item()}, open {open_[row].item()}, "
            f"close {close[row].item()}, high {high[row].item()})"
        ))
        return SymbolDayArray.from_columns(PRICE_FIELDS, symbols, symbol, day, values, len(calendar))

    try:
        bars = read_csv_columns(path, {"symbol": KEY, "date": KEY, **dict.fromkeys(PRICE_FIELDS, FLOAT)}, convert)
    except MalformedRecord as exc:
        raise PriceParseError(exc.detail, line=exc.position) from exc
    if not bars.symbols:
        raise PriceParseError("price CSV has no data rows")
    return bars


class AttentionGroup(enum.Enum):
    LOW = "low"
    MEDIAN = "median"
    HIGH = "high"
    EXTREMELY_HIGH = "extremely_high"


def attention_ratio(active: np.ndarray, total_days: int) -> np.ndarray:
    """Fraction of trading days with at least one article, along the last (day) axis.

    `active` is an article-arrival indicator, NaN on a day without a record.
    """
    return np.count_nonzero(active == 1, axis=-1) / total_days


def attention_groups(ratios: Mapping[str, float]) -> dict[str, AttentionGroup]:
    """Quartile split of attention ratios.

    Quantiles use linear interpolation; boundaries follow half-open
    intervals [q25,q50), [q50,q75), [q75,inf), (-inf,q25), so equal ratios
    all land in the top group.
    """
    if len(ratios) < 4:
        raise InputError("attention grouping needs at least 4 symbols")
    values = np.fromiter(ratios.values(), float, len(ratios))
    cuts = np.quantile(values, [0.25, 0.50, 0.75])
    # the number of cuts at or below a ratio indexes LOW, MEDIAN, HIGH, EXTREMELY_HIGH
    groups = tuple(AttentionGroup)
    return {symbol: groups[k] for symbol, k in zip(ratios, np.searchsorted(cuts, values, side="right").tolist())}
