"""Daily stock-reaction indicators from OHLCV bars.

Three indicators per symbol-day: range-based log volatility from the
open/high/low/close log ratios, detrended log trading volume (residual
against a rolling out-of-sample quadratic time trend), and close-to-close
log returns.  Degenerate bars and warm-up windows yield missing values,
never silently clamped numbers.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._util import finite_float
from .corpus import TradingCalendar
from .errors import (
    DegenerateBar,
    InputError,
    InsufficientHistory,
    MissingPrevious,
    PriceParseError,
    SingularFit,
)

DETREND_WINDOW = 120


@dataclass(frozen=True)
class MarketBar:
    symbol: str
    day: int
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self):
        if min(self.open, self.high, self.low, self.close) <= 0:
            raise InputError(f"{self.symbol} day {self.day}: prices must be positive")
        if self.volume < 0:
            raise InputError(f"{self.symbol} day {self.day}: negative volume")
        body_low = min(self.open, self.close)
        body_high = max(self.open, self.close)
        if not (self.low <= body_low <= body_high <= self.high):
            raise InputError(
                f"{self.symbol} day {self.day}: OHLC ordering violated "
                f"(low {self.low}, open {self.open}, close {self.close}, high {self.high})"
            )


@dataclass(frozen=True)
class IndicatorPoint:
    symbol: str
    day: int
    log_vol: float | None
    detrended_volume: float | None
    ret: float | None


def garman_klass_log_vol(bar: MarketBar) -> float:
    """Log of the range-based daily volatility; DegenerateBar when var <= 0."""
    u = math.log(bar.high) - math.log(bar.open)
    d = math.log(bar.low) - math.log(bar.open)
    c = math.log(bar.close) - math.log(bar.open)
    var = 0.511 * (u - d) ** 2 - 0.019 * (c * (u + d) - 2.0 * u * d) - 0.383 * c**2
    if var <= 0.0:
        raise DegenerateBar(f"{bar.symbol} day {bar.day}: nonpositive variance {var!r}")
    return 0.5 * math.log(var)


def log_return(close_t: float | None, close_prev: float | None) -> float:
    if close_prev is None or close_t is None:
        raise MissingPrevious("previous close unavailable")
    return math.log(close_t) - math.log(close_prev)


@dataclass(frozen=True)
class DetrendModel:
    """Quadratic trend fitted on the window of past observations ending at t-1."""

    t0: int
    alpha: float
    beta1: float
    beta2: float
    window: int

    def forecast(self, t: int) -> float:
        x = float(t - self.t0)
        return self.alpha + self.beta1 * x + self.beta2 * x * x


def fit_detrend_model(
    raw_log_volume: Sequence[float],
    t: int,
    window: int = DETREND_WINDOW,
) -> DetrendModel:
    """OLS quadratic trend on the last `window` finite observations before t.

    Missing values (NaN) are skipped, so the window slides over the available
    history; it never reads data at or after day t.
    """
    values = np.asarray(raw_log_volume, dtype=float)
    history = np.flatnonzero(~np.isnan(values[:max(t, 0)]))
    if len(history) < window:
        raise InsufficientHistory(needed=window, available=len(history))
    support = history[-window:]
    t0 = int(support[0])
    x = support.astype(float) - t0
    design = np.column_stack([np.ones_like(x), x, x * x])
    y = values[support]
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise SingularFit(f"rank-deficient trend design at t={t}")
    return DetrendModel(t0=t0, alpha=coef[0], beta1=coef[1], beta2=coef[2], window=window)


def detrended_volume(
    raw_log_volume: Sequence[float],
    t: int,
    window: int = DETREND_WINDOW,
) -> float:
    """Out-of-sample residual of log volume against the rolling quadratic trend."""
    if t >= len(raw_log_volume) or math.isnan(raw_log_volume[t]):
        raise InputError(f"no log-volume observation at t={t}")
    model = fit_detrend_model(raw_log_volume, t, window)
    return raw_log_volume[t] - model.forecast(t)


@dataclass
class IndicatorWarnings:
    degenerate_bars: int = 0
    zero_volume_days: int = 0
    warmup_days: int = 0


def compute_indicators(
    bars: Sequence[MarketBar],
    n_days: int,
    window: int = DETREND_WINDOW,
) -> tuple[list[IndicatorPoint], IndicatorWarnings]:
    """All three indicators for one symbol's bars (any day order, one per day)."""
    by_day = {bar.day: bar for bar in bars}
    if len(by_day) != len(bars):
        raise InputError("duplicate bar for a trading day")
    warnings = IndicatorWarnings()

    log_volume = np.full(n_days, np.nan)
    for day, bar in by_day.items():
        if bar.volume > 0:
            log_volume[day] = math.log(bar.volume)
        else:
            warnings.zero_volume_days += 1

    points = []
    for day in sorted(by_day):
        bar = by_day[day]
        try:
            log_vol = garman_klass_log_vol(bar)
        except DegenerateBar:
            warnings.degenerate_bars += 1
            log_vol = None
        prev = by_day.get(day - 1)
        ret = log_return(bar.close, prev.close) if prev is not None else None
        try:
            detrended = detrended_volume(log_volume, day, window)
        except (InsufficientHistory, InputError):
            warnings.warmup_days += 1
            detrended = None
        points.append(IndicatorPoint(bar.symbol, day, log_vol, detrended, ret))
    return points, warnings


def load_market_bars(path: str | Path, calendar: TradingCalendar) -> dict[str, list[MarketBar]]:
    """Price CSV (symbol,date,open,high,low,close,volume) grouped by symbol."""
    path = Path(path)
    if not path.exists():
        raise PriceParseError(f"price file does not exist: {path}")
    grouped: dict[str, list[MarketBar]] = {}
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"symbol", "date", "open", "high", "low", "close", "volume"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise PriceParseError(f"price CSV must have columns {sorted(required)}")
        for lineno, row in enumerate(reader, 2):
            try:
                date = dt.date.fromisoformat(row["date"])
                if date not in calendar.index:
                    raise InputError(f"date {date} not in trading calendar")
                bar = MarketBar(
                    symbol=row["symbol"].upper(),
                    day=calendar.index[date],
                    open=finite_float(row["open"]),
                    high=finite_float(row["high"]),
                    low=finite_float(row["low"]),
                    close=finite_float(row["close"]),
                    volume=finite_float(row["volume"]),
                )
            except (ValueError, InputError) as exc:
                raise PriceParseError(str(exc), line=lineno) from exc
            grouped.setdefault(bar.symbol, []).append(bar)
    if not grouped:
        raise PriceParseError("price CSV has no data rows")
    return grouped


class AttentionGroup(enum.Enum):
    LOW = "low"
    MEDIAN = "median"
    HIGH = "high"
    EXTREMELY_HIGH = "extremely_high"


def attention_ratio(active: np.ndarray, total_days: int) -> np.ndarray:
    """Fraction of trading days with at least one article, along the last (day) axis.

    `active` is an article-arrival indicator, NaN on a day without a record.
    """
    if total_days < 1:
        raise InputError("total_days must be >= 1")
    return np.count_nonzero(active == 1, axis=-1) / total_days


def attention_groups(ratios: Mapping[str, float]) -> dict[str, AttentionGroup]:
    """Quartile split of attention ratios.

    Quantiles use linear interpolation; boundaries follow half-open
    intervals [q25,q50), [q50,q75), [q75,inf), (-inf,q25), so equal ratios
    all land in the top group.
    """
    if len(ratios) < 4:
        raise InputError("attention grouping needs at least 4 symbols")
    values = np.array(sorted(ratios.values()))
    q25, q50, q75 = np.quantile(values, [0.25, 0.50, 0.75])
    out = {}
    for symbol, ratio in ratios.items():
        if ratio >= q75:
            group = AttentionGroup.EXTREMELY_HIGH
        elif ratio >= q50:
            group = AttentionGroup.HIGH
        elif ratio >= q25:
            group = AttentionGroup.MEDIAN
        else:
            group = AttentionGroup.LOW
        out[symbol] = group
    return out
