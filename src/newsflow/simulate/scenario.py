"""Monte Carlo scenario: article arrival, copula-drawn sentiment, and
regression-implied volatility outcomes.

Per symbol-day the arrival indicator is Bernoulli(p_i); conditional on
arrival the positive/negative proportions come from the symbol's fitted
copula over its active-day marginals.  Market and firm returns are drawn
jointly from the copula of GARCH-standardized residuals, rescaled by the
median estimated conditional standard deviation.  The simulated log
volatility applies the panel coefficients with the risk-aversion control
fixed at its mean, entity effects omitted, lagged volatility/volume terms
excluded, and an idiosyncratic term resampled from the regression residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .._util import split_seed
from ..errors import ConstantColumn, InputError, MissingComponent, NonConvergence
from .copula import GaussianCopula, fit_gaussian_copula, sample_copula
from .edf import EmpiricalDistribution, fit_edf
from .garch import filter_ma1_garch11, fit_ma1_garch11

if TYPE_CHECKING:
    from .._util import SymbolDayArray

MARKET_LABEL = "__market__"

SIMULATION_COEFFICIENTS = ("I", "Pos", "Neg", "R_M", "VIX", "ret_t")


@dataclass(frozen=True)
class SymbolSentimentModel:
    symbol: str
    arrival_prob: float
    copula: GaussianCopula
    pos_marginal: EmpiricalDistribution
    neg_marginal: EmpiricalDistribution


@dataclass(frozen=True)
class ResidualModel:
    """Joint model of market and firm return residuals."""

    labels: tuple[str, ...]  # MARKET_LABEL first, then symbols
    copula: GaussianCopula
    median_sigmas: Mapping[str, float]
    marginals: Mapping[str, EmpiricalDistribution]


@dataclass(frozen=True)
class ScenarioConfig:
    alpha: float
    coefficients: Mapping[str, float]
    vix_value: float
    residual_pool: np.ndarray
    n_days: int
    rng_seed: int
    sentiment_models: tuple[SymbolSentimentModel, ...]
    residual_model: ResidualModel


@dataclass(frozen=True)
class SimulatedPanel:
    symbols: tuple[str, ...]
    active: np.ndarray      # (n_symbols, n_days) 0/1
    pos: np.ndarray
    neg: np.ndarray
    market_return: np.ndarray  # (n_days,)
    firm_return: np.ndarray    # (n_symbols, n_days)
    log_vol: np.ndarray        # (n_symbols, n_days)

    def scatter(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """(sentiment value, simulated log volatility) over active symbol-days."""
        mask = self.active.astype(bool)
        values = {"pos": self.pos, "neg": self.neg}[which]
        return values[mask], self.log_vol[mask]


def simulate_scenario(config: ScenarioConfig) -> SimulatedPanel:
    """Fully seeded draw of the scenario; identical config + seed = identical output."""
    model = config.residual_model
    n_days = config.n_days
    symbols = tuple(m.symbol for m in config.sentiment_models)
    coef = config.coefficients

    z = sample_copula(
        model.copula,
        [model.marginals[label] for label in model.labels],
        n_days,
        split_seed(config.rng_seed, "residuals"),
    )
    scaled = z * np.array([model.median_sigmas[label] for label in model.labels])[None, :]
    market = scaled[:, 0]
    firm_by_label = {label: scaled[:, j] for j, label in enumerate(model.labels)}

    active = np.zeros((len(symbols), n_days), dtype=int)
    pos = np.zeros((len(symbols), n_days))
    neg = np.zeros((len(symbols), n_days))
    firm = np.zeros((len(symbols), n_days))
    log_vol = np.zeros((len(symbols), n_days))

    for i, sentiment in enumerate(config.sentiment_models):
        symbol = sentiment.symbol
        arrival_rng = np.random.default_rng(split_seed(config.rng_seed, f"arrival:{symbol}"))
        arrivals = arrival_rng.random(n_days) < sentiment.arrival_prob
        active[i] = arrivals.astype(int)
        n_active = int(arrivals.sum())
        if n_active:
            draws = sample_copula(
                sentiment.copula,
                [sentiment.pos_marginal, sentiment.neg_marginal],
                n_active,
                split_seed(config.rng_seed, f"sentiment:{symbol}"),
            )
            pos[i, arrivals] = draws[:, 0]
            neg[i, arrivals] = draws[:, 1]
        firm[i] = firm_by_label[symbol]
        idio_rng = np.random.default_rng(split_seed(config.rng_seed, f"idiosyncratic:{symbol}"))
        idio = idio_rng.choice(config.residual_pool, size=n_days, replace=True)
        log_vol[i] = (
            config.alpha
            + coef["I"] * active[i]
            + coef["Pos"] * pos[i]
            + coef["Neg"] * neg[i]
            + coef["R_M"] * market
            + coef["VIX"] * config.vix_value
            + coef["ret_t"] * firm[i]
            + idio
        )

    return SimulatedPanel(
        symbols=symbols,
        active=active,
        pos=pos,
        neg=neg,
        market_return=market,
        firm_return=firm,
        log_vol=log_vol,
    )


# model builders -----------------------------------------------------------

@dataclass
class SentimentModelDiagnostics:
    skipped_symbols: list[str] = field(default_factory=list)
    identity_copulas: list[str] = field(default_factory=list)


def build_sentiment_models(
    sentiment: SymbolDayArray,
    min_active: int = 30,
) -> tuple[list[SymbolSentimentModel], SentimentModelDiagnostics]:
    """Per-symbol arrival frequency, active-day marginals, and (Pos, Neg) copula.

    `sentiment` is one projection's array over the trading calendar.  Symbols
    with fewer than ``min_active`` active days are skipped; a constant
    sentiment column falls back to an independence copula.
    """
    diagnostics = SentimentModelDiagnostics()
    active = sentiment.plane("active") == 1
    pos, neg = sentiment.plane("pos"), sentiment.plane("neg")
    n_days = active.shape[1]

    models = []
    for i, symbol in enumerate(sentiment.symbols):
        days = active[i]
        n_active = int(days.sum())
        if n_active < min_active:
            diagnostics.skipped_symbols.append(symbol)
            continue
        data = np.column_stack([pos[i, days], neg[i, days]])
        try:
            copula = fit_gaussian_copula(data)
        except ConstantColumn:
            copula = GaussianCopula(correlation=np.eye(2))
            diagnostics.identity_copulas.append(symbol)
        models.append(SymbolSentimentModel(
            symbol=symbol,
            arrival_prob=n_active / n_days,
            copula=copula,
            pos_marginal=fit_edf(data[:, 0]),
            neg_marginal=fit_edf(data[:, 1]),
        ))
    return models, diagnostics


def build_residual_model(
    market_returns: np.ndarray,
    returns_by_symbol: Mapping[str, np.ndarray],
    min_length: int = 250,
) -> tuple[ResidualModel, list[str]]:
    """GARCH-filter every return series and couple the standardized residuals.

    Series are day-indexed with NaN for missing; the copula is fitted on days
    where the market and every usable symbol have observations.  Returns the
    model and the list of skipped symbols (too short to filter).  A market
    series shorter than `min_length` days is an error, and so is a failed fit,
    named by its series.
    """
    market_returns = np.asarray(market_returns, dtype=float)
    n_market = int(np.isfinite(market_returns).sum())
    if n_market < min_length:
        raise InputError(f"market return series has {n_market} days, fewer than the {min_length} a GARCH fit needs")
    series: dict[str, np.ndarray] = {MARKET_LABEL: market_returns}
    skipped = []
    for symbol in sorted(returns_by_symbol):
        values = np.asarray(returns_by_symbol[symbol], dtype=float)
        if np.isfinite(values).sum() < min_length:
            skipped.append(symbol)
            continue
        series[symbol] = values

    sigmas: dict[str, float] = {}
    marginals: dict[str, EmpiricalDistribution] = {}
    z_by_label: dict[str, np.ndarray] = {}
    for label, values in series.items():
        finite = np.isfinite(values)
        observed = values[finite]
        try:
            fitted = fit_ma1_garch11(observed)
        except NonConvergence as exc:
            name = "market return series" if label == MARKET_LABEL else f"return series of {label}"
            raise NonConvergence(f"{name}: {exc}") from None
        eps, h = filter_ma1_garch11(observed, fitted)
        sigma = np.sqrt(h)
        sigmas[label] = float(np.median(sigma))
        z = eps / sigma
        marginals[label] = fit_edf(z)
        full = np.full(len(values), np.nan)
        full[finite] = z
        z_by_label[label] = full

    labels = (MARKET_LABEL,) + tuple(l for l in sorted(series) if l != MARKET_LABEL)
    stacked = np.column_stack([z_by_label[label] for label in labels])
    common = np.all(np.isfinite(stacked), axis=1)
    if common.sum() < len(labels) + 1:
        raise MissingComponent("overlapping residual observations")
    copula = fit_gaussian_copula(stacked[common])
    return (
        ResidualModel(
            labels=labels,
            copula=copula,
            median_sigmas=sigmas,
            marginals=marginals,
        ),
        skipped,
    )
