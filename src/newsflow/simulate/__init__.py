"""Monte Carlo simulation of sentiment-driven volatility with uniform bands."""

from .copula import GaussianCopula, fit_gaussian_copula, normal_scores, sample_copula
from .edf import EmpiricalDistribution, fit_edf
from .garch import (
    MA1Garch11Params,
    filter_ma1_garch11,
    fit_ma1_garch11,
    simulate_ma1_garch11,
    standardize_residuals,
)
from .scenario import (
    MARKET_LABEL,
    ResidualModel,
    ScenarioConfig,
    SimulatedPanel,
    SymbolSentimentModel,
    build_residual_model,
    build_sentiment_models,
    simulate_scenario,
)
from .smoother import (
    SmootherFit,
    band_overlap_region,
    local_linear_fit,
    plugin_bandwidth,
    uniform_band,
)

__all__ = [
    "EmpiricalDistribution",
    "fit_edf",
    "GaussianCopula",
    "fit_gaussian_copula",
    "normal_scores",
    "sample_copula",
    "MA1Garch11Params",
    "fit_ma1_garch11",
    "filter_ma1_garch11",
    "standardize_residuals",
    "simulate_ma1_garch11",
    "SmootherFit",
    "plugin_bandwidth",
    "local_linear_fit",
    "uniform_band",
    "band_overlap_region",
    "ScenarioConfig",
    "SimulatedPanel",
    "SymbolSentimentModel",
    "ResidualModel",
    "MARKET_LABEL",
    "simulate_scenario",
    "build_sentiment_models",
    "build_residual_model",
]
