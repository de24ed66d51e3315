"""Monte Carlo simulation of sentiment-driven volatility with uniform bands."""

from .scenario import ScenarioConfig, build_residual_model, build_sentiment_models, simulate_scenario
from .smoother import band_overlap_region, local_linear_fit, plugin_bandwidth, uniform_band

__all__ = [
    "ScenarioConfig",
    "build_residual_model",
    "build_sentiment_models",
    "simulate_scenario",
    "band_overlap_region",
    "local_linear_fit",
    "plugin_bandwidth",
    "uniform_band",
]
