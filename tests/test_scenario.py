import numpy as np
import pytest

from conftest import SentimentRecord, sentiment_array, simulate_ma1_garch11
from newsflow.errors import InputError, NonConvergence
from newsflow.simulate.copula import GaussianCopula
from newsflow.simulate.edf import fit_edf
from newsflow.simulate.garch import MA1Garch11Params
from newsflow.simulate.scenario import (
    MARKET_LABEL,
    ResidualModel,
    ScenarioConfig,
    SimulatedPanel,
    SymbolSentimentModel,
    build_residual_model,
    build_sentiment_models,
    simulate_scenario,
)

BASE_COEFFS = {"I": 0.0, "Pos": 0.0, "Neg": 0.0, "R_M": 0.0, "VIX": 0.0, "ret_t": 0.0}


def constant_marginal(value):
    return fit_edf([value, value])


def sentiment_model(symbol, p, pos_values=(0.02, 0.04), neg_values=(0.01, 0.02), corr=0.0):
    return SymbolSentimentModel(
        symbol=symbol,
        arrival_prob=p,
        copula=GaussianCopula(np.array([[1.0, corr], [corr, 1.0]])),
        pos_marginal=fit_edf(list(pos_values)),
        neg_marginal=fit_edf(list(neg_values)),
    )


def residual_model(symbols, seed=0):
    rng = np.random.default_rng(seed)
    labels = (MARKET_LABEL,) + tuple(symbols)
    d = len(labels)
    return ResidualModel(
        labels=labels,
        copula=GaussianCopula(np.eye(d)),
        median_sigmas={label: 0.01 for label in labels},
        marginals={label: fit_edf(rng.normal(0, 1, 400)) for label in labels},
    )


def scenario(symbols=("A", "B"), p=0.5, coeffs=None, alpha=1.5, n_days=200, seed=42,
             models=None, residual_pool=(0.0,)):
    return ScenarioConfig(
        alpha=alpha,
        coefficients={**BASE_COEFFS, **(coeffs or {})},
        vix_value=0.2,
        residual_pool=np.array(residual_pool),
        n_days=n_days,
        rng_seed=seed,
        sentiment_models=tuple(models or (sentiment_model(s, p) for s in symbols)),
        residual_model=residual_model(symbols),
    )


def test_zero_arrival_probability():
    panel = simulate_scenario(scenario(p=0.0))
    assert panel.active.sum() == 0
    assert np.all(panel.pos == 0.0)
    assert np.all(panel.neg == 0.0)


def test_point_mass_marginals():
    models = [
        SymbolSentimentModel(
            symbol="A", arrival_prob=1.0,
            copula=GaussianCopula(np.eye(2)),
            pos_marginal=constant_marginal(0.03),
            neg_marginal=constant_marginal(0.01),
        )
    ]
    panel = simulate_scenario(scenario(symbols=("A",), models=models))
    assert np.all(panel.active == 1)
    assert np.all(panel.pos == 0.03)
    assert np.all(panel.neg == 0.01)


def test_closed_loop_slope_recovery():
    # beta_Neg = 1, everything else zero: regressing simulated volatility on
    # the drawn negative proportion recovers the unit slope
    rng = np.random.default_rng(1)
    neg_sample = rng.uniform(0.0, 0.05, 500)
    models = [
        SymbolSentimentModel(
            symbol="A", arrival_prob=1.0,
            copula=GaussianCopula(np.eye(2)),
            pos_marginal=fit_edf(rng.uniform(0, 0.05, 500)),
            neg_marginal=fit_edf(neg_sample),
        )
    ]
    config = scenario(
        symbols=("A",), models=models, coeffs={"Neg": 1.0}, alpha=0.0,
        n_days=4000, residual_pool=rng.normal(0, 0.002, 500),
    )
    panel = simulate_scenario(config)
    x, y = panel.scatter("neg")
    slope = np.polyfit(x, y, 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_reproducibility_bit_identical():
    a = simulate_scenario(scenario(seed=7))
    b = simulate_scenario(scenario(seed=7))
    assert np.array_equal(a.log_vol, b.log_vol)
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.market_return, b.market_return)
    c = simulate_scenario(scenario(seed=8))
    assert not np.array_equal(a.active, c.active)
    assert not np.array_equal(a.market_return, c.market_return)


def test_symbol_order_independent_draws():
    # seed-splitting: each symbol's stream is independent of the model order
    first = scenario(symbols=("A", "B"), seed=3)
    swapped = ScenarioConfig(
        alpha=first.alpha,
        coefficients=first.coefficients,
        vix_value=first.vix_value,
        residual_pool=first.residual_pool,
        n_days=first.n_days,
        rng_seed=first.rng_seed,
        sentiment_models=tuple(reversed(first.sentiment_models)),
        residual_model=first.residual_model,
    )
    a = simulate_scenario(first)
    b = simulate_scenario(swapped)
    idx_a = a.symbols.index("A")
    idx_b = b.symbols.index("A")
    assert np.array_equal(a.pos[idx_a], b.pos[idx_b])
    assert np.array_equal(a.active[idx_a], b.active[idx_b])


def test_vix_and_market_terms_enter_linearly():
    config = scenario(coeffs={"VIX": 2.0, "R_M": 1.0}, alpha=0.0, p=0.0, n_days=50)
    panel = simulate_scenario(config)
    expected = 2.0 * 0.2 + 1.0 * panel.market_return
    assert panel.log_vol[0] == pytest.approx(expected, abs=1e-12)
    assert panel.log_vol[1] == pytest.approx(expected, abs=1e-12)


# builders ------------------------------------------------------------------------

def _records(symbol, rng, n_days, p, pos_scale=0.02):
    records = []
    for day in range(n_days):
        active = int(rng.random() < p)
        records.append(SentimentRecord(
            symbol, day, "BL", active,
            float(rng.uniform(0, pos_scale)) if active else 0.0,
            float(rng.uniform(0, 0.02)) if active else 0.0,
            n_articles=active,
        ))
    return records


def test_build_sentiment_models_skips_sparse_symbols():
    rng = np.random.default_rng(4)
    records = _records("A", rng, 200, 0.5) + _records("B", rng, 200, 0.05)
    models, diagnostics = build_sentiment_models(sentiment_array(records, n_days=200), min_active=30)
    assert [m.symbol for m in models] == ["A"]
    assert diagnostics.skipped_symbols == ["B"]
    assert models[0].arrival_prob == pytest.approx(0.5, abs=0.12)


def test_build_sentiment_models_constant_column_identity_fallback():
    records = [
        SentimentRecord("A", day, "BL", 1, 0.03, float(0.01 + 0.001 * (day % 5)), 1)
        for day in range(60)
    ]
    models, diagnostics = build_sentiment_models(sentiment_array(records, n_days=60), min_active=30)
    assert diagnostics.identity_copulas == ["A"]
    assert np.array_equal(models[0].copula.correlation, np.eye(2))


def test_build_residual_model_end_to_end():
    rng = np.random.default_rng(5)
    true = MA1Garch11Params(mu=0.0, theta=0.05, omega=2e-5, alpha=0.08, beta=0.85)
    n_days = 600
    market = simulate_ma1_garch11(true, n_days, rng_seed=6)
    returns = {
        "A": simulate_ma1_garch11(true, n_days, rng_seed=7),
        "B": simulate_ma1_garch11(true, n_days, rng_seed=8),
        "SHORT": np.full(n_days, np.nan),
    }
    returns["SHORT"][:100] = 0.01 * rng.standard_normal(100)
    model, skipped = build_residual_model(market, returns)
    assert skipped == ["SHORT"]
    assert model.labels == (MARKET_LABEL, "A", "B")
    assert model.copula.dimension == 3
    for label in model.labels:
        assert model.median_sigmas[label] > 0
        # standardized residual marginals should look standardized
        z = model.marginals[label].sorted_values
        assert float(np.std(z)) == pytest.approx(1.0, abs=0.15)


def test_build_residual_model_names_the_series_it_refuses():
    true = MA1Garch11Params(mu=0.0, theta=0.05, omega=2e-5, alpha=0.08, beta=0.85)
    market = simulate_ma1_garch11(true, 300, rng_seed=6)
    short = np.where(np.arange(300) < 51, np.nan, market)
    with pytest.raises(InputError, match="^market return series has 249 days, fewer than the 250 a GARCH fit needs$"):
        build_residual_model(short, {})
    with pytest.raises(NonConvergence, match="^market return series: zero-variance series is degenerate$"):
        build_residual_model(np.zeros(300), {})
    with pytest.raises(NonConvergence, match="^return series of FLAT: zero-variance series is degenerate$"):
        build_residual_model(market, {"FLAT": np.full(300, 0.01)})
