import csv
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import simulate_ma1_garch11
from newsflow.errors import NonConvergence
from newsflow.simulate import garch
from newsflow.simulate.garch import MA1Garch11Params, filter_ma1_garch11, fit_ma1_garch11


def loglikelihood(returns, params):
    """Gaussian quasi log-likelihood of a series under fixed parameters: the reference for fitted.loglik."""
    eps, h = filter_ma1_garch11(np.asarray(returns, dtype=float), params)
    return -0.5 * float(np.sum(math.log(2.0 * math.pi) + np.log(h) + eps**2 / h))


TRUE = MA1Garch11Params(mu=0.0, theta=0.1, omega=0.05, alpha=0.1, beta=0.8)


def _stationary_and_invertible(params):
    return (params.omega > 0.0 and params.alpha >= 0.0 and params.beta >= 0.0
            and params.alpha + params.beta <= garch._PERSISTENCE_CAP and abs(params.theta) < 1.0)


def test_search_box_maps_to_stationary_invertible_params():
    # every corner of the (theta, persistence, share) box, and the fits on
    # GARCH, i.i.d. (the alpha = 0 face) and strongly negative-MA series
    _, thetas, persistences, shares = garch._BOUNDS
    for corner in itertools.product(thetas, persistences, shares):
        point = np.array([0.1, *corner])
        assert _stationary_and_invertible(MA1Garch11Params(*garch._garch_params(point, 0.7)))
    rng = np.random.default_rng(11)
    for r in (simulate_ma1_garch11(TRUE, 1_000, rng_seed=12), rng.normal(0.0, 1.0, 1_000),
              simulate_ma1_garch11(MA1Garch11Params(0.0, -0.9, 0.05, 0.1, 0.8), 1_000, rng_seed=13)):
        assert _stationary_and_invertible(fit_ma1_garch11(r))


def test_constant_variance_reduction():
    # theta = alpha = beta = 0 and omega = var(r) = h_0: z_t = (r_t - mu) / sqrt(omega) exactly, all t
    rng = np.random.default_rng(0)
    r = rng.normal(0.3, 1.0, 400)
    omega = float(np.var(r))
    params = MA1Garch11Params(mu=0.3, theta=0.0, omega=omega, alpha=0.0, beta=0.0)
    eps, h = filter_ma1_garch11(r, params)
    assert eps / np.sqrt(h) == pytest.approx((r - 0.3) / np.sqrt(omega), abs=1e-12)


def test_presample_residual_convention():
    # the MA recursion starts from a zero pre-sample residual: eps_0 = r_0 - mu
    r = np.array([1.5, 0.2, -0.3, 0.8])
    params = MA1Garch11Params(mu=0.5, theta=0.4, omega=0.1, alpha=0.05, beta=0.6)
    eps, h = filter_ma1_garch11(r, params)
    assert eps[0] == pytest.approx(1.0)
    assert eps[1] == pytest.approx((0.2 - 0.5) - 0.4 * eps[0])
    # the variance recursion starts at the sample variance, whatever the parameters
    assert h[0] == np.var(r)
    assert h[1] == pytest.approx(0.1 + 0.05 * eps[0] ** 2 + 0.6 * h[0])


def test_standardized_residual_variance_near_one():
    r = simulate_ma1_garch11(TRUE, 20_000, rng_seed=1)
    eps, h = filter_ma1_garch11(r, TRUE)
    assert float(np.var(eps / np.sqrt(h))) == pytest.approx(1.0, abs=0.05)


def test_recovery_single_long_path():
    r = simulate_ma1_garch11(TRUE, 20_000, rng_seed=2)
    fitted = fit_ma1_garch11(r)
    assert fitted.theta == pytest.approx(TRUE.theta, abs=0.05)
    assert fitted.omega == pytest.approx(TRUE.omega, abs=0.05)
    assert fitted.alpha == pytest.approx(TRUE.alpha, abs=0.05)
    assert fitted.beta == pytest.approx(TRUE.beta, abs=0.05)


def test_roundtrip_refit_on_simulated_path():
    r = simulate_ma1_garch11(TRUE, 20_000, rng_seed=3)
    fitted = fit_ma1_garch11(r)
    again = simulate_ma1_garch11(fitted, 20_000, rng_seed=4)
    refit = fit_ma1_garch11(again)
    for name in ("theta", "omega", "alpha", "beta"):
        assert getattr(refit, name) == pytest.approx(getattr(TRUE, name), abs=0.05)


def test_constant_series_degenerate():
    with pytest.raises(NonConvergence):
        fit_ma1_garch11(np.full(500, 0.25))


def test_iid_normal_fit_quality():
    rng = np.random.default_rng(7)
    r = rng.normal(0.01, 0.5, 5000)
    fitted = fit_ma1_garch11(r)
    assert fitted.alpha + fitted.beta < 0.9 or fitted.alpha < 0.05
    truth = MA1Garch11Params(mu=0.01, theta=0.0, omega=0.25, alpha=0.0, beta=0.0)
    assert loglikelihood(r, fitted) >= loglikelihood(r, truth) - 1e-6


def test_fitted_loglik_recorded():
    r = simulate_ma1_garch11(TRUE, 2_000, rng_seed=8)
    fitted = fit_ma1_garch11(r)
    assert fitted.loglik == pytest.approx(loglikelihood(r, fitted), abs=1e-6)


def _filter_loop(r, params):
    """The filter as a plain loop over the two recursions."""
    eps, h = np.empty(len(r)), np.empty(len(r))
    for t in range(len(r)):
        if t == 0:
            eps[t] = r[t] - params.mu
            h[t] = float(np.var(r))
        else:
            eps[t] = r[t] - params.mu - params.theta * eps[t - 1]
            h[t] = params.omega + params.alpha * eps[t - 1] ** 2 + params.beta * h[t - 1]
    return eps, h


@pytest.mark.parametrize("n", [1, 2, 400])
@pytest.mark.parametrize("params", [
    TRUE,
    MA1Garch11Params(mu=0.2, theta=-0.7, omega=0.01, alpha=0.15, beta=0.84),
])
def test_filter_matches_python_loop(n, params):
    r = simulate_ma1_garch11(TRUE, n, rng_seed=9)
    eps, h = filter_ma1_garch11(r, params)
    expected_eps, expected_h = _filter_loop(r, params)
    # eps crosses zero, so its rounding error is relative to the series' scale
    assert eps == pytest.approx(expected_eps, rel=1e-14, abs=1e-14 * np.abs(r - params.mu).max())
    assert h == pytest.approx(expected_h, rel=1e-14, abs=0)


def test_filter_empty_series():
    eps, h = filter_ma1_garch11(np.empty(0), TRUE)
    assert eps.shape == (0,) and h.shape == (0,)


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _nelder_mead_loglik(r):
    """Log-likelihood of a variance-targeted Nelder-Mead search from three fixed starts, the reference for the fit.

    It searches an unconstrained mapping of (mu, theta, persistence, share):
    theta = tanh, alpha + beta and alpha / (alpha + beta) through logistic
    functions, with the persistence capped and omega = var(r) * (1 - alpha - beta)
    as in the fit.  The three starts also reach the optima near the beta = 0
    face (two of the S fixture's series end there).
    """
    variance = float(np.var(r))
    mean = float(np.mean(r))
    cap = garch._PERSISTENCE_CAP

    def negative_loglik(raw):
        persistence = _sigmoid(raw[2]) * cap
        alpha, beta = persistence * _sigmoid(raw[3]), persistence * (1.0 - _sigmoid(raw[3]))
        eps, h = garch._filter(r - raw[0], math.tanh(raw[1]), variance * (1.0 - alpha - beta), alpha, beta,
                               variance)
        return garch._nll(eps, h)

    def start(theta, alpha, beta):
        logit = lambda p: math.log(p / (1.0 - p))
        return [mean, math.atanh(theta), logit((alpha + beta) / cap), logit(alpha / (alpha + beta))]

    best = min(
        minimize(negative_loglik, start(*point), method="Nelder-Mead",
                 options={"fatol": 1e-10, "xatol": 1e-8, "maxiter": 8000, "maxfev": 10000}).fun
        for point in ((0.0, 0.05, 0.90), (0.1, 0.10, 0.80), (-0.1, 0.20, 0.50))
    )
    return -best


@pytest.mark.parametrize("params", [
    # (mu, theta, alpha, beta); omega targets the sample variance
    (0.05, 0.3, 0.13, 0.76),
    # theta < 0 and alpha + beta close to 1
    (-0.1, -0.66, 0.11, 0.88),
    (0.0, 0.1, 0.3, 0.32),
])
def test_score_matches_central_differences(params):
    mu, theta, alpha, beta = params
    r = simulate_ma1_garch11(TRUE, 300, rng_seed=1)
    variance = float(np.var(r))
    point = np.array([mu, theta, alpha + beta, alpha / (alpha + beta)])
    value, score = garch._negative_loglik_and_score(point, r, variance)
    targeted = MA1Garch11Params(*garch._garch_params(point, variance))
    assert -value == pytest.approx(loglikelihood(r, targeted), rel=1e-14)
    numeric = np.empty(4)
    for i in range(4):
        step = np.zeros(4)
        step[i] = 1e-6 * max(1.0, abs(point[i]))
        upper, _ = garch._negative_loglik_and_score(point + step, r, variance)
        lower, _ = garch._negative_loglik_and_score(point - step, r, variance)
        numeric[i] = (upper - lower) / (2.0 * step[i])
    assert score == pytest.approx(numeric, rel=1e-5)


def test_first_order_recursion_solves_columns_together():
    drive = np.random.default_rng(10).normal(size=(50, 3))
    together = garch._first_order_recursion(np.asfortranarray(drive), 0.7)
    for k in range(3):
        assert np.array_equal(together[:, k], garch._first_order_recursion(drive[:, k].copy(), 0.7))


def _fixture_returns(root, n_symbols=5):
    """Market returns and the log-close returns of the first n_symbols symbols."""
    with (root / "market.csv").open(encoding="utf-8") as handle:
        series = {"market": np.array([float(row["market_return"]) for row in csv.DictReader(handle)])}
    closes = {}
    with (root / "prices.csv").open(encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            closes.setdefault(row["symbol"], []).append(math.log(float(row["close"])))
    for symbol in sorted(closes)[:n_symbols]:
        series[symbol] = np.diff(closes[symbol])
    return series


def test_fit_loglik_at_least_nelder_mead(pipeline_fixture_dir):
    # the fixture's returns are i.i.d., so several optima sit on the edge
    series = list(_fixture_returns(pipeline_fixture_dir, n_symbols=None).values())
    series += [simulate_ma1_garch11(TRUE, 300, rng_seed=seed) for seed in range(20, 25)]
    for r in series:
        assert fit_ma1_garch11(r).loglik >= _nelder_mead_loglik(r) - 1e-6


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(garch, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(garch, name, counted)
    return calls


def test_iid_boundary_optimum_at_least_nelder_mead():
    r = np.random.default_rng(0).normal(0.0, 1.0, 300)
    assert fit_ma1_garch11(r).loglik >= _nelder_mead_loglik(r) - 1e-6


def test_fit_targets_the_sample_variance(pipeline_fixture_dir):
    # the series simulate fits: the market and every symbol's log-close returns
    for r in _fixture_returns(pipeline_fixture_dir, n_symbols=None).values():
        fitted = fit_ma1_garch11(r)
        assert fitted.omega / (1.0 - fitted.alpha - fitted.beta) == pytest.approx(float(np.var(r)), rel=1e-12)


def test_garch_path_fit_evaluation_count(monkeypatch):
    # the fit takes 100 evaluations here, Nelder-Mead from its three starts about 1,200
    r = simulate_ma1_garch11(TRUE, 300, rng_seed=10)
    scores = _count_calls(monkeypatch, "_negative_loglik_and_score")
    fit_ma1_garch11(r)
    assert len(scores) <= 200
