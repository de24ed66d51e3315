import numpy as np
import pytest
from scipy import stats

from newsflow.errors import ConstantColumn
from newsflow.simulate.copula import (
    _EIG_TOL,
    GaussianCopula,
    _nearest_correlation,
    fit_gaussian_copula,
    normal_scores,
    sample_copula,
)
from newsflow.simulate.edf import fit_edf


# edf ---------------------------------------------------------------------------

def test_edf_counting_formula():
    dist = fit_edf([1.0, 2.0, 3.0])
    assert dist.cdf(2.0) == pytest.approx(0.5)
    assert dist.cdf(1.0) == pytest.approx(0.25)
    assert dist.cdf(3.0) == pytest.approx(0.75)
    assert dist.cdf(2.5) == pytest.approx(0.5)


def test_edf_below_minimum_clipped():
    dist = fit_edf([1.0, 2.0, 3.0])
    assert dist.cdf(0.0) == pytest.approx(1.0 / 4.0)


def test_edf_above_maximum_clipped():
    dist = fit_edf([1.0, 2.0, 3.0])
    assert dist.cdf(10.0) == pytest.approx(3.0 / 4.0)


def test_edf_quantile_inverse_property():
    rng = np.random.default_rng(0)
    sample = rng.normal(0, 1, 57)
    dist = fit_edf(sample)
    for x in sample:
        assert dist.quantile(dist.cdf(x)) == pytest.approx(x)


# copula fitting ------------------------------------------------------------------

def test_copula_one_dimension():
    cop = fit_gaussian_copula(np.random.default_rng(1).normal(0, 1, (50, 1)))
    assert cop.correlation.shape == (1, 1)
    assert cop.correlation[0, 0] == 1.0


def test_copula_independent_columns():
    rng = np.random.default_rng(2)
    data = rng.normal(0, 1, (10_000, 3))
    cop = fit_gaussian_copula(data)
    off = cop.correlation[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)


def test_copula_comonotone_columns():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 5000)
    cop = fit_gaussian_copula(np.column_stack([x, np.exp(x)]))
    assert cop.correlation[0, 1] == pytest.approx(1.0, abs=0.01)


def test_copula_rank_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 4000)
    y = 0.6 * x + 0.8 * rng.normal(0, 1, 4000)
    raw = fit_gaussian_copula(np.column_stack([x, y]))
    transformed = fit_gaussian_copula(np.column_stack([np.exp(x), y**3]))
    assert transformed.correlation[0, 1] == pytest.approx(raw.correlation[0, 1], abs=1e-10)


def test_copula_constant_column():
    with pytest.raises(ConstantColumn):
        fit_gaussian_copula(np.column_stack([np.ones(100), np.arange(100.0)]))


def _is_correlation(matrix):
    return (np.array_equal(matrix, matrix.T) and np.all(np.diag(matrix) == 1.0)
            and np.linalg.eigvalsh(matrix).min() >= -_EIG_TOL)


def test_fitted_and_repaired_correlations_are_correlation_matrices():
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, 300)
    for data in (rng.normal(0, 1, (300, 4)), np.column_stack([x, x + 1e-9 * rng.normal(0, 1, 300), -x])):
        assert _is_correlation(fit_gaussian_copula(data).correlation)
    not_psd = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert np.linalg.eigvalsh(not_psd).min() < -_EIG_TOL
    assert _is_correlation(_nearest_correlation(not_psd))


# sampling -----------------------------------------------------------------------

def test_scores_and_uniforms_equal_scipy_stats_norm():
    rng = np.random.default_rng(21)
    data = rng.normal(0.0, 1.0, (300, 2))
    expected = np.column_stack([
        stats.norm.ppf(np.searchsorted(np.sort(col), col, side="right") / 301) for col in data.T
    ])
    assert np.array_equal(normal_scores(data), expected)
    # with the identity correlation the copula draws are the standard normals themselves
    marginals = [fit_edf(data[:, 0]), fit_edf(data[:, 1])]
    out = sample_copula(GaussianCopula(correlation=np.eye(2)), marginals, 200, rng_seed=22)
    u = np.clip(stats.norm.cdf(np.random.default_rng(22).standard_normal((200, 2))), 1e-12, 1.0 - 1e-12)
    assert np.array_equal(out, np.column_stack([m.quantile(u[:, j]) for j, m in enumerate(marginals)]))


def _normal_scores_corr(data):
    return np.corrcoef(normal_scores(data), rowvar=False)


def test_sample_identity_correlation():
    rng = np.random.default_rng(6)
    marginals = [fit_edf(rng.normal(0, 1, 500)), fit_edf(rng.uniform(0, 1, 500))]
    cop = GaussianCopula(correlation=np.eye(2))
    out = sample_copula(cop, marginals, 10_000, rng_seed=7)
    corr = _normal_scores_corr(out)
    assert abs(corr[0, 1]) < 0.05


def test_sample_target_correlation_recovered():
    rng = np.random.default_rng(8)
    marginals = [fit_edf(rng.gamma(2.0, 1.0, 800)), fit_edf(rng.normal(0, 2, 800))]
    cop = GaussianCopula(correlation=np.array([[1.0, 0.8], [0.8, 1.0]]))
    out = sample_copula(cop, marginals, 10_000, rng_seed=9)
    corr = _normal_scores_corr(out)
    assert corr[0, 1] == pytest.approx(0.8, abs=0.05)


def test_sample_marginal_ks_distance():
    rng = np.random.default_rng(10)
    source = rng.gamma(2.0, 1.5, 2000)
    marginals = [fit_edf(source), fit_edf(rng.normal(0, 1, 2000))]
    cop = GaussianCopula(correlation=np.array([[1.0, 0.5], [0.5, 1.0]]))
    out = sample_copula(cop, marginals, 10_000, rng_seed=11)
    ks = stats.ks_2samp(out[:, 0], source).statistic
    assert ks < 0.03


def test_sample_stays_in_marginal_range():
    jitter = fit_edf([0.03, 0.030001, 0.029999])
    cop = GaussianCopula(correlation=np.eye(2))
    out = sample_copula(cop, [jitter, jitter], 500, rng_seed=12)
    assert out.min() >= 0.029999
    assert out.max() <= 0.030001


def test_sample_reproducible():
    rng = np.random.default_rng(13)
    marginals = [fit_edf(rng.normal(0, 1, 100)), fit_edf(rng.normal(0, 1, 100))]
    cop = GaussianCopula(correlation=np.array([[1.0, 0.3], [0.3, 1.0]]))
    a = sample_copula(cop, marginals, 200, rng_seed=99)
    b = sample_copula(cop, marginals, 200, rng_seed=99)
    assert np.array_equal(a, b)


def test_singular_correlation_sampling_falls_back():
    # perfectly correlated: Cholesky fails, eigen factor should work
    cop = GaussianCopula(correlation=np.ones((2, 2)))
    rng = np.random.default_rng(14)
    marginals = [fit_edf(rng.normal(0, 1, 100)), fit_edf(rng.normal(0, 1, 100))]
    out = sample_copula(cop, marginals, 1000, rng_seed=15)
    corr = _normal_scores_corr(out)
    assert corr[0, 1] == pytest.approx(1.0, abs=0.01)
