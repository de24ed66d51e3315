import itertools

import numpy as np
import pytest
from scipy import stats

from conftest import (
    IndicatorPoint,
    SentimentRecord,
    cumulative_record,
    indicator_array,
    sentiment_array,
    unique_demeaned,
    unique_group_sums,
    unique_sandwich,
)
from newsflow._util import write_csv
from newsflow.cli import RESULTS_KINDS
from newsflow.errors import (
    ConstantColumn,
    EmptyPanel,
    InputError,
    RankDeficient,
    SingleCluster,
)
from newsflow.panel import (
    DEPENDENTS,
    INDICATOR_FIELDS,
    SENTIMENT_FIELDS,
    ClusterMode,
    MarketSeries,
    PanelDataset,
    PanelInputs,
    PanelSpec,
    SuiteCell,
    SymbolDayArray,
    _cluster_covariance_arrays,
    _demean_by_group,
    _group_sums,
    _sandwich,
    assemble_panel,
    build_pca_records,
    fit_fixed_effects,
    format_suite_table,
    pca_sentiment_index,
    run_specification_suite,
    significance_stars,
    suite_rows,
)


def make_panel(y, x, entities, times, coef_names=None):
    """A panel whose symbols are the entity labels as strings, sorted."""
    spec = PanelSpec("log_vol", 1, False, "BL")
    symbols, codes = np.unique([str(e) for e in entities], return_inverse=True)
    return PanelDataset(
        spec=spec,
        entities=codes,
        symbols=tuple(symbols.tolist()),
        times=np.asarray(times, dtype=int),
        y=np.asarray(y, dtype=float),
        x=np.asarray(x, dtype=float),
    )


def random_panel(rng, n_entities, n_periods, k, gamma_scale=1.0, noise=1.0):
    entities = np.repeat(np.arange(n_entities), n_periods)
    times = np.tile(np.arange(n_periods), n_entities)
    x = rng.normal(0, 1, (len(entities), k))
    gamma = rng.normal(0, gamma_scale, n_entities)
    gamma -= gamma.mean()
    beta = rng.normal(0, 1, k)
    y = x @ beta + gamma[entities] + noise * rng.normal(0, 1, len(entities))
    return y, x, entities, times, beta, gamma


def dummy_ols_oracle(y, x, entities):
    """Entity-dummy OLS: returns (beta, gamma with sum 0, alpha)."""
    labels = sorted(set(entities.tolist()))
    dummies = np.column_stack([(entities == e).astype(float) for e in labels])
    full = np.column_stack([x, dummies])
    coef, _, _, _ = np.linalg.lstsq(full, y, rcond=None)
    beta = coef[: x.shape[1]]
    d = coef[x.shape[1] :]
    alpha = d.mean()
    return beta, d - alpha, alpha


def test_single_entity_equals_plain_ols():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (30, 2))
    y = 1.5 + x @ np.array([2.0, -1.0]) + rng.normal(0, 0.1, 30)
    panel = make_panel(y, x, np.zeros(30, dtype=int), np.arange(30))
    result = fit_fixed_effects(panel, coef_names=("x1", "x2"), cluster_mode=ClusterMode.BY_TIME)
    ols = np.linalg.lstsq(np.column_stack([np.ones(30), x]), y, rcond=None)[0]
    assert result.coefficients == pytest.approx(ols[1:], abs=1e-10)
    assert result.alpha == pytest.approx(ols[0], abs=1e-10)
    assert result.fixed_effects["0"] == pytest.approx(0.0, abs=1e-12)


def test_noiseless_identification():
    rng = np.random.default_rng(1)
    y, x, entities, times, beta, gamma = random_panel(rng, 4, 12, 1, noise=0.0)
    panel = make_panel(y, x, entities, times)
    result = fit_fixed_effects(panel, coef_names=("x",), cluster_mode=ClusterMode.BY_ENTITY)
    assert result.coefficients[0] == pytest.approx(beta[0], abs=1e-10)
    for i, e in enumerate(sorted({str(v) for v in entities})):
        assert result.fixed_effects[e] == pytest.approx(gamma[int(e)], abs=1e-10)


def test_matches_dummy_ols_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_entities = int(rng.integers(2, 8))
        n_periods = int(rng.integers(4, 30))
        k = int(rng.integers(1, 4))
        y, x, entities, times, _, _ = random_panel(rng, n_entities, n_periods, k)
        panel = make_panel(y, x, entities, times)
        names = tuple(f"x{i}" for i in range(k))
        result = fit_fixed_effects(panel, coef_names=names, cluster_mode=ClusterMode.BY_ENTITY)
        beta_o, gamma_o, alpha_o = dummy_ols_oracle(y, x, entities)
        assert result.coefficients == pytest.approx(beta_o, abs=1e-8)
        assert result.alpha == pytest.approx(alpha_o, abs=1e-8)
        gammas = np.array([result.fixed_effects[str(e)] for e in sorted(set(entities.tolist()))])
        assert gammas == pytest.approx(gamma_o, abs=1e-8)
        assert abs(sum(result.fixed_effects.values())) < 1e-8


def test_within_invariant_to_entity_shifts():
    rng = np.random.default_rng(3)
    y, x, entities, times, _, _ = random_panel(rng, 5, 15, 2)
    base = fit_fixed_effects(make_panel(y, x, entities, times), ("a", "b"), ClusterMode.BY_ENTITY)
    shifts = rng.normal(0, 10, 5)
    shifted = fit_fixed_effects(
        make_panel(y + shifts[entities], x, entities, times), ("a", "b"), ClusterMode.BY_ENTITY
    )
    assert shifted.coefficients == pytest.approx(base.coefficients, abs=1e-10)


def test_rank_deficient_names_columns():
    rng = np.random.default_rng(4)
    x1 = rng.normal(0, 1, 40)
    x = np.column_stack([x1, 2.0 * x1])
    entities = np.repeat([0, 1], 20)
    panel = make_panel(rng.normal(0, 1, 40), x, entities, np.tile(np.arange(20), 2))
    with pytest.raises(RankDeficient, match="^collinear regressor columns: doubled$"):
        fit_fixed_effects(panel, coef_names=("base", "doubled"))


def test_residuals_match_within_residuals():
    rng = np.random.default_rng(5)
    y, x, entities, times, _, _ = random_panel(rng, 3, 10, 2)
    result = fit_fixed_effects(make_panel(y, x, entities, times), ("a", "b"), ClusterMode.BY_ENTITY)
    fitted = result.alpha + x @ result.coefficients + np.array(
        [result.fixed_effects[str(e)] for e in entities]
    )
    assert result.residuals == pytest.approx(y - fitted, abs=1e-12)


# clustered covariance ---------------------------------------------------------

def test_singleton_clusters_equal_scaled_hc0():
    rng = np.random.default_rng(6)
    y, x, entities, times, _, _ = random_panel(rng, 4, 10, 2)
    panel = make_panel(y, x, entities, times)
    result = fit_fixed_effects(panel, ("a", "b"), ClusterMode.BY_ENTITY)
    # every observation its own cluster: use unique times trick is not possible
    # here, so call internals through _cluster_covariance_arrays with unique labels
    x_dm = unique_demeaned(panel.x, panel.entities)
    u = result.residuals
    n, k = x_dm.shape
    bread = np.linalg.inv(x_dm.T @ x_dm)
    hc0 = bread @ (x_dm * u[:, None] ** 2).T @ x_dm @ bread
    factor = n / (n - k)
    # singleton clustering realized by clustering on observation index
    from newsflow.panel import _cluster_covariance_arrays

    cov, _, _, _ = _cluster_covariance_arrays(
        x_dm, u, np.arange(n), np.arange(n), ClusterMode.BY_ENTITY, k
    )
    assert cov == pytest.approx(factor * hc0, abs=1e-10)


def test_by_entity_matches_bruteforce_meat():
    rng = np.random.default_rng(7)
    y, x, entities, times, _, _ = random_panel(rng, 2, 60, 2)
    panel = make_panel(y, x, entities, times)
    result = fit_fixed_effects(panel, ("a", "b"), ClusterMode.BY_ENTITY)
    x_dm, u = unique_demeaned(panel.x, panel.entities), result.residuals
    n, k = x_dm.shape
    bread = np.linalg.inv(x_dm.T @ x_dm)
    meat = np.zeros((k, k))
    for e in (0, 1):
        s = (x_dm[entities == e] * u[entities == e, None]).sum(axis=0)
        meat += np.outer(s, s)
    expected = (2 / 1) * ((n - 1) / (n - k)) * bread @ meat @ bread
    cov, _, _, _ = _cluster_covariance_arrays(x_dm, u, panel.entities, panel.times, ClusterMode.BY_ENTITY, k)
    assert cov == pytest.approx(expected, abs=1e-12)


def test_two_way_psd_and_symmetric():
    rng = np.random.default_rng(8)
    y, x, entities, times, _, _ = random_panel(rng, 6, 20, 3)
    panel = make_panel(y, x, entities, times)
    result = fit_fixed_effects(panel, ("a", "b", "c"), ClusterMode.TWO_WAY)
    cov = result.covariance
    assert cov == pytest.approx(cov.T, abs=1e-14)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12


def bruteforce_sandwich(x, u, groups):
    """Cluster sandwich from one outer product per cluster, with the small-sample factor."""
    n, k = x.shape
    labels = sorted(set(groups.tolist()))
    meat = np.zeros((k, k))
    for g in labels:
        s = (x[groups == g] * u[groups == g, None]).sum(axis=0)
        meat += np.outer(s, s)
    bread = np.linalg.inv(x.T @ x)
    factor = (len(labels) / (len(labels) - 1)) * ((n - 1) / (n - k))
    return factor * bread @ meat @ bread


def test_two_way_matches_bruteforce_on_unbalanced_panel():
    rng = np.random.default_rng(13)
    y, x, entities, times, _, _ = random_panel(rng, 5, 30, 3)
    keep = rng.random(len(y)) > 0.25  # gaps make the panel unbalanced
    y, x, entities, times = y[keep], x[keep], entities[keep], times[keep]
    result = fit_fixed_effects(make_panel(y, x, entities, times), ("a", "b", "c"), ClusterMode.TWO_WAY)
    x_dm, u = unique_demeaned(x, entities), result.residuals
    expected = (
        bruteforce_sandwich(x_dm, u, entities)
        + bruteforce_sandwich(x_dm, u, times)
        - bruteforce_sandwich(x_dm, u, np.arange(len(u)))
    )
    assert not result.psd_repaired
    assert result.covariance == pytest.approx(expected, abs=1e-10)


def test_psd_repaired_not_set_by_rounding_in_a_low_rank_meat():
    # 4 entity clusters for 8 regressors: the meat has rank 3, so five
    # eigenvalues of the covariance are zero up to rounding, some negative
    rng = np.random.default_rng(0)
    y, x, entities, times, _, _ = random_panel(rng, 4, 60, 8)
    result = fit_fixed_effects(make_panel(y, x, entities, times), tuple("abcdefgh"), ClusterMode.BY_ENTITY)
    assert np.linalg.matrix_rank(result.covariance) == 3
    assert not result.psd_repaired


def test_psd_repaired_set_for_an_indefinite_two_way_covariance():
    rng = np.random.default_rng(2)
    y, x, entities, times, _, _ = random_panel(rng, 3, 4, 2)
    result = fit_fixed_effects(make_panel(y, x, entities, times), ("a", "b"), ClusterMode.TWO_WAY)
    x_dm, u = unique_demeaned(x, entities), result.residuals
    raw = (
        bruteforce_sandwich(x_dm, u, entities)
        + bruteforce_sandwich(x_dm, u, times)
        - bruteforce_sandwich(x_dm, u, np.arange(len(u)))
    )
    eigvals, eigvecs = np.linalg.eigh(raw)
    assert eigvals[0] < -0.1 * eigvals[1]
    assert result.psd_repaired
    # the repair clips the negative eigenvalue and keeps the other
    assert result.covariance == pytest.approx(eigvals[1] * np.outer(eigvecs[:, 1], eigvecs[:, 1]), abs=1e-12)


@pytest.mark.parametrize("n_entities, rank", [(4, 3), (40, 8)])
def test_covariance_rank_counts_what_the_clusters_identify(n_entities, rank):
    # the entity score sums add to zero, so G entity clusters give rank <= G - 1
    rng = np.random.default_rng(0)
    y, x, entities, times, _, _ = random_panel(rng, n_entities, 60, 8)
    result = fit_fixed_effects(make_panel(y, x, entities, times), tuple("abcdefgh"), ClusterMode.BY_ENTITY)
    assert result.covariance_rank == rank


def test_single_cluster_raises():
    rng = np.random.default_rng(9)
    x = rng.normal(0, 1, (20, 1))
    y = rng.normal(0, 1, 20)
    panel = make_panel(y, x, np.zeros(20, dtype=int), np.arange(20))
    with pytest.raises(SingleCluster):
        fit_fixed_effects(panel, ("x",), ClusterMode.BY_ENTITY)


def test_stars():
    assert significance_stars(0.004) == "***"
    assert significance_stars(0.03) == "**"
    assert significance_stars(0.07) == "*"
    assert significance_stars(0.2) == ""
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.05) == "*"


def test_zero_standard_error_has_no_p_value_or_stars(monkeypatch, tmp_path):
    import newsflow.panel as panel_mod

    rng = np.random.default_rng(14)
    y, x, entities, times, _, _ = random_panel(rng, 4, 15, 2)
    fitted_covariance = panel_mod._cluster_covariance_arrays

    def zero_first_variance(*args):
        cov, df, _, rank = fitted_covariance(*args)
        cov = cov.copy()
        cov[0, :] = cov[:, 0] = 0.0
        return cov, df, True, rank

    monkeypatch.setattr(panel_mod, "_cluster_covariance_arrays", zero_first_variance)
    result = fit_fixed_effects(make_panel(y, x, entities, times), ("a", "b"), ClusterMode.BY_ENTITY)
    assert result.std_errors[0] == 0.0
    assert np.isnan(result.p_values[0])
    cell = SuiteCell(spec=result.spec, result=result)
    path = tmp_path / "results.csv"
    write_csv(path, RESULTS_KINDS, list(zip(*suite_rows([cell]))))
    _, variable, _, se, p, stars = path.read_text(encoding="utf-8").splitlines()[2].split(",")
    assert (variable, se, p, stars) == ("a", "0.0", "", "")
    line_a = next(line for line in format_suite_table([cell]).splitlines() if line.startswith("a "))
    assert "*" not in line_a


def test_p_values_equal_scipy_stats_t_sf():
    rng = np.random.default_rng(15)
    y, x, entities, times, _, _ = random_panel(rng, 5, 20, 3)
    for mode in ClusterMode:
        result = fit_fixed_effects(make_panel(y, x, entities, times), ("a", "b", "c"), mode)
        tstat = result.coefficients / result.std_errors
        assert np.array_equal(result.p_values, 2.0 * stats.t.sf(np.abs(tstat), result.df))


# grouping by integer codes ---------------------------------------------------

def gapped_panel(rng, n_entities, n_periods, k):
    """random_panel with about a third of its rows deleted; each entity keeps two."""
    y, x, entities, times, _, _ = random_panel(rng, n_entities, n_periods, k)
    kept = rng.random(len(y)) > 0.3
    for e in range(n_entities):
        kept[np.flatnonzero(entities == e)[:2]] = True
    return y[kept], x[kept], entities[kept], times[kept]


def unique_covariance(x, u, entities, times, mode, k):
    """Cluster covariance and its t degrees of freedom on unique_group_sums.

    A negative eigenvalue is clipped to zero, as the package does.
    """
    n_ent, n_time = len(np.unique(entities)), len(np.unique(times))
    if mode is ClusterMode.BY_ENTITY:
        cov, df = unique_sandwich(x, u, entities, k), n_ent - 1
    elif mode is ClusterMode.BY_TIME:
        cov, df = unique_sandwich(x, u, times, k), n_time - 1
    else:
        cov = (unique_sandwich(x, u, entities, k) + unique_sandwich(x, u, times, k)
               - unique_sandwich(x, u, np.arange(len(u)), k))
        df = min(n_ent, n_time) - 1
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() < 0:
        cov = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    return cov, df


@pytest.mark.parametrize("seed", range(6))
def test_bincount_grouping_matches_the_unique_oracle_to_the_bit(seed):
    rng = np.random.default_rng(300 + seed)
    y, x, entities, times = gapped_panel(rng, int(rng.integers(5, 12)), int(rng.integers(8, 40)), 3)
    for groups in (entities, times, np.arange(len(y))):
        for values in (y, x):
            for got, expected in zip(_group_sums(values, groups), unique_group_sums(values, groups)):
                assert np.array_equal(got, expected)
    for values in (y, x):
        assert np.array_equal(_demean_by_group(values, entities), unique_demeaned(values, entities))

    result = fit_fixed_effects(make_panel(y, x, entities, times), ("a", "b", "c"), ClusterMode.TWO_WAY)
    x_dm, u = unique_demeaned(x, entities), result.residuals
    for groups in (entities, times):
        assert np.array_equal(_sandwich(x_dm, u, groups, 3), unique_sandwich(x_dm, u, groups, 3))
    # the intersection term: every row its own cluster, with no grouping
    assert np.array_equal(_sandwich(x_dm, u, None, 3), unique_sandwich(x_dm, u, np.arange(len(u)), 3))
    for mode in ClusterMode:
        cov, df, _, _ = _cluster_covariance_arrays(x_dm, u, entities, times, mode, 3)
        expected, expected_df = unique_covariance(x_dm, u, entities, times, mode, 3)
        assert np.array_equal(cov, expected) and df == expected_df


def test_two_way_counts_only_the_days_that_have_rows():
    rng = np.random.default_rng(31)
    y, x, entities, times, _, _ = random_panel(rng, 30, 12, 2)
    # no rows on day 0, as in a warm-up, or on day 6
    kept = (times != 0) & (times != 6)
    y, x, entities, times = y[kept], x[kept], entities[kept], times[kept]
    panel = make_panel(y, x, entities, times)
    result = fit_fixed_effects(panel, ("a", "b"), ClusterMode.TWO_WAY)
    assert result.df == 10 - 1  # 10 time clusters, fewer than 30 entities; not 12
    x_dm, u = unique_demeaned(panel.x, panel.entities), result.residuals
    # the time sandwich's small-sample factor counts 10 clusters
    assert _sandwich(x_dm, u, times, 2) == pytest.approx(bruteforce_sandwich(x_dm, u, times), rel=1e-12)
    expected, expected_df = unique_covariance(x_dm, u, panel.entities, times, ClusterMode.TWO_WAY, 2)
    assert np.array_equal(result.covariance, expected) and result.df == expected_df


def test_entity_codes_skip_the_symbols_of_the_axis_that_have_no_rows():
    records, points, market, n_days = unbalanced_inputs()
    # on the axis S0..S4, S4 has one record (a singleton): the panel's symbols
    # are S0 and S2, codes 0 and 1, though S2 is row 2 of the axis
    panel = assemble(records, points, market, PanelSpec("log_vol", 1, False, "BL"), n_days,
                     symbols=["S0", "S2", "S4"])
    assert panel.symbols == ("S0", "S2")
    assert np.array_equal(np.unique(panel.entities), [0, 1]) and (np.diff(panel.entities) >= 0).all()
    labels = np.array(panel.symbols)[panel.entities]

    result = fit_fixed_effects(panel, cluster_mode=ClusterMode.BY_ENTITY)
    o_labels, o_inverse, o_counts, o_sums = unique_group_sums(panel.x, labels)
    _, inverse, counts, sums = _group_sums(panel.x, panel.entities)
    assert o_labels.tolist() == list(panel.symbols)
    assert np.array_equal(inverse, o_inverse) and np.array_equal(counts, o_counts) and np.array_equal(sums, o_sums)
    assert list(result.fixed_effects) == list(result.entity_counts) == ["S0", "S2"]
    assert list(result.entity_counts.values()) == o_counts.tolist()
    x_dm, u, k = unique_demeaned(panel.x, panel.entities), result.residuals, panel.x.shape[1]
    assert np.array_equal(_sandwich(x_dm, u, panel.entities, k), unique_sandwich(x_dm, u, labels, k))


def test_assembled_panel_has_in_range_codes_distinct_days_and_two_rows_per_symbol():
    # what fit_fixed_effects relies on; S4 has one complete row and is dropped
    records, points, market, n_days = unbalanced_inputs()
    for h, cumulative, dependent in itertools.product(range(1, 6), (False, True), DEPENDENTS):
        panel = assemble(records, points, market, PanelSpec(dependent, h, cumulative, "BL"), n_days)
        assert "S4" not in panel.symbols
        assert panel.entities.min() >= 0 and panel.entities.max() < len(panel.symbols)
        assert np.bincount(panel.entities, minlength=len(panel.symbols)).min() >= 2
        assert len(set(zip(panel.entities.tolist(), panel.times.tolist()))) == len(panel.y)


# PCA ---------------------------------------------------------------------------

def test_pca_identical_columns():
    rng = np.random.default_rng(10)
    col = rng.normal(0, 1, 200)
    index = pca_sentiment_index(np.column_stack([col, col, col]))
    assert index.explained_share == pytest.approx(1.0, abs=1e-12)
    assert index.loadings == pytest.approx(np.ones(3) / np.sqrt(3), abs=1e-10)


def test_pca_matches_eigh_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(20, 200))
        base = rng.normal(0, 1, n)
        data = np.column_stack([
            base + 0.3 * rng.normal(0, 1, n),
            0.8 * base + 0.5 * rng.normal(0, 1, n),
            rng.normal(0, 1, n),
        ])
        index = pca_sentiment_index(data)
        std = (data - data.mean(0)) / data.std(0, ddof=1)
        corr = std.T @ std / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(corr)
        assert index.explained_share == pytest.approx(eigvals[-1] / eigvals.sum(), abs=1e-10)
        lead = eigvecs[:, -1]
        if lead.sum() < 0:
            lead = -lead
        assert index.loadings == pytest.approx(lead, abs=1e-8)


def test_pca_relabel_invariance():
    rng = np.random.default_rng(12)
    base = rng.normal(0, 1, 100)
    data = np.column_stack([base, 0.9 * base + 0.2 * rng.normal(0, 1, 100),
                            0.8 * base + 0.4 * rng.normal(0, 1, 100)])
    forward = pca_sentiment_index(data, ("a", "b", "c"))
    perm = [2, 0, 1]
    permuted = pca_sentiment_index(data[:, perm], ("c", "a", "b"))
    assert permuted.explained_share == pytest.approx(forward.explained_share, abs=1e-12)
    assert permuted.loadings[np.argsort(perm)] == pytest.approx(forward.loadings, abs=1e-8)


def test_pca_constant_column():
    with pytest.raises(ConstantColumn):
        pca_sentiment_index(np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)]))


# assemble_panel ------------------------------------------------------------------

def complete_inputs(n_symbols=2, n_days=10, seed=0):
    rng = np.random.default_rng(seed)
    symbols = [f"S{i}" for i in range(n_symbols)]
    records = {}
    points = {}
    for sym in symbols:
        for day in range(n_days):
            active = int(rng.random() < 0.7)
            records[(sym, day)] = SentimentRecord(
                sym, day, "BL", active,
                float(rng.uniform(0, 0.05)) if active else 0.0,
                float(rng.uniform(0, 0.05)) if active else 0.0,
                n_articles=active * int(rng.integers(1, 4)),
            )
            points[(sym, day)] = IndicatorPoint(
                sym, day,
                log_vol=float(rng.normal(-4, 0.3)),
                detrended_volume=float(rng.normal(0, 0.2)),
                ret=float(rng.normal(0, 0.02)),
            )
    market = MarketSeries(
        market_return=rng.normal(0, 0.01, n_days),
        vix=rng.uniform(0.1, 0.3, n_days),
    )
    return records, points, market


def assemble(records, points, market, spec, n_days, symbols=None):
    """assemble_panel on records and points put on the union of their symbols."""
    universe = sorted({sym for sym, _ in records} | {sym for sym, _ in points})
    sentiment = sentiment_array(records.values(), n_days).on(universe)
    indicators = indicator_array(points.values(), n_days).on(universe)
    return assemble_panel(sentiment, indicators, market, spec, symbols=symbols)


def test_assemble_panel_counts():
    records, points, market = complete_inputs()
    spec = PanelSpec("log_vol", 1, False, "BL")
    panel = assemble(records, points, market, spec, n_days=10)
    assert len(panel.observations) == 2 * 9  # t = 0..8 for each symbol


def test_assemble_panel_cumulative_h1_identity():
    records, points, market = complete_inputs(seed=1)
    flat = assemble(records, points, market, PanelSpec("ret", 1, False, "BL"), 10)
    cumulative = assemble(records, points, market, PanelSpec("ret", 1, True, "BL"), 10)
    for name in ("entities", "times", "y", "x"):
        assert np.array_equal(getattr(flat, name), getattr(cumulative, name))


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_assemble_panel_cumulative_matches_cumulative_record(h):
    n_days = 20
    records, points, market = complete_inputs(n_symbols=3, n_days=n_days, seed=7)
    for key in [("S0", 3), ("S1", 10), ("S1", 11), ("S2", 19)]:
        del records[key]
    panel = assemble(records, points, market, PanelSpec("log_vol", h, True, "BL"), n_days)

    by_symbol: dict[str, dict[int, SentimentRecord]] = {}
    for (sym, day), rec in records.items():
        by_symbol.setdefault(sym, {})[day] = rec
    expected = {}
    incomplete = 0
    for sym, sym_records in by_symbol.items():
        for t in range(n_days - h):
            if all(day in sym_records for day in range(t, t + h)):
                rec = cumulative_record(sym_records, t, h)
                expected[(sym, t)] = [float(rec.active), rec.pos, rec.neg]
            else:
                incomplete += 1
    assert incomplete > 0
    assert panel.dropped["missing_field"] == incomplete
    pooled = {
        (str(obs.symbol), int(obs.day)): [float(v) for v in obs.regressors[:3]]
        for obs in panel.observations
    }
    assert pooled == expected


def test_assemble_panel_missing_fields_dropped():
    records, points, market = complete_inputs(seed=2)
    points[("S0", 5)] = IndicatorPoint("S0", 5, None, 0.1, 0.01)
    spec = PanelSpec("log_vol", 1, False, "BL")
    panel = assemble(records, points, market, spec, n_days=10)
    # day 5 is lost twice for S0: as dependent (t=4) and as lagged control (t=5)
    assert len(panel.observations) == 18 - 2
    assert panel.dropped["missing_field"] == 2


def test_assemble_panel_empty_subsample():
    records, points, market = complete_inputs(seed=3)
    with pytest.raises(EmptyPanel):
        assemble(records, points, market, PanelSpec("ret", 1, False, "BL"),
                       10, symbols=["NOPE"])


def test_assemble_panel_lag_spec():
    records, points, market = complete_inputs(seed=4)
    panel = assemble(records, points, market, PanelSpec("ret", 3, False, "BL"), 10)
    assert len(panel.observations) == 2 * 7  # t = 0..6
    # dependent is the day-(t+3) return
    first = panel.observations[0]
    assert first.dependent == points[(first.symbol, first.day + 3)].ret


def unbalanced_inputs():
    """S3 has no indicators, S4 one record (a singleton entity), gaps elsewhere."""
    n_days = 16
    records, points, market = complete_inputs(n_symbols=5, n_days=n_days, seed=11)
    for key in [("S0", 3), ("S1", 9), ("S1", 10)] + [("S4", day) for day in range(1, n_days)]:
        del records[key]
    for key in [("S2", 7), ("S0", 12)] + [("S3", day) for day in range(n_days)]:
        del points[key]
    points[("S1", 5)] = IndicatorPoint("S1", 5, points[("S1", 5)].log_vol, None, points[("S1", 5)].ret)
    vix = market.vix.copy()
    vix[9] = np.nan
    return records, points, MarketSeries(market.market_return, vix), n_days


def bruteforce_assembly(records, points, market, spec, n_days, symbols=None):
    """Expected entities, times, y, x and dropped counts, one dict lookup at a time."""
    universe = sorted({sym for sym, _ in records} | {sym for sym, _ in points})
    if symbols is not None:
        universe = [sym for sym in universe if sym in {s.upper() for s in symbols}]
    field_of = {"log_vol": "log_vol", "dvol": "detrended_volume", "ret": "ret"}
    h = spec.h
    rows, missing, singleton = [], 0, 0
    for sym in universe:
        complete = []
        for t in range(n_days - h):
            if spec.cumulative and h > 1:
                window = {day: records.get((sym, day)) for day in range(t, t + h)}
                rec = cumulative_record(window, t, h) if None not in window.values() else None
            else:
                rec = records.get((sym, t))
            point, ahead = points.get((sym, t)), points.get((sym, t + h))
            values = [
                getattr(ahead, field_of[spec.dependent]) if ahead else None,
                *((float(rec.active), rec.pos, rec.neg) if rec else (None,) * 3),
                market.market_return[t], market.vix[t],
                *((point.log_vol, point.ret, point.detrended_volume) if point else (None,) * 3),
            ]
            if any(v is None or np.isnan(v) for v in values):
                missing += 1
            else:
                complete.append((sym, t, values))
        if len(complete) < 2:
            singleton += len(complete)
        else:
            rows.extend(complete)
    return (
        np.array([sym for sym, _, _ in rows]),
        np.array([t for _, t, _ in rows]),
        np.array([v[0] for _, _, v in rows]),
        np.array([v[1:] for _, _, v in rows]),
        {"missing_field": missing, "singleton_entity": singleton},
    )


@pytest.mark.parametrize("symbols", [None, ["S0", "s2", "S3", "NOPE"]], ids=["all", "subsample"])
@pytest.mark.parametrize("cumulative", [False, True], ids=["flat", "cumulative"])
@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_assemble_panel_matches_bruteforce_lookup(h, cumulative, symbols):
    records, points, market, n_days = unbalanced_inputs()
    for dependent in DEPENDENTS:
        spec = PanelSpec(dependent, h, cumulative, "BL")
        panel = assemble(records, points, market, spec, n_days, symbols=symbols)
        entities, times, y, x, dropped = bruteforce_assembly(records, points, market, spec, n_days, symbols)
        assert panel.symbols == tuple(sorted(set(entities.tolist())))
        assert np.array_equal(np.array(panel.symbols)[panel.entities], entities)
        assert np.array_equal(panel.times, times)
        assert np.array_equal(panel.y, y)
        assert np.array_equal(panel.x, x)
        assert panel.dropped == dropped


# suites ---------------------------------------------------------------------------

def suite_inputs(n_symbols=6, n_days=40, seed=5):
    rng = np.random.default_rng(seed)
    records_by_lexicon = {}
    points = {}
    symbols = [f"S{i}" for i in range(n_symbols)]
    for sym_i, sym in enumerate(symbols):
        p_active = 0.3 + 0.6 * sym_i / max(n_symbols - 1, 1)
        actives = {day: int(rng.random() < p_active) for day in range(n_days)}
        for day in range(n_days):
            points[(sym, day)] = IndicatorPoint(
                sym, day, float(rng.normal(-4, 0.3)), float(rng.normal(0, 0.2)),
                float(rng.normal(0, 0.02)),
            )
        for name in ("BL", "LM", "MPQA"):
            shared = rng.normal(0, 0.01)
            for day in range(n_days):
                active = actives[day]
                records_by_lexicon.setdefault(name, []).append(SentimentRecord(
                    sym, day, name, active,
                    float(abs(rng.normal(0.03, 0.01)) + shared) if active else 0.0,
                    float(abs(rng.normal(0.015, 0.008)) + shared) if active else 0.0,
                    n_articles=active,
                ))
    market = MarketSeries(rng.normal(0, 0.01, n_days), rng.uniform(0.1, 0.3, n_days))
    sectors = {sym: ("Financials" if i % 2 == 0 else "Health Care") for i, sym in enumerate(symbols)}
    sentiment = {name: sentiment_array(records, n_days) for name, records in records_by_lexicon.items()}
    return PanelInputs(sentiment, indicator_array(points.values(), n_days), market, sectors=sectors)


@pytest.mark.parametrize("suite", ["entire", "lags_cumulative"])
def test_each_input_is_reindexed_once_per_suite(monkeypatch, suite):
    calls = []
    reindex = SymbolDayArray.on

    def counted(self, symbols):
        calls.append(self.fields)
        return reindex(self, symbols)

    monkeypatch.setattr(SymbolDayArray, "on", counted)
    cells = run_specification_suite(suite_inputs(n_days=30), suite)
    assert len(cells) in (12, 36)
    # one sentiment re-indexing per lexicon, one indicator re-indexing; the
    # PCA projection of the entire suite is built on the re-indexed lexica
    assert calls.count(SENTIMENT_FIELDS) == 3
    assert calls.count(INDICATOR_FIELDS) == 1
    assert len(calls) == 4


def test_from_rows_rejects_a_day_outside_the_calendar():
    records, _, _ = complete_inputs(n_days=10)
    with pytest.raises(InputError, match="^day 9 outside the 9-day calendar$"):
        sentiment_array(records.values(), 9)


def test_entire_suite_cell_count():
    cells = run_specification_suite(suite_inputs(), "entire")
    assert len(cells) == 12  # 3 dependents x (3 lexica + PCA)
    assert all(cell.result is not None for cell in cells)


def test_attention_suite_cell_count():
    inputs = suite_inputs()
    cells = run_specification_suite(inputs, "attention")
    groups = {cell.spec.subsample for cell in cells}
    assert len(cells) == 3 * 3 * len(groups)


def test_sector_suite():
    cells = run_specification_suite(suite_inputs(), "sector")
    assert {cell.spec.subsample for cell in cells} == {"Financials", "Health Care"}
    assert len(cells) == 2 * 3 * 3


def test_lag_suites():
    inputs = suite_inputs(n_days=30)
    noncum = run_specification_suite(inputs, "lags_noncumulative")
    cum = run_specification_suite(inputs, "lags_cumulative")
    assert len(noncum) == 3 * 3 * 4
    assert len(cum) == 3 * 3 * 4
    assert all(cell.spec.cumulative for cell in cum)


def test_suite_rows_shape():
    cells = run_specification_suite(suite_inputs(), "entire")
    rows = suite_rows(cells)
    # intercept + 8 regressors per fitted cell
    assert len(rows) == 12 * 9


# pca records -----------------------------------------------------------------------

def test_build_pca_records_convention():
    inputs = suite_inputs(seed=6)
    pca, pos_index, neg_index = build_pca_records(inputs.sentiment)
    assert 0.0 < pos_index.explained_share <= 1.0
    bl = inputs.sentiment["BL"]
    assert pca.symbols == bl.symbols
    assert np.array_equal(pca.plane("active"), bl.plane("active"), equal_nan=True)
    inactive = pca.plane("active") == 0
    assert (pca.plane("pos")[inactive] == 0.0).all() and (pca.plane("neg")[inactive] == 0.0).all()
