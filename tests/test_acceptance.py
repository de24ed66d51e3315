"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats as sps

from conftest import format_mpqa_line, simulate_ma1_garch11, unique_demeaned
from newsflow.cli import main as cli_main
from newsflow.indicators import fit_detrend_model, garman_klass_log_vol
from newsflow.lexicon import (
    LexiconEntry,
    Polarity,
    PosTag,
    Strength,
    build_lexicon,
    parse_mpqa_line,
)
from newsflow.panel import (
    ClusterMode,
    PanelDataset,
    PanelSpec,
    fit_fixed_effects,
    pca_sentiment_index,
)
from newsflow.sentiment import build_scoring_index, score_article, tokenize
from newsflow.simulate.copula import GaussianCopula, fit_gaussian_copula, normal_scores, sample_copula
from newsflow.simulate.edf import fit_edf
from newsflow.simulate.garch import MA1Garch11Params, fit_ma1_garch11
from newsflow.simulate.scenario import (
    MARKET_LABEL,
    ResidualModel,
    ScenarioConfig,
    SymbolSentimentModel,
    simulate_scenario,
)
from newsflow.simulate.smoother import band_overlap_region, local_linear_fit, plugin_bandwidth, uniform_band
from newsflow.stemmer import porter_stem


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {detail}")


# 1 -----------------------------------------------------------------------------

def _gk_oracle(o, h, l, c) -> float:
    mp.mp.dps = 50
    u = mp.log(h) - mp.log(o)
    d = mp.log(l) - mp.log(o)
    cc = mp.log(c) - mp.log(o)
    var = (mp.mpf("0.511") * (u - d) ** 2
           - mp.mpf("0.019") * (cc * (u + d) - 2 * u * d)
           - mp.mpf("0.383") * cc**2)
    return float(mp.log(var) / 2)


def _random_bar(rng, scale=1.0):
    open_ = float(rng.uniform(5, 500)) * scale
    close = open_ * float(np.exp(rng.normal(0, 0.02)))
    high = max(open_, close) * float(np.exp(abs(rng.normal(0, 0.01)) + 1e-6))
    low = min(open_, close) * float(np.exp(-abs(rng.normal(0, 0.01)) - 1e-6))
    return open_, high, low, close


def test_criterion_01_gk_exactness():
    rng = np.random.default_rng(101)
    bars = [_random_bar(rng) for _ in range(1000)]
    oracle = [_gk_oracle(*b) for b in bars]

    start = time.time()
    got = [garman_klass_log_vol(*b) for b in bars]
    scaled_got = {
        lam: [
            garman_klass_log_vol(*(price * lam for price in b))
            for b in bars
        ]
        for lam in (0.5, 2.0, 10.0)
    }
    elapsed = time.time() - start

    max_rel = max(abs(g - w) / abs(w) for g, w in zip(got, oracle))
    max_scale_dev = max(
        abs(s - g)
        for lam in scaled_got
        for s, g in zip(scaled_got[lam], got)
    )
    assert max_rel < 1e-12
    assert max_scale_dev < 1e-12
    assert elapsed < 1.0
    report(1, f"1000 bars, max rel err {max_rel:.2e}, scale dev {max_scale_dev:.2e}, {elapsed:.2f}s")


# 2 -----------------------------------------------------------------------------

def test_criterion_02_detrend():
    start = time.time()
    s = np.arange(140, dtype=float)
    quadratic = 9.0 + 0.02 * s - 1e-4 * s**2

    worst_quad = float(np.max(np.abs(quadratic - fit_detrend_model(quadratic))[120:]))
    assert worst_quad < 1e-9

    shocked = quadratic.copy()
    shocked[125] += 0.5
    assert abs(shocked[125] - fit_detrend_model(shocked)[125] - 0.5) < 1e-9

    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(125, 170))
        series = rng.normal(12, 0.4, n)
        t = int(rng.integers(120, n))
        poisoned = series.copy()
        if t + 1 < n:
            poisoned[t + 1 :] = rng.normal(-50, 100, n - t - 1)
        # every forecast through day t is the same, whatever the days after t hold
        before = fit_detrend_model(series)[: t + 1]
        assert np.array_equal(fit_detrend_model(poisoned)[: t + 1], before, equal_nan=True)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, f"quad residual {worst_quad:.1e}, shock ok, 100 poisoned-future series, {elapsed:.2f}s")


# 3 -----------------------------------------------------------------------------

ORACLE_NEGATORS = {"not", "never", "no", "neither", "nor", "none", "n't"}


def _oracle_score(sentences, unstemmed, stemmed, window=5):
    """Independent brute-force scorer: position-by-position, two passes."""
    pos = neg = 0
    for tokens in sentences:
        polarity = {}
        for i, tok in enumerate(tokens):
            if tok in unstemmed:
                polarity[i] = unstemmed[tok]
        for i, tok in enumerate(tokens):
            if i in polarity:
                continue
            stem = porter_stem(tok)
            if stem in stemmed:
                polarity[i] = stemmed[stem]
        negator_positions = [i for i, tok in enumerate(tokens) if tok in ORACLE_NEGATORS]
        for i, label in polarity.items():
            flipped = any(j != i and abs(j - i) <= window for j in negator_positions)
            effective = label if not flipped else ("neg" if label == "pos" else "pos")
            if effective == "pos":
                pos += 1
            else:
                neg += 1
    return pos, neg


def test_criterion_03_scoring_oracle():
    start = time.time()
    unstemmed = {
        "good": "pos", "great": "pos", "gain": "pos", "strong": "pos", "winner": "pos",
        "bad": "neg", "debt": "neg", "fell": "neg", "weak": "neg", "losses": "neg",
    }
    stemmed = {"improv": "pos", "boost": "pos", "declin": "neg", "warn": "neg"}

    entries = [LexiconEntry(w, Polarity.POSITIVE if p == "pos" else Polarity.NEGATIVE)
               for w, p in unstemmed.items()]
    entries += [
        LexiconEntry(w, Polarity.POSITIVE if p == "pos" else Polarity.NEGATIVE,
                     stemmed=True, pos_tag=PosTag.VERB, strength=Strength.WEAKSUBJ)
        for w, p in stemmed.items()
    ]
    index = build_scoring_index([build_lexicon("SYN", entries)])

    vocabulary = (
        list(unstemmed) + ["improving", "improved", "boosted", "declining", "warning",
                           "warns", "declined", "improves"]
        + ["not", "never", "no", "nor", "none", "isn't", "won't"]
        + ["the", "market", "shares", "company", "said", "report", "investors",
           "price", "today", "quarter", "results", "trading", "week", "outlook"]
    )
    rng = random.Random(103)
    mismatches = 0
    for _ in range(200):
        n_words = rng.randint(5, 60)
        words = [rng.choice(vocabulary) for _ in range(n_words)]
        # random sentence breaks
        text = ""
        for i, word in enumerate(words):
            text += word
            text += ". " if rng.random() < 0.12 and i < n_words - 1 else " "
        text = text.strip() + "."
        tokenized = tokenize(text)
        if tokenized.word_count == 0:
            continue
        (got,) = score_article(tokenized, index)
        if got != _oracle_score(tokenized.sentences, unstemmed, stemmed):
            mismatches += 1
    elapsed = time.time() - start
    assert mismatches == 0
    assert elapsed < 5.0
    report(3, f"200 articles scored, 0 mismatches vs brute-force oracle, {elapsed:.2f}s")


# 4 -----------------------------------------------------------------------------

PAPER_ENTRY_LINES = [
    ("type=weaksubj  len=1  word1=abandoned  pos1=adj  stemmed1=n  priorpolarity=negative",
     ("abandoned", Polarity.NEGATIVE, False, PosTag.ADJ, Strength.WEAKSUBJ)),
    ("type=weaksubj  len=1  word1=abandonment  pos1=noun  stemmed1=n  priorpolarity=negative",
     ("abandonment", Polarity.NEGATIVE, False, PosTag.NOUN, Strength.WEAKSUBJ)),
    ("type=weaksubj  len=1  word1=abandon  pos1=verb  stemmed1=y  priorpolarity=negative",
     ("abandon", Polarity.NEGATIVE, True, PosTag.VERB, Strength.WEAKSUBJ)),
    ("type=strongsubj  len=1  word1=abase  pos1=verb  stemmed1=y  priorpolarity=negative",
     ("abase", Polarity.NEGATIVE, True, PosTag.VERB, Strength.STRONGSUBJ)),
    ("type=strongsubj  len=1  word1=abasement  pos1=anypos  stemmed1=y  priorpolarity=negative",
     ("abasement", Polarity.NEGATIVE, True, PosTag.ANYPOS, Strength.STRONGSUBJ)),
    ("type=strongsubj  len=1  word1=abash  pos1=verb  stemmed1=y  priorpolarity=negative",
     ("abash", Polarity.NEGATIVE, True, PosTag.VERB, Strength.STRONGSUBJ)),
]


def test_criterion_04_mpqa_parsing():
    for line, want in PAPER_ENTRY_LINES:
        entry, _ = parse_mpqa_line(line)
        assert (entry.word, entry.polarity, entry.stemmed, entry.pos_tag, entry.strength) == want

    rng = random.Random(104)
    letters = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(1000):
        word = " ".join(
            "".join(rng.choice(letters) for _ in range(rng.randint(2, 10)))
            for _ in range(rng.choice([1, 1, 1, 2]))
        )
        entry = LexiconEntry(
            word=word,
            polarity=rng.choice(list(Polarity)),
            stemmed=rng.choice([True, False]),
            pos_tag=rng.choice([t for t in PosTag if t is not PosTag.UNCONSTRAINED]),
            strength=rng.choice([Strength.STRONGSUBJ, Strength.WEAKSUBJ]),
        )
        assert parse_mpqa_line(format_mpqa_line(entry)) == (entry, 0)
    report(4, "6 reference lines exact; 1000 random entries round-trip")


# 5 -----------------------------------------------------------------------------

def test_criterion_05_fixed_effects_oracle():
    rng = np.random.default_rng(105)
    worst_beta = 0.0
    worst_gamma_sum = 0.0
    for _ in range(100):
        n_entities = int(rng.integers(2, 11))
        n_periods = int(rng.integers(3, 51))
        k = int(rng.integers(1, 5))
        entities = np.repeat(np.arange(n_entities), n_periods)
        times = np.tile(np.arange(n_periods), n_entities)
        x = rng.normal(0, 1, (len(entities), k))
        gamma = rng.normal(0, 1, n_entities)
        beta = rng.normal(0, 1, k)
        y = 0.3 + x @ beta + gamma[entities] + rng.normal(0, 0.5, len(entities))

        spec = PanelSpec("log_vol", 1, False, "BL")
        symbols = tuple(str(e) for e in range(n_entities))
        panel = PanelDataset(spec=spec, entities=entities, symbols=symbols, times=times, y=y, x=x)
        names = tuple(f"x{i}" for i in range(k))
        result = fit_fixed_effects(panel, coef_names=names, cluster_mode=ClusterMode.BY_ENTITY)

        dummies = np.column_stack([(entities == e).astype(float) for e in range(n_entities)])
        full = np.column_stack([x, dummies])
        coef = np.linalg.lstsq(full, y, rcond=None)[0]
        worst_beta = max(worst_beta, float(np.max(np.abs(result.coefficients - coef[:k]))))
        worst_gamma_sum = max(worst_gamma_sum, abs(sum(result.fixed_effects.values())))
    assert worst_beta < 1e-8
    assert worst_gamma_sum < 1e-8
    report(5, f"100 panels: max |beta - dummy OLS| {worst_beta:.1e}, max |sum gamma| {worst_gamma_sum:.1e}")


# 6 -----------------------------------------------------------------------------

def test_criterion_06_clustered_se():
    start = time.time()
    rng = np.random.default_rng(106)

    # singleton clusters: equals the robust sandwich scaled by N/(N-K)
    from newsflow.panel import _cluster_covariance_arrays, _demean_by_group

    entities = np.repeat(np.arange(5), 12)
    x = rng.normal(0, 1, (60, 2))
    y = x @ np.array([1.0, -1.0]) + rng.normal(0, 1, 60)
    x_dm = _demean_by_group(x, entities)
    y_dm = _demean_by_group(y, entities)
    beta = np.linalg.lstsq(x_dm, y_dm, rcond=None)[0]
    u = y_dm - x_dm @ beta
    cov, _, _, _ = _cluster_covariance_arrays(
        x_dm, u, np.arange(60), np.arange(60), ClusterMode.BY_ENTITY, 2
    )
    bread = np.linalg.inv(x_dm.T @ x_dm)
    hc0 = bread @ (x_dm * u[:, None] ** 2).T @ x_dm @ bread
    singleton_dev = float(np.max(np.abs(cov - 60 / 58 * hc0)))
    assert singleton_dev < 1e-10

    # i.i.d. homoskedastic panel: clustered and classical SEs agree on average
    n_entities, n_periods, k = 20, 25, 3
    entities = np.repeat(np.arange(n_entities), n_periods)
    symbols = tuple(str(e) for e in range(n_entities))
    times = np.tile(np.arange(n_periods), n_entities)
    n = len(entities)
    beta_true = np.array([1.0, -0.5, 0.25])
    spec = PanelSpec("log_vol", 1, False, "BL")
    ratio_clustered = []
    ratio_classical = []
    for _ in range(500):
        x = rng.normal(0, 1, (n, k))
        y = x @ beta_true + rng.normal(0, 1, n)
        panel = PanelDataset(spec=spec, entities=entities, symbols=symbols, times=times, y=y, x=x)
        result = fit_fixed_effects(panel, ("a", "b", "c"), ClusterMode.BY_ENTITY)
        x_dm = unique_demeaned(x, entities)
        sigma2 = float(result.residuals @ result.residuals) / (n - k - n_entities)
        classical = np.sqrt(np.diag(sigma2 * np.linalg.inv(x_dm.T @ x_dm)))
        ratio_clustered.append(result.std_errors)
        ratio_classical.append(classical)
    mean_ratio = np.mean(ratio_clustered, axis=0) / np.mean(ratio_classical, axis=0)
    assert np.all(np.abs(mean_ratio - 1.0) < 0.15)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(6, f"singleton dev {singleton_dev:.1e}; mean clustered/classical SE ratio "
              f"{np.round(mean_ratio, 3).tolist()}, {elapsed:.1f}s")


# 7 -----------------------------------------------------------------------------

def test_criterion_07_pca():
    rng = np.random.default_rng(107)
    col = rng.normal(0, 1, 300)
    identical = pca_sentiment_index(np.column_stack([col, col, col]))
    assert abs(identical.explained_share - 1.0) < 1e-12
    assert np.max(np.abs(identical.loadings - 1 / np.sqrt(3))) < 1e-10

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 400))
        base = rng.normal(0, 1, n)
        data = np.column_stack([
            base + rng.normal(0, 0.5, n),
            -0.7 * base + rng.normal(0, 0.8, n),
            rng.normal(0, 1.5, n),
        ])
        index = pca_sentiment_index(data)
        std = (data - data.mean(0)) / data.std(0, ddof=1)
        eigvals = np.linalg.eigvalsh(std.T @ std / (n - 1))
        worst = max(worst, abs(index.explained_share - eigvals[-1] / eigvals.sum()))
    assert worst < 1e-10
    report(7, f"identical-columns share exact; 50 random matrices, max share dev {worst:.1e}")


# 8 -----------------------------------------------------------------------------

def test_criterion_08_garch_recovery():
    start = time.time()
    true = MA1Garch11Params(mu=0.0, theta=0.1, omega=0.05, alpha=0.1, beta=0.8)
    recovered = 0
    for rep in range(20):
        path = simulate_ma1_garch11(true, 20_000, rng_seed=3000 + rep)
        fitted = fit_ma1_garch11(path)
        errs = [abs(getattr(fitted, name) - getattr(true, name))
                for name in ("theta", "omega", "alpha", "beta")]
        recovered += all(e <= 0.05 for e in errs)
    elapsed = time.time() - start
    assert recovered >= 18
    assert elapsed < 300.0
    report(8, f"{recovered}/20 replications recovered all parameters within 0.05, {elapsed:.0f}s")


# 9 -----------------------------------------------------------------------------

def test_criterion_09_copula_fidelity():
    rng = np.random.default_rng(109)
    source_a = rng.gamma(2.0, 1.0, 1500)
    source_b = rng.normal(0.0, 2.0, 1500)
    source_c = rng.uniform(0.0, 0.08, 1500)
    marginals = [fit_edf(source_a), fit_edf(source_b), fit_edf(source_c)]
    target = np.array([
        [1.0, 0.8, 0.3],
        [0.8, 1.0, 0.2],
        [0.3, 0.2, 1.0],
    ])
    out = sample_copula(GaussianCopula(correlation=target), marginals, 10_000, rng_seed=901)
    got = np.corrcoef(normal_scores(out), rowvar=False)
    corr_dev = float(np.max(np.abs(got - target)))
    assert corr_dev < 0.05
    ks_stats = [
        sps.ks_2samp(out[:, j], src).statistic
        for j, src in enumerate((source_a, source_b, source_c))
    ]
    assert max(ks_stats) < 0.03
    # fitted copula on fresh dependent data also recovers its correlation
    z = rng.multivariate_normal(np.zeros(3), target, 10_000)
    data = np.column_stack([np.exp(z[:, 0]), z[:, 1] ** 3, sps.norm.cdf(z[:, 2])])
    refit = fit_gaussian_copula(data)
    refit_dev = float(np.max(np.abs(refit.correlation - target)))
    assert refit_dev < 0.05
    report(9, f"normal-scores corr dev {corr_dev:.3f}, max marginal KS {max(ks_stats):.3f}, "
              f"refit dev {refit_dev:.3f}")


# 10 ----------------------------------------------------------------------------

def test_criterion_10_smoother_exactness_and_coverage():
    start = time.time()
    rng = np.random.default_rng(110)
    x = rng.uniform(0, 1, 400)
    grid = np.linspace(0.05, 0.95, 37)
    worst_affine = 0.0
    for a, b in ((0.0, 1.0), (2.5, -1.25), (-4.0, 0.0)):
        y = a + b * x
        for h in (0.02, 0.1, 1.0):
            fit = local_linear_fit(x, y, h, grid)
            worst_affine = max(worst_affine, float(np.max(np.abs(fit.curve - (a + b * grid)))))
    assert worst_affine < 1e-10

    truth = lambda t: np.sin(3.0 * t)
    cover_grid = np.linspace(0.1, 0.9, 41)
    true_vals = truth(cover_grid)
    covered = 0
    n = 500
    for rep in range(200):
        rep_rng = np.random.default_rng(1000 + rep)
        xs = rep_rng.uniform(0, 1, n)
        ys = truth(xs) + 0.3 * rep_rng.standard_normal(n)
        # undersmooth relative to the MSE-optimal plug-in: standard for bands
        h = 0.7 * plugin_bandwidth(xs, ys)
        fit = local_linear_fit(xs, ys, h, cover_grid)
        banded = uniform_band(fit, xs, ys, level=0.95, n_boot=500,
                              rng_seed=int(rep_rng.integers(2**31)))
        covered += bool(np.all((banded.band_lower <= true_vals)
                               & (true_vals <= banded.band_upper)))
    coverage = covered / 200
    elapsed = time.time() - start
    assert coverage >= 0.90
    assert elapsed < 300.0
    report(10, f"affine dev {worst_affine:.1e}; simultaneous coverage {coverage:.3f} "
               f"(nominal 0.95), {elapsed:.0f}s")


# 11 ----------------------------------------------------------------------------

def _run_pipeline(config_path, out_dir):
    for command in ("distill", "indicators", "panel", "simulate"):
        code = cli_main([command, "--config", str(config_path), "--output", str(out_dir)])
        assert code == 0, f"{command} failed"


def test_criterion_11_end_to_end_determinism(pipeline_fixture_dir, tmp_path):
    start = time.time()
    config = pipeline_fixture_dir / "newsflow.ini"
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    _run_pipeline(config, out_a)
    _run_pipeline(config, out_b)
    elapsed = time.time() - start

    names_a = sorted(p.name for p in out_a.iterdir() if p.suffix in (".csv", ".svg", ".txt"))
    names_b = sorted(p.name for p in out_b.iterdir() if p.suffix in (".csv", ".svg", ".txt"))
    assert names_a == names_b
    assert len(names_a) >= 15
    differing = [
        name for name in names_a
        if (out_a / name).read_bytes() != (out_b / name).read_bytes()
    ]
    assert differing == []
    assert elapsed < 120.0
    report(11, f"two runs, {len(names_a)} artifacts byte-identical, total {elapsed:.0f}s")


# 12 ----------------------------------------------------------------------------

def _asymmetry_scenario(seed: int) -> ScenarioConfig:
    rng = np.random.default_rng(987)
    symbols = tuple(f"S{i}" for i in range(5))
    labels = (MARKET_LABEL,) + symbols
    residual_model = ResidualModel(
        labels=labels,
        copula=GaussianCopula(np.eye(len(labels))),
        median_sigmas={label: 0.01 for label in labels},
        marginals={label: fit_edf(rng.normal(0, 1, 400)) for label in labels},
    )
    models = tuple(
        SymbolSentimentModel(
            symbol=s,
            arrival_prob=0.7,
            copula=GaussianCopula(np.array([[1.0, 0.3], [0.3, 1.0]])),
            pos_marginal=fit_edf(rng.uniform(0.005, 0.08, 400)),
            neg_marginal=fit_edf(rng.uniform(0.005, 0.08, 400)),
        )
        for s in symbols
    )
    # sign pattern of the entire-sample volatility regression: positive and
    # significant on negative sentiment, nothing on positive sentiment
    return ScenarioConfig(
        alpha=1.55,
        coefficients={"I": 0.0, "Pos": 0.0, "Neg": 0.9, "R_M": -1.5, "VIX": 0.0, "ret_t": 1.65},
        vix_value=0.2,
        residual_pool=rng.normal(0, 0.05, 2000),
        n_days=800,
        rng_seed=seed,
        sentiment_models=models,
        residual_model=residual_model,
    )


def test_criterion_12_asymmetry_reproduction():
    wins = 0
    for seed in range(20):
        panel = simulate_scenario(_asymmetry_scenario(seed))
        pos_x, pos_y = panel.scatter("pos")
        neg_x, neg_y = panel.scatter("neg")
        lo = float(min(pos_x.min(), neg_x.min()))
        hi = float(max(pos_x.max(), neg_x.max()))
        grid = np.linspace(lo, hi, 101)
        fits = {}
        for which, (xs, ys) in (("pos", (pos_x, pos_y)), ("neg", (neg_x, neg_y))):
            h = plugin_bandwidth(xs, ys)
            fits[which] = uniform_band(
                local_linear_fit(xs, ys, h, grid), xs, ys,
                level=0.95, n_boot=200, rng_seed=seed * 7 + 1,
            )
        intervals = band_overlap_region(fits["pos"], fits["neg"])
        midpoint = (lo + hi) / 2
        wins += any(end > midpoint for _, end in intervals)
    assert wins >= 18
    report(12, f"band separation on the upper sentiment range in {wins}/20 seeded runs")
