"""Command line pipeline: distill, indicators, panel, simulate, lexstats, report.

Every subcommand is a pure function of (inputs, config, seed); outputs are
written atomically and re-runs are byte-identical.  Exit codes: 0 success,
2 input error, 3 numerical failure; errors print one machine-readable
"ERROR <CODE>: detail" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import figures, indicators as ind_mod, lexicon as lex_mod, sentiment as sent_mod
from ._util import (
    FLOAT,
    FLOAT_OR_BLANK,
    INT,
    KEY,
    SymbolDayArray,
    atomic_write_text,
    column_codes,
    numbers,
    read_csv_columns,
    reject,
    reject_repeats,
    split_seed,
    write_csv,
)
from .config import SETTINGS, RunConfig, config_fingerprint, load_config
from .corpus import TradingCalendar
from .errors import InputError, InvalidValue, LexiconNotFound, MissingComponent, MissingInput, NewsflowError, NumericalError
from .indicators import INDICATOR_FIELDS
from .panel import (
    ClusterMode,
    MarketSeries,
    PanelInputs,
    compute_attention_groups,
    format_suite_table,
    run_specification_suite,
    suite_rows,
)
from .simulate import (
    ScenarioConfig,
    band_overlap_region,
    build_residual_model,
    build_sentiment_models,
    local_linear_fit,
    plugin_bandwidth,
    simulate_scenario,
    uniform_band,
)
from .simulate.scenario import SIMULATION_COEFFICIENTS

SENTIMENT_CSV = "sentiment.csv"
INDICATORS_CSV = "indicators.csv"
RESULTS_CSV = "results_entire.csv"  # simulate reads the entire suite's h = 1 cells

# the columns, and their kinds, of the stage files one command writes and another reads
SENTIMENT_KINDS = {"symbol": KEY, "date": KEY, "lexicon": KEY, "I": INT, "pos": FLOAT, "neg": FLOAT, "n_articles": INT}
INDICATORS_KINDS = {"symbol": KEY, "date": KEY, **dict.fromkeys(INDICATOR_FIELDS, FLOAT_OR_BLANK)}
RESULTS_KINDS = {"spec": KEY, "variable": KEY, "estimate": FLOAT_OR_BLANK, "std_error": FLOAT_OR_BLANK,
                 "p_value": FLOAT_OR_BLANK, "stars": KEY}
RESIDUALS_KINDS = {"symbol": KEY, "day": INT, "residual": FLOAT}


def _columns(rows: list[tuple], width: int) -> list[tuple]:
    """Row tuples of `width` cells as `width` columns."""
    return list(zip(*rows)) or [()] * width


def _write_manifest(config: RunConfig, command: str, inputs: list[Path]) -> None:
    manifest = config_fingerprint(config, inputs)
    manifest["command"] = command
    path = config.output_dir / f"manifest_{command}.json"
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_lexica(config: RunConfig) -> dict[str, lex_mod.Lexicon]:
    if not config.lexicons:
        raise LexiconNotFound("no lexicons configured")
    lexica = {}
    for source in config.lexicons:
        if source.kind == "wordlists":
            entries = lex_mod.load_wordlist(source.paths[0], lex_mod.Polarity.POSITIVE)
            entries += lex_mod.load_wordlist(source.paths[1], lex_mod.Polarity.NEGATIVE)
        else:
            entries, _ = lex_mod.parse_mpqa_file(source.paths[0])
        lexica[source.name] = lex_mod.build_lexicon(source.name, entries)
    return lexica


def _load_corpus(config: RunConfig) -> corpus_mod.ArticleSet:
    """The configured corpus, kept to [corpus] symbols if any are listed."""
    articles = corpus_mod.load_articles(config.corpus_path, config.corpus_format)
    if config.symbols:
        articles = corpus_mod.filter_by_symbols(articles, config.symbols)
    return articles


def cmd_distill(config: RunConfig) -> int:
    calendar = TradingCalendar.from_file(config.calendar_path)
    assigned = corpus_mod.assign_trading_days(_load_corpus(config), calendar, config.day_boundary)
    lexica = _load_lexica(config)

    universe = sorted(config.symbols) if config.symbols else sorted(assigned.symbols)
    row_of = {symbol: row for row, symbol in enumerate(universe)}
    n_days = len(calendar)
    names = sorted(lexica)
    index = sent_mod.build_scoring_index([lexica[name] for name in names])

    # one mention per (scored article, symbol of the universe), in article order
    cells, mentioned, word_counts, counts = [], [], [], []
    zero_word = 0
    for article, day in zip(assigned.articles, assigned.days):
        if day is None:
            continue
        tok = sent_mod.tokenize(article.title + ". " + article.body)
        if tok.word_count == 0:
            zero_word += 1
            continue
        for symbol in article.symbols & row_of.keys():
            cells.append(row_of[symbol] * n_days + day)
            mentioned.append(len(word_counts))
        word_counts.append(tok.word_count)
        counts.append(sent_mod.score_article(tok, index, config.negation))
    # (article, lexicon, pos/neg) proportions, one row per mention
    props = (np.reshape(counts, (-1, len(names), 2)) / np.reshape(word_counts, (-1, 1, 1)))[mentioned]
    values = [
        sent_mod.aggregate_daily(cells, props[:, k, 0], props[:, k, 1], universe, n_days)
        .values.reshape(len(sent_mod.SENTIMENT_FIELDS), -1)
        for k in range(len(names))
    ]
    active, pos, neg, n_articles = np.concatenate(values, axis=1)
    n_cells = len(universe) * n_days
    write_csv(config.output_dir / SENTIMENT_CSV, SENTIMENT_KINDS, [
        [symbol for symbol in universe for _ in range(n_days)] * len(names),
        [day.isoformat() for day in calendar.days] * len(universe) * len(names),
        [name for name in names for _ in range(n_cells)],
        active, pos, neg, n_articles,
    ])
    _write_manifest(config, "distill", [config.corpus_path, config.calendar_path])
    print(f"articles={len(assigned)} assigned={len(assigned) - assigned.unassigned_count} "
          f"unassigned={assigned.unassigned_count} zero_word={zero_word} rows={n_cells * len(names)}")
    return 0


def cmd_indicators(config: RunConfig) -> int:
    calendar = TradingCalendar.from_file(config.calendar_path)
    bars = ind_mod.load_market_bars(config.prices_path, calendar)
    indicators, warnings = ind_mod.compute_indicators(bars, window=config.detrend_window)

    # one row per bar, by symbol, then day
    symbol_of, day_of = np.nonzero(~np.isnan(bars.plane("close")))
    dates = [day.isoformat() for day in calendar.days]
    write_csv(config.output_dir / INDICATORS_CSV, INDICATORS_KINDS, [
        [bars.symbols[i] for i in symbol_of.tolist()],
        [dates[t] for t in day_of.tolist()],
        *(plane[symbol_of, day_of] for plane in indicators.values),
    ])
    _write_manifest(config, "indicators", [config.prices_path, config.calendar_path])
    print(f"rows={len(symbol_of)} degenerate_bars={warnings.degenerate_bars} "
          f"zero_volume={warnings.zero_volume_days} warmup={warnings.warmup_days}")
    return 0


def _read_sentiment_csv(path: Path, calendar: TradingCalendar) -> dict[str, SymbolDayArray]:
    """One SENTIMENT_FIELDS array per lexicon, on the symbols that lexicon's rows name."""
    if not path.exists():
        raise MissingInput(f"sentiment output not found: {path} (run distill first)")

    def convert(columns):
        day = calendar.days_of(columns["date"], lambda cell, date: f"sentiment date {cell} not in calendar")
        symbols, symbol = column_codes(columns["symbol"])
        lexica, lexicon = column_codes(columns["lexicon"])
        reject_repeats((lexicon * len(symbols) + symbol) * len(calendar) + day, lambda row: (
            f"duplicate sentiment row for {columns['lexicon'][row]} {columns['symbol'][row]} {columns['date'][row]}"
        ))
        active, n_articles = numbers(columns["I"]), numbers(columns["n_articles"])

        def counts(row):
            return columns["I"].integer(row), columns["n_articles"].integer(row)

        reject(n_articles < 0, lambda row: f"negative sentiment n_articles {counts(row)[1]}")
        reject(active != (n_articles > 0), lambda row: (
            "sentiment I={} with n_articles={}; I is 1 exactly when n_articles > 0".format(*counts(row))
        ))
        pos, neg = numbers(columns["pos"]), numbers(columns["neg"])

        def shares(row):
            return f"pos={pos[row].item()!r} and neg={neg[row].item()!r}"

        reject(~((0 <= pos) & (pos <= 1) & (0 <= neg) & (neg <= 1)),
               lambda row: f"sentiment {shares(row)} must lie in [0, 1]")
        reject((active == 0) & ((pos != 0) | (neg != 0)),
               lambda row: f"sentiment I=0 with {shares(row)}; a day without articles has no sentiment")
        values = np.stack([active, pos, neg, n_articles])
        out = {}
        for code, name in enumerate(lexica):
            rows = lexicon == code
            present, symbol_index = np.unique(symbol[rows], return_inverse=True)
            out[name] = SymbolDayArray.from_columns(
                sent_mod.SENTIMENT_FIELDS, [symbols[i] for i in present.tolist()], symbol_index,
                day[rows], values[:, rows], len(calendar),
            )
        return out

    sentiment = read_csv_columns(path, SENTIMENT_KINDS, convert)
    if not sentiment:
        raise MissingInput(f"sentiment file {path} is empty")
    return sentiment


def _read_indicators_csv(path: Path, calendar: TradingCalendar) -> SymbolDayArray:
    if not path.exists():
        raise MissingInput(f"indicator output not found: {path} (run indicators first)")

    def convert(columns):
        day = calendar.days_of(columns["date"], lambda cell, date: f"indicator date {cell} not in calendar")
        symbols, symbol = column_codes(columns["symbol"])
        reject_repeats(symbol * len(calendar) + day,
                       lambda row: f"duplicate indicator row for {columns['symbol'][row]} {columns['date'][row]}")
        values = np.stack([numbers(columns[name]) for name in INDICATOR_FIELDS])
        return SymbolDayArray.from_columns(INDICATOR_FIELDS, symbols, symbol, day, values, len(calendar))

    return read_csv_columns(path, INDICATORS_KINDS, convert)


def _load_sectors(path: Path) -> dict[str, str]:
    def convert(columns):
        symbols = columns["symbol"].map(str.upper)
        reject_repeats(column_codes(symbols)[1], lambda row: f"duplicate sector row for {symbols[row]}")
        return dict(zip(symbols, columns["sector"]))

    return read_csv_columns(path, {"symbol": KEY, "sector": KEY}, convert)


def _panel_inputs(config: RunConfig, need_sectors: bool) -> tuple[TradingCalendar, PanelInputs]:
    calendar = TradingCalendar.from_file(config.calendar_path)
    sentiment = _read_sentiment_csv(config.output_dir / SENTIMENT_CSV, calendar)
    indicators = _read_indicators_csv(config.output_dir / INDICATORS_CSV, calendar)
    market = MarketSeries.from_csv(config.market_path, calendar)
    sectors = None
    if need_sectors:
        if config.sectors_path is None:
            raise MissingInput("sector suite requires a sectors CSV")
        sectors = _load_sectors(config.sectors_path)
    return calendar, PanelInputs(sentiment=sentiment, indicators=indicators, market=market, sectors=sectors)


def cmd_panel(config: RunConfig) -> int:
    calendar, inputs = _panel_inputs(config, need_sectors="sector" in config.suites)
    cluster = ClusterMode(config.cluster_mode)

    for suite in config.suites:
        cells = run_specification_suite(inputs, suite, h=config.lag_h, cluster_mode=cluster)
        write_csv(config.output_dir / f"results_{suite}.csv", RESULTS_KINDS,
                  _columns(suite_rows(cells), len(RESULTS_KINDS)))
        atomic_write_text(config.output_dir / f"table_{suite}.txt", format_suite_table(cells))
        if suite == "entire":
            for cell in cells:
                if cell.result is None or cell.spec.dependent != "log_vol":
                    continue
                res = cell.result
                write_csv(config.output_dir / f"residuals_log_vol_{cell.spec.projection}.csv", RESIDUALS_KINDS,
                          [np.array(res.symbols)[res.entities].tolist(), res.times, res.residuals])
        fitted = [c.result for c in cells if c.result is not None]
        repaired = sum(res.psd_repaired for res in fitted)
        low_rank = sum(res.covariance_rank < len(res.coef_names) for res in fitted)
        print(f"suite={suite} cells={len(cells)} fitted={len(fitted)} "
              f"psd_repaired={repaired} low_rank={low_rank}")

    _write_manifest(config, "panel", [config.market_path,
                                      config.output_dir / SENTIMENT_CSV,
                                      config.output_dir / INDICATORS_CSV])
    return 0


def _read_entire_coefficients(path: Path, projection: str) -> tuple[float, dict[str, float]]:
    """The intercept and SIMULATION_COEFFICIENTS of the projection's log_vol h = 1 cell.

    A blank or missing estimate of any of them is a MissingInput.
    """
    if not path.exists():
        raise MissingInput(f"panel results not found: {path} (run panel first)")
    wanted = f"log_vol/{projection}/h=1"
    estimates = read_csv_columns(
        path, {name: RESULTS_KINDS[name] for name in ("spec", "variable", "estimate")},
        lambda columns: {
            variable: estimate
            for spec, variable, estimate in zip(
                columns["spec"], columns["variable"], numbers(columns["estimate"]).tolist()
            )
            if spec == wanted
        },
    )
    if not estimates:
        raise MissingInput(f"no fitted coefficients for spec {wanted!r} in {path}")
    for name in ("(intercept)", *SIMULATION_COEFFICIENTS):
        if math.isnan(estimates.get(name, math.nan)):
            raise MissingInput(f"no estimate of {name} for spec {wanted!r} in {path}")
    return estimates["(intercept)"], {name: estimates[name] for name in SIMULATION_COEFFICIENTS}


def _read_residual_pool(path: Path) -> np.ndarray:
    if not path.exists():
        raise MissingInput(f"residual file not found: {path} (run panel first)")
    values = read_csv_columns(path, {"residual": RESIDUALS_KINDS["residual"]},
                              lambda columns: numbers(columns["residual"]))
    if not len(values):
        raise MissingInput(f"residual file {path} is empty")
    return values


BAND_BYTES = 1 << 30  # the largest float64 array one band may allocate


def _check_band_size(config: RunConfig, n_symbols: int) -> None:
    """Refuse sizes whose band arrays would exceed BAND_BYTES, before anything is fitted or allocated.

    A band has at most n = symbols × n_days points on m <= n distinct x
    values.  Its largest float64 arrays are the m × n_boot bootstrap
    multipliers, the grid_points × m weights that contract them and the
    grid_points × n_boot deviations.  m is known only after the simulation,
    so n stands in for it.
    """
    n_days, n_boot, grid = config.sim_n_days, config.sim_n_boot, config.sim_grid_points
    n = n_symbols * n_days
    # the largest array, and the settings that size it
    size, fields = max((8 * n * n_boot, ("sim_n_days", "sim_n_boot")),
                       (8 * grid * n, ("sim_n_days", "sim_grid_points")),
                       (8 * grid * n_boot, ("sim_n_boot", "sim_grid_points")))
    if size > BAND_BYTES:
        # a flag that set one of those sizes is named, as for any other refused value
        flagged = [field for field in fields if config.keys[field].startswith("--")]
        key = ", ".join(config.keys[field] for field in flagged) or "[simulate] n_days, n_boot, grid_points"
        values = ", ".join(str(getattr(config, field)) for field in flagged) or f"{n_days}, {n_boot}, {grid}"
        raise InvalidValue(
            key,
            f"{values} (a band over {n_symbols} symbols needs an array of {size} bytes, above {BAND_BYTES})",
        )


def cmd_simulate(config: RunConfig) -> int:
    _, inputs = _panel_inputs(config, need_sectors=False)
    sentiment, market = inputs.sentiment, inputs.market

    market_finite = market.market_return[np.isfinite(market.market_return)]
    if len(market_finite) != len(market.market_return):
        raise InputError("market return series has gaps")
    vix_mean = float(np.mean(market.vix[np.isfinite(market.vix)]))

    # read every panel output before the GARCH fits, so that a missing file fails fast
    projections = list(config.sim_projections) if config.sim_projections else sorted(sentiment)
    for projection in projections:
        if projection not in sentiment:
            raise MissingInput(f"no sentiment records for projection {projection!r}")
    _check_band_size(config, max(len(sentiment[projection].symbols) for projection in projections))
    panel_outputs = {}
    for projection in projections:
        panel_outputs[projection] = (
            _read_entire_coefficients(config.output_dir / RESULTS_CSV, projection),
            _read_residual_pool(config.output_dir / f"residuals_log_vol_{projection}.csv"),
        )

    returns_by_symbol = dict(zip(inputs.indicators.symbols, inputs.indicators.plane("ret")))
    residual_model, skipped = build_residual_model(market.market_return, returns_by_symbol)
    if skipped:
        print(f"skipped_returns={','.join(skipped)}")

    for projection in projections:
        (alpha, coefficients), pool = panel_outputs[projection]
        models, diagnostics = build_sentiment_models(sentiment[projection], min_active=config.sim_min_active)
        models = [m for m in models if m.symbol in residual_model.labels]
        if not models:
            most = int((sentiment[projection].plane("active") == 1).sum(axis=1).max())
            raise MissingComponent(
                "sentiment models",
                f"for projection {projection!r}: no symbol with return residuals has at least "
                f"{config.keys['sim_min_active']} = {config.sim_min_active} active days "
                f"(the most of any symbol is {most})",
            )
        scenario = ScenarioConfig(
            alpha=alpha,
            coefficients=coefficients,
            vix_value=vix_mean,
            residual_pool=pool,
            n_days=config.sim_n_days,
            rng_seed=split_seed(config.seed, f"scenario:{projection}"),
            sentiment_models=tuple(models),
            residual_model=residual_model,
        )
        panel = simulate_scenario(scenario)

        pos_x, pos_y = panel.scatter("pos")
        neg_x, neg_y = panel.scatter("neg")
        # both bandwidths first: each side needs 20 points and two x values
        # (TooFewPoints, DegenerateX) before the grid spans their supports
        bandwidths = {"pos": plugin_bandwidth(pos_x, pos_y), "neg": plugin_bandwidth(neg_x, neg_y)}
        lo = float(min(pos_x.min(), neg_x.min()))
        hi = float(max(pos_x.max(), neg_x.max()))
        grid = np.linspace(lo, hi, config.sim_grid_points)

        fits = {}
        for which, (x, y) in (("pos", (pos_x, pos_y)), ("neg", (neg_x, neg_y))):
            fit = local_linear_fit(x, y, bandwidths[which], grid)
            fits[which] = uniform_band(
                fit, x, y, level=0.95, n_boot=config.sim_n_boot,
                rng_seed=split_seed(config.seed, f"band:{projection}:{which}"),
            )
        overlap = band_overlap_region(fits["pos"], fits["neg"])

        # by symbol, then day
        n_symbols, n_days = panel.active.shape
        write_csv(
            config.output_dir / f"simulated_{projection}.csv",
            {"symbol": KEY, "day": INT, "I": INT, "pos": FLOAT, "neg": FLOAT, "r_m": FLOAT, "r_i": FLOAT,
             "log_vol": FLOAT},
            [[symbol for symbol in panel.symbols for _ in range(n_days)], np.tile(np.arange(n_days), n_symbols),
             panel.active.ravel(), panel.pos.ravel(), panel.neg.ravel(), np.tile(panel.market_return, n_symbols),
             panel.firm_return.ravel(), panel.log_vol.ravel()],
        )
        grid, fitted, lower, upper = (
            np.concatenate([getattr(fits[which], name) for which in ("pos", "neg")])
            for name in ("grid", "curve", "band_lower", "band_upper")
        )
        write_csv(
            config.output_dir / f"curves_{projection}.csv",
            {"curve": KEY, "grid": FLOAT, "fitted": FLOAT_OR_BLANK, "band_lower": FLOAT_OR_BLANK,
             "band_upper": FLOAT_OR_BLANK},
            [
                [which for which in ("pos", "neg") for _ in fits[which].grid],
                grid,
                *(np.where(np.isfinite(v), v, np.nan) for v in (fitted, lower, upper)),
            ],
        )
        write_csv(config.output_dir / f"overlap_{projection}.csv", {"start": FLOAT, "end": FLOAT},
                  _columns(overlap, 2))
        svg = figures.scatter_band_figure(
            f"Simulated volatility vs sentiment ({projection})",
            (pos_x, pos_y), (neg_x, neg_y), fits["pos"], fits["neg"],
            x_range=config.plot_x_range, y_range=config.plot_y_range,
        )
        atomic_write_text(config.output_dir / f"figure_{projection}.svg", svg)
        bands = " ".join(f"band_{which}={fit.n_points}/{fit.n_distinct}" for which, fit in fits.items())
        print(f"projection={projection} symbols={len(models)} "
              f"skipped_sentiment={len(diagnostics.skipped_symbols)} "
              f"nonoverlap_intervals={len(overlap)} {bands}")

    _write_manifest(config, "simulate", [config.market_path,
                                         config.output_dir / SENTIMENT_CSV,
                                         config.output_dir / INDICATORS_CSV,
                                         config.output_dir / RESULTS_CSV])
    return 0


def cmd_lexstats(config: RunConfig) -> int:
    articles = _load_corpus(config)
    lexica = _load_lexica(config)

    freq = lex_mod.corpus_frequencies(
        sent_mod.tokenize(article.title + ". " + article.body).sentences for article in articles.articles
    )

    rows = []
    names = sorted(lexica)
    for i, name_a in enumerate(names):
        for name_b in names[i + 1 :]:
            report = lex_mod.compare_lexica(
                lexica[name_a], lexica[name_b], freq, min_count=config.lexstats_min_count
            )
            for category, table in (
                (f"unique_to_{name_a}", report.unique_to_a),
                (f"unique_to_{name_b}", report.unique_to_b),
                ("shared", report.shared),
            ):
                for polarity in (lex_mod.Polarity.POSITIVE, lex_mod.Polarity.NEGATIVE):
                    for rank, word in enumerate(table[polarity][: config.lexstats_top], 1):
                        rows.append((
                            f"{name_a}-{name_b}", polarity.value, category,
                            rank, word, freq.get(word, 0),
                        ))
    write_csv(
        config.output_dir / "lexstats.csv",
        {"pair": KEY, "polarity": KEY, "category": KEY, "rank": INT, "word": KEY, "frequency": INT},
        _columns(rows, 6),
    )
    _write_manifest(config, "lexstats", [config.corpus_path])
    print(f"pairs={len(names) * (len(names) - 1) // 2} rows={len(rows)}")
    return 0


def cmd_report(config: RunConfig) -> int:
    calendar = TradingCalendar.from_file(config.calendar_path)
    sentiment = _read_sentiment_csv(config.output_dir / SENTIMENT_CSV, calendar)
    # the grouping refuses fewer than 4 symbols: find that out before any file is written
    first = sentiment[sorted(sentiment)[0]]
    ratios, groups = compute_attention_groups(first)

    summary_rows = []
    for name in sorted(sentiment):
        summary = sent_mod.sentiment_summary(sentiment[name])
        for side, stats_ in (("pos", summary.pos), ("neg", summary.neg)):
            summary_rows.append((
                name, side, summary.n_active, stats_.mean, stats_.sd, stats_.maximum,
                stats_.q1, stats_.q2, stats_.q3,
                summary.share_pos_dominant if side == "pos" else summary.share_neg_dominant,
            ))
    write_csv(
        config.output_dir / "report_summary.csv",
        {"lexicon": KEY, "side": KEY, "n_active": INT,
         **dict.fromkeys(("mean", "sd", "max", "q1", "q2", "q3", "dominance_share"), FLOAT_OR_BLANK)},
        _columns(summary_rows, 10),
    )

    month_of_day = {day: calendar.month_of(day) for day in range(len(calendar))}
    correlations = sent_mod.monthly_lexicon_correlation(sentiment, month_of_day)
    corr_rows = []
    for (name_a, name_b), series in sorted(correlations.items()):
        for (year, month), (pos_corr, neg_corr) in sorted(series.items()):
            corr_rows.append((name_a, name_b, year, month, pos_corr, neg_corr))
    write_csv(
        config.output_dir / "report_monthly_correlation.csv",
        {"lexicon_a": KEY, "lexicon_b": KEY, "year": INT, "month": INT,
         "pos_correlation": FLOAT_OR_BLANK, "neg_correlation": FLOAT_OR_BLANK},
        _columns(corr_rows, 6),
    )
    write_csv(
        config.output_dir / "report_attention.csv",
        {"symbol": KEY, "attention_ratio": FLOAT, "group": KEY},
        [first.symbols, ratios, [groups[symbol].value for symbol in first.symbols]],
    )
    _write_manifest(config, "report", [config.output_dir / SENTIMENT_CSV])
    print(f"lexica={len(sentiment)} correlation_rows={len(corr_rows)} symbols={len(first.symbols)}")
    return 0


COMMANDS = {
    "distill": cmd_distill,
    "indicators": cmd_indicators,
    "panel": cmd_panel,
    "simulate": cmd_simulate,
    "lexstats": cmd_lexstats,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    """A parser that refuses a malformed command line with an InputError, not a usage block."""

    def error(self, message):
        raise InputError(message)


class _Once(argparse.Action):
    """Store a single-valued option's text; the option given twice is refused, not overridden."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"argument {option_string}: given more than once")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    """The command, the INI file and one text option per flagged setting; load_config parses the texts."""
    parser = _Parser(
        prog="newsflow",
        allow_abbrev=False,
        description="Distill news flow into sentiment variables and stock-reaction analytics.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", action=_Once, help="INI run configuration (default: newsflow.ini)")
    for setting in SETTINGS:
        if setting.flag:
            parser.add_argument(setting.flag, dest=setting.field, action="append" if setting.many else _Once,
                                metavar=setting.option.upper(),
                                help=f"overrides {setting.key}" + (" (repeatable)" if setting.many else ""))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config("newsflow.ini" if args.config is None else args.config, overrides=vars(args))
        return COMMANDS[args.command](config)
    except NumericalError as exc:
        print(f"ERROR {exc.error_code}: {exc}", file=sys.stderr)
        return 3
    except NewsflowError as exc:
        print(f"ERROR {exc.error_code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
