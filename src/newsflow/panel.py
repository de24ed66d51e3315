"""Panel assembly, within-estimator fixed effects, clustered covariance, PCA index.

The within estimator demeans all variables by entity, runs OLS on the
demeaned data, and recovers per-entity effects that sum to zero.  Cluster
covariance follows the sandwich construction with cluster-summed scores,
one-way by entity or time, or the two-way combination (entity + time -
heteroskedasticity-robust intersection term).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import special

from ._util import FLOAT, KEY, SymbolDayArray, numbers, read_csv_columns, reject_repeats
from .corpus import TradingCalendar
from .errors import (
    ConstantColumn,
    EmptyPanel,
    InputError,
    RankDeficient,
    SingleCluster,
    TooFewObservations,
)
from .indicators import INDICATOR_FIELDS, AttentionGroup, attention_groups, attention_ratio
from .sentiment import SENTIMENT_FIELDS

SENTIMENT_VARS = ("I", "Pos", "Neg")
CONTROL_VARS = ("R_M", "VIX", "log_vol_t", "ret_t", "dvol_t")
REGRESSOR_NAMES = SENTIMENT_VARS + CONTROL_VARS

DEPENDENTS = ("log_vol", "dvol", "ret")
PCA_NAME = "PCA"
SUITES = ("entire", "lags_noncumulative", "lags_cumulative", "attention", "sector")


class ClusterMode(enum.Enum):
    BY_ENTITY = "by_entity"
    BY_TIME = "by_time"
    TWO_WAY = "two_way"


@dataclass(frozen=True)
class MarketSeries:
    """Per trading day market return and risk-aversion level (NaN = missing)."""

    market_return: np.ndarray
    vix: np.ndarray

    @classmethod
    def from_csv(cls, path: str | Path, calendar: TradingCalendar) -> "MarketSeries":
        """One row per trading day; a date outside the calendar or repeated is an error."""

        def convert(columns):
            day = calendar.days_of(columns["date"], lambda cell, date: f"market date {date} not in trading calendar")
            reject_repeats(day, lambda row: f"duplicate market date {calendar.days[day[row]]}")
            ret = np.full(len(calendar), np.nan)
            vix = np.full(len(calendar), np.nan)
            ret[day] = numbers(columns["market_return"])
            vix[day] = numbers(columns["vix"])
            return cls(market_return=ret, vix=vix)

        return read_csv_columns(path, {"date": KEY, "market_return": FLOAT, "vix": FLOAT}, convert)


@dataclass(frozen=True)
class PanelSpec:
    dependent: str
    h: int = 1
    cumulative: bool = False
    projection: str = "BL"
    subsample: str | None = None

    @property
    def label(self) -> str:
        parts = [self.dependent, self.projection, f"h={self.h}"]
        if self.cumulative:
            parts.append("cumulative")
        if self.subsample:
            parts.append(self.subsample)
        return "/".join(parts)


@dataclass(frozen=True)
class PanelDataset:
    """One row per symbol-day, ordered by symbol, then day.

    `entities` holds each row's integer code into `symbols`, and `times` its
    nonnegative trading-day ordinal.  Every symbol has at least two rows.
    `x` has one column per regressor, ordered as REGRESSOR_NAMES for an
    assembled panel.
    """

    spec: PanelSpec
    entities: np.ndarray
    symbols: tuple[str, ...]
    times: np.ndarray
    y: np.ndarray
    x: np.ndarray
    dropped: Mapping[str, int] = field(default_factory=dict)

    @property
    def observations(self) -> np.recarray:
        """One (symbol, day, dependent, regressors) record per row."""
        symbol = np.array(self.symbols, dtype=str)[self.entities]
        dtype = [
            ("symbol", symbol.dtype), ("day", self.times.dtype),
            ("dependent", float), ("regressors", float, self.x.shape[1:]),
        ]
        return np.rec.fromarrays([symbol, self.times, self.y, self.x], dtype=dtype)


def assemble_panel(
    sentiment: SymbolDayArray,
    indicators: SymbolDayArray,
    market: MarketSeries,
    spec: PanelSpec,
    symbols: Iterable[str] | None = None,
) -> PanelDataset:
    """Align day-(t+h) outcomes with day-t regressors, listwise-deleting gaps.

    `sentiment` holds SENTIMENT_FIELDS and `indicators` INDICATOR_FIELDS on
    one symbol axis and, with `market`, on one calendar; `symbols` selects
    its rows.  The outcome is a column shift by h.  Cumulative specs pool the
    sentiment variables over days t..t+h-1; all control variables stay dated
    t.  The panel's symbols are the selected ones that keep rows, in axis
    order (sorted, on the axes of the stage-file readers and the suites), and
    each row's entity code is its symbol's index among them.  A panel
    without rows is an EmptyPanel.
    """
    n_days = sentiment.values.shape[2]
    names = sentiment.symbols
    rows: slice | list[int] = slice(None)
    if symbols is not None:
        wanted = {s.upper() for s in symbols}
        rows = [i for i, sym in enumerate(names) if sym in wanted]
        names = tuple(names[i] for i in rows)
    active, pos, neg, n_articles = sentiment.values[:, rows]
    log_vol, dvol, ret = indicators.values[:, rows]
    h = spec.h
    span = max(n_days - h, 0)  # regressor days t = 0 .. n_days-h-1
    dependent = {"log_vol": log_vol, "dvol": dvol, "ret": ret}[spec.dependent][:, h:]
    if spec.cumulative and h > 1:
        # summed slice by slice in day order, as the tests' reference
        # cumulative_record sums its window; n is NaN where a day of the
        # window has no record, and so is sign(n)
        windows = [slice(lag, lag + span) for lag in range(h)]
        n = sum(n_articles[:, w] for w in windows)
        pos_sum = sum(n_articles[:, w] * pos[:, w] for w in windows)
        neg_sum = sum(n_articles[:, w] * neg[:, w] for w in windows)
        sentiment = [
            np.sign(n),
            np.divide(pos_sum, n, out=np.zeros_like(n), where=n > 0),
            np.divide(neg_sum, n, out=np.zeros_like(n), where=n > 0),
        ]
    else:
        sentiment = [active[:, :span], pos[:, :span], neg[:, :span]]
    columns = np.stack([
        dependent, *sentiment,
        np.broadcast_to(market.market_return[:span], dependent.shape),
        np.broadcast_to(market.vix[:span], dependent.shape),
        log_vol[:, :span], ret[:, :span], dvol[:, :span],
    ], axis=-1)

    complete = ~np.isnan(columns).any(axis=-1)
    per_symbol = complete.sum(axis=1)
    has_rows = per_symbol >= 2
    keep = complete & has_rows[:, None]
    dropped = {
        "missing_field": int(complete.size - complete.sum()),
        "singleton_entity": int(per_symbol[~has_rows].sum()),
    }
    kept_rows, times = np.nonzero(keep)
    if not len(times):
        raise EmptyPanel(spec.label)
    kept = columns[keep]
    return PanelDataset(
        spec=spec,
        entities=(np.cumsum(has_rows) - 1)[kept_rows],
        symbols=tuple(itertools.compress(names, has_rows.tolist())),
        times=times,
        y=kept[:, 0],
        x=kept[:, 1:],
        dropped=dropped,
    )


@dataclass(frozen=True)
class RegressionResult:
    spec: PanelSpec
    coef_names: tuple[str, ...]
    coefficients: np.ndarray
    alpha: float
    fixed_effects: Mapping[str, float]
    covariance: np.ndarray
    std_errors: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    entity_counts: Mapping[str, int]
    df: int
    # below len(coef_names) when the covariance is singular, as with fewer
    # clusters than regressors; the t tests then rest on a singular covariance
    covariance_rank: int
    psd_repaired: bool = False
    # the panel's rows: entity codes into `symbols`, and trading days
    entities: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    symbols: tuple[str, ...] = field(repr=False, default=())
    times: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.coef_names.index(name)])

    def std_error(self, name: str) -> float:
        return float(self.std_errors[self.coef_names.index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self.coef_names.index(name)])


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def _collinear_columns(x: np.ndarray, names: Sequence[str]) -> list[str]:
    """Columns that add no rank beyond their predecessors (after demeaning)."""
    bad = []
    rank_prev = 0
    for j in range(x.shape[1]):
        rank_j = np.linalg.matrix_rank(x[:, : j + 1])
        if rank_j == rank_prev:
            bad.append(names[j])
        rank_prev = rank_j
    return bad or list(names)


def _group_sums(values: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sums of `values` rows per group of nonnegative integer labels.

    Returns (sorted labels that occur, each row's label index, rows per label,
    sums).  One np.bincount adds each sum's terms in row order, as np.add.at
    does, so the sums are the same to the bit.
    """
    counts = np.bincount(groups)
    labels = np.flatnonzero(counts)
    inverse = groups
    if len(labels) < len(counts):  # number the labels that occur from 0
        inverse = (np.cumsum(counts > 0) - 1)[groups]
        counts = counts[labels]
    width = values[:1].size
    cells = (inverse[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(cells, weights=values.ravel(), minlength=len(labels) * width)
    return labels, inverse, counts, sums.reshape((len(labels),) + values.shape[1:])


def _demean_by_group(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    _, inverse, counts, sums = _group_sums(values, groups)
    return values - (sums.T / counts).T[inverse]


def fit_fixed_effects(
    panel: PanelDataset,
    coef_names: Sequence[str] = REGRESSOR_NAMES,
    cluster_mode: ClusterMode = ClusterMode.TWO_WAY,
) -> RegressionResult:
    """Within estimator with cluster-robust covariance."""
    y, x, entities, times = panel.y, panel.x, panel.entities, panel.times
    n, k = x.shape
    if n <= k:
        raise TooFewObservations(f"{n} observations for {k} regressors")

    y_dm = _demean_by_group(y, entities)
    x_dm = _demean_by_group(x, entities)

    # lstsq's rank uses matrix_rank's threshold: singular values above eps * max(n, k) * the largest
    beta, _, rank, _ = np.linalg.lstsq(x_dm, y_dm, rcond=None)
    if rank < k:
        raise RankDeficient(_collinear_columns(x_dm, coef_names))

    _, inverse, counts, sums = _group_sums(y - x @ beta, entities)
    a = sums / counts
    alpha = float(a.mean())
    gamma = a - alpha
    residuals = y - alpha - x @ beta - gamma[inverse]

    cov, df, repaired, cov_rank = _cluster_covariance_arrays(
        x_dm, residuals, entities, times, cluster_mode, k
    )
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero SE (possible after a PSD repair) supports no test: p is missing
        tstat = np.where(se > 0, beta / se, np.nan)
    p = 2.0 * special.stdtr(df, -np.abs(tstat))

    return RegressionResult(
        spec=panel.spec,
        coef_names=tuple(coef_names),
        coefficients=beta,
        alpha=alpha,
        # every code into panel.symbols has rows, so the labels are 0, 1, ...
        fixed_effects=dict(zip(panel.symbols, gamma.tolist())),
        covariance=cov,
        std_errors=se,
        p_values=p,
        residuals=residuals,
        entity_counts=dict(zip(panel.symbols, counts.tolist())),
        df=df,
        covariance_rank=cov_rank,
        psd_repaired=repaired,
        entities=entities,
        symbols=panel.symbols,
        times=times,
    )


def _sandwich(x: np.ndarray, u: np.ndarray, groups: np.ndarray | None, k: int) -> np.ndarray:
    """Cluster sandwich on the scores summed per group; with no groups each row is a cluster."""
    n = len(u)
    scores = x * u[:, None]
    if groups is not None:
        _, _, _, scores = _group_sums(scores, groups)
    n_groups = len(scores)
    bread = np.linalg.inv(x.T @ x)
    factor = (n_groups / (n_groups - 1)) * ((n - 1) / (n - k))
    return factor * bread @ (scores.T @ scores) @ bread


def _cluster_covariance_arrays(
    x_dm: np.ndarray,
    residuals: np.ndarray,
    entities: np.ndarray,
    times: np.ndarray,
    mode: ClusterMode,
    k: int,
) -> tuple[np.ndarray, int, bool, int]:
    """Cluster covariance, its t degrees of freedom, whether it was repaired to
    be positive semi-definite, and its rank.

    `entities` and `times` are nonnegative integer labels; a cluster count is
    the number of labels that occur.
    """
    n_ent = int(np.count_nonzero(np.bincount(entities)))
    n_time = int(np.count_nonzero(np.bincount(times)))
    if mode is ClusterMode.BY_ENTITY:
        if n_ent < 2:
            raise SingleCluster("need >= 2 entity clusters")
        cov, df = _sandwich(x_dm, residuals, entities, k), n_ent - 1
    elif mode is ClusterMode.BY_TIME:
        if n_time < 2:
            raise SingleCluster("need >= 2 time clusters")
        cov, df = _sandwich(x_dm, residuals, times, k), n_time - 1
    else:
        if n_ent < 2 or n_time < 2:
            raise SingleCluster("two-way clustering needs >= 2 clusters per dimension")
        cov = (
            _sandwich(x_dm, residuals, entities, k)
            + _sandwich(x_dm, residuals, times, k)
            - _sandwich(x_dm, residuals, None, k)
        )
        df = min(n_ent, n_time) - 1

    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() < 0:
        cov = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    # An eigenvalue within rounding of zero relative to the largest one (a meat
    # of rank below k, as with fewer clusters than regressors) adds no rank, and
    # a negative one is clipped but is no repair.
    tolerance = len(eigvals) * np.finfo(float).eps * np.abs(eigvals).max()
    repaired = bool(eigvals.min() < -tolerance)
    rank = int((eigvals > tolerance).sum())
    return cov, df, repaired, rank


# PCA sentiment index -----------------------------------------------------

@dataclass(frozen=True)
class SentimentIndex:
    loadings: np.ndarray
    scores: np.ndarray
    explained_share: float


def pca_sentiment_index(matrix: np.ndarray, column_names: Sequence[str] = ("BL", "LM", "MPQA")) -> SentimentIndex:
    """First principal component of the column-standardized observation matrix."""
    matrix = np.asarray(matrix, dtype=float)
    means = matrix.mean(axis=0)
    sds = matrix.std(axis=0, ddof=1)
    for j, sd in enumerate(sds):
        if sd <= 0:
            raise ConstantColumn(f"column {column_names[j]!r} is constant")
    standardized = (matrix - means) / sds

    _, singular, vt = np.linalg.svd(standardized, full_matrices=False)
    eigenvalues = singular**2 / (matrix.shape[0] - 1)
    loadings = vt[0]
    if loadings.sum() < 0 or (loadings.sum() == 0 and loadings[np.nonzero(loadings)[0][0]] < 0):
        loadings = -loadings
    return SentimentIndex(
        loadings=loadings,
        scores=standardized @ loadings,
        explained_share=float(eigenvalues[0] / eigenvalues.sum()),
    )


def build_pca_records(
    sentiment: Mapping[str, SymbolDayArray],
) -> tuple[SymbolDayArray, SentimentIndex, SentimentIndex]:
    """Common-component sentiment across two or more projections on one symbol and day axis.

    Both indices are fitted on symbol-days with article arrival under every
    projection, in (symbol, day) order; there the array holds the scores and
    the first projection's article count.  Every other symbol-day of the
    first projection is inactive with zero sentiment; a symbol-day missing
    from the first projection stays missing.
    """
    names = sorted(sentiment)
    base = sentiment[names[0]]
    active = np.logical_and.reduce([sentiment[name].plane("active") == 1 for name in names])
    if active.sum() < 3:
        raise InputError("PCA index needs at least 3 active symbol-days")
    pos_index, neg_index = (
        pca_sentiment_index(np.column_stack([sentiment[name].plane(side)[active] for name in names]), names)
        for side in ("pos", "neg")
    )

    values = np.full(base.values.shape, np.nan)
    values[:, ~np.isnan(base.plane("active"))] = 0.0
    values[:, active] = [np.ones(len(pos_index.scores)), pos_index.scores, neg_index.scores,
                         base.plane("n_articles")[active]]
    return SymbolDayArray(SENTIMENT_FIELDS, base.symbols, values), pos_index, neg_index


# specification suites -----------------------------------------------------

@dataclass
class PanelInputs:
    """One SENTIMENT_FIELDS array per lexical projection and one INDICATOR_FIELDS array."""

    sentiment: Mapping[str, SymbolDayArray]
    indicators: SymbolDayArray
    market: MarketSeries
    sectors: Mapping[str, str] | None = None


@dataclass(frozen=True)
class SuiteCell:
    spec: PanelSpec
    result: RegressionResult | None
    error: str | None = None


def run_specification_suite(
    inputs: PanelInputs,
    suite: str,
    h: int = 1,
    cluster_mode: ClusterMode = ClusterMode.TWO_WAY,
) -> list[SuiteCell]:
    """One regression per (dependent x projection x subsample x lag) cell.

    `h` applies to the entire/attention/sector suites; the lag suites sweep
    h = 2..5 by construction.  Each projection and the indicators are put on
    the union of their symbols once, and every cell selects from them.
    """
    lexica = sorted(inputs.sentiment)
    universe = sorted(set(inputs.indicators.symbols).union(*(inputs.sentiment[name].symbols for name in lexica)))
    indicators = inputs.indicators.on(universe)
    projections = {name: inputs.sentiment[name].on(universe) for name in lexica}
    specs: list[tuple[PanelSpec, str, Iterable[str] | None]] = []

    if suite == "entire":
        names = list(lexica)
        if len(lexica) >= 2:
            projections[PCA_NAME], _, _ = build_pca_records(projections)
            names.append(PCA_NAME)
        for dependent in DEPENDENTS:
            for name in names:
                specs.append((PanelSpec(dependent, h, False, name), name, None))
    elif suite in ("lags_noncumulative", "lags_cumulative"):
        cumulative = suite == "lags_cumulative"
        for dependent in DEPENDENTS:
            for name in lexica:
                for lag in (2, 3, 4, 5):
                    specs.append((PanelSpec(dependent, lag, cumulative, name), name, None))
    elif suite == "attention":
        _, groups = compute_attention_groups(inputs.sentiment[lexica[0]])
        members: dict[AttentionGroup, list[str]] = {g: [] for g in AttentionGroup}
        for symbol, group in groups.items():
            members[group].append(symbol)
        for group in AttentionGroup:
            if not members[group]:
                continue
            for dependent in DEPENDENTS:
                for name in lexica:
                    spec = PanelSpec(dependent, h, False, name, subsample=group.value)
                    specs.append((spec, name, members[group]))
    elif suite == "sector":
        by_sector: dict[str, list[str]] = {}
        for symbol, sector in inputs.sectors.items():
            by_sector.setdefault(sector, []).append(symbol)
        for sector in sorted(by_sector):
            if len(by_sector[sector]) < 2:
                continue
            for dependent in DEPENDENTS:
                for name in lexica:
                    spec = PanelSpec(dependent, h, False, name, subsample=sector)
                    specs.append((spec, name, by_sector[sector]))

    cells = []
    for spec, name, symbols in specs:
        try:
            panel = assemble_panel(projections[name], indicators, inputs.market, spec, symbols=symbols)
            cells.append(SuiteCell(spec=spec, result=fit_fixed_effects(panel, cluster_mode=cluster_mode)))
        except (InputError, RankDeficient) as exc:
            cells.append(SuiteCell(spec=spec, result=None, error=f"{exc.error_code}: {exc}"))
    return cells


def compute_attention_groups(sentiment: SymbolDayArray) -> tuple[np.ndarray, dict[str, AttentionGroup]]:
    """Attention ratio, in symbol order, and attention group of each symbol of one projection's array."""
    ratios = attention_ratio(sentiment.plane("active"), sentiment.values.shape[2])
    return ratios, attention_groups(dict(zip(sentiment.symbols, ratios.tolist())))


def suite_rows(cells: Sequence[SuiteCell]) -> list[tuple[str, str, object, object, object, str]]:
    """Flat (spec, variable, estimate, se, p, stars) rows for CSV output."""
    rows: list[tuple[str, str, object, object, object, str]] = []
    for cell in cells:
        if cell.result is None:
            rows.append((cell.spec.label, "(error)", None, None, None, cell.error or ""))
            continue
        res = cell.result
        rows.append((cell.spec.label, "(intercept)", res.alpha, None, None, ""))
        for j, name in enumerate(res.coef_names):
            p = float(res.p_values[j])
            rows.append((
                cell.spec.label, name, float(res.coefficients[j]),
                float(res.std_errors[j]), p, significance_stars(p),
            ))
    return rows


def format_suite_table(cells: Sequence[SuiteCell]) -> str:
    """Monospace table: one block per dependent, columns per projection."""
    blocks: dict[tuple[str, int, bool, str | None], list[SuiteCell]] = {}
    for cell in cells:
        key = (cell.spec.dependent, cell.spec.h, cell.spec.cumulative, cell.spec.subsample)
        blocks.setdefault(key, []).append(cell)

    lines = []
    for key in sorted(blocks, key=lambda k: (k[0], k[1], k[2], k[3] or "")):
        dependent, h, cumulative, subsample = key
        block = blocks[key]
        title = f"dependent={dependent} h={h}" + (" cumulative" if cumulative else "")
        if subsample:
            title += f" subsample={subsample}"
        lines.append(title)
        header = ["variable"] + [cell.spec.projection for cell in block]
        widths = [22] + [24] * len(block)
        lines.append(" | ".join(name.ljust(w) for name, w in zip(header, widths)))
        var_names: tuple[str, ...] = ()
        for cell in block:
            if cell.result is not None:
                var_names = cell.result.coef_names
                break
        for name in var_names:
            row = [name.ljust(widths[0])]
            for cell in block:
                if cell.result is None:
                    row.append("--".ljust(24))
                    continue
                est = cell.result.coefficient(name)
                se = cell.result.std_error(name)
                stars = significance_stars(cell.result.p_value(name))
                row.append(f"{est: .4f}{stars} ({se:.4f})".ljust(24))
            lines.append(" | ".join(row))
        lines.append("")
    return "\n".join(lines)
