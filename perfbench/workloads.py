"""Seeded input generator for the benchmark workloads.

The files follow the formats of the test fixture (``tests/conftest.py``
``build_fixture``): a JSONL corpus, a trading calendar, OHLCV prices, a
market series, BL/LM word lists, an MPQA-style entry file, sectors and an
INI run configuration.  Each workload adds fixed parameters (vocabulary,
article length, lexicon size, stemmed share, price-gap rate) so that one
stage's layers dominate.  The same (workload, seed) always writes the same
bytes; the program under test receives only these files.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The fixture's 61-word vocabulary (15 positive, 15 negative, 3 negators,
# 28 neutral fillers) and its small lexica.
POSITIVE_WORDS = [
    "good", "great", "strong", "gain", "gains", "improved", "profit",
    "upbeat", "boost", "win", "growth", "rally", "surged", "beat", "record",
]
NEGATIVE_WORDS = [
    "bad", "weak", "loss", "losses", "debt", "fell", "drop", "risk",
    "concern", "miss", "lawsuit", "decline", "plunge", "warning", "fraud",
]
NEUTRAL_FILLER = [
    "the", "company", "said", "today", "market", "shares", "investors",
    "quarter", "report", "analysts", "expects", "revenue", "price", "trading",
    "results", "board", "product", "announced", "plans", "outlook", "billion",
    "percent", "chief", "executive", "guidance", "sector", "industry", "week",
]
NEGATORS = ["not", "never", "no"]
SECTORS = ["Financials", "Health Care", "Energy", "Information Technology"]

# The large vocabulary is fixed across seeds: only the text drawn from it
# changes with the seed, so a seed never changes the vocabulary's shape.
VOCAB_SEED = 1_000_003
SUFFIXES = ("", "s", "ed", "ing", "er", "ers", "ly", "ness", "ment", "ful")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]
    n_symbols: int
    n_days: int
    n_articles: int
    words_per_article: tuple[int, int]  # uniform [lo, hi)
    vocabulary: str  # "fixture" (61 words) or "zipf"
    zipf_roots: int = 0
    zipf_exponent: float = 1.0
    lexicon_words: int = 0  # per polarity list, zipf vocabulary only
    multiword_share: float = 0.0  # share of lexicon entries that are two-word phrases
    mpqa_stemmed_share: float = 0.0
    price_gap_rate: float = 0.0  # share of price bars deleted
    unassigned_share: float = 0.02  # articles dated before the calendar
    suites: tuple[str, ...] = ("entire",)
    cluster: str = "two_way"
    detrend_window: int = 120
    sim_projections: tuple[str, ...] = ()
    sim_n_days: int = 300
    sim_n_boot: int = 500
    sim_grid_points: int = 101
    sim_min_active: int = 30

    def params(self) -> dict:
        """Every generator and config parameter, for the run record."""
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in vars(self).items() if k != "why"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="news_dense",
            why="6 symbols x 260 days, 60 articles of 100-400 words over a 20k-form Zipf vocabulary, "
                "600-word lexica, 1/3 of MPQA stemmed: tokenize, stem and score dominate distill",
            stages=("distill", "indicators", "panel", "lexstats", "report"),
            n_symbols=6, n_days=260, n_articles=60, words_per_article=(100, 400),
            vocabulary="zipf", zipf_roots=2000, zipf_exponent=1.0,
            lexicon_words=600, multiword_share=0.05, mpqa_stemmed_share=1 / 3,
        ),
        Workload(
            name="wide_panel",
            why="8 symbols x 400 days, 250 short articles over 61 words, 2% of price bars deleted, "
                "two-way clusters: covariance, gap-aware detrend and the dense distill loop dominate",
            stages=("distill", "indicators", "panel", "lexstats", "report"),
            n_symbols=8, n_days=400, n_articles=250, words_per_article=(30, 120),
            vocabulary="fixture", price_gap_rate=0.02,
        ),
        Workload(
            name="sim_bands",
            why="4 symbols x 300 gapless days, 200 short articles: 48 cumulative-lag panel cells "
                "by entity, then 5 GARCH fits and 6 uniform bands in simulate, dominate",
            stages=("distill", "indicators", "panel", "simulate", "lexstats", "report"),
            n_symbols=4, n_days=300, n_articles=200, words_per_article=(30, 120),
            vocabulary="fixture", suites=("entire", "lags_cumulative"), cluster="by_entity",
            sim_projections=("BL", "LM", "MPQA"), sim_n_days=500, sim_n_boot=500,
        ),
    )
}


def trading_days(n: int, start: dt.date = dt.date(2020, 1, 6)) -> list[dt.date]:
    days = []
    current = start
    while len(days) < n:
        if current.weekday() < 5:
            days.append(current)
        current += dt.timedelta(days=1)
    return days


def _sentences(words: list[str]) -> str:
    # sentences of ~12 words, as in the fixture
    return " ".join(
        " ".join(words[i : i + 12]).capitalize() + "."
        for i in range(0, len(words), 12)
    )


class _FixtureText:
    """Words drawn as in the fixture: 8% positive, 6% negative, 3% negators."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def words(self, n: int) -> list[str]:
        roll = self.rng.random(n)
        pos = self.rng.integers(0, len(POSITIVE_WORDS), n)
        neg = self.rng.integers(0, len(NEGATIVE_WORDS), n)
        nts = self.rng.integers(0, len(NEGATORS), n)
        fil = self.rng.integers(0, len(NEUTRAL_FILLER), n)
        out = []
        for i in range(n):
            r = roll[i]
            if r < 0.08:
                out.append(POSITIVE_WORDS[pos[i]])
            elif r < 0.14:
                out.append(NEGATIVE_WORDS[neg[i]])
            elif r < 0.17:
                out.append(NEGATORS[nts[i]])
            else:
                out.append(NEUTRAL_FILLER[fil[i]])
        return out


def _zipf_roots(n_roots: int) -> list[str]:
    """Distinct pronounceable roots of measure 2 ending in a stop consonant,
    so that most suffixed forms stem back to a shared root."""
    rng = np.random.default_rng(VOCAB_SEED)
    onsets = list("bcdfghjkmnprstvwz")
    vowels = list("aeiou")
    finals = list("bdgkmp")
    taken = set(NEGATORS) | {"n't"}
    roots: list[str] = []
    while len(roots) < n_roots:
        n_syll = 2 + int(rng.random() < 0.4)
        parts = [str(rng.choice(onsets)) + str(rng.choice(vowels)) for _ in range(n_syll)]
        root = "".join(parts) + str(rng.choice(finals))
        if root not in taken:
            taken.add(root)
            roots.append(root)
    return roots


class _ZipfText:
    """Zipf-Mandelbrot draws over roots x suffixes, plus lexicon phrases."""

    def __init__(self, rng: np.random.Generator, workload: Workload):
        self.rng = rng
        self.roots = _zipf_roots(workload.zipf_roots)
        vocab_rng = np.random.default_rng(VOCAB_SEED + 1)
        forms = [r + s for r in self.roots for s in SUFFIXES]
        order = vocab_rng.permutation(len(forms))
        self.forms = [forms[i] for i in order]  # rank order
        ranks = np.arange(1, len(self.forms) + 1, dtype=float)
        weights = 1.0 / (ranks + 2.7) ** workload.zipf_exponent
        self.cdf = np.cumsum(weights / weights.sum())
        self.phrases: list[str] = []

    def words(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        idx = np.minimum(idx, len(self.forms) - 1)
        roll = self.rng.random(n)
        pick = self.rng.integers(0, max(len(self.phrases), 1), n)
        negs = self.rng.integers(0, len(NEGATORS), n)
        out: list[str] = []
        for i in range(n):
            if roll[i] < 0.02:
                out.append(NEGATORS[negs[i]])
            elif roll[i] < 0.03 and self.phrases:
                out.append(self.phrases[pick[i]])
            else:
                out.append(self.forms[idx[i]])
        return out


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _zipf_lexica(root: Path, rng: np.random.Generator, text: _ZipfText, workload: Workload) -> None:
    n = workload.lexicon_words
    n_phrase = int(round(n * workload.multiword_share))
    # lexicon words come from the frequent-to-middle ranks, so they occur
    pool = rng.permutation(min(len(text.forms), 8000))
    cursor = 0

    def take(k: int) -> list[str]:
        nonlocal cursor
        out = [text.forms[i] for i in pool[cursor : cursor + k]]
        cursor += k
        return out

    def phrase() -> str:
        a, b = rng.integers(0, 8000, 2)
        return f"{text.forms[a]} {text.forms[b]}"

    lists = {}
    for name in ("bl_pos", "bl_neg"):
        lists[name] = take(n - n_phrase) + [phrase() for _ in range(n_phrase)]
    for name, base in (("lm_pos", "bl_pos"), ("lm_neg", "bl_neg")):
        half = n // 2
        lists[name] = lists[base][:half] + take(n - half)
    for name, words in lists.items():
        _write(root / f"{name}.txt", words)
    text.phrases = [w for name in ("bl_pos", "bl_neg") for w in lists[name] if " " in w]

    mpqa_lines = []
    n_stemmed = int(round(n * workload.mpqa_stemmed_share))
    roots = list(rng.permutation(len(text.roots)))
    for polarity, strength, base in (("positive", "weaksubj", "bl_pos"),
                                     ("negative", "strongsubj", "bl_neg")):
        words = lists[base][n // 4 : n // 4 + n - n_stemmed - n_phrase]
        for w in words:
            if " " in w:
                continue
            mpqa_lines.append(
                f"type={strength} len=1 word1={w} pos1=adj stemmed1=n priorpolarity={polarity}"
            )
        for _ in range(n_phrase):
            w = phrase()
            mpqa_lines.append(
                f"type={strength} len=2 word1={w.replace(' ', '_')} pos1=anypos "
                f"stemmed1=n priorpolarity={polarity}"
            )
        for _ in range(n_stemmed):
            stem = text.roots[roots.pop()]
            mpqa_lines.append(
                f"type={strength} len=1 word1={stem} pos1=verb stemmed1=y priorpolarity={polarity}"
            )
    _write(root / "mpqa.tff", mpqa_lines)


def _fixture_lexica(root: Path) -> None:
    _write(root / "bl_pos.txt", POSITIVE_WORDS)
    _write(root / "bl_neg.txt", NEGATIVE_WORDS)
    _write(root / "lm_pos.txt", POSITIVE_WORDS[:8] + ["surpassed"])
    _write(root / "lm_neg.txt", NEGATIVE_WORDS[:8] + ["litigation"])
    mpqa_lines = [
        f"type=weaksubj len=1 word1={w} pos1=adj stemmed1=n priorpolarity=positive"
        for w in POSITIVE_WORDS[3:12]
    ] + [
        f"type=strongsubj len=1 word1={w} pos1=noun stemmed1=n priorpolarity=negative"
        for w in NEGATIVE_WORDS[3:12]
    ] + [
        "type=weaksubj len=1 word1=improv pos1=verb stemmed1=y priorpolarity=positive",
        "type=strongsubj len=1 word1=warn pos1=verb stemmed1=y priorpolarity=negative",
    ]
    _write(root / "mpqa.tff", mpqa_lines)


def _corpus(root: Path, rng: np.random.Generator, text, workload: Workload,
            symbols: list[str], days: list[dt.date]) -> None:
    # a fixed attention profile (the fixture draws it per seed), so that a seed
    # changes which articles mention a symbol but not how much news it gets
    weights = np.linspace(0.5, 3.0, len(symbols))
    weights /= weights.sum()
    lo, hi = workload.words_per_article
    n_unassigned = round(workload.unassigned_share * workload.n_articles)
    unassigned = set(rng.choice(workload.n_articles, size=n_unassigned, replace=False).tolist())
    lines = []
    for i in range(workload.n_articles):
        if i in unassigned:
            day = days[0] - dt.timedelta(days=int(rng.integers(3, 30)))
        else:
            day = days[int(rng.integers(0, len(days)))]
        published = dt.datetime.combine(day, dt.time(9, 30)) + dt.timedelta(
            minutes=int(rng.integers(0, 420))
        )
        k = int(rng.integers(1, 4))
        mentioned = sorted(str(s) for s in rng.choice(symbols, size=k, replace=False, p=weights))
        body = _sentences(text.words(int(rng.integers(lo, hi))))
        lines.append(json.dumps({
            "id": f"art-{i:05d}",
            "published_at": published.isoformat(),
            "symbols": mentioned,
            "title": _sentences(text.words(6)).rstrip("."),
            "body": body,
            "contributor": f"writer{int(rng.integers(0, 9))}",
        }, sort_keys=True))
    _write(root / "corpus.jsonl", lines)


def _garch_returns(rng: np.random.Generator, n: int, sigma: float,
                   alpha: float = 0.08, beta: float = 0.87, burn_in: int = 200) -> np.ndarray:
    """GARCH(1,1) innovations with unconditional s.d. ``sigma``.

    The fixture draws i.i.d. normal returns.  Those leave the GARCH likelihood
    flat, so the optimizer's iteration count, and with it simulate's time,
    varies several-fold between seeds; returns with volatility clustering,
    as real returns have, give fits of steady cost.
    """
    z = rng.standard_normal(n + burn_in)
    omega = sigma * sigma * (1.0 - alpha - beta)
    h = sigma * sigma
    eps = 0.0
    out = np.empty(n + burn_in)
    for t in range(n + burn_in):
        h = omega + alpha * eps * eps + beta * h
        eps = math.sqrt(h) * z[t]
        out[t] = eps
    return out[burn_in:]


def _prices(root: Path, rng: np.random.Generator, workload: Workload,
            symbols: list[str], days: list[dt.date]) -> None:
    n = len(days)
    iso = [d.isoformat() for d in days]
    market_ret = _garch_returns(rng, n, 0.0008)
    vix = 0.15 + 0.05 * np.abs(rng.standard_normal(n))
    _write(root / "market.csv", ["date,market_return,vix"] + [
        f"{iso[t]},{float(market_ret[t])!r},{float(vix[t])!r}" for t in range(n)
    ])
    rows = ["symbol,date,open,high,low,close,volume"]
    for symbol in symbols:
        ret = 0.0002 + _garch_returns(rng, n, 0.015) + 0.5 * market_ret
        close = 50.0 * math.exp(rng.normal(0.0, 0.3)) * np.exp(np.cumsum(ret))
        prev = np.concatenate([[close[0] / math.exp(ret[0])], close[:-1]])
        open_ = prev * np.exp(rng.normal(0.0, 0.004, n))
        high = np.maximum(open_, close) * np.exp(np.abs(rng.normal(0.0, 0.006, n)) + 1e-4)
        low = np.minimum(open_, close) * np.exp(-np.abs(rng.normal(0.0, 0.006, n)) - 1e-4)
        volume = np.exp(rng.normal(13.0, 0.4, n))
        keep = rng.random(n) >= workload.price_gap_rate
        for t in np.flatnonzero(keep):
            rows.append(
                f"{symbol},{iso[t]},{float(open_[t])!r},{float(high[t])!r},"
                f"{float(low[t])!r},{float(close[t])!r},{float(volume[t])!r}"
            )
    _write(root / "prices.csv", rows)


def _config(root: Path, workload: Workload) -> None:
    lines = [
        "[run]", "seed = 7", "output = out", "",
        "[corpus]", "path = corpus.jsonl", "format = jsonl", "calendar = calendar.txt", "",
        "[lexicons]",
        "BL = wordlists:bl_pos.txt,bl_neg.txt",
        "LM = wordlists:lm_pos.txt,lm_neg.txt",
        "MPQA = mpqa:mpqa.tff", "",
        "[prices]", "path = prices.csv", "",
        "[market]", "path = market.csv", "",
        "[sectors]", "path = sectors.csv", "",
        "[indicators]", f"window = {workload.detrend_window}", "",
        "[panel]", f"suites = {','.join(workload.suites)}", f"cluster = {workload.cluster}", "",
        "[simulate]",
        f"projections = {','.join(workload.sim_projections)}",
        f"n_days = {workload.sim_n_days}",
        f"n_boot = {workload.sim_n_boot}",
        f"grid_points = {workload.sim_grid_points}",
        f"min_active = {workload.sim_min_active}",
    ]
    _write(root / "newsflow.ini", lines)


def generate(workload: Workload, seed: int, root: Path) -> Path:
    """Write the workload's input files under ``root``; return the INI path."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    symbols = [f"SYM{i:02d}" for i in range(workload.n_symbols)]
    days = trading_days(workload.n_days)
    _write(root / "calendar.txt", [d.isoformat() for d in days])

    if workload.vocabulary == "zipf":
        text = _ZipfText(rng, workload)
        _zipf_lexica(root, rng, text, workload)
    else:
        text = _FixtureText(rng)
        _fixture_lexica(root)
    _corpus(root, rng, text, workload, symbols, days)
    _prices(root, rng, workload, symbols, days)
    _write(root / "sectors.csv", ["symbol,sector"] + [
        f"{s},{SECTORS[i % len(SECTORS)]}" for i, s in enumerate(symbols)
    ])
    _config(root, workload)
    return root / "newsflow.ini"
