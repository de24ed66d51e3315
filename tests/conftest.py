"""Shared fixtures: small lexica and a deterministic synthetic pipeline corpus."""

from __future__ import annotations

import collections
import datetime as dt
import json
import math

import numpy as np
import pytest

from newsflow.errors import WindowOutOfRange
from newsflow.panel import INDICATOR_FIELDS, SENTIMENT_FIELDS, SymbolDayArray

FIXTURE_SEED = 20090

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


def trading_days(n: int, start: dt.date = dt.date(2020, 1, 6)) -> list[dt.date]:
    days = []
    current = start
    while len(days) < n:
        if current.weekday() < 5:
            days.append(current)
        current += dt.timedelta(days=1)
    return days


def write_calendar(path, days):
    path.write_text("\n".join(d.isoformat() for d in days) + "\n", encoding="utf-8")


# one sentiment.csv row, for building test inputs
SentimentRecord = collections.namedtuple(
    "SentimentRecord", "symbol day lexicon_name active pos neg n_articles", defaults=(0,)
)


def cumulative_record(records, t, h) -> SentimentRecord:
    """Pool article proportions over trading days t .. t+h-1 of one symbol's records by day.

    Pooling weights each day by its article count, which equals averaging
    per-article proportions over every article in the window.  This is the
    reference the cumulative panel specifications are checked against.
    """
    if h < 1:
        raise WindowOutOfRange(f"h must be >= 1, got {h}")
    window = []
    for day in range(t, t + h):
        if day not in records:
            raise WindowOutOfRange(f"no record for day {day}")
        window.append(records[day])
    base = window[0]
    n = sum(r.n_articles for r in window)
    if n == 0:
        return SentimentRecord(base.symbol, t, base.lexicon_name, active=0, pos=0.0, neg=0.0)
    pos = sum(r.n_articles * r.pos for r in window) / n
    neg = sum(r.n_articles * r.neg for r in window) / n
    return SentimentRecord(base.symbol, t, base.lexicon_name, active=1, pos=pos, neg=neg, n_articles=n)


def sentiment_array(records, n_days=None) -> SymbolDayArray:
    """SentimentRecords of one lexicon as a SymbolDayArray; n_days defaults to the last day + 1."""
    rows = [(r.symbol, r.day, r.active, r.pos, r.neg, r.n_articles) for r in records]
    return SymbolDayArray.from_rows(SENTIMENT_FIELDS, rows, n_days or max(row[1] for row in rows) + 1)


# one indicators.csv row, for building test inputs; None is a missing cell
IndicatorPoint = collections.namedtuple("IndicatorPoint", "symbol day log_vol detrended_volume ret")


def indicator_array(points, n_days) -> SymbolDayArray:
    """IndicatorPoints as a SymbolDayArray."""
    rows = [(p.symbol, p.day, p.log_vol, p.detrended_volume, p.ret) for p in points]
    return SymbolDayArray.from_rows(INDICATOR_FIELDS, rows, n_days)


def make_article_body(rng: np.random.Generator, n_words: int) -> str:
    words = []
    for _ in range(n_words):
        roll = rng.random()
        if roll < 0.08:
            words.append(str(rng.choice(POSITIVE_WORDS)))
        elif roll < 0.14:
            words.append(str(rng.choice(NEGATIVE_WORDS)))
        elif roll < 0.17:
            words.append(str(rng.choice(NEGATORS)))
        else:
            words.append(str(rng.choice(NEUTRAL_FILLER)))
    # sentences of ~12 words
    sentences = []
    for start in range(0, len(words), 12):
        chunk = words[start : start + 12]
        if chunk:
            sentences.append(" ".join(chunk).capitalize() + ".")
    return " ".join(sentences)


def build_fixture(root, n_symbols=20, n_days=300, n_articles=2000, seed=FIXTURE_SEED):
    """Synthetic corpus + calendar + prices + market + lexica + config."""
    rng = np.random.default_rng(seed)
    symbols = [f"SYM{i:02d}" for i in range(n_symbols)]
    days = trading_days(n_days)
    write_calendar(root / "calendar.txt", days)

    # articles: symbol attention varies so attention groups are non-trivial
    weights = rng.dirichlet(np.linspace(0.5, 3.0, n_symbols))
    lines = []
    for i in range(n_articles):
        day = days[int(rng.integers(0, n_days))]
        published = dt.datetime.combine(day, dt.time(9, 30)) + dt.timedelta(
            minutes=int(rng.integers(0, 420))
        )
        k = int(rng.integers(1, 4))
        mentioned = sorted(
            str(s) for s in rng.choice(symbols, size=k, replace=False, p=weights)
        )
        body = make_article_body(rng, int(rng.integers(30, 120)))
        lines.append(json.dumps({
            "id": f"art-{i:05d}",
            "published_at": published.isoformat(),
            "symbols": mentioned,
            "title": make_article_body(rng, 6).rstrip("."),
            "body": body,
            "contributor": f"writer{int(rng.integers(0, 9))}",
        }, sort_keys=True))
    (root / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # prices: lognormal random walk with intraday range, plus market series
    price_rows = ["symbol,date,open,high,low,close,volume"]
    market_rows = ["date,market_return,vix"]
    market_ret = 0.0008 * rng.standard_normal(n_days)
    vix = 0.15 + 0.05 * np.abs(rng.standard_normal(n_days))
    for t, day in enumerate(days):
        market_rows.append(f"{day.isoformat()},{float(market_ret[t])!r},{float(vix[t])!r}")
    for symbol in symbols:
        close = 50.0 * math.exp(rng.normal(0.0, 0.3))
        for t, day in enumerate(days):
            ret = float(rng.normal(0.0002, 0.015)) + 0.5 * float(market_ret[t])
            prev_close = close
            close = prev_close * math.exp(ret)
            open_ = prev_close * math.exp(float(rng.normal(0.0, 0.004)))
            band_hi = max(open_, close) * math.exp(abs(float(rng.normal(0.0, 0.006))) + 1e-4)
            band_lo = min(open_, close) * math.exp(-abs(float(rng.normal(0.0, 0.006))) - 1e-4)
            volume = float(np.exp(rng.normal(13.0, 0.4)))
            price_rows.append(
                f"{symbol},{day.isoformat()},{open_!r},{band_hi!r},{band_lo!r},{close!r},{volume!r}"
            )
    (root / "prices.csv").write_text("\n".join(price_rows) + "\n", encoding="utf-8")
    (root / "market.csv").write_text("\n".join(market_rows) + "\n", encoding="utf-8")

    # lexica: two flat wordlist pairs plus a structured stemmed/unstemmed file
    (root / "bl_pos.txt").write_text("\n".join(POSITIVE_WORDS) + "\n", encoding="utf-8")
    (root / "bl_neg.txt").write_text("\n".join(NEGATIVE_WORDS) + "\n", encoding="utf-8")
    (root / "lm_pos.txt").write_text("\n".join(POSITIVE_WORDS[:8]) + "\nsurpassed\n", encoding="utf-8")
    (root / "lm_neg.txt").write_text("\n".join(NEGATIVE_WORDS[:8]) + "\nlitigation\n", encoding="utf-8")
    mpqa_lines = []
    for w in POSITIVE_WORDS[3:12]:
        mpqa_lines.append(
            f"type=weaksubj len=1 word1={w} pos1=adj stemmed1=n priorpolarity=positive"
        )
    for w in NEGATIVE_WORDS[3:12]:
        mpqa_lines.append(
            f"type=strongsubj len=1 word1={w} pos1=noun stemmed1=n priorpolarity=negative"
        )
    # stemmed entries: match inflected forms through the stemmer pass
    mpqa_lines.append("type=weaksubj len=1 word1=improv pos1=verb stemmed1=y priorpolarity=positive")
    mpqa_lines.append("type=strongsubj len=1 word1=warn pos1=verb stemmed1=y priorpolarity=negative")
    (root / "mpqa.tff").write_text("\n".join(mpqa_lines) + "\n", encoding="utf-8")

    sector_rows = ["symbol,sector"]
    sector_names = ["Financials", "Health Care", "Energy", "Information Technology"]
    for i, symbol in enumerate(symbols):
        sector_rows.append(f"{symbol},{sector_names[i % len(sector_names)]}")
    (root / "sectors.csv").write_text("\n".join(sector_rows) + "\n", encoding="utf-8")

    (root / "newsflow.ini").write_text(
        "[run]\n"
        "seed = 7\n"
        f"output = {root / 'out'}\n"
        "\n"
        "[corpus]\n"
        "path = corpus.jsonl\n"
        "format = jsonl\n"
        "calendar = calendar.txt\n"
        "\n"
        "[lexicons]\n"
        "BL = wordlists:bl_pos.txt,bl_neg.txt\n"
        "LM = wordlists:lm_pos.txt,lm_neg.txt\n"
        "MPQA = mpqa:mpqa.tff\n"
        "\n"
        "[prices]\n"
        "path = prices.csv\n"
        "\n"
        "[market]\n"
        "path = market.csv\n"
        "\n"
        "[sectors]\n"
        "path = sectors.csv\n"
        "\n"
        "[simulate]\n"
        "n_days = 250\n"
        "n_boot = 150\n"
        "min_active = 30\n",
        encoding="utf-8",
    )
    return root


@pytest.fixture(scope="session")
def pipeline_fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline_fixture")
    return build_fixture(root)
