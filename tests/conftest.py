"""Shared fixtures: small lexica and a deterministic synthetic pipeline corpus."""

from __future__ import annotations

import collections
import csv
import datetime as dt
import io
import json
import math
import re

import numpy as np
import pytest
import scipy.special
from numpy.lib.stride_tricks import sliding_window_view

from newsflow._util import atomic_write_text, read_text
from newsflow.errors import (
    InputError,
    InvalidValue,
    MalformedRecord,
    PriceParseError,
)
from newsflow.indicators import PRICE_FIELDS
from newsflow.lexicon import Polarity, PosTag, Strength
from newsflow.panel import INDICATOR_FIELDS, SENTIMENT_FIELDS, MarketSeries, SymbolDayArray
from newsflow.sentiment import _ABBREVIATIONS as ABBREVIATIONS

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


def symbol_day_array(fields, rows, n_days) -> SymbolDayArray:
    """(symbol, day, *field values) rows, on their sorted symbols and a calendar of n_days.

    A day outside the calendar raises InputError.
    """
    symbols = sorted({row[0] for row in rows})
    code_of = {symbol: code for code, symbol in enumerate(symbols)}
    symbol_index = np.array([code_of[row[0]] for row in rows], dtype=np.intp)
    days = np.array([row[1] for row in rows], dtype=np.intp)
    outside = days[(days < 0) | (days >= n_days)]
    if outside.size:
        raise InputError(f"day {outside[0]} outside the {n_days}-day calendar")
    values = np.array([row[2:] for row in rows], dtype=float).reshape(len(rows), len(fields)).T
    return SymbolDayArray.from_columns(fields, symbols, symbol_index, days, values, n_days)


def serialize_articles(articles) -> str:
    """Inverse of the jsonl corpus loader; load -> serialize -> load round-trips."""
    lines = []
    for art in articles:
        lines.append(json.dumps({
            "id": art.id,
            "published_at": art.published_at.isoformat(),
            "symbols": sorted(art.symbols),
            "title": art.title,
            "body": art.body,
            "contributor": art.contributor,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def format_mpqa_line(entry) -> str:
    """Inverse of lexicon.parse_mpqa_line for entries with explicit MPQA attributes."""
    if entry.pos_tag is PosTag.UNCONSTRAINED or entry.strength is Strength.UNSPECIFIED:
        raise InvalidValue("entry", entry.word)
    return (
        f"type={entry.strength.value} len={len(entry.word.split(' '))} word1={entry.word.replace(' ', '_')} "
        f"pos1={entry.pos_tag.value} stemmed1={'y' if entry.stemmed else 'n'} "
        f"priorpolarity={entry.polarity.value}"
    )


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
        raise InputError(f"h must be >= 1, got {h}")
    window = []
    for day in range(t, t + h):
        if day not in records:
            raise InputError(f"no record for day {day}")
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
    return symbol_day_array(SENTIMENT_FIELDS, rows, n_days or max(row[1] for row in rows) + 1)


# one indicators.csv row, for building test inputs; None is a missing cell
IndicatorPoint = collections.namedtuple("IndicatorPoint", "symbol day log_vol detrended_volume ret")


def indicator_array(points, n_days) -> SymbolDayArray:
    """IndicatorPoints as a SymbolDayArray."""
    rows = [(p.symbol, p.day, p.log_vol, p.detrended_volume, p.ret) for p in points]
    return symbol_day_array(INDICATOR_FIELDS, rows, n_days)


# Panel group sums by sorting labels, as the package did before it grouped
# integer entity codes with np.bincount: the reference the bincount sums are
# checked against, to the bit.

def unique_group_sums(values, groups):
    """Sums of `values` rows per group by np.unique and np.add.at.

    Returns (sorted labels, each row's label index, rows per label, sums);
    the labels may be strings.
    """
    labels, inverse, counts = np.unique(groups, return_inverse=True, return_counts=True)
    sums = np.zeros((len(labels),) + values.shape[1:])
    np.add.at(sums, inverse, values)
    return labels, inverse, counts, sums


def unique_demeaned(values, groups):
    """`values` less the mean of each row's group, by unique_group_sums."""
    _, inverse, counts, sums = unique_group_sums(values, groups)
    return values - (sums.T / counts).T[inverse]


def unique_sandwich(x, u, groups, k):
    """One-way cluster sandwich on the unique_group_sums of the scores, with the small-sample factor."""
    n = len(u)
    _, _, _, scores = unique_group_sums(x * u[:, None], groups)
    n_groups = len(scores)
    bread = np.linalg.inv(x.T @ x)
    factor = (n_groups / (n_groups - 1)) * ((n - 1) / (n - k))
    return factor * bread @ (scores.T @ scores) @ bread


# Local-linear smoothing over every data point, as the package did before it
# summed the kernel over the distinct x values: the reference that
# newsflow.simulate.smoother's fits and bands are checked against.

def reference_equivalent_weights(x, grid, h):
    """Rows of per-point local-linear weights l(g), NaN for empty grid points; flags for empty points."""
    dx = x[None, :] - grid[:, None]
    w = np.exp(-0.5 * (dx / h) ** 2)
    s0 = w.sum(axis=1)
    s1 = (w * dx).sum(axis=1)
    s2 = (w * dx * dx).sum(axis=1)
    denom = s0 * s2 - s1 * s1
    empty = s0 < 1e-10
    degenerate = ~empty & (denom <= 1e-10 * np.maximum(s0 * s2, 1e-10))
    safe_denom = np.where(empty | degenerate, 1.0, denom)
    weights = w * (s2[:, None] - dx * s1[:, None]) / safe_denom[:, None]
    if degenerate.any():
        safe_s0 = np.where(s0 < 1e-10, 1.0, s0)
        weights[degenerate] = (w / safe_s0[:, None])[degenerate]
    weights[empty] = np.nan
    return weights, empty


def reference_residuals_with_leverage(x, y, h):
    """Residuals rescaled by 1/sqrt(1 - l_i(x_i)), from the n x n per-point weights."""
    weights, _ = reference_equivalent_weights(x, x, h)
    weights = np.where(np.isnan(weights), 0.0, weights)
    deflation = np.sqrt(np.clip(1.0 - np.diagonal(weights), 0.05, 1.0))
    return (y - weights @ y) / deflation


def reference_uniform_band(x, y, h, grid, level, n_boot, rng_seed):
    """(curve, se, critical value, lower, upper) of the per-point fit and multiplier-bootstrap band."""
    weights, empty = reference_equivalent_weights(x, grid, h)
    weights = np.where(np.isnan(weights), 0.0, weights)
    curve = weights @ y
    curve[empty] = np.nan
    residuals = reference_residuals_with_leverage(x, y, h)
    se = np.sqrt((weights**2 * residuals[None, :] ** 2).sum(axis=1))
    se[empty] = np.nan
    # the package draws one row per distinct value; point i gets its value's
    # draw times r_i / s_k, so a value's terms r_i * multiplier sum to s_k * z_k
    _, index = np.unique(x, return_inverse=True)
    draws = np.random.default_rng(rng_seed).standard_normal((index.max() + 1, n_boot))
    s = np.sqrt(np.bincount(index, residuals**2))
    share = np.divide(residuals, s[index], out=np.zeros(len(x)), where=s[index] > 0)
    multipliers = share[:, None] * draws[index]
    deviations = weights @ (residuals[:, None] * multipliers)
    usable = ~empty & (se > 0)
    critical = float(scipy.special.ndtri(0.5 + level / 2.0))
    if usable.any():
        sup = (np.abs(deviations[usable]) / se[usable, None]).max(axis=0)
        critical = max(float(np.quantile(sup, level)), critical)
    return curve, se, critical, curve - critical * se, curve + critical * se


# The rolling quadratic detrend by one QR solve per day, as the package did
# before it solved each window's normal equations: the reference that
# newsflow.indicators.fit_detrend_model is checked against.

def reference_fit_detrend_model(log_volume, window=120):
    """Each day's forecast from the QR of its (window, 3) design, x scaled to [-1, 1] per window."""
    values = np.asarray(log_volume, dtype=float)
    forecast = np.full(len(values), np.nan)
    finite = np.flatnonzero(~np.isnan(values))
    history = np.searchsorted(finite, np.arange(len(values)))  # finite days before each day
    days = np.flatnonzero(history >= window)
    if len(days) == 0:
        return forecast
    support = sliding_window_view(finite, window)[history[days] - window]
    centre = (support[:, :1] + support[:, -1:]) / 2.0
    half_width = (support[:, -1:] - support[:, :1]) / 2.0
    x = (support - centre) / half_width
    q, r = np.linalg.qr(np.stack([np.ones_like(x), x, x * x], axis=-1))
    coef = np.linalg.solve(r, q.transpose(0, 2, 1) @ values[support][..., None])[..., 0]
    x_t = (days - centre[:, 0]) / half_width[:, 0]
    forecast[days] = coef[:, 0] + coef[:, 1] * x_t + coef[:, 2] * x_t * x_t
    return forecast


# Lexicon scoring one lexicon at a time, as the package did before it walked
# each sentence once for every lexicon: the reference the merged walk of
# newsflow.sentiment.score_article is checked against.

def _reference_is_negated(span, negator_pos, negation):
    start, end = span  # [start, end) token positions of the match
    for p in negator_pos:
        if start <= p < end:
            continue
        if p < start:
            if start - p <= negation.window:
                return True
        elif negation.bidirectional and p - end + 1 <= negation.window:
            return True
    return False


def _entry_words(entry):
    """The words of a lexicon entry, in order."""
    return tuple(entry.word.split(" "))


def _reference_match_at(tokens, i, claimed, entries):
    """First entry of a longest-first bucket whose run matches unclaimed tokens at i."""
    for entry in entries:
        words = _entry_words(entry)
        width = len(words)
        if i + width > len(tokens):
            continue
        if any(claimed[i + k] for k in range(width)):
            continue
        if tuple(tokens[i : i + width]) == words:
            return entry
    return None


def _reference_buckets(lex, stemmed):
    """First token -> the scoring entries of one pass, longest first, file order among equal lengths."""
    buckets = {}
    for width in sorted({len(_entry_words(e)) for e in lex.entries}, reverse=True):
        for entry in lex.entries:
            words = _entry_words(entry)
            if entry.is_scoring and entry.stemmed == stemmed and len(words) == width:
                buckets.setdefault(words[0], []).append(entry)
    return buckets


def reference_score_article(article, lex, negation):
    """(pos_count, neg_count) of one tokenized article under one Lexicon."""
    unstemmed, stemmed = _reference_buckets(lex, False), _reference_buckets(lex, True)
    pos_count = neg_count = 0
    for tokens in article.sentences:
        claimed = [False] * len(tokens)
        negator_pos = [i for i, tok in enumerate(tokens) if tok in negation.negators]
        passes = [(tokens, unstemmed)]
        if stemmed:
            passes.append((tuple(reference_porter_stem(tok) for tok in tokens), stemmed))
        for words, index in passes:
            for i, word in enumerate(words):
                if claimed[i]:
                    continue
                entry = _reference_match_at(words, i, claimed, index.get(word, ()))
                if entry is None:
                    continue
                end = i + len(_entry_words(entry))
                claimed[i:end] = [True] * (end - i)
                if (entry.polarity is Polarity.POSITIVE) != _reference_is_negated((i, end), negator_pos, negation):
                    pos_count += 1
                else:
                    neg_count += 1
    return pos_count, neg_count


# The tokenizer as the package wrote it before one terminator scan per
# article: sentences cut as stripped strings, the abbreviation walk at every
# lone ".", and one strip/endswith step per word run.  The reference
# newsflow.sentiment.tokenize is checked against.

_REFERENCE_TERMINATOR = re.compile(r"[.!?]+(?=\s|$)")
_REFERENCE_WORD_RUN = re.compile(r"[a-z']+")


def _reference_is_abbreviation(text, period_at):
    start = period_at
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] == "."):
        start -= 1
    token = text[start:period_at].lower().rstrip(".")
    if not token:
        return False
    if token in ABBREVIATIONS:
        return True
    # single-letter initials such as "J." or internal-dot runs like "u.s"
    return len(token) == 1 and token.isalpha()


def _reference_split_sentences(text):
    sentences = []
    start = 0
    for match in _REFERENCE_TERMINATOR.finditer(text):
        if text[match.start()] == "." and match.group() == "." and _reference_is_abbreviation(text, match.start()):
            continue
        sentences.append(text[start : match.end()])
        start = match.end()
    if start < len(text):
        sentences.append(text[start:])
    return [s for s in (s.strip() for s in sentences) if s]


def _reference_word_tokens(sentence):
    tokens = []
    for run in _REFERENCE_WORD_RUN.findall(sentence.lower()):
        word = run.strip("'")
        if not word:
            continue
        if word.endswith("n't") and len(word) > 3:
            tokens.append(word[:-3])
            tokens.append("n't")
        else:
            tokens.append(word)
    return tokens


def reference_tokenize(text):
    """The sentences of word tokens of `text`, as tuples; empty sentences dropped."""
    sentences = (tuple(_reference_word_tokens(s)) for s in _reference_split_sentences(text))
    return tuple(s for s in sentences if s)


# The Porter stemmer as the package wrote it before its rules were indexed by
# last letter and its conditions read a consonant/vowel mask: every rule of a
# step is scanned, and each letter is classed by recursion on the one before.

_PORTER_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_PORTER_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_PORTER_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _porter_is_cons(word, i):
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _porter_is_cons(word, i - 1)
    return True


def _porter_measure(stem):
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        cons = _porter_is_cons(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _porter_has_vowel(stem):
    return any(not _porter_is_cons(stem, i) for i in range(len(stem)))


def _porter_ends_double_cons(word):
    return len(word) >= 2 and word[-1] == word[-2] and _porter_is_cons(word, len(word) - 1)


def _porter_ends_cvc(word):
    if len(word) < 3:
        return False
    return (
        _porter_is_cons(word, len(word) - 3)
        and not _porter_is_cons(word, len(word) - 2)
        and _porter_is_cons(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _porter_longest_rule(word, rules):
    best = None
    for rule in rules:
        if word.endswith(rule[0]) and (best is None or len(rule[0]) > len(best[0])):
            best = rule
    return best


def _porter_replace_m(word, rules, min_measure):
    rule = _porter_longest_rule(word, rules)
    if rule is None:
        return word
    suffix, replacement = rule
    stem = word[: len(word) - len(suffix)]
    if _porter_measure(stem) > min_measure:
        return stem + replacement
    return word


def _porter_step1a(word):
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _porter_step1b(word):
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _porter_measure(stem) > 0 else word
    fired = False
    if word.endswith("ed") and _porter_has_vowel(word[:-2]):
        word = word[:-2]
        fired = True
    elif word.endswith("ing") and _porter_has_vowel(word[:-3]):
        word = word[:-3]
        fired = True
    if not fired:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _porter_ends_double_cons(word) and word[-1] not in "lsz":
        return word[:-1]
    if _porter_measure(word) == 1 and _porter_ends_cvc(word):
        return word + "e"
    return word


def _porter_step1c(word):
    if word.endswith("y") and _porter_has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _porter_step4(word):
    rule = _porter_longest_rule(word, [(s,) for s in _PORTER_STEP4_SUFFIXES])
    if rule is None:
        return word
    suffix = rule[0]
    stem = word[: len(word) - len(suffix)]
    if _porter_measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _porter_step5a(word):
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _porter_measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _porter_ends_cvc(stem):
        return stem
    return word


def _porter_step5b(word):
    if _porter_measure(word) > 1 and _porter_ends_double_cons(word) and word.endswith("l"):
        return word[:-1]
    return word


def reference_porter_stem(word):
    """Porter's 1980 steps 1a-5b by a scan of every rule; no memo."""
    if len(word) <= 2:
        return word
    word = _porter_step1a(word)
    word = _porter_step1b(word)
    word = _porter_step1c(word)
    word = _porter_replace_m(word, _PORTER_STEP2_RULES, 0)
    word = _porter_replace_m(word, _PORTER_STEP3_RULES, 0)
    word = _porter_step4(word)
    word = _porter_step5a(word)
    word = _porter_step5b(word)
    return word


# Row-wise CSV readers and writer: the reference the columnar ones in
# newsflow._util are checked against.  Each parses one row at a time and
# raises at the first row that breaks a rule.

def read_csv_rows(path, required, parse):
    """`parse` applied to each non-blank data row, as a column -> cell mapping.

    A file without a header, a missing required column, a row whose field
    count differs from the header's, or a ValueError or InputError from
    `parse` raises MalformedRecord with the file and line.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, [])
        if not header:
            raise InputError("no header")
        missing = [name for name in required if name not in header]
        if missing:
            raise InputError(f"missing column(s) {', '.join(missing)}")
        parsed = []
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise InputError(f"{len(cells)} fields where the header has {len(header)}")
            parsed.append(parse(dict(zip(header, cells))))
    except (ValueError, InputError, csv.Error) as exc:
        # an empty file has read no line yet
        raise MalformedRecord(str(exc), source=str(path), position=max(reader.line_num, 1)) from exc
    return parsed


def finite_float(text):
    """A CSV cell as a float; `inf`, `-inf` and `nan` raise InputError."""
    value = float(text)
    if not math.isfinite(value):
        raise InputError(f"non-finite number {text!r}")
    return value


def read_sentiment_rows(path, calendar):
    """sentiment.csv as one SENTIMENT_FIELDS array per lexicon (cli._read_sentiment_csv)."""
    seen = set()

    def parse(row):
        day = calendar.index.get(dt.date.fromisoformat(row["date"]))
        if day is None:
            raise InputError(f"sentiment date {row['date']} not in calendar")
        key = (row["lexicon"], row["symbol"], day)
        if key in seen:
            raise InputError(f"duplicate sentiment row for {row['lexicon']} {row['symbol']} {row['date']}")
        seen.add(key)
        active, n_articles = int(row["I"]), int(row["n_articles"])
        if n_articles < 0:
            raise InputError(f"negative sentiment n_articles {n_articles}")
        if active != (n_articles > 0):
            raise InputError(f"sentiment I={active} with n_articles={n_articles}; I is 1 exactly when n_articles > 0")
        pos, neg = finite_float(row["pos"]), finite_float(row["neg"])
        if not (0.0 <= pos <= 1.0 and 0.0 <= neg <= 1.0):
            raise InputError(f"sentiment pos={pos!r} and neg={neg!r} must lie in [0, 1]")
        if not active and (pos or neg):
            raise InputError(f"sentiment I=0 with pos={pos!r} and neg={neg!r}; a day without articles has no sentiment")
        return row["lexicon"], (row["symbol"], day, active, pos, neg, n_articles)

    rows_by_lexicon = {}
    for lexicon, row in read_csv_rows(path, ("symbol", "date", "lexicon", "I", "pos", "neg", "n_articles"), parse):
        rows_by_lexicon.setdefault(lexicon, []).append(row)
    return {
        lexicon: symbol_day_array(SENTIMENT_FIELDS, rows, len(calendar))
        for lexicon, rows in rows_by_lexicon.items()
    }


def read_indicator_rows(path, calendar):
    """indicators.csv as an INDICATOR_FIELDS array (cli._read_indicators_csv)."""
    seen = set()

    def parse(row):
        day = calendar.index.get(dt.date.fromisoformat(row["date"]))
        if day is None:
            raise InputError(f"indicator date {row['date']} not in calendar")
        if (row["symbol"], day) in seen:
            raise InputError(f"duplicate indicator row for {row['symbol']} {row['date']}")
        seen.add((row["symbol"], day))
        return (row["symbol"], day, *(finite_float(row[name]) if row[name] else None for name in INDICATOR_FIELDS))

    rows = read_csv_rows(path, ("symbol", "date", *INDICATOR_FIELDS), parse)
    return symbol_day_array(INDICATOR_FIELDS, rows, len(calendar))


def load_market_bar_rows(path, calendar):
    """prices.csv as a PRICE_FIELDS array (indicators.load_market_bars)."""
    seen = set()

    def parse(row):
        symbol = row["symbol"].upper()
        if not symbol.strip():
            raise InputError("empty symbol")
        date = dt.date.fromisoformat(row["date"])
        day = calendar.index.get(date)
        if day is None:
            raise InputError(f"date {date} not in trading calendar")
        if (symbol, day) in seen:
            raise InputError(f"second bar for {symbol} on {date}")
        seen.add((symbol, day))
        open_, high, low, close, volume = (finite_float(row[name]) for name in PRICE_FIELDS)
        if min(open_, high, low, close) <= 0:
            raise InputError(f"{symbol} {date}: prices must be positive")
        if volume < 0:
            raise InputError(f"{symbol} {date}: negative volume")
        if not low <= min(open_, close) <= max(open_, close) <= high:
            raise InputError(
                f"{symbol} {date}: OHLC ordering violated "
                f"(low {low}, open {open_}, close {close}, high {high})"
            )
        return symbol, day, open_, high, low, close, volume

    try:
        rows = read_csv_rows(path, ("symbol", "date", *PRICE_FIELDS), parse)
    except MalformedRecord as exc:
        raise PriceParseError(exc.detail, line=exc.position) from exc
    if not rows:
        raise PriceParseError("price CSV has no data rows")
    return symbol_day_array(PRICE_FIELDS, rows, len(calendar))


def read_market_rows(path, calendar):
    """market.csv as a MarketSeries (MarketSeries.from_csv)."""
    ret = np.full(len(calendar), np.nan)
    vix = np.full(len(calendar), np.nan)
    seen = set()

    def parse(row):
        date = dt.date.fromisoformat(row["date"])
        if date not in calendar.index:
            raise InputError(f"market date {date} not in trading calendar")
        day = calendar.index[date]
        if day in seen:
            raise InputError(f"duplicate market date {date}")
        seen.add(day)
        return day, finite_float(row["market_return"]), finite_float(row["vix"])

    for day, market_return, level in read_csv_rows(path, ("date", "market_return", "vix"), parse):
        ret[day] = market_return
        vix[day] = level
    return MarketSeries(market_return=ret, vix=vix)


def read_sector_rows(path):
    """sectors.csv as symbol -> sector (cli._load_sectors)."""
    seen = set()

    def parse(row):
        symbol = row["symbol"].upper()
        if symbol in seen:
            raise InputError(f"duplicate sector row for {symbol}")
        seen.add(symbol)
        return symbol, row["sector"]

    return dict(read_csv_rows(path, ("symbol", "sector"), parse))


def read_residual_rows(path):
    """A residuals_*.csv pool (cli._read_residual_pool)."""
    return np.array(read_csv_rows(path, ("residual",), lambda row: finite_float(row["residual"])))


def _outcome(read, path):
    try:
        return "ok", read(path)
    except InputError as exc:
        return type(exc).__name__, str(exc)


def _assert_same(actual, expected):
    if isinstance(expected, SymbolDayArray):
        assert (actual.fields, actual.symbols) == (expected.fields, expected.symbols)
        _assert_same(actual.values, expected.values)
    elif isinstance(expected, MarketSeries):
        _assert_same(actual.market_return, expected.market_return)
        _assert_same(actual.vix, expected.vix)
    elif isinstance(expected, np.ndarray):
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected, equal_nan=True)
        assert np.array_equal(np.signbit(actual), np.signbit(expected))
    elif isinstance(expected, dict) and expected and isinstance(next(iter(expected.values())), SymbolDayArray):
        assert sorted(actual) == sorted(expected)
        for name in expected:
            _assert_same(actual[name], expected[name])
    else:
        assert list(actual.items()) == list(expected.items())


def assert_readers_agree(columnar, row_wise, path):
    got, want = _outcome(columnar, path), _outcome(row_wise, path)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        _assert_same(got[1], want[1])
    else:
        assert got[1] == want[1]


def fmt_num(value):
    """A cell as CSV output: empty for missing, repr-exact for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN is a missing cell
        return ""
    return repr(float(value))


def write_csv_rows(path, header, rows):
    """A CSV file from rows, each cell a label or formatted by fmt_num."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt_num(cell) for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def simulate_ma1_garch11(params, n, rng_seed, burn_in=500) -> np.ndarray:
    """A return path of n days from an MA(1)-GARCH(1,1) process, after a burn-in stretch.

    The variance recursion starts at the unconditional variance and the
    pre-sample residual is zero, as in newsflow.simulate.garch.
    """
    rng = np.random.default_rng(rng_seed)
    total = n + burn_in
    z = rng.standard_normal(total)
    eps = np.empty(total)
    h = np.empty(total)
    h[0] = params.omega / (1.0 - params.alpha - params.beta)
    eps[0] = math.sqrt(h[0]) * z[0]
    for t in range(1, total):
        h[t] = params.omega + params.alpha * eps[t - 1] ** 2 + params.beta * h[t - 1]
        eps[t] = math.sqrt(h[t]) * z[t]
    r = params.mu + eps
    r[1:] += params.theta * eps[:-1]
    return r[burn_in:]


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
