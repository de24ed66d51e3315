"""Tokenization, lexicon scoring with negation handling, and daily aggregation.

Scoring runs two passes over each sentence: unstemmed lexicon entries match
raw tokens first, then stemmed entries match the stems of whatever is still
unclaimed, so no token is ever counted twice by one lexicon.  At each token
the longest positive or negative entry whose tokens are all unclaimed claims
them (the first in file order among equal lengths).  A negation word within
the configured token distance of a matched word (same sentence) flips its
polarity once.

The scoring entries of several lexica are merged into one `ScoringIndex`
keyed by first token, so both passes walk a sentence once for all of them;
each lexicon keeps its own claimed tokens and counts, and the negator
positions and stems of a sentence are found once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._util import SymbolDayArray
from .errors import NoActiveRecords
from .lexicon import Lexicon, Polarity
from .stemmer import porter_stem

# Words whose trailing period does not terminate a sentence.
_ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "sr", "jr",
    "st", "vs", "etc", "inc", "ltd", "co", "corp", "no", "nos", "dept",
    "est", "fig", "al", "approx", "e.g", "i.e", "u.s", "u.k", "a.m", "p.m",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct",
    "nov", "dec",
})

_TERMINATOR = re.compile(r"[.!?]+(?=\s|$)")
# A word run of [a-z']+ with its apostrophes stripped: from its first letter to
# its last.  When it ends in "n't" after other characters, the part before
# "n't" is one match and "n't" the next.
_WORD = re.compile(r"[a-z][a-z']*?(?=n't'*(?![a-z']))|[a-z](?:[a-z']*[a-z])?")
_LETTERS = re.compile(r"[a-z]+")
# A word of this many alphanumeric characters is longer than any abbreviation
# and is not an initial, so its "." needs no abbreviation walk.
_LONGER_THAN_ABBREVIATIONS = max(map(len, _ABBREVIATIONS)) + 1

DEFAULT_NEGATORS = ("not", "never", "no", "neither", "nor", "none", "n't")


@dataclass(frozen=True)
class NegationConfig:
    window: int = 5
    negators: frozenset[str] = frozenset(DEFAULT_NEGATORS)
    bidirectional: bool = True


@dataclass(frozen=True)
class TokenizedArticle:
    """Sentences of lowercase word tokens; punctuation and numbers dropped."""

    sentences: tuple[tuple[str, ...], ...]

    @property
    def word_count(self) -> int:
        return sum(len(s) for s in self.sentences)


def _is_abbreviation(text: str, period_at: int) -> bool:
    start = period_at
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] == "."):
        start -= 1
    token = text[start:period_at].lower().rstrip(".")
    if not token:
        return False
    if token in _ABBREVIATIONS:
        return True
    # single-letter initials such as "J." or internal-dot runs like "u.s"
    return len(token) == 1 and token.isalpha()


def tokenize(text: str) -> TokenizedArticle:
    """Sentence-split then extract word tokens (alphabetic + apostrophe runs).

    One terminator scan finds the sentence ends; each sentence is lowercased
    and searched for words once; a blank text has none.  See the README for
    the rules.
    """
    ends = []
    for match in _TERMINATOR.finditer(text):
        at, end = match.span()
        if (
            end - at == 1
            and text[at] == "."
            and not (at >= _LONGER_THAN_ABBREVIATIONS and text[at - _LONGER_THAN_ABBREVIATIONS : at].isalnum())
            and _is_abbreviation(text, at)
        ):
            continue
        ends.append(end)
    ends.append(len(text))
    sentences = []
    start = 0
    for end in ends:
        # lowercase each sentence on its own: a lowercase may be longer than
        # its capital ("İ"), so offsets into a lowercased article would drift
        sentence = text[start:end].lower()
        start = end
        # without an apostrophe every run is letters only: nothing to strip or split
        tokens = (_WORD if "'" in sentence else _LETTERS).findall(sentence)
        if tokens:
            sentences.append(tuple(tokens))
    return TokenizedArticle(sentences=tuple(sentences))


def _negator_positions(tokens: Sequence[str], negators: frozenset[str]) -> list[int]:
    if negators.isdisjoint(tokens):
        return []
    return [i for i, tok in enumerate(tokens) if tok in negators]


def _is_negated(span: tuple[int, int], negator_pos: Sequence[int], config: NegationConfig) -> bool:
    start, end = span  # [start, end) token positions of the match
    for p in negator_pos:
        if start <= p < end:
            continue
        if p < start:
            if start - p <= config.window:
                return True
        elif config.bidirectional and p - end + 1 <= config.window:
            return True
    return False


# A bucket lists the scoring entries of one lexicon that start with the same
# token, longest first (file order among equal lengths), as (tokens, is_positive).
Bucket = tuple[tuple[tuple[str, ...], bool], ...]


@dataclass(frozen=True)
class ScoringIndex:
    """The scoring buckets of several lexica, merged on their first token.

    `unstemmed` and `stemmed` map a first token to (lexicon position,
    bucket) pairs, one per lexicon that has entries starting with it, so a
    token that starts no entry of any lexicon costs one lookup.
    """

    names: tuple[str, ...]
    unstemmed: Mapping[str, tuple[tuple[int, Bucket], ...]]
    stemmed: Mapping[str, tuple[tuple[int, Bucket], ...]]


def build_scoring_index(lexica: Sequence[Lexicon]) -> ScoringIndex:
    """Bucket the scoring entries of each of `lexica` and merge the buckets, in lexicon order."""
    unstemmed: dict[str, list[tuple[int, Bucket]]] = {}
    stemmed: dict[str, list[tuple[int, Bucket]]] = {}
    for k, lex in enumerate(lexica):
        buckets: dict[tuple[bool, str], list[tuple[tuple[str, ...], bool]]] = {}
        # each word split once; the stable sort keeps file order among entries of equal length
        runs = sorted(((tuple(e.word.split(" ")), e) for e in lex.scoring_entries()), key=lambda r: -len(r[0]))
        for run, entry in runs:
            buckets.setdefault((entry.stemmed, run[0]), []).append((run, entry.polarity is Polarity.POSITIVE))
        for (is_stemmed, first), bucket in buckets.items():
            (stemmed if is_stemmed else unstemmed).setdefault(first, []).append((k, tuple(bucket)))
    return ScoringIndex(
        names=tuple(lex.name for lex in lexica),
        unstemmed={first: tuple(hits) for first, hits in unstemmed.items()},
        stemmed={first: tuple(hits) for first, hits in stemmed.items()},
    )


def score_article(
    article: TokenizedArticle,
    index: ScoringIndex,
    negation: NegationConfig = NegationConfig(),
) -> tuple[tuple[int, int], ...]:
    """Two-pass projection of one tokenized article on every lexicon of `index`.

    Each sentence is walked once with the unstemmed index and once with the
    stemmed one; every lexicon keeps its own claimed tokens and counts.
    Returns one (positive, negative) count pair per lexicon, in index order.
    """
    pos_count = [0] * len(index.names)
    neg_count = [0] * len(index.names)
    for tokens in article.sentences:
        n = len(tokens)
        claimed = [[False] * n for _ in index.names]
        negator_pos = _negator_positions(tokens, negation.negators)
        passes = [(tokens, index.unstemmed)]
        # without scoring stemmed entries there is nothing to match, so skip stemming
        if index.stemmed:
            passes.append((tuple(map(porter_stem, tokens)), index.stemmed))
        for words, table in passes:
            for i, word in enumerate(words):
                hits = table.get(word)
                if hits is None:
                    continue
                for k, bucket in hits:
                    flags = claimed[k]
                    if flags[i]:
                        continue
                    for run, positive in bucket:
                        end = i + len(run)
                        # the first token is the key, and claimed[k][i] is False:
                        # a one-token entry matches here and claims just that token
                        if end == i + 1:
                            flags[i] = True
                        elif end > n or any(flags[i + 1 : end]) or words[i:end] != run:
                            continue
                        else:
                            flags[i:end] = [True] * (end - i)
                        if negator_pos and _is_negated((i, end), negator_pos, negation):
                            positive = not positive
                        if positive:
                            pos_count[k] += 1
                        else:
                            neg_count[k] += 1
                        break

    return tuple(zip(pos_count, neg_count))


SENTIMENT_FIELDS = ("active", "pos", "neg", "n_articles")


def aggregate_daily(
    cells: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    symbols: Sequence[str],
    n_days: int,
) -> SymbolDayArray:
    """SENTIMENT_FIELDS of one lexicon on `symbols` × a calendar of n_days.

    Each mention k puts an article's Pos and Neg proportions, pos[k] and
    neg[k], in the symbol-day cell cells[k] = row * n_days + day.  Pos and
    Neg are the unweighted means over each cell's mentions, summed in
    mention order; a day without articles is all zeros.
    """
    size = len(symbols) * n_days
    cells = np.asarray(cells, dtype=np.intp)
    n = np.bincount(cells, minlength=size).astype(float)

    def mean(props):
        # bincount adds each cell's weights one at a time in input order, as sum() does
        total = np.bincount(cells, np.asarray(props, dtype=float), minlength=size)
        return np.divide(total, n, out=np.zeros(size), where=n > 0)

    values = np.stack([np.sign(n), mean(pos), mean(neg), n]).reshape(len(SENTIMENT_FIELDS), len(symbols), n_days)
    return SymbolDayArray(SENTIMENT_FIELDS, tuple(symbols), values)


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    maximum: float
    q1: float
    q2: float
    q3: float


@dataclass(frozen=True)
class SentimentSummary:
    """Descriptive statistics conditional on article arrival."""

    n_active: int
    pos: SummaryStats
    neg: SummaryStats
    share_pos_dominant: float  # P(pos > neg)
    share_neg_dominant: float  # P(neg > pos)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _summary(values: list[float]) -> SummaryStats:
    n = len(values)
    mean = sum(values) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    ordered = sorted(values)
    return SummaryStats(
        mean=mean,
        sd=sd,
        maximum=ordered[-1],
        q1=_quantile(ordered, 0.25),
        q2=_quantile(ordered, 0.50),
        q3=_quantile(ordered, 0.75),
    )


def sentiment_summary(sentiment: SymbolDayArray) -> SentimentSummary:
    """Pos and Neg of one projection over its symbol-days with article arrival."""
    active = sentiment.plane("active") == 1
    pos = sentiment.plane("pos")[active].tolist()  # in (symbol, day) order
    neg = sentiment.plane("neg")[active].tolist()
    if not pos:
        raise NoActiveRecords("no records with article arrival")
    n = len(pos)
    return SentimentSummary(
        n_active=n,
        pos=_summary(pos),
        neg=_summary(neg),
        share_pos_dominant=sum(1 for p, q in zip(pos, neg) if p > q) / n,
        share_neg_dominant=sum(1 for p, q in zip(pos, neg) if q > p) / n,
    )


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx <= 0.0 or syy <= 0.0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def monthly_lexicon_correlation(
    sentiment: Mapping[str, SymbolDayArray],
    month_of_day: Mapping[int, tuple[int, int]],
) -> dict[tuple[str, str], dict[tuple[int, int], tuple[float | None, float | None]]]:
    """Monthly Pearson correlation of Pos and Neg between each lexicon pair.

    Observations are symbol-days with article arrival under both lexica, in
    (symbol, day) order; months with fewer than two paired observations (or
    zero variance) yield ``None``.  ``month_of_day`` maps trading-day
    ordinals to (year, month).
    """
    names = sorted(sentiment)
    out: dict[tuple[str, str], dict[tuple[int, int], tuple[float | None, float | None]]] = {}
    for i, name_a in enumerate(names):
        a = sentiment[name_a]
        for name_b in names[i + 1 :]:
            # a symbol missing from a's axis is never active under both
            b = sentiment[name_b].on(a.symbols)
            both = (a.plane("active") == 1) & (b.plane("active") == 1)
            pos_a, neg_a = a.plane("pos")[both], a.plane("neg")[both]
            pos_b, neg_b = b.plane("pos")[both], b.plane("neg")[both]
            by_month: dict[tuple[int, int], list[int]] = {}
            for k, day in enumerate(both.nonzero()[1].tolist()):
                by_month.setdefault(month_of_day[day], []).append(k)
            series: dict[tuple[int, int], tuple[float | None, float | None]] = {}
            for month, rows in sorted(by_month.items()):
                if len(rows) < 2:
                    series[month] = (None, None)
                    continue
                series[month] = (
                    _pearson(pos_a[rows].tolist(), pos_b[rows].tolist()),
                    _pearson(neg_a[rows].tolist(), neg_b[rows].tolist()),
                )
            out[(name_a, name_b)] = series
    return out
