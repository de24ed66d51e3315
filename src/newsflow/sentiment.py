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


def _summary(values: np.ndarray) -> SummaryStats:
    q1, q2, q3 = np.quantile(values, [0.25, 0.50, 0.75]).tolist()
    return SummaryStats(
        mean=float(values.mean()),
        sd=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
        maximum=float(values.max()),
        q1=q1,
        q2=q2,
        q3=q3,
    )


def sentiment_summary(sentiment: SymbolDayArray) -> SentimentSummary:
    """Pos and Neg of one projection over its symbol-days with article arrival.

    The sd divides by n - 1 (0.0 for a single day); quartiles interpolate
    linearly between order statistics.
    """
    active = sentiment.plane("active") == 1
    pos = sentiment.plane("pos")[active]  # in (symbol, day) order
    neg = sentiment.plane("neg")[active]
    n = len(pos)
    if not n:
        raise NoActiveRecords("no records with article arrival")
    return SentimentSummary(
        n_active=n,
        pos=_summary(pos),
        neg=_summary(neg),
        share_pos_dominant=np.count_nonzero(pos > neg) / n,
        share_neg_dominant=np.count_nonzero(neg > pos) / n,
    )


def monthly_lexicon_correlation(
    sentiment: Mapping[str, SymbolDayArray],
    months: Sequence[tuple[int, int]],
) -> dict[tuple[str, str], dict[tuple[int, int], tuple[float | None, float | None]]]:
    """Monthly Pearson correlation of Pos and Neg between each lexicon pair.

    Observations are symbol-days with article arrival under both lexica, in
    (symbol, day) order; `months` gives each trading day's (year, month).
    Every month with an observation has an entry.  A side is ``None`` when
    its month has fewer than two observations, or when that side takes a
    single value all month under either lexicon.
    """
    month_index = np.array([12 * year + month - 1 for year, month in months], dtype=np.intp)
    names = sorted(sentiment)
    out: dict[tuple[str, str], dict[tuple[int, int], tuple[float | None, float | None]]] = {}
    for i, name_a in enumerate(names):
        a = sentiment[name_a]
        for name_b in names[i + 1 :]:
            # a symbol missing from a's axis is never active under both
            b = sentiment[name_b].on(a.symbols)
            both = (a.plane("active") == 1) & (b.plane("active") == 1)
            # code numbers each observation's month; first is each month's first observation
            found, first, code = np.unique(month_index[both.nonzero()[1]], return_index=True, return_inverse=True)
            n = np.bincount(code)
            sides = []
            for field in ("pos", "neg"):
                x, y = a.plane(field)[both], b.plane(field)[both]
                # bincount adds each month's terms one at a time in observation order
                dx = x - (np.bincount(code, x) / n)[code]
                dy = y - (np.bincount(code, y) / n)[code]
                # tested exactly, as a constant month's deviations are rounding, not zeros;
                # a month with one observation does not vary
                defined = (np.bincount(code, x != x[first][code]) > 0) & (np.bincount(code, y != y[first][code]) > 0)
                sxx_syy = np.bincount(code, dx * dx) * np.bincount(code, dy * dy)
                r = np.divide(np.bincount(code, dx * dy), np.sqrt(sxx_syy), out=np.zeros(len(n)), where=defined)
                sides.append([value if ok else None for value, ok in zip(r.tolist(), defined.tolist())])
            out[(name_a, name_b)] = {
                (m // 12, m % 12 + 1): pair for m, pair in zip(found.tolist(), zip(*sides))
            }
    return out
