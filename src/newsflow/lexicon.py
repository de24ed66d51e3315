"""Sentiment lexicon parsing and cross-lexicon comparison.

Two on-disk formats are supported: flat word lists (one word per line, ';'
comments) that carry a single polarity, and structured entries of
whitespace-separated key=value pairs with type/len/word1/pos1/stemmed1/
priorpolarity attributes.  Only positive and negative entries score;
neutral and both-polarity entries are kept but flagged non-scoring.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._util import read_text
from .errors import EmptyList, InputError, InvalidValue, LexiconNotFound, MalformedRecord, MissingField


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    BOTH = "both"


class PosTag(enum.Enum):
    ADJ = "adj"
    NOUN = "noun"
    VERB = "verb"
    ADVERB = "adverb"
    ANYPOS = "anypos"
    UNCONSTRAINED = "unconstrained"


class Strength(enum.Enum):
    STRONGSUBJ = "strongsubj"
    WEAKSUBJ = "weaksubj"
    UNSPECIFIED = "unspecified"


SCORING_POLARITIES = (Polarity.POSITIVE, Polarity.NEGATIVE)


class LexiconEntry(NamedTuple):
    """One word or phrase of a lexicon, as its loader checked it.

    A named tuple rather than a frozen dataclass: a lexicon file makes
    thousands of entries, and a tuple is built at a fraction of the cost.
    """

    word: str  # lowercase; multiword entries use single spaces
    polarity: Polarity
    stemmed: bool = False
    pos_tag: PosTag = PosTag.UNCONSTRAINED
    strength: Strength = Strength.UNSPECIFIED

    @property
    def is_scoring(self) -> bool:
        return self.polarity in SCORING_POLARITIES


_MPQA_KEYS = ("type", "len", "word1", "pos1", "stemmed1", "priorpolarity")

_STRENGTHS = {"strongsubj": Strength.STRONGSUBJ, "weaksubj": Strength.WEAKSUBJ}
_POS_TAGS = {t.value: t for t in PosTag if t is not PosTag.UNCONSTRAINED}
_POLARITIES = {p.value: p for p in Polarity}
_STEMMED = {"y": True, "n": False}


def parse_mpqa_line(line: str) -> tuple[LexiconEntry, int]:
    """Parse a key=value entry line; unknown keys are ignored and counted, a known key given twice is refused."""
    pairs: dict[str, str] = {}
    unknown = 0
    for token in line.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise InvalidValue("entry", token)
        if key not in _MPQA_KEYS:
            unknown += 1
        elif key in pairs:
            raise InputError(f"key {key!r} is given more than once")
        else:
            pairs[key] = value
    for key in _MPQA_KEYS:
        if key not in pairs:
            raise MissingField(key, line)

    strength = _STRENGTHS.get(pairs["type"])
    if strength is None:
        raise InvalidValue("type", pairs["type"])
    pos_tag = _POS_TAGS.get(pairs["pos1"])
    if pos_tag is None:
        raise InvalidValue("pos1", pairs["pos1"])
    stemmed = _STEMMED.get(pairs["stemmed1"])
    if stemmed is None:
        raise InvalidValue("stemmed1", pairs["stemmed1"])
    polarity = _POLARITIES.get(pairs["priorpolarity"])
    if polarity is None:
        raise InvalidValue("priorpolarity", pairs["priorpolarity"])
    try:
        length = int(pairs["len"])
    except ValueError:
        raise InvalidValue("len", pairs["len"]) from None
    if length < 1:
        raise InvalidValue("len", pairs["len"])

    word = pairs["word1"].lower().replace("_", " ")
    if not word:
        raise InputError("lexicon entry word is empty")
    if word.count(" ") + 1 != length:
        raise InvalidValue("len", pairs["len"])
    return LexiconEntry(word, polarity, stemmed, pos_tag, strength), unknown


def parse_mpqa_file(path: str | Path) -> tuple[list[LexiconEntry], int]:
    """All entries of a structured lexicon file plus total unknown-key count."""
    path = Path(path)
    if not path.exists():
        raise LexiconNotFound(f"lexicon file not found: {path}")
    entries = []
    warnings = 0
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        raw = raw.strip()
        if not raw or raw.startswith(";"):
            continue
        try:
            entry, unknown = parse_mpqa_line(raw)
        except InputError as exc:
            raise MalformedRecord(str(exc), source=str(path), position=lineno) from exc
        entries.append(entry)
        warnings += unknown
    if not entries:
        raise EmptyList(str(path))
    return entries, warnings


def load_wordlist(path: str | Path, polarity: Polarity) -> list[LexiconEntry]:
    """Flat one-word-per-line list; lowercased, deduplicated, ';' comments."""
    path = Path(path)
    if not path.exists():
        raise LexiconNotFound(f"lexicon file not found: {path}")
    # one pass over the lowercased file; dict keys keep the first of each word, in file order
    words = dict.fromkeys(line.strip() for line in read_text(path).lower().splitlines())
    entries = [LexiconEntry(word, polarity) for word in words if word and not word.startswith(";")]
    if not entries:
        raise EmptyList(str(path))
    return entries


@dataclass(frozen=True)
class Lexicon:
    """Entries in file order, without duplicates."""

    name: str
    entries: tuple[LexiconEntry, ...]
    duplicate_warnings: int = 0

    def scoring_entries(self) -> list[LexiconEntry]:
        return [e for e in self.entries if e.is_scoring]

    def words(self, polarity: Polarity) -> set[str]:
        return {e.word for e in self.entries if e.polarity is polarity}


def build_lexicon(name: str, entries: Iterable[LexiconEntry]) -> Lexicon:
    """Duplicate (word, pos_tag, stemmed) entries keep the first."""
    entries = list(entries)
    if not entries:
        raise EmptyList(name)
    unique: dict[tuple[str, PosTag, bool], LexiconEntry] = {}
    for entry in entries:
        unique.setdefault((entry.word, entry.pos_tag, entry.stemmed), entry)
    return Lexicon(name=name, entries=tuple(unique.values()), duplicate_warnings=len(entries) - len(unique))


@dataclass(frozen=True)
class ComparisonReport:
    """Per-polarity unique/shared word lists, frequency-ordered."""

    unique_to_a: Mapping[Polarity, tuple[str, ...]]
    unique_to_b: Mapping[Polarity, tuple[str, ...]]
    shared: Mapping[Polarity, tuple[str, ...]]


def compare_lexica(
    a: Lexicon,
    b: Lexicon,
    corpus_freq: Mapping[str, int],
    min_count: int = 1,
) -> ComparisonReport:
    """Unique and shared scoring words, restricted to corpus-frequency >= min_count >= 1."""

    def qualifying(words: set[str]) -> set[str]:
        return {w for w in words if corpus_freq.get(w, 0) >= min_count}

    def ordered(words: set[str]) -> tuple[str, ...]:
        return tuple(sorted(words, key=lambda w: (-corpus_freq.get(w, 0), w)))

    unique_a: dict[Polarity, tuple[str, ...]] = {}
    unique_b: dict[Polarity, tuple[str, ...]] = {}
    shared: dict[Polarity, tuple[str, ...]] = {}
    for polarity in SCORING_POLARITIES:
        words_a = qualifying(a.words(polarity))
        words_b = qualifying(b.words(polarity))
        unique_a[polarity] = ordered(words_a - words_b)
        unique_b[polarity] = ordered(words_b - words_a)
        shared[polarity] = ordered(words_a & words_b)
    return ComparisonReport(unique_to_a=unique_a, unique_to_b=unique_b, shared=shared)


def corpus_frequencies(tokenized_articles: Iterable[Sequence[Sequence[str]]]) -> Counter[str]:
    """Word frequencies over tokenized articles (sentences of tokens)."""
    return Counter(chain.from_iterable(chain.from_iterable(tokenized_articles)))
