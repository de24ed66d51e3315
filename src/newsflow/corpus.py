"""Article corpus loading, validation, and trading-day alignment.

Articles arrive either as one-JSON-object-per-line files or as a directory
of text files with JSON metadata sidecars.  Each record is checked once, by
the loader that reads it; the records themselves carry no checks.  A trading
calendar (one ISO date per line) assigns each article to the trading day
whose session window contains its timestamp; the window for day t runs from
the day boundary of t up to (not including) the boundary of the next trading
day, so weekend and holiday articles fall back to the previous trading day.
"""

from __future__ import annotations

import datetime as dt
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from ._util import KeyColumn, RowRejected, read_text
from .errors import DuplicateId, EmptyCorpus, InputError, MalformedRecord, MissingInput

_MIDNIGHT = dt.time(0, 0)


def _parse_timestamp(raw: str) -> dt.datetime:
    """ISO-8601 to naive UTC: aware stamps are converted, naive taken as-is."""
    stamp = dt.datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(dt.timezone.utc).replace(tzinfo=None)
    return stamp


@dataclass(frozen=True)
class Article:
    id: str
    published_at: dt.datetime
    symbols: frozenset[str]
    title: str
    body: str
    contributor: str | None = None


@dataclass(frozen=True)
class TradingCalendar:
    """Strictly increasing trading dates, as from_file checks them, with contiguous ordinals from 0."""

    days: tuple[dt.date, ...]
    index: Mapping[dt.date, int] = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "index", {d: t for t, d in enumerate(self.days)})

    def __len__(self) -> int:
        return len(self.days)

    @classmethod
    def from_file(cls, path: str | Path) -> "TradingCalendar":
        days = []
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                day = dt.date.fromisoformat(line)
            except ValueError as exc:
                raise MalformedRecord(str(exc), source=str(path), position=lineno) from exc
            if days and day <= days[-1]:
                raise MalformedRecord(f"calendar dates not strictly increasing at {day}",
                                      source=str(path), position=lineno)
            days.append(day)
        if not days:
            raise InputError("trading calendar is empty")
        return cls(days=tuple(days))

    def days_of(self, dates: KeyColumn, off_calendar: Callable[[str, dt.date], str]) -> np.ndarray:
        """The ordinal of each ISO date cell, parsing each distinct cell once.

        The first cell that is not an ISO date, or whose date is not a trading
        day, raises RowRejected; off_calendar(cell, date) words the latter.
        """
        day_of = []
        for cell in dates.cells:
            try:
                day_of.append(self.index.get(dt.date.fromisoformat(cell), -1))
            except ValueError:
                day_of.append(-1)
        days = np.array(day_of, dtype=np.intp)[dates.codes]
        if (days < 0).any():
            row = int((days < 0).argmax())
            try:
                date = dt.date.fromisoformat(dates[row])
            except ValueError as exc:
                raise RowRejected(row, str(exc)) from None
            raise RowRejected(row, off_calendar(dates[row], date))
        return days


@dataclass(frozen=True)
class ArticleSet:
    articles: tuple[Article, ...]
    # each article's trading-day ordinal, None outside every session window; set by assign_trading_days
    days: tuple[int | None, ...] | None = None

    def __len__(self) -> int:
        return len(self.articles)

    @property
    def unassigned_count(self) -> int:
        return self.days.count(None) if self.days is not None else 0

    @property
    def symbols(self) -> set[str]:
        out: set[str] = set()
        for art in self.articles:
            out.update(art.symbols)
        return out


def _article_from_record(record: dict, source: str, position: int) -> Article:
    for key in ("id", "published_at", "symbols", "title", "body"):
        if key not in record:
            raise MalformedRecord(f"missing field {key!r}", source=source, position=position)
    # an integer id reads as its digits; str() of null, a float or a container would make one up
    if isinstance(record["id"], bool) or not isinstance(record["id"], (str, int)):
        raise MalformedRecord("id must be a string or an integer", source=source, position=position)
    for key in ("published_at", "title", "body"):
        if not isinstance(record[key], str):
            raise MalformedRecord(f"{key} must be a string", source=source, position=position)
    symbols = record["symbols"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) and s.strip() for s in symbols):
        raise MalformedRecord("symbols must be an array of non-blank strings", source=source, position=position)
    try:
        published = _parse_timestamp(record["published_at"])
    except ValueError as exc:
        raise MalformedRecord(f"bad published_at: {exc}", source=source, position=position) from exc
    article_id = str(record["id"])
    if not article_id:
        raise MalformedRecord("article id is empty", source=source, position=position)
    if not record["body"]:
        raise MalformedRecord(f"article {article_id!r} has empty body", source=source, position=position)
    return Article(
        id=article_id,
        published_at=published,
        symbols=frozenset(s.upper() for s in symbols),
        title=record["title"],
        body=record["body"],
        contributor=record.get("contributor"),
    )


def load_articles(path: str | Path, format: str = "jsonl") -> ArticleSet:
    """Load a corpus of checked, distinct-id records; `format` is a key of CORPUS_FORMATS."""
    path = Path(path)
    articles = CORPUS_FORMATS[format](path)
    if not articles:
        raise EmptyCorpus(f"no articles found in {path}")
    ids = set()
    for art in articles:
        if art.id in ids:
            raise DuplicateId(art.id)
        ids.add(art.id)
    return ArticleSet(articles=tuple(articles))


def _load_jsonl(path: Path) -> list[Article]:
    articles = []
    # lines end where a text-mode file's do, not at every str.splitlines() boundary
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"bad JSON: {exc}", source=str(path), position=lineno) from exc
        if not isinstance(record, dict):
            raise MalformedRecord("record is not an object", source=str(path), position=lineno)
        articles.append(_article_from_record(record, str(path), lineno))
    return articles


def _load_directory(path: Path) -> list[Article]:
    """Directory format: ``<name>.json`` metadata sidecar + ``<name>.txt`` body."""
    if not path.exists():  # an absent directory globs to no articles
        raise MissingInput(f"cannot read {path}: No such file or directory")
    articles = []
    for meta_path in sorted(path.glob("*.json")):
        body_path = meta_path.with_suffix(".txt")
        if not body_path.exists():
            raise MalformedRecord("missing .txt body for sidecar", source=str(meta_path))
        try:
            record = json.loads(read_text(meta_path))
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"bad JSON: {exc}", source=str(meta_path)) from exc
        if not isinstance(record, dict):
            raise MalformedRecord("record is not an object", source=str(meta_path))
        record["body"] = read_text(body_path)
        articles.append(_article_from_record(record, str(meta_path), 1))
    return articles


# the loader of each corpus format, named by [corpus] format
CORPUS_FORMATS = {"jsonl": _load_jsonl, "directory_of_text_files": _load_directory}


def assign_trading_days(
    article_set: ArticleSet,
    calendar: TradingCalendar,
    boundary: dt.time = _MIDNIGHT,
) -> ArticleSet:
    """The same articles, with the trading day whose window contains each.

    Day t covers [boundary(date_t), boundary(date_{t+1})); the last day's
    window closes at boundary(last date + 1 calendar day).  Articles outside
    every window get day None and are counted, never dropped.
    """
    starts = [dt.datetime.combine(d, boundary) for d in calendar.days]
    end = dt.datetime.combine(calendar.days[-1] + dt.timedelta(days=1), boundary)
    days = tuple(
        bisect_right(starts, art.published_at) - 1 if starts[0] <= art.published_at < end else None
        for art in article_set.articles
    )
    return ArticleSet(articles=article_set.articles, days=days)


def filter_by_symbols(article_set: ArticleSet, symbols: Iterable[str]) -> ArticleSet:
    """Keep articles whose symbol set intersects ``symbols`` (case-insensitive), and their days."""
    wanted = {s.upper() for s in symbols}
    kept = [i for i, art in enumerate(article_set.articles) if art.symbols & wanted]
    days = article_set.days
    return ArticleSet(
        articles=tuple(article_set.articles[i] for i in kept),
        days=None if days is None else tuple(days[i] for i in kept),
    )
