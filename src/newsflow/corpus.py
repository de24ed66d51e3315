"""Article corpus loading, validation, and trading-day alignment.

Articles arrive either as one-JSON-object-per-line files or as a directory
of text files with JSON metadata sidecars.  A trading calendar (one ISO date
per line) assigns each article to the trading day whose session window
contains its timestamp; the window for day t runs from the day boundary of t
up to (not including) the boundary of the next trading day, so weekend and
holiday articles fall back to the previous trading day.
"""

from __future__ import annotations

import datetime as dt
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field, replace
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
    day: int | None = None  # trading-day ordinal, set by assign_trading_days

    def __post_init__(self):
        if not self.id:
            raise MalformedRecord("article id is empty")
        if not self.body:
            raise MalformedRecord(f"article {self.id!r} has empty body")


@dataclass(frozen=True)
class TradingCalendar:
    """Strictly increasing trading dates with contiguous ordinals from 0."""

    days: tuple[dt.date, ...]
    index: Mapping[dt.date, int] = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.days:
            raise InputError("trading calendar is empty")
        for prev, cur in zip(self.days, self.days[1:]):
            if cur <= prev:
                raise InputError(f"calendar dates not strictly increasing at {cur}")
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

    def month_of(self, day: int) -> tuple[int, int]:
        d = self.days[day]
        return (d.year, d.month)


@dataclass(frozen=True)
class ArticleSet:
    articles: tuple[Article, ...]
    unassigned_count: int = 0

    def __post_init__(self):
        ids = set()
        for art in self.articles:
            if art.id in ids:
                raise DuplicateId(art.id)
            ids.add(art.id)

    def __len__(self) -> int:
        return len(self.articles)

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
    try:
        return Article(
            id=str(record["id"]),
            published_at=published,
            symbols=frozenset(s.upper() for s in symbols),
            title=record["title"],
            body=record["body"],
            contributor=record.get("contributor"),
        )
    except MalformedRecord as exc:
        raise MalformedRecord(str(exc), source=source, position=position) from exc


def load_articles(path: str | Path, format: str = "jsonl") -> ArticleSet:
    """Load a corpus; each article's day stays None until assign_trading_days."""
    if format not in CORPUS_FORMATS:
        raise InputError(f"unknown corpus format {format!r}")
    path = Path(path)
    articles = CORPUS_FORMATS[format](path)
    if not articles:
        raise EmptyCorpus(f"no articles found in {path}")
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
    """Map each article to the trading day whose window contains it.

    Day t covers [boundary(date_t), boundary(date_{t+1})); the last day's
    window closes at boundary(last date + 1 calendar day).  Articles outside
    every window keep day=None and are counted, never dropped.
    """
    starts = [dt.datetime.combine(d, boundary) for d in calendar.days]
    end = dt.datetime.combine(calendar.days[-1] + dt.timedelta(days=1), boundary)

    assigned: list[Article] = []
    unassigned = 0
    for art in article_set.articles:
        stamp = art.published_at
        if stamp < starts[0] or stamp >= end:
            assigned.append(replace(art, day=None))
            unassigned += 1
            continue
        assigned.append(replace(art, day=bisect_right(starts, stamp) - 1))
    return ArticleSet(articles=tuple(assigned), unassigned_count=unassigned)


def filter_by_symbols(article_set: ArticleSet, symbols: Iterable[str]) -> ArticleSet:
    """Keep articles whose symbol set intersects ``symbols`` (case-insensitive)."""
    wanted = {s.upper() for s in symbols}
    if not wanted:
        raise InputError("symbol filter is empty")
    kept = tuple(a for a in article_set.articles if a.symbols & wanted)
    return ArticleSet(articles=kept, unassigned_count=sum(1 for a in kept if a.day is None))
