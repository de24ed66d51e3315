"""Small shared helpers: checked text and CSV input, the symbol × day array it is
read into, deterministic CSV output, atomic writes, seed streams."""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import CalendarMismatch, InputError, MalformedRecord

T = TypeVar("T")


def read_text(path: str | Path) -> str:
    """A UTF-8 text file, with or without a byte-order mark.

    Bytes that are not UTF-8 raise MalformedRecord with the file and line.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRecord(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                              source=str(path), position=line) from None


def read_csv_rows(
    path: str | Path,
    required: Sequence[str],
    parse: Callable[[Mapping[str, str]], T],
) -> list[T]:
    """`parse` applied to each non-blank data row, as a column -> cell mapping.

    The file is read by read_text.  A file without a header, a missing
    required column, a row whose field count differs from the header's, or a
    ValueError or InputError from `parse` raises MalformedRecord with the file
    and line.
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


@dataclass(frozen=True)
class SymbolDayArray:
    """Named fields as a (field, symbol, day) array, NaN where absent or None."""

    fields: tuple[str, ...]
    symbols: tuple[str, ...]
    values: np.ndarray

    @classmethod
    def from_rows(cls, fields: Sequence[str], rows: Sequence[tuple], n_days: int) -> "SymbolDayArray":
        """(symbol, day, *field values) rows, on their sorted symbols and a calendar of n_days.

        A day outside the calendar raises CalendarMismatch.
        """
        symbols = sorted({row[0] for row in rows})
        out = np.full((len(fields), len(symbols), n_days), np.nan)
        if rows:
            row_of = {sym: i for i, sym in enumerate(symbols)}
            row_symbols, days, *columns = zip(*rows)
            outside = [day for day in days if not 0 <= day < n_days]
            if outside:
                raise CalendarMismatch(f"day {outside[0]} outside the {n_days}-day calendar")
            out[:, [row_of[sym] for sym in row_symbols], days] = np.array(columns, dtype=float)
        return cls(fields=tuple(fields), symbols=tuple(symbols), values=out)

    def plane(self, name: str) -> np.ndarray:
        """One field as a (symbol, day) array."""
        return self.values[self.fields.index(name)]

    def on(self, symbols: Sequence[str]) -> "SymbolDayArray":
        """The same fields on another symbol axis; a symbol new to it gets a NaN row."""
        row_of = {sym: i for i, sym in enumerate(self.symbols)}
        out = np.full((len(self.fields), len(symbols), self.values.shape[2]), np.nan)
        for i, sym in enumerate(symbols):
            if sym in row_of:
                out[:, i] = self.values[:, row_of[sym]]
        return SymbolDayArray(fields=self.fields, symbols=tuple(symbols), values=out)


def finite_float(text: str) -> float:
    """A CSV cell as a float; `inf`, `-inf` and `nan` raise InputError."""
    value = float(text)
    if not math.isfinite(value):
        raise InputError(f"non-finite number {text!r}")
    return value


def fmt_num(value: float | int | None) -> str:
    """Format a cell for CSV output: empty for missing, repr-exact for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN is a missing cell
        return ""
    return repr(float(value))


def fmt_column(values: np.ndarray) -> list[str]:
    """A float column as CSV cells, as fmt_num writes them: repr-exact, empty for NaN."""
    return [repr(x) if x == x else "" for x in values.tolist()]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via temp-file + rename so partial output never lands."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt_num(cell) for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def split_seed(master_seed: int, stream: str) -> int:
    """Derive a deterministic sub-seed for a named stream of a master seed."""
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
