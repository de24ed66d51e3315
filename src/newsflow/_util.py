"""Small shared helpers: checked text and CSV input, the symbol × day array it is
read into, deterministic CSV output, atomic writes, seed streams."""

from __future__ import annotations

import codecs
import csv
import gc
import io
import os
import tempfile
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, NoReturn, Sequence, TypeVar

import numpy as np

from .errors import InputError, InvalidValue, MalformedRecord, MissingInput

T = TypeVar("T")


def read_text(path: str | Path) -> str:
    """A UTF-8 text file, with or without a byte-order mark.

    Every input file is read here, so this is where a file that cannot be
    read is caught: an absent path, a directory or a file without read
    permission raises MissingInput, "cannot read <path>: <reason>".  Bytes
    that are not UTF-8 raise MalformedRecord with the file and line.
    """
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise MissingInput(f"cannot read {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRecord(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                              source=str(path), position=line) from None


class RowRejected(Exception):
    """A columnar check rejected data row `row` (counted from 0, blank rows skipped)."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def read_csv_columns(
    path: str | Path,
    required: Sequence[str],
    convert: Callable[[Mapping[str, Sequence[str]]], T],
) -> T:
    """`convert` applied to the non-blank data rows, as a column -> cells mapping.

    The file is read by read_text and parsed once by csv.reader.  A file
    without a header, or without a required column, raises MalformedRecord
    with the file and line.  `convert` checks whole columns: for the first row
    that breaks a rule it raises RowRejected, checking the rules of a row in a
    fixed order.  Then, or when a row's field count differs from the header's
    or csv cannot read a row, _first_fault raises MalformedRecord for the
    first offending row in file order, with its line and message.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, [])
        if not header:
            raise InputError("no header")
        missing = [name for name in required if name not in header]
        if missing:
            raise InputError(f"missing column(s) {', '.join(missing)}")
    except (InputError, csv.Error) as exc:
        # an empty file has read no line yet
        raise MalformedRecord(str(exc), source=str(path), position=max(reader.line_num, 1)) from exc
    # the parse and the transpose make one container per row and per column,
    # and the cyclic garbage collector would scan them all again and again:
    # it is paused there, and left as the caller had it
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            rows = list(filter(None, reader))
        except csv.Error:
            rows = None
        del reader  # and with it the parser's copy of the text
        columns = None
        if rows is not None and set(map(len, rows)) <= {len(header)}:
            columns = _transpose(header, rows)
        del rows  # the cells live on in the columns
    finally:
        if collecting:
            gc.enable()
    if columns is not None:
        try:
            return convert(columns)
        except RowRejected:
            pass
    _first_fault(path, header, convert)


def _transpose(header: Sequence[str], rows: Sequence[Sequence[str]]) -> dict[str, list[str]]:
    # one map per column: zip(*rows) would make an iterator per row for the
    # cyclic garbage collector to scan again and again on large files
    return {name: list(map(itemgetter(j), rows)) for j, name in enumerate(header)}


def _first_fault(path: str | Path, header: Sequence[str], convert: Callable) -> NoReturn:
    """MalformedRecord for the first row in file order that read_csv_columns rejects.

    Rows are read again one at a time, up to the first that has the wrong
    field count or that csv cannot read.  `convert` then runs on shorter and
    shorter leading runs of the rows before it: a run that ends just before
    a row `convert` rejected holds no offending row if `convert` accepts it.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    next(reader)
    rows: list[list[str]] = []
    lines: list[int] = []
    fault: tuple[str, int] | None = None  # (message, line)
    try:
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                fault = (f"{len(cells)} fields where the header has {len(header)}", reader.line_num)
                break
            rows.append(cells)
            lines.append(reader.line_num)
    except csv.Error as exc:
        fault = (str(exc), reader.line_num)
    n_rows = len(rows)
    while True:
        try:
            convert(_transpose(header, rows[:n_rows]))
            break
        except RowRejected as exc:
            fault, n_rows = (str(exc), lines[exc.row]), exc.row
    assert fault is not None, "read_csv_columns rejected rows that its error path accepts"
    message, line = fault
    raise MalformedRecord(message, source=str(path), position=line)


def reject(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """RowRejected for the first row where `bad` holds, worded by message(row)."""
    if bad.any():
        row = int(bad.argmax())
        raise RowRejected(row, message(row))


def reject_repeats(keys: np.ndarray, message: Callable[[int], str]) -> None:
    """RowRejected for the first row whose nonnegative integer key an earlier row has."""
    if keys.size and np.bincount(keys).max() > 1:
        first = np.zeros(keys.size, dtype=bool)
        first[np.unique(keys, return_index=True)[1]] = True
        reject(~first, message)


def float_column(cells: Sequence[str], blank: bool = False) -> np.ndarray:
    """Finite float cells as an array, converted by one float() per cell.

    With `blank`, an empty cell is NaN.  The first cell float() rejects, or
    the first non-finite one, raises RowRejected.
    """
    text = [cell or "nan" for cell in cells] if blank else cells
    try:
        values = np.array(list(map(float, text)), dtype=float)
    except ValueError:
        _reject_first(float, text)
    bad = ~np.isfinite(values)
    if blank:
        bad &= np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    reject(bad, lambda row: f"non-finite number {cells[row]!r}")
    return values


def int_column(cells: Sequence[str]) -> np.ndarray:
    """Integer cells as a float array, converted by one int() per cell.

    The first cell int() rejects, or the first too large for a float,
    raises RowRejected.
    """
    try:
        return np.array(list(map(int, cells)), dtype=float)
    except (ValueError, OverflowError):
        _reject_first(lambda cell: float(int(cell)), cells)


def _reject_first(parse: Callable[[str], object], cells: Sequence[str]) -> NoReturn:
    for row, cell in enumerate(cells):
        try:
            parse(cell)
        except (ValueError, OverflowError) as exc:
            raise RowRejected(row, str(exc)) from None
    raise AssertionError("no cell to reject")


def column_codes(cells: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct cells of a column, and each cell's index into them."""
    distinct = sorted(set(cells))
    code_of = {cell: code for code, cell in enumerate(distinct)}
    return distinct, np.fromiter(map(code_of.__getitem__, cells), dtype=np.intp, count=len(cells))


@dataclass(frozen=True)
class SymbolDayArray:
    """Named fields as a (field, symbol, day) array, NaN where absent or None."""

    fields: tuple[str, ...]
    symbols: tuple[str, ...]
    values: np.ndarray

    @classmethod
    def from_columns(
        cls, fields: Sequence[str], symbols: Sequence[str], symbol_index: np.ndarray,
        days: np.ndarray, values: np.ndarray, n_days: int,
    ) -> "SymbolDayArray":
        """Rows as columns: each row's index into `symbols`, its day, and a (field, row) array of values."""
        out = np.full((len(fields), len(symbols), n_days), np.nan)
        out[:, symbol_index, days] = values
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


def fmt_column(values: Sequence[float | None] | np.ndarray) -> list[str]:
    """Floats as CSV cells: repr-exact, and empty for NaN or None (a missing value)."""
    values = np.asarray(values, dtype=float)
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def fmt_int_column(values: Sequence[int] | np.ndarray) -> list[str]:
    """Integers (or integral floats, or bools) as CSV cells, by str of the int."""
    return list(map(str, np.asarray(values).astype(np.int64).tolist()))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via temp-file + rename so partial output never lands.

    A path that cannot be written, such as one a directory stands at, is an
    InvalidValue of `[run] output`.
    """
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InvalidValue("[run] output", f"{path} ({exc.strerror})") from None
        raise


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """A CSV file from columns of cells of equal length, one ",".join per row."""
    lines = [",".join(header), *map(",".join, zip(*columns, strict=True))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def split_seed(master_seed: int, stream: str) -> int:
    """Derive a deterministic sub-seed for a named stream of a master seed."""
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
