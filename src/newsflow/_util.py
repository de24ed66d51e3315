"""Small shared helpers: checked text input, CSV input streamed in blocks into
label and number columns, the symbol × day array it is read into,
deterministic CSV output formatted in blocks by the same column kinds,
atomic writes, seed streams."""

from __future__ import annotations

import codecs
import csv
import gc
import os
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path
from typing import Callable, Iterator, Mapping, NoReturn, Sequence, TextIO, TypeVar

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


# the kinds of column read_csv_columns reads and write_csv writes: labels;
# finite floats; finite floats, an empty cell NaN; integers, as floats
KEY, FLOAT, FLOAT_OR_BLANK, INT = "key", "float", "float or blank", "int"
BLOCK_ROWS = 1024  # rows read into columns, or written from them, at a time


@dataclass(frozen=True)
class KeyColumn:
    """A column of labels: its distinct cells, in order of first appearance, and each row's index into them."""

    cells: list[str]
    codes: np.ndarray

    def __getitem__(self, row: int) -> str:
        return self.cells[self.codes[row]]

    def __iter__(self) -> Iterator[str]:
        return map(self.cells.__getitem__, self.codes.tolist())

    def map(self, fn: Callable[[str], str]) -> "KeyColumn":
        """fn applied to every cell, so to each distinct cell once."""
        return KeyColumn(list(map(fn, self.cells)), self.codes)

    def head(self, n_rows: int) -> "KeyColumn":
        """The column's first n_rows rows."""
        return KeyColumn(self.cells, self.codes[:n_rows])


@dataclass(frozen=True)
class NumberColumn:
    """A column of numbers as floats, NaN from its first bad cell on.

    `fault` is that cell's row and message, None if every cell is good;
    `exact` holds the integer cells a float may round, by row.
    """

    values: np.ndarray
    fault: tuple[int, str] | None
    exact: Mapping[int, int]

    def head(self, n_rows: int) -> "NumberColumn":
        """The column's first n_rows rows, with its fault if it lies among them."""
        fault = self.fault if self.fault is not None and self.fault[0] < n_rows else None
        return NumberColumn(self.values[:n_rows], fault, self.exact)

    def integer(self, row: int) -> int:
        """The integer a good cell of an INT column holds, exactly."""
        return self.exact.get(row, int(self.values[row]))


Column = KeyColumn | NumberColumn


def read_csv_columns(
    path: str | Path,
    kinds: Mapping[str, str],
    convert: Callable[[Mapping[str, Column]], T],
) -> T:
    """`convert` applied to the non-blank data rows, as required column -> column.

    `kinds` names each required column's kind.  The file is streamed through
    csv.reader in blocks of BLOCK_ROWS rows, and each block is turned into
    columns before the next is read: a KEY column into its distinct cells and
    one code per row, a number column into a float array by one float() or
    int() per cell, recording its first bad cell.  So no cell outlives its
    block but the first of each distinct label.

    A file without a header, or without a required column, raises
    MalformedRecord with the file and line; a file that cannot be read, or
    that is not UTF-8, raises what read_text raises.  `convert` checks whole
    columns: for the first row that breaks a rule it raises RowRejected,
    checking the rules of a row in a fixed order.  Then, or when a row's
    field count differs from the header's or csv cannot read a row,
    _first_fault raises MalformedRecord for the first offending row in file
    order, with its line and message.
    """
    with _csv_text(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            if not header:
                raise InputError("no header")
            missing = [name for name in kinds if name not in header]
            if missing:
                raise InputError(f"missing column(s) {', '.join(missing)}")
        except (InputError, csv.Error) as exc:
            # an empty file has read no line yet
            raise MalformedRecord(str(exc), source=str(path), position=max(reader.line_num, 1)) from exc
        try:
            with _gc_paused():
                columns, ragged = _encode(filter(None, reader), header, kinds)
        except csv.Error:
            columns = None
    if columns is not None and ragged is None:
        try:
            return convert(columns)
        except RowRejected:
            pass
    del columns  # before the error path encodes the file again
    _first_fault(path, header, kinds, convert)


@contextmanager
def _csv_text(path: str | Path) -> Iterator[TextIO]:
    """The file as UTF-8 text for csv.reader, decoded to its end whatever the reader does.

    So an invalid byte anywhere in the file, like a file that cannot be read,
    raises read_text's error for it, before any other fault the file has.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            try:
                yield handle
            finally:
                while handle.read(1 << 20):
                    pass
    except (OSError, UnicodeDecodeError):
        read_text(path)
        raise


@contextmanager
def _gc_paused() -> Iterator[None]:
    # the csv parser makes one list per row, and the cyclic garbage collector
    # would scan them again and again: it is paused, and left as the caller had it
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _encode(
    rows: Iterator[list[str]], header: Sequence[str], kinds: Mapping[str, str]
) -> tuple[dict[str, Column], tuple[int, int] | None]:
    """The rows as columns of the required kinds, block by block.

    They end before the first row whose field count differs from the
    header's; that row's index and field count are returned with them, or None.
    """
    at = {name: j for j, name in enumerate(header)}  # a repeated name is its last column
    encoders = {name: _Keys() if kind == KEY else _Numbers(kind) for name, kind in kinds.items()}
    n_rows, ragged = 0, None
    while block := list(islice(rows, BLOCK_ROWS)):
        if set(map(len, block)) != {len(header)}:
            cut = next(i for i, cells in enumerate(block) if len(cells) != len(header))
            ragged = (n_rows + cut, len(block[cut]))
            del block[cut:]
        if block:
            cells = list(zip(*block))
            for name, encoder in encoders.items():
                encoder.add(cells[at[name]], n_rows)
            n_rows += len(block)
        if ragged is not None:
            break
    return {name: encoder.column() for name, encoder in encoders.items()}, ragged


def _concatenate(blocks: list[np.ndarray], dtype: type) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=dtype)


class _Keys:
    """A KEY column, a block at a time: codes in order of first appearance."""

    def __init__(self):
        self.code_of: dict[str, int] = defaultdict(count().__next__)
        self.blocks: list[np.ndarray] = []

    def add(self, cells: Sequence[str], start: int) -> None:
        self.blocks.append(np.fromiter(map(self.code_of.__getitem__, cells), dtype=np.intp, count=len(cells)))

    def column(self) -> KeyColumn:
        return KeyColumn(list(self.code_of), _concatenate(self.blocks, np.intp))


class _Numbers:
    """A number column, a block at a time, up to its first bad cell."""

    def __init__(self, kind: str):
        self.kind = kind
        self.blocks: list[np.ndarray] = []
        self.fault: tuple[int, str] | None = None
        self.exact: dict[int, int] = {}

    def add(self, cells: Sequence[str], start: int) -> None:
        if self.fault is not None:  # no prefix that reaches these rows is ever accepted
            self.blocks.append(np.full(len(cells), np.nan))
            return
        values, fault, exact = _parse_numbers(cells, self.kind)
        self.blocks.append(values)
        if fault is not None:
            self.fault = (start + fault[0], fault[1])
        self.exact.update((start + row, value) for row, value in exact.items())

    def column(self) -> NumberColumn:
        return NumberColumn(_concatenate(self.blocks, float), self.fault, self.exact)


def _parse_numbers(
    cells: Sequence[str], kind: str
) -> tuple[np.ndarray, tuple[int, str] | None, dict[int, int]]:
    """One block of a number column: its floats, NaN from its first bad cell on,
    that cell's index and message or None, and the integers a float may round."""
    text = [cell or "nan" for cell in cells] if kind == FLOAT_OR_BLANK else cells
    parse = int if kind == INT else float
    fault = None
    try:
        parsed = list(map(parse, text))
        values = np.array(parsed, dtype=float)
    except (ValueError, OverflowError):
        fault = _first_error(parse, text)
        parsed = list(map(parse, text[:fault[0]]))
        values = np.array(parsed, dtype=float)
    if kind == INT:
        big = np.flatnonzero(np.abs(values) >= 2.0 ** 53).tolist()  # 2**53 + 1 rounds down to 2**53
        exact = {row: parsed[row] for row in big}
    else:
        exact = {}
        nonfinite = np.flatnonzero(~np.isfinite(values)).tolist()
        row = next((row for row in nonfinite if cells[row]), None)  # a blank cell is not one
        if row is not None:
            fault = (row, f"non-finite number {cells[row]!r}")
    if fault is not None:
        values = np.concatenate([values[:fault[0]], np.full(len(cells) - fault[0], np.nan)])
    return values, fault, exact


def _first_error(parse: Callable[[str], object], cells: Sequence[str]) -> tuple[int, str]:
    for row, cell in enumerate(cells):
        try:
            float(parse(cell))
        except (ValueError, OverflowError) as exc:
            return row, str(exc)
    raise AssertionError("no cell to reject")


def _first_fault(path: str | Path, header: Sequence[str], kinds: Mapping[str, str], convert: Callable) -> NoReturn:
    """MalformedRecord for the first row in file order that read_csv_columns rejects.

    The rows are encoded again as read_csv_columns encodes them, noting each
    one's line, up to the first that has the wrong field count or that csv
    cannot read.  `convert` then runs on shorter and shorter leading runs of
    the rows before it: a run that ends just before a row `convert` rejected
    holds no offending row if `convert` accepts it.
    """
    lines: list[int] = []
    fault: tuple[str, int] | None = None  # (message, line)

    def rows():
        nonlocal fault
        try:
            for cells in reader:
                if cells:
                    lines.append(reader.line_num)
                    yield cells
        except csv.Error as exc:
            fault = (str(exc), reader.line_num)

    with _csv_text(path) as handle:
        reader = csv.reader(handle)
        next(reader)
        with _gc_paused():
            columns, ragged = _encode(rows(), header, kinds)
    n_rows = len(lines)
    if ragged is not None:
        n_rows, width = ragged
        fault = (f"{width} fields where the header has {len(header)}", lines[n_rows])
    while True:
        try:
            convert({name: column.head(n_rows) for name, column in columns.items()})
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


def numbers(column: NumberColumn) -> np.ndarray:
    """A number column's floats; its first bad cell raises RowRejected."""
    if column.fault is not None:
        raise RowRejected(*column.fault)
    return column.values


def column_codes(column: KeyColumn) -> tuple[list[str], np.ndarray]:
    """The sorted distinct cells of a column, and each row's index into them."""
    distinct = sorted(set(column.cells))
    code_of = {cell: code for code, cell in enumerate(distinct)}
    recode = np.fromiter(map(code_of.__getitem__, column.cells), dtype=np.intp, count=len(column.cells))
    return distinct, recode[column.codes]


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


def _fmt_column(values: Sequence[float | None] | np.ndarray) -> list[str]:
    """Floats as CSV cells: repr-exact, and empty for NaN or None (a missing value)."""
    values = np.asarray(values, dtype=float)
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def _fmt_int_column(values: Sequence[int] | np.ndarray) -> list[str]:
    """Integers (or integral floats, or bools) as CSV cells, by str of the int."""
    return list(map(str, np.asarray(values).astype(np.int64).tolist()))


# how write_csv turns a block of each kind of column into cells
_FORMATS = {KEY: lambda cells: cells, FLOAT: _fmt_column, FLOAT_OR_BLANK: _fmt_column, INT: _fmt_int_column}


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


def write_csv(path: str | Path, kinds: Mapping[str, str], columns: Sequence[Sequence | np.ndarray]) -> None:
    """A CSV file of the named columns, one per entry of `kinds`, all of one length.

    `kinds` is the mapping read_csv_columns reads the file back with.  Each
    column is formatted by its kind BLOCK_ROWS rows at a time, so no more
    than one block's cells exist at once: a KEY column's cells as given,
    floats repr-exact with NaN or None empty, integers by str of the int.
    Columns of unequal length, or not one per kind, raise ValueError.
    """
    lengths = {len(column) for column in columns}
    if len(columns) != len(kinds) or len(lengths) > 1:
        raise ValueError(f"{len(columns)} columns of lengths {sorted(lengths)} for {len(kinds)} kinds")
    formats = [_FORMATS[kind] for kind in kinds.values()]
    blocks = [",".join(kinds) + "\n"]
    for start in range(0, max(lengths, default=0), BLOCK_ROWS):
        cells = [fmt(column[start:start + BLOCK_ROWS]) for fmt, column in zip(formats, columns)]
        blocks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    text = "".join(blocks)
    del blocks  # before the write copies the text once more
    atomic_write_text(path, text)


def split_seed(master_seed: int, stream: str) -> int:
    """Derive a deterministic sub-seed for a named stream of a master seed."""
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
