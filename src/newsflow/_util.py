"""Small shared helpers: checked CSV input, deterministic CSV output, atomic writes, seed streams."""

from __future__ import annotations

import csv
import math
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import InputError, MalformedRecord

T = TypeVar("T")


def read_csv_rows(
    path: str | Path,
    required: Sequence[str],
    parse: Callable[[Mapping[str, str]], T],
) -> list[T]:
    """`parse` applied to each non-blank data row, as a column -> cell mapping.

    A missing required column, a row whose field count differs from the
    header's, or a ValueError or InputError from `parse` raises MalformedRecord
    with the file and line.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
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
            raise MalformedRecord(str(exc), source=str(path), position=reader.line_num) from exc
    return parsed


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
