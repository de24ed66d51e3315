"""Small shared helpers: deterministic CSV output, atomic writes, seed streams."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence


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
