"""Golden summary of every output of the S fixture, build_fixture(20, 300, 2000).

The pipeline runs distill, indicators, panel (all five suites), simulate,
lexstats and report.  Each output file is summarized by its row count and,
for every numeric CSV column, by the count of filled cells, the minimum, the
maximum, the sum of absolute values and a row-weighted sum of absolute
values that moves when rows change order.  The summary is compared with
`golden/s_fixture.json` at a relative tolerance of 1e-12, so a refactor that
changes the last digits of a statistic still passes and anything larger fails.

Rewrite the golden file only for a change of results that is explained where
the change is recorded:

    PYTHONPATH=src python tests/test_golden.py

The writer replaces only the entries that the test flags and keeps the others
as pinned, so the diff of a rewrite shows exactly what a change moved.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import (
    assert_readers_agree,
    build_fixture,
    load_market_bar_rows,
    read_indicator_rows,
    read_market_rows,
    read_residual_rows,
    read_sector_rows,
    read_sentiment_rows,
)
from newsflow.cli import _load_sectors, _read_indicators_csv, _read_residual_pool, _read_sentiment_csv, main
from newsflow.corpus import TradingCalendar
from newsflow.indicators import load_market_bars
from newsflow.panel import MarketSeries

GOLDEN = Path(__file__).parent / "golden" / "s_fixture.json"
SUITES = ("entire", "lags_noncumulative", "lags_cumulative", "attention", "sector")
RTOL = 1e-12


def run_pipeline(root: Path) -> Path:
    config = str(root / "newsflow.ini")
    suites = [arg for suite in SUITES for arg in ("--suite", suite)]
    for argv in (["distill"], ["indicators"], ["panel", *suites], ["simulate"], ["lexstats"], ["report"]):
        assert main([argv[0], "--config", config, *argv[1:]]) == 0, argv[0]
    return root / "out"


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def summarize(out_dir: Path) -> dict[str, dict]:
    summary = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix in (".txt", ".svg"):
            summary[path.name] = {"rows": len(path.read_text(encoding="utf-8").splitlines())}
            continue
        if path.suffix != ".csv":
            continue
        with path.open(encoding="utf-8", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        columns = {}
        for j, name in enumerate(header):
            filled = [(i, _number(row[j])) for i, row in enumerate(rows, 1) if row[j] != ""]
            if not filled or any(value is None for _, value in filled):
                continue
            values = [value for _, value in filled]
            columns[name] = {
                "count": len(values),
                "min": min(values),
                "max": max(values),
                "abs_sum": math.fsum(abs(v) for v in values),
                "row_weighted_abs_sum": math.fsum(i * abs(v) for i, v in filled) / len(rows),
            }
        summary[path.name] = {"rows": len(rows), "columns": columns}
    return summary


def mismatches(actual: dict, expected: dict) -> list[str]:
    found = []
    if sorted(actual) != sorted(expected):
        found.append(f"files {sorted(actual)} != {sorted(expected)}")
    for name in sorted(actual.keys() & expected.keys()):
        got, want = actual[name], expected[name]
        if got["rows"] != want["rows"]:
            found.append(f"{name}: {got['rows']} rows, expected {want['rows']}")
        if sorted(got.get("columns", {})) != sorted(want.get("columns", {})):
            found.append(f"{name}: numeric columns {sorted(got.get('columns', {}))}")
            continue
        for column, stats in want.get("columns", {}).items():
            for stat, value in stats.items():
                if not _close(got["columns"][column][stat], value):
                    found.append(f"{name}:{column}:{stat} = {got['columns'][column][stat]!r}, expected {value!r}")
    return found


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def repinned(actual: dict, expected: dict) -> dict:
    """`expected` with each entry that mismatches() flags taken from `actual`."""
    pinned = {}
    for name, got in actual.items():
        want = expected.get(name)
        if want is None or sorted(got.get("columns", {})) != sorted(want.get("columns", {})):
            pinned[name] = got
            continue
        pinned[name] = {**want, "rows": got["rows"]}
        if "columns" in want:
            pinned[name]["columns"] = {
                column: {stat: value if _close(got["columns"][column][stat], value) else got["columns"][column][stat]
                         for stat, value in stats.items()}
                for column, stats in want["columns"].items()
            }
    return pinned


@pytest.fixture(scope="module")
def s_fixture_outputs(tmp_path_factory):
    return run_pipeline(build_fixture(tmp_path_factory.mktemp("golden")))


def test_s_fixture_outputs_match_the_golden_summary(s_fixture_outputs):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = summarize(s_fixture_outputs)
    assert any(name.startswith("simulated_") for name in actual)
    assert any(name.startswith("curves_") for name in actual)
    assert mismatches(actual, expected) == []



def test_columnar_readers_agree_with_the_row_readers_on_every_stage_file(s_fixture_outputs):
    root = s_fixture_outputs.parent
    calendar = TradingCalendar.from_file(root / "calendar.txt")
    for path, columnar, row_wise in [
        (root / "prices.csv", load_market_bars, load_market_bar_rows),
        (root / "market.csv", MarketSeries.from_csv, read_market_rows),
        (s_fixture_outputs / "sentiment.csv", _read_sentiment_csv, read_sentiment_rows),
        (s_fixture_outputs / "indicators.csv", _read_indicators_csv, read_indicator_rows),
    ]:
        assert_readers_agree(lambda p: columnar(p, calendar), lambda p: row_wise(p, calendar), path)
    assert_readers_agree(_load_sectors, read_sector_rows, root / "sectors.csv")
    residuals = sorted(s_fixture_outputs.glob("residuals_*.csv"))
    assert residuals
    for path in residuals:
        assert_readers_agree(_read_residual_pool, read_residual_rows, path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        out = run_pipeline(build_fixture(Path(scratch)))
        GOLDEN.parent.mkdir(exist_ok=True)
        pinned = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        summary = repinned(summarize(out), pinned)
        GOLDEN.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
