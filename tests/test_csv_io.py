"""The columnar CSV readers and the column writer against the row-wise references in conftest.

Each reader must return the arrays the row-wise reader returns, or raise the
same error for the same file:line, on files built by hypothesis: valid rows
with a few cells replaced by bad ones, a row cut short, repeated or blank,
and every cell quoted or none.
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_readers_agree,
    fmt_num,
    load_market_bar_rows,
    read_indicator_rows,
    read_market_rows,
    read_residual_rows,
    read_sector_rows,
    read_sentiment_rows,
    trading_days,
    write_csv_rows,
)
from newsflow import _util
from newsflow._util import fmt_column, fmt_int_column, write_csv
from newsflow.cli import _load_sectors, _read_indicators_csv, _read_residual_pool, _read_sentiment_csv
from newsflow.corpus import TradingCalendar
from newsflow.errors import MalformedRecord, MissingInput
from newsflow.indicators import load_market_bars
from newsflow.panel import MarketSeries
from newsflow.simulate import garch, smoother

CALENDAR = TradingCalendar(days=tuple(trading_days(6)))
DATES = [day.isoformat() for day in CALENDAR.days]
SYMBOLS = ["AAA", "BBB", "Aaa", "C D"]
# a bad cell somewhere: off the calendar, not a date, not a number, not
# finite, out of range, or a value that only some columns accept
BAD_CELLS = ["", " ", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "2", "1.5", "-0.0", "1e-300", "0.5",
             "2020-01-04", "2020-02-30", "20200107", DATES[0]]
EXAMPLES = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def csv_texts(draw, header, good_rows):
    rows = [list(row) for row in draw(good_rows)]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(BAD_CELLS))
    edit = draw(st.sampled_from(["none", "none", "truncate", "repeat", "blank"]))
    if rows and edit != "none":
        at = draw(st.integers(0, len(rows) - 1))
        if edit == "truncate":
            rows[at] = rows[at][: draw(st.integers(1, len(header) - 1))]
        elif edit == "repeat":
            rows.append(list(rows[at]))
        else:
            rows.insert(at, [])
    quote = (lambda cell: f'"{cell}"') if draw(st.booleans()) else str
    return "".join(",".join(map(quote, cells)) + "\n" for cells in [list(header), *rows])


def _keyed(rows, key, max_size=10):
    return st.lists(rows, unique_by=key, max_size=max_size)


SHARES = ["0.0", "0.25", "1.0", "0.3333333333333333", "1e-300", "-0.0"]
SENTIMENT_FILES = csv_texts(
    ("symbol", "date", "lexicon", "I", "pos", "neg", "n_articles"),
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(DATES), st.sampled_from(["BL", "LM"]),
                     st.integers(0, 3), st.sampled_from(SHARES), st.sampled_from(SHARES)),
           key=lambda row: row[:3]).map(lambda rows: [
        (symbol, date, lexicon, str(int(n > 0)), pos if n else "0.0", neg if n else "0.0", str(n))
        for symbol, date, lexicon, n, pos, neg in rows
    ]),
)
INDICATOR_CELLS = st.sampled_from(["", "0.5", "-1.25", "1e-300", "-0.0"])
INDICATOR_FILES = csv_texts(
    ("symbol", "date", "log_vol", "detrended_volume", "ret"),
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(DATES), INDICATOR_CELLS, INDICATOR_CELLS,
                     INDICATOR_CELLS), key=lambda row: row[:2]),
)
BARS = [("10", "12", "9", "11", "100"), ("1.5", "1.5", "1.5", "1.5", "0"), ("2", "3", "1", "2.5", "1e6")]
PRICE_FILES = csv_texts(
    ("symbol", "date", "open", "high", "low", "close", "volume"),
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(DATES), st.sampled_from(BARS)),
           key=lambda row: (row[0].upper(), row[1])).map(lambda rows: [(s, d, *bar) for s, d, bar in rows]),
)
MARKET_FILES = csv_texts(
    ("date", "market_return", "vix"),
    _keyed(st.tuples(st.sampled_from(DATES), st.sampled_from(["0.001", "-0.02", "1e-300"]),
                     st.sampled_from(["0.2", "0.15"])), key=lambda row: row[0]),
)
SECTOR_FILES = csv_texts(
    ("symbol", "sector"),
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(["Energy", "Health Care", "", "A,B"])),
           key=lambda row: row[0].upper()),
)
RESIDUAL_FILES = csv_texts(
    ("symbol", "day", "residual"),
    st.lists(st.tuples(st.just("AAA"), st.sampled_from(["0", "1"]), st.sampled_from(["0.5", "-1e-300", "-0.0"])),
             max_size=6),
)


def _nonempty(read, kind):
    def reader(path):
        result = read(path)
        if not len(result):
            raise MissingInput(f"{kind} file {path} is empty")
        return result

    return reader


# (columnar reader, row-wise reference, file strategy)
READERS = {
    "sentiment": (lambda path: _read_sentiment_csv(path, CALENDAR),
                  _nonempty(lambda path: read_sentiment_rows(path, CALENDAR), "sentiment"), SENTIMENT_FILES),
    "indicators": (lambda path: _read_indicators_csv(path, CALENDAR),
                   lambda path: read_indicator_rows(path, CALENDAR), INDICATOR_FILES),
    "prices": (lambda path: load_market_bars(path, CALENDAR),
               lambda path: load_market_bar_rows(path, CALENDAR), PRICE_FILES),
    "market": (lambda path: MarketSeries.from_csv(path, CALENDAR),
               lambda path: read_market_rows(path, CALENDAR), MARKET_FILES),
    "sectors": (_load_sectors, read_sector_rows, SECTOR_FILES),
    "residuals": (_read_residual_pool, _nonempty(read_residual_rows, "residual"), RESIDUAL_FILES),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_columnar_reader_agrees_with_the_row_reader(tmp_path, name):
    columnar, row_wise, files = READERS[name]

    @EXAMPLES
    @given(text=files)
    def check(text):
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        assert_readers_agree(columnar, row_wise, path)

    check()


@pytest.mark.parametrize("text", [
    "", "\n", "symbol,date\n", "a\0b\nc\n", "x" * 200_000 + "\n",
    "symbol,date,lexicon,I,pos,neg,n_articles,residual,sector\n" + "x" * 200_000 + "\n",
], ids=["empty", "blank", "missing_columns", "nul", "field_too_large_in_header", "field_too_large_in_row"])
def test_readers_agree_on_a_file_without_usable_header_or_rows(tmp_path, text):
    path = tmp_path / "file.csv"
    path.write_text(text, encoding="utf-8")
    for columnar, row_wise, _ in READERS.values():
        assert_readers_agree(columnar, row_wise, path)


def test_an_integer_cell_too_large_for_a_float_is_rejected_with_its_line(tmp_path):
    with pytest.raises(_util.RowRejected) as rejected:
        _util.int_column(["1", "9" * 400, "x"])
    assert rejected.value.row == 1
    path = tmp_path / "sentiment.csv"
    path.write_text("symbol,date,lexicon,I,pos,neg,n_articles\n"
                    f"AAA,{DATES[0]},BL,1,0.5,0.25,2\n"
                    f"AAA,{DATES[1]},BL,1,0.5,0.25,{'9' * 400}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as malformed:
        _read_sentiment_csv(path, CALENDAR)
    assert str(malformed.value) == f"{path}:3: int too large to convert to float"


@pytest.mark.parametrize("collecting", [True, False], ids=["gc_on", "gc_off"])
def test_reading_pauses_the_garbage_collector_and_restores_it(tmp_path, monkeypatch, collecting):
    good = tmp_path / "good.csv"
    good.write_text(f"date,market_return,vix\n{DATES[0]},0.001,0.2\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"date,market_return,vix\n{DATES[0]},x,0.2\n", encoding="utf-8")
    during = []
    transpose = _util._transpose
    monkeypatch.setattr(_util, "_transpose", lambda *args: during.append(gc.isenabled()) or transpose(*args))
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        MarketSeries.from_csv(good, CALENDAR)
        assert gc.isenabled() is collecting
        with pytest.raises(MalformedRecord):  # a RowRejected from the converter
            MarketSeries.from_csv(bad, CALENDAR)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # paused for the first read's transpose; the error path's transposes run as the caller left it
    assert during[0] is False


def test_writer_formats_cells_as_the_row_writer(tmp_path):
    floats = [math.nan, -0.0, 0.0, 1e-300, 1.5, -2.25e300, 0.1, None]
    ints = [0, 7, -3, 10**12, True, False]
    assert fmt_column(floats) == [fmt_num(x) for x in floats]
    assert fmt_column(np.array(floats, dtype=float)) == [fmt_num(x) for x in floats]
    assert fmt_int_column(ints) == [fmt_num(x) for x in ints]
    assert fmt_int_column(np.array([1.0, 0.0, 3.0])) == ["1", "0", "3"]

    header = ("label", "count", "value")
    rows = [("a", 1, 0.5), ("b c", 0, None), ("d", True, -0.0), ("e", 12, 1e-300)]
    write_csv_rows(tmp_path / "rows.csv", header, rows)
    labels, counts, values = zip(*rows)
    write_csv(tmp_path / "columns.csv", header, [labels, fmt_int_column(counts), fmt_column(values)])
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_writer_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", ("a", "b"), [["1", "2"], ["3"]])


def _perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_functions_the_benchmark_traces_still_exist():
    # perfbench patches these by name and reads some arguments by name; a
    # rename would otherwise surface only as a failed benchmark coverage check
    for layer, (module, name) in _perfbench_tracer().TRACED.items():
        assert callable(getattr(importlib.import_module(module), name, None)), layer
    for fn, names in ((_util.atomic_write_text, {"text"}), (smoother.uniform_band, {"x", "n_boot"}),
                      (garch.fit_ma1_garch11, {"returns"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
