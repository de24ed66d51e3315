"""The columnar CSV readers and the column writer against the row-wise references in conftest.

Each reader must return the arrays the row-wise reader returns, or raise the
same error for the same file:line, on files built by hypothesis: valid rows
with a few cells replaced by bad ones, a row cut short, repeated or blank,
and every cell quoted or none.  Each column the writer writes must read back
bit-identical under the same kind.
"""

from __future__ import annotations

import codecs
import gc
import importlib
import importlib.util
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from newsflow._util import FLOAT, FLOAT_OR_BLANK, INT, KEY, numbers, read_csv_columns, write_csv
from newsflow.cli import SENTIMENT_KINDS, _load_sectors, _read_indicators_csv, _read_residual_pool, _read_sentiment_csv
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
def csv_texts(draw, header, good_rows, start=0):
    """Rows of `good_rows` with a few bad cells and one edit, all from row `start` on."""
    rows = [list(row) for row in draw(good_rows)]
    for _ in range(draw(st.integers(0, 2))):
        if rows[start:]:
            row = draw(st.sampled_from(rows[start:]))
            row[draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(BAD_CELLS))
    edit = draw(st.sampled_from(["none", "none", "truncate", "repeat", "blank"]))
    if rows[start:] and edit != "none":
        at = draw(st.integers(start, len(rows) - 1))
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


@st.composite
def csv_bytes(draw, texts, start=0):
    """A text of `texts` as UTF-8, maybe with a byte-order mark and CRLF line
    ends, and maybe with a byte that is not UTF-8 from line `start` on."""
    text = draw(texts)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = text.encode()
    if draw(st.integers(0, 3)) == 0:
        offset = len("".join(text.splitlines(keepends=True)[:start]).encode())
        at = draw(st.integers(offset, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + data


SENTIMENT_HEADER = ("symbol", "date", "lexicon", "I", "pos", "neg", "n_articles")
INDICATOR_HEADER = ("symbol", "date", "log_vol", "detrended_volume", "ret")
PRICE_HEADER = ("symbol", "date", "open", "high", "low", "close", "volume")
MARKET_HEADER = ("date", "market_return", "vix")
SECTOR_HEADER = ("symbol", "sector")
RESIDUAL_HEADER = ("symbol", "day", "residual")
SHARES = ["0.0", "0.25", "1.0", "0.3333333333333333", "1e-300", "-0.0"]
SENTIMENT_FILES = csv_texts(
    SENTIMENT_HEADER,
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(DATES), st.sampled_from(["BL", "LM"]),
                     st.integers(0, 3), st.sampled_from(SHARES), st.sampled_from(SHARES)),
           key=lambda row: row[:3]).map(lambda rows: [
        (symbol, date, lexicon, str(int(n > 0)), pos if n else "0.0", neg if n else "0.0", str(n))
        for symbol, date, lexicon, n, pos, neg in rows
    ]),
)
INDICATOR_CELLS = st.sampled_from(["", "0.5", "-1.25", "1e-300", "-0.0"])
INDICATOR_FILES = csv_texts(
    INDICATOR_HEADER,
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(DATES), INDICATOR_CELLS, INDICATOR_CELLS,
                     INDICATOR_CELLS), key=lambda row: row[:2]),
)
BARS = [("10", "12", "9", "11", "100"), ("1.5", "1.5", "1.5", "1.5", "0"), ("2", "3", "1", "2.5", "1e6")]
PRICE_FILES = csv_texts(
    PRICE_HEADER,
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(DATES), st.sampled_from(BARS)),
           key=lambda row: (row[0].upper(), row[1])).map(lambda rows: [(s, d, *bar) for s, d, bar in rows]),
)
MARKET_FILES = csv_texts(
    MARKET_HEADER,
    _keyed(st.tuples(st.sampled_from(DATES), st.sampled_from(["0.001", "-0.02", "1e-300"]),
                     st.sampled_from(["0.2", "0.15"])), key=lambda row: row[0]),
)
SECTOR_FILES = csv_texts(
    SECTOR_HEADER,
    _keyed(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(["Energy", "Health Care", "", "A,B"])),
           key=lambda row: row[0].upper()),
)
RESIDUAL_FILES = csv_texts(
    RESIDUAL_HEADER,
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


def _readers(calendar):
    """(columnar reader, row-wise reference) of each file, on a calendar."""
    return {
        "sentiment": (lambda path: _read_sentiment_csv(path, calendar),
                      _nonempty(lambda path: read_sentiment_rows(path, calendar), "sentiment")),
        "indicators": (lambda path: _read_indicators_csv(path, calendar),
                       lambda path: read_indicator_rows(path, calendar)),
        "prices": (lambda path: load_market_bars(path, calendar),
                   lambda path: load_market_bar_rows(path, calendar)),
        "market": (lambda path: MarketSeries.from_csv(path, calendar),
                   lambda path: read_market_rows(path, calendar)),
        "sectors": (_load_sectors, read_sector_rows),
        "residuals": (_read_residual_pool, _nonempty(read_residual_rows, "residual")),
    }


FILES = {"sentiment": SENTIMENT_FILES, "indicators": INDICATOR_FILES, "prices": PRICE_FILES,
         "market": MARKET_FILES, "sectors": SECTOR_FILES, "residuals": RESIDUAL_FILES}
# (columnar reader, row-wise reference, file strategy)
READERS = {name: (*pair, FILES[name]) for name, pair in _readers(CALENDAR).items()}

# files of one valid row per day of a calendar longer than a block, with the
# faults and edits of csv_texts from the last rows of the first block on
LONG_CALENDAR = TradingCalendar(days=tuple(trading_days(_util.BLOCK_ROWS + 40)))
LONG_START = _util.BLOCK_ROWS - 2
LONG_DAILY_ROWS = {
    "sentiment": (SENTIMENT_HEADER, lambda t, date: ("AAA", date, "BL", "1", "0.25", "0.5", "2")),
    "indicators": (INDICATOR_HEADER, lambda t, date: ("AAA", date, "0.5", "", "-1.25")),
    "prices": (PRICE_HEADER, lambda t, date: ("AAA", date, "10", "12", "9", "11", "100")),
    "market": (MARKET_HEADER, lambda t, date: (date, "0.001", "0.2")),
    "sectors": (SECTOR_HEADER, lambda t, date: (f"S{t}", "Energy")),
    "residuals": (RESIDUAL_HEADER, lambda t, date: ("AAA", str(t), "0.5")),
}
LONG_FILES = {
    name: csv_bytes(csv_texts(header, st.just([row(t, day.isoformat()) for t, day in enumerate(LONG_CALENDAR.days)]),
                              start=LONG_START), start=1 + LONG_START)
    for name, (header, row) in LONG_DAILY_ROWS.items()
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


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("block_rows", [1, 3])
def test_readers_agree_when_a_file_spans_blocks(tmp_path, monkeypatch, name, block_rows):
    # the same files as above, with a byte-order mark, CRLF line ends and
    # invalid bytes, read a block of one or three rows at a time
    monkeypatch.setattr(_util, "BLOCK_ROWS", block_rows)
    columnar, row_wise, files = READERS[name]

    @EXAMPLES
    @given(data=csv_bytes(files))
    def check(data):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        assert_readers_agree(columnar, row_wise, path)

    check()


@pytest.mark.parametrize("name", sorted(LONG_FILES))
def test_readers_agree_on_a_fault_after_the_first_block(tmp_path, name):
    columnar, row_wise = _readers(LONG_CALENDAR)[name]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=LONG_FILES[name])
    def check(data):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        assert_readers_agree(columnar, row_wise, path)

    check()


@pytest.mark.parametrize("first", ["symbol,day\n", "symbol,day,residual\nAAA,0\n", "symbol,day,residual\nAAA,0,x\n"],
                         ids=["missing_column", "ragged_row", "bad_cell"])
def test_a_byte_that_is_not_utf8_wins_over_an_earlier_fault(tmp_path, first):
    # far past the text decoded with the earlier fault: the reader decodes
    # the whole file before it reports any fault, as a whole read does
    path = tmp_path / "residuals.csv"
    path.write_bytes(first.encode() + b"AAA,1,0.5\n" * 50_000 + b"AAA,2,0.\xff\n")
    with pytest.raises(MalformedRecord) as malformed:
        _read_residual_pool(path)
    assert str(malformed.value).endswith(f":{first.count(chr(10)) + 50_001}: not UTF-8: byte 0xff (invalid start byte)")
    assert_readers_agree(_read_residual_pool, read_residual_rows, path)


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
    columns, _ = _util._encode(iter([["1"], ["9" * 400], ["x"]]), ["n"], {"n": _util.INT})
    with pytest.raises(_util.RowRejected) as rejected:
        _util.numbers(columns["n"])
    assert rejected.value.row == 1
    path = tmp_path / "sentiment.csv"
    path.write_text("symbol,date,lexicon,I,pos,neg,n_articles\n"
                    f"AAA,{DATES[0]},BL,1,0.5,0.25,2\n"
                    f"AAA,{DATES[1]},BL,1,0.5,0.25,{'9' * 400}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as malformed:
        _read_sentiment_csv(path, CALENDAR)
    assert str(malformed.value) == f"{path}:3: int too large to convert to float"


@pytest.mark.parametrize("counts", ["1,0.5,0.25,-99999999999999999999", "99999999999999999999,0.5,0.25,1"],
                         ids=["n_articles", "I"])
def test_an_integer_cell_beyond_float_precision_is_quoted_exactly(tmp_path, counts):
    path = tmp_path / "sentiment.csv"
    path.write_text("symbol,date,lexicon,I,pos,neg,n_articles\n"
                    f"AAA,{DATES[0]},BL,1,0.5,0.25,2\n"
                    f"AAA,{DATES[1]},BL,{counts}\n", encoding="utf-8")
    assert_readers_agree(lambda path: _read_sentiment_csv(path, CALENDAR),
                         lambda path: read_sentiment_rows(path, CALENDAR), path)
    with pytest.raises(MalformedRecord, match="99999999999999999999"):
        _read_sentiment_csv(path, CALENDAR)


@pytest.mark.parametrize("collecting", [True, False], ids=["gc_on", "gc_off"])
def test_reading_pauses_the_garbage_collector_and_restores_it(tmp_path, monkeypatch, collecting):
    good = tmp_path / "good.csv"
    good.write_text(f"date,market_return,vix\n{DATES[0]},0.001,0.2\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"date,market_return,vix\n{DATES[0]},x,0.2\n", encoding="utf-8")
    during = []
    encode = _util._encode
    monkeypatch.setattr(_util, "_encode", lambda *args: during.append(gc.isenabled()) or encode(*args))
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
    # paused while the first read encodes its blocks
    assert during[0] is False


def _sentiment_columns(calendar):
    """3 lexica x 20 symbols x the calendar's days, as distill writes them."""
    rng = np.random.default_rng(5)
    n_lexica, n_symbols, n_days = 3, 20, len(calendar)
    n_rows = n_lexica * n_symbols * n_days
    n_articles = rng.poisson(0.6, n_rows)
    active = n_articles > 0
    pos = np.where(active, rng.uniform(0, 0.2, n_rows), 0.0)
    neg = np.where(active, rng.uniform(0, 0.2, n_rows), 0.0)
    return [
        [f"SYM{i:02d}" for _ in range(n_lexica) for i in range(n_symbols) for _ in range(n_days)],
        [day.isoformat() for day in calendar.days] * (n_lexica * n_symbols),
        [name for name in ("BL", "LM", "MPQA") for _ in range(n_symbols * n_days)],
        active, pos, neg, n_articles,
    ]


def test_reading_sentiment_peaks_at_six_times_the_file_or_less(tmp_path):
    # 60,000 rows; a whole-file parse, which holds every cell at once, peaks
    # near 13 times
    calendar = TradingCalendar(days=tuple(trading_days(1000)))
    path = tmp_path / "sentiment.csv"
    write_csv(path, SENTIMENT_KINDS, _sentiment_columns(calendar))
    tracemalloc.start()
    try:
        sentiment = _read_sentiment_csv(path, calendar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(sentiment) == ["BL", "LM", "MPQA"]
    assert peak <= 6 * path.stat().st_size, (peak, path.stat().st_size)


def test_writing_sentiment_peaks_at_four_times_the_file_or_less(tmp_path):
    # the same 60,000 rows; formatting every column before joining the rows
    # peaks near 9.5 times
    calendar = TradingCalendar(days=tuple(trading_days(1000)))
    columns = _sentiment_columns(calendar)
    path = tmp_path / "sentiment.csv"
    tracemalloc.start()
    try:
        write_csv(path, SENTIMENT_KINDS, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size, (peak, path.stat().st_size)


def test_writer_formats_cells_as_the_row_writer(tmp_path, monkeypatch):
    # three rows a block, so the rows span blocks
    monkeypatch.setattr(_util, "BLOCK_ROWS", 3)
    kinds = {"label": KEY, "count": INT, "value": FLOAT_OR_BLANK}
    rows = [("a", 1, 0.5), ("b c", 0, None), ("d", True, -0.0), ("e", 12, 1e-300), ("f", False, math.nan),
            ("g", -3, 0.1), ("h", 10**12, -2.25e300)]
    write_csv_rows(tmp_path / "rows.csv", kinds, rows)
    labels, counts, values = map(list, zip(*rows))
    for floats in (values, np.array(values, dtype=float)):
        write_csv(tmp_path / "columns.csv", kinds, [labels, counts, floats])
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # integral floats are integer cells
    write_csv(tmp_path / "ints.csv", {"n": INT}, [np.array([1.0, 0.0, 3.0])])
    assert (tmp_path / "ints.csv").read_text(encoding="utf-8") == "n\n1\n0\n3\n"


def test_writer_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", {"a": KEY, "b": KEY}, [["1", "2"], ["3"]])
    with pytest.raises(ValueError):  # not one column per kind
        write_csv(tmp_path / "out.csv", {"a": KEY, "b": KEY}, [["1", "2"]])
    assert not (tmp_path / "out.csv").exists()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# signed zeros, the smallest and largest subnormals, the extremes
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308]
# integers a float rounds, up to the int64 range the writer takes
EDGE_INTS = [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
ROUND_TRIP_KINDS = {"key": KEY, "float": FLOAT, "float_or_blank": FLOAT_OR_BLANK, "int": INT}
ROUND_TRIP_ROWS = st.lists(st.tuples(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x00')),
    FINITE | st.sampled_from(EDGE_FLOATS),
    st.none() | st.just(math.nan) | FINITE | st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**63), 2**63 - 1) | st.sampled_from(EDGE_INTS),
), max_size=12)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("block_rows", [3, _util.BLOCK_ROWS])
def test_each_kind_reads_back_bit_identical(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(_util, "BLOCK_ROWS", block_rows)

    @EXAMPLES
    @given(rows=ROUND_TRIP_ROWS)
    @example(rows=list(zip(["", " a ", "é", "x;y", "AAA", "b", "c", "d"], EDGE_FLOATS,
                           [None, math.nan, *EDGE_FLOATS[2:]], [*EDGE_INTS, 0, -1, 1, 2**53])))
    def check(rows):
        keys, floats, blanks, ints = map(list, zip(*rows)) if rows else ([], [], [], [])
        path = tmp_path / "kinds.csv"
        write_csv(path, ROUND_TRIP_KINDS, [keys, np.array(floats, dtype=float), blanks, ints])
        columns = read_csv_columns(path, ROUND_TRIP_KINDS, lambda columns: columns)
        assert list(columns["key"]) == keys
        assert _bits(numbers(columns["float"])) == _bits(floats)
        expected = np.array(blanks, dtype=float)
        read = numbers(columns["float_or_blank"])
        assert np.isnan(read).tolist() == np.isnan(expected).tolist()  # NaN and None are blank
        assert _bits(read[~np.isnan(read)]) == _bits(expected[~np.isnan(expected)])
        assert [columns["int"].integer(row) for row in range(len(ints))] == ints

    check()


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
