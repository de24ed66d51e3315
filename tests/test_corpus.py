import datetime as dt
import json
import re
from bisect import bisect_right

import pytest

from conftest import build_fixture, serialize_articles
from newsflow.corpus import (
    TradingCalendar,
    assign_trading_days,
    filter_by_symbols,
    load_articles,
)
from newsflow.errors import DuplicateId, EmptyCorpus, InputError, MalformedRecord


def record(i, published="2020-01-06T12:00:00", symbols=("AAPL",), body="Stocks fell."):
    return {
        "id": f"a{i}",
        "published_at": published,
        "symbols": list(symbols),
        "title": f"title {i}",
        "body": body,
        "contributor": None,
    }


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def calendar():
    # Mon 2020-01-06 .. Fri 2020-01-10, then Mon 2020-01-13 (weekend gap)
    days = [dt.date(2020, 1, d) for d in (6, 7, 8, 9, 10, 13)]
    return TradingCalendar(days=tuple(days))


def test_load_two_records(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [record(1), record(2)])
    articles = load_articles(path, "jsonl")
    assert len(articles) == 2
    assert articles.articles[0].symbols == frozenset({"AAPL"})


def test_duplicate_id_rejected(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [record(1), record(2), record(1)])
    with pytest.raises(DuplicateId) as err:
        load_articles(path, "jsonl")
    assert (err.value.error_code, str(err.value)) == ("DUPLICATE_ID", "duplicate article id 'a1'")


@pytest.mark.parametrize("key, message", [
    ("id", "article id is empty"),
    ("body", "article 'a2' has empty body"),
])
def test_empty_id_or_body_is_malformed_with_its_line(tmp_path, key, message):
    path = write_jsonl(tmp_path / "c.jsonl", [record(1), {**record(2), key: ""}])
    with pytest.raises(MalformedRecord) as err:
        load_articles(path, "jsonl")
    assert (err.value.error_code, str(err.value)) == ("MALFORMED_RECORD", f"{path}:2: {message}")


def test_empty_body_in_a_directory_names_the_sidecar(tmp_path):
    (tmp_path / "art7.json").write_text(json.dumps({k: v for k, v in record(7).items() if k != "body"}),
                                        encoding="utf-8")
    (tmp_path / "art7.txt").write_text("", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_articles(tmp_path, "directory_of_text_files")
    assert str(err.value) == f"{tmp_path / 'art7.json'}:1: article 'a7' has empty body"


def test_missing_published_at_names_field(tmp_path):
    bad = record(1)
    del bad["published_at"]
    path = write_jsonl(tmp_path / "c.jsonl", [bad])
    with pytest.raises(MalformedRecord, match="published_at"):
        load_articles(path, "jsonl")


@pytest.mark.parametrize("key, value", [
    ("published_at", 20200106), ("published_at", None),
    ("title", None), ("title", 7), ("title", ["a"]),
    ("body", None), ("body", {"text": "Stocks fell."}),
    ("symbols", [None, {}]), ("symbols", ["AAPL", 1]), ("symbols", "AAPL"), ("symbols", ["AAPL", " "]),
    ("id", None), ("id", 1.5), ("id", True), ("id", ["a1"]),
])
def test_field_of_the_wrong_type_is_malformed_with_its_line(tmp_path, key, value):
    bad = {**record(2), key: value}
    path = write_jsonl(tmp_path / "c.jsonl", [record(1), bad])
    with pytest.raises(MalformedRecord, match=key) as err:
        load_articles(path, "jsonl")
    assert err.value.position == 2


def test_integer_id_reads_as_its_digits(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{**record(1), "id": 17}])
    assert load_articles(path, "jsonl").articles[0].id == "17"


def test_directory_sidecar_that_is_not_an_object_is_malformed(tmp_path):
    (tmp_path / "art7.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "art7.txt").write_text("Body text here.", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="not an object"):
        load_articles(tmp_path, "directory_of_text_files")


def test_empty_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpus):
        load_articles(path, "jsonl")


def test_malformed_json_has_position(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record(1)) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_articles(path, "jsonl")
    assert err.value.position == 2


def test_directory_format(tmp_path):
    meta = {k: v for k, v in record(7).items() if k != "body"}
    (tmp_path / "art7.json").write_text(json.dumps(meta), encoding="utf-8")
    (tmp_path / "art7.txt").write_text("Body text here.", encoding="utf-8")
    articles = load_articles(tmp_path, "directory_of_text_files")
    assert len(articles) == 1
    assert articles.articles[0].body == "Body text here."


def test_assign_interior_day(calendar, tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [record(1, "2020-01-07T12:00:00")])
    assigned = assign_trading_days(load_articles(path), calendar)
    assert assigned.days == (1,)
    assert assigned.unassigned_count == 0


def test_assign_weekend_to_previous_trading_day(calendar, tmp_path):
    # Saturday between Fri 01-10 (t=4) and Mon 01-13 (t=5)
    path = write_jsonl(tmp_path / "c.jsonl", [record(1, "2020-01-11T15:00:00")])
    assigned = assign_trading_days(load_articles(path), calendar)
    assert assigned.days == (4,)


def test_assign_before_first_day_unassigned(calendar, tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [record(1, "2020-01-03T10:00:00")])
    assigned = assign_trading_days(load_articles(path), calendar)
    assert assigned.days == (None,)
    assert assigned.unassigned_count == 1


def test_assign_after_last_day_window_unassigned(calendar, tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [record(1, "2020-01-14T00:00:00")])
    assigned = assign_trading_days(load_articles(path), calendar)
    assert assigned.days == (None,)


def test_assign_custom_boundary(calendar, tmp_path):
    # with a 16:00 boundary, a 17:00 article on day t belongs to day t's session
    # only if it is before the *next* boundary; here it lands on day t itself
    path = write_jsonl(tmp_path / "c.jsonl", [record(1, "2020-01-07T15:59:00")])
    assigned = assign_trading_days(load_articles(path), calendar, boundary=dt.time(16, 0))
    assert assigned.days == (0,)  # before 2020-01-07T16:00 boundary


def test_assign_idempotent(calendar, tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [record(1, "2020-01-07T12:00:00"), record(2, "2020-01-11T00:00:00")],
    )
    once = assign_trading_days(load_articles(path), calendar)
    twice = assign_trading_days(once, calendar)
    assert once == twice


@pytest.mark.parametrize("boundary", [dt.time(0, 0), dt.time(16, 0)])
def test_assign_keeps_the_loaded_articles_and_matches_a_per_article_search(tmp_path, boundary):
    build_fixture(tmp_path)
    calendar = TradingCalendar.from_file(tmp_path / "calendar.txt")
    loaded = load_articles(tmp_path / "corpus.jsonl")
    assigned = assign_trading_days(loaded, calendar, boundary)
    assert len(assigned.articles) == len(loaded.articles)
    assert all(a is b for a, b in zip(assigned.articles, loaded.articles))

    starts = [dt.datetime.combine(d, boundary) for d in calendar.days]
    end = dt.datetime.combine(calendar.days[-1] + dt.timedelta(days=1), boundary)
    expected = [
        bisect_right(starts, a.published_at) - 1 if starts[0] <= a.published_at < end else None
        for a in loaded.articles
    ]
    assert list(assigned.days) == expected
    assert assigned.unassigned_count == expected.count(None)
    # the fixture's articles run 09:30-16:30 on trading days; with a 16:00 boundary, those
    # before 16:00 belong to the previous session and those from 16:00 on to their own date's
    own_date = [day is not None and calendar.days[day] == a.published_at.date()
                for a, day in zip(loaded.articles, assigned.days)]
    assert own_date == [a.published_at.time() >= boundary for a in loaded.articles]
    assert boundary == dt.time(0, 0) or 0 < sum(own_date) < len(own_date)


def test_multi_symbol_multiplicity(calendar, tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [record(1, symbols=("AAPL", "MSFT")), record(2, symbols=("AAPL",))],
    )
    assigned = assign_trading_days(load_articles(path), calendar)
    # article 1 keeps both symbols, so distill counts it under each
    assert [(day, sorted(a.symbols)) for a, day in zip(assigned.articles, assigned.days)] == [
        (0, ["AAPL", "MSFT"]), (0, ["AAPL"])]


def test_jsonl_round_trip(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [record(1), record(2, symbols=("MSFT", "IBM"))])
    articles = load_articles(path)
    again = tmp_path / "again.jsonl"
    again.write_text(serialize_articles(articles.articles), encoding="utf-8")
    reloaded = load_articles(again)
    assert serialize_articles(reloaded.articles) == serialize_articles(articles.articles)
    assert reloaded.articles == articles.articles


def test_filter_by_symbols(tmp_path, calendar):
    records = [
        record(1, symbols=("AAPL",)),
        record(2, "2020-01-07T12:00:00", symbols=("AAPL", "MSFT")),
        record(3, symbols=("MSFT",)),
        record(4, "2020-01-03T12:00:00", symbols=("AAPL",)),
        record(5, symbols=("IBM",)),
    ]
    articles = assign_trading_days(load_articles(write_jsonl(tmp_path / "c.jsonl", records)), calendar)
    aapl = filter_by_symbols(articles, {"aapl"})
    assert len(aapl) == 3
    # each kept article keeps its day, and the count of those outside every session
    assert (aapl.days, aapl.unassigned_count) == ((0, 1, None), 1)
    assert filter_by_symbols(load_articles(tmp_path / "c.jsonl"), {"aapl"}).days is None
    assert all("AAPL" in a.symbols for a in aapl.articles)
    assert [a.id for a in aapl.articles] == ["a1", "a2", "a4"]

    assert len(filter_by_symbols(articles, {"TSLA"})) == 0
    assert filter_by_symbols(articles, {"AAPL", "MSFT", "IBM"}).articles == articles.articles


def test_calendar_from_file(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_text("2020-01-06\n2020-01-07\n", encoding="utf-8")
    cal = TradingCalendar.from_file(path)
    assert cal.index[dt.date(2020, 1, 7)] == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2020-01-06\nnot-a-date\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        TradingCalendar.from_file(bad)


@pytest.mark.parametrize("second", ["2020-01-06", "2020-01-03"])
def test_calendar_file_out_of_order_names_the_file_and_line(tmp_path, second):
    path = tmp_path / "cal.txt"
    path.write_text(f"2020-01-06\n# holiday below\n\n{second}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=re.escape(f"{path}:4: calendar dates not strictly increasing")) as err:
        TradingCalendar.from_file(path)
    assert (err.value.error_code, str(err.value)) == (
        "MALFORMED_RECORD", f"{path}:4: calendar dates not strictly increasing at {second}")


@pytest.mark.parametrize("text", ["", "# no trading days\n\n"])
def test_empty_calendar_file_is_an_input_error(tmp_path, text):
    path = tmp_path / "cal.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as err:
        TradingCalendar.from_file(path)
    assert (err.value.error_code, str(err.value)) == ("INPUT_ERROR", "trading calendar is empty")
