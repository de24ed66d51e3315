import codecs
import configparser
import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import newsflow
from newsflow import indicators, sentiment
from conftest import build_fixture, trading_days, write_calendar
from newsflow.cli import COMMANDS, _read_entire_coefficients, _read_residual_pool, main
from newsflow.config import SETTINGS, load_config
from newsflow.errors import MalformedRecord
from newsflow.simulate import scenario


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def mini_fixture(tmp_path):
    """Tiny corpus + prices for error-path tests (not a full pipeline run)."""
    days = trading_days(130)
    write_calendar(tmp_path / "calendar.txt", days)
    articles = [
        json.dumps({
            "id": f"a{i}",
            "published_at": f"{days[i].isoformat()}T12:00:00",
            "symbols": ["AAA"],
            "title": "good results",
            "body": "The company reported good results. Debt fell sharply.",
            "contributor": None,
        })
        for i in range(10)
    ]
    (tmp_path / "corpus.jsonl").write_text("\n".join(articles) + "\n", encoding="utf-8")
    (tmp_path / "pos.txt").write_text("good\ngreat\n", encoding="utf-8")
    (tmp_path / "neg.txt").write_text("debt\nfell\n", encoding="utf-8")
    price_rows = ["symbol,date,open,high,low,close,volume"]
    for day in days:
        price_rows.append(f"AAA,{day.isoformat()},100,102,99,101,5000")
    (tmp_path / "prices.csv").write_text("\n".join(price_rows) + "\n", encoding="utf-8")
    market_rows = ["date,market_return,vix"]
    for day in days:
        market_rows.append(f"{day.isoformat()},0.001,0.2")
    (tmp_path / "market.csv").write_text("\n".join(market_rows) + "\n", encoding="utf-8")
    (tmp_path / "newsflow.ini").write_text(
        "[run]\nseed = 1\noutput = %s\n\n"
        "[corpus]\npath = corpus.jsonl\ncalendar = calendar.txt\n\n"
        "[lexicons]\nBL = wordlists:pos.txt,neg.txt\n\n"
        "[prices]\npath = prices.csv\n\n"
        "[market]\npath = market.csv\n" % (tmp_path / "out"),
        encoding="utf-8",
    )
    return tmp_path


def test_missing_lexicon_exit_code(mini_fixture, capsys):
    (mini_fixture / "pos.txt").unlink()
    code = run(["distill", "--config", mini_fixture / "newsflow.ini"])
    assert code == 2
    assert "ERROR LEXICON_NOT_FOUND" in capsys.readouterr().err


def test_empty_corpus_exit_code(mini_fixture, capsys):
    (mini_fixture / "corpus.jsonl").write_text("", encoding="utf-8")
    code = run(["distill", "--config", mini_fixture / "newsflow.ini"])
    assert code == 2
    assert "ERROR EMPTY_CORPUS" in capsys.readouterr().err


def test_price_parse_error_exit_code(mini_fixture, capsys):
    bad = (mini_fixture / "prices.csv").read_text().splitlines()
    bad[3] = bad[3].replace("102", "90")  # high below low
    (mini_fixture / "prices.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
    code = run(["indicators", "--config", mini_fixture / "newsflow.ini"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ERROR PRICE_PARSE_ERROR" in err
    assert "line 4" in err


@pytest.mark.parametrize("column, value", [
    (5, "nan"), (3, "inf"), (6, "nan"), (6, "inf"),
], ids=["close_nan", "high_inf", "volume_nan", "volume_inf"])
def test_non_finite_price_exits_2(mini_fixture, capsys, column, value):
    _set_cell(mini_fixture / "prices.csv", 4, column, value)
    code = run(["indicators", "--config", mini_fixture / "newsflow.ini"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR PRICE_PARSE_ERROR") and len(err.splitlines()) == 1
    assert "line 4" in err


def test_panel_missing_inputs_exit_code(mini_fixture, capsys):
    code = run(["panel", "--config", mini_fixture / "newsflow.ini"])
    assert code == 2
    assert "ERROR MISSING_INPUT" in capsys.readouterr().err


def test_simulate_too_few_bootstraps(mini_fixture, capsys):
    code = run([
        "simulate", "--config", mini_fixture / "newsflow.ini", "--n-boot", 50,
    ])
    assert code == 2
    assert "ERROR TOO_FEW_BOOTSTRAPS" in capsys.readouterr().err


def test_bad_config_h(mini_fixture, capsys):
    code = run(["distill", "--config", mini_fixture / "newsflow.ini", "--h", 9])
    assert code == 2


@pytest.mark.parametrize("ini_extra, extra_args", [
    pytest.param("[simulate]\nn_boot = lots\n", [], id="n_boot=lots"),
    pytest.param("[negation]\nwindow = five\n", [], id="negation_window=five"),
    pytest.param("[indicators]\nwindow = 12.5\n", [], id="detrend_window=12.5"),
    pytest.param("[lexstats]\ntop = \n", [], id="top=empty"),
    pytest.param("[simulate]\nx_min = low\nx_max = 0.04\n", [], id="x_min=low"),
    pytest.param("[simulate]\ny_min = nan\ny_max = 1.65\n", [], id="y_min=nan"),
    pytest.param("[simulate]\nx_min = 0.5\n", [], id="x_min_without_x_max"),
    pytest.param("[panel]\ncluster = bogus\n", [], id="cluster=bogus"),
    pytest.param("[panel]\nsuites = entire, bogus\n", [], id="suites=bogus"),
    pytest.param("[negation]\nwindow = -3\n", [], id="negation_window=-3"),
    pytest.param("[simulate]\nx_min = 1\nx_max = 0\n", [], id="x_min_above_x_max"),
    pytest.param("[simulate]\ny_min = 0.5\ny_max = 0.5\n", [], id="y_min_equal_y_max"),
    pytest.param("[simulate]\ngrid_points = -1\n", [], id="grid_points=-1"),
    pytest.param("[simulate]\ngrid_points = 0\n", [], id="grid_points=0"),
    pytest.param("[simulate]\ngrid_points = 1\n", [], id="grid_points=1"),
    pytest.param("[lexstats]\ntop = -1\n", [], id="top=-1"),
    pytest.param("[lexstats]\ntop = 0\n", [], id="top=0"),
    pytest.param("[lexstats]\nmin_count = 0\n", [], id="min_count=0"),
    pytest.param("[simulate]\nn_days = 0\n", [], id="n_days=0"),
    pytest.param("[simulate]\nmin_active = 2\n", [], id="min_active=2"),
    pytest.param("[simulate]\nmin_active = -1\n", [], id="min_active=-1"),
    pytest.param("[negation]\nbidirectional = flase\n", [], id="bidirectional=flase"),
    pytest.param("", ["--day-boundary", "25:00"], id="day_boundary_flag=25:00"),
    pytest.param("", ["--day-boundary", "12:00+05:00"], id="day_boundary_flag_with_offset"),
    pytest.param("[run]\nseed = 2\n", [], id="duplicate_section"),
    pytest.param("[panel]\nnot a key value line\n", [], id="unparsable_line"),
    pytest.param("[lexstats]\ntop = 5%\n", [], id="percent_sign"),
])
def test_malformed_config_value_exits_2(mini_fixture, capsys, ini_extra, extra_args):
    ini = mini_fixture / "newsflow.ini"
    ini.write_text(ini.read_text(encoding="utf-8") + "\n" + ini_extra, encoding="utf-8")
    code = run(["distill", "--config", ini, *extra_args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def distilled_fixture(tmp_path_factory):
    """A small build_fixture tree whose sentiment.csv and indicators.csv are written."""
    root = build_fixture(tmp_path_factory.mktemp("distilled"), n_symbols=4, n_days=150, n_articles=200)
    for command in ("distill", "indicators"):
        assert run([command, "--config", root / "newsflow.ini"]) == 0
    return root


def test_empty_panel_suites_exits_2_before_any_work(distilled_fixture, tmp_path, capsys):
    root = tmp_path / "run"
    shutil.copytree(distilled_fixture, root)
    ini = root / "newsflow.ini"
    ini.write_text(ini.read_text(encoding="utf-8") + "\n[panel]\nsuites =\n", encoding="utf-8")
    code = run(["panel", "--config", ini, "--output", root / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR INVALID_VALUE: ") and "[panel] suites" in err and len(err.splitlines()) == 1
    # nothing written: the output folder holds only the copied stage files
    assert {p.name for p in (root / "out").iterdir()} == {p.name for p in (distilled_fixture / "out").iterdir()}


def _set_ini_value(ini, section, key, value):
    """Set one key of one section of an INI file, adding the section if it is missing."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ini, encoding="utf-8")
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    with open(ini, "w", encoding="utf-8") as handle:
        parser.write(handle)


@pytest.mark.parametrize("value, message", [
    ("csv:pos.txt", "unknown lexicon format 'csv' for BL"),
    ("wordlists:pos.txt", "lexicon BL: wordlists format needs pos,neg paths"),
    ("mpqa:pos.txt,neg.txt", "lexicon BL: mpqa format takes exactly one path"),
])
def test_malformed_lexicon_source_exits_2(mini_fixture, capsys, value, message):
    ini = mini_fixture / "newsflow.ini"
    _set_ini_value(ini, "lexicons", "BL", value)
    assert run(["report", "--config", ini]) == 2
    assert capsys.readouterr().err == f"ERROR INPUT_ERROR: {message}\n"


# one INI value replaced: (section, key) -> its values, valid and not
_INI_NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "x", "1.5", "1e3", "nan", "400", "9" * 30, "\u0663", "5%", "0x10"]),
)
INI_VALUES = {
    ("panel", "h"): _INI_NUMBERS,
    ("panel", "suites"): st.lists(st.sampled_from(["entire", "lags_noncumulative", "sector", "attention", "bogus", ""]),
                                  max_size=3).map(",".join),
    ("panel", "cluster"): st.sampled_from(["two_way", "by_entity", "by_time", "", "TWO_WAY", "bogus"]),
    ("indicators", "window"): _INI_NUMBERS,
    ("negation", "window"): _INI_NUMBERS,
    ("negation", "negators"): st.lists(st.sampled_from(
        ["not", "n't", "NEVER", "isn't", "no.", "", "42", "'", "no way", "\u0130", "\u212a", "100%"]), max_size=3,
    ).map(",".join),
    ("negation", "bidirectional"): st.sampled_from(["true", "no", "0", "flase", "", "%"]),
    ("lexstats", "top"): _INI_NUMBERS,
    ("lexstats", "min_count"): _INI_NUMBERS,
    ("simulate", "n_days"): _INI_NUMBERS,
    ("simulate", "n_boot"): _INI_NUMBERS,
    ("simulate", "grid_points"): _INI_NUMBERS,
    ("simulate", "min_active"): _INI_NUMBERS,
    ("run", "seed"): _INI_NUMBERS,
    ("run", "output"): st.sampled_from(["", "out", "fresh/deep", "calendar.txt", "calendar.txt/out", "50%"]),
    ("corpus", "format"): st.sampled_from(["jsonl", "directory_of_text_files", "xml", "", "JSONL"]),
    ("corpus", "day_boundary"): st.sampled_from(["00:00", "09:30", "23:59:59", "24:00", "25:00", "12:00+05:00",
                                                 "", "noon", "9", "%"]),
}
# the command that reads each section; simulate stops at the missing panel results, after its value checks
COMMAND_OF_SECTION = {"panel": "panel", "indicators": "indicators", "negation": "distill", "corpus": "distill",
                      "lexstats": "lexstats", "simulate": "simulate", "run": "lexstats"}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(target=st.sampled_from(sorted(INI_VALUES)).flatmap(lambda key: st.tuples(st.just(key), INI_VALUES[key])))
def test_ini_value_mutation_keeps_the_exit_code_contract(distilled_fixture, target):
    (section, key), value = target
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        shutil.copytree(distilled_fixture, root, dirs_exist_ok=True)
        ini = root / "newsflow.ini"
        _set_ini_value(ini, "run", "output", str(root / "out"))
        _set_ini_value(ini, section, key, value)
        err = io.StringIO()
        # a relative [run] output is taken from the INI's folder, here the temporary root
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([COMMAND_OF_SECTION[section], "--config", ini])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "ERROR" not in err.getvalue()
    else:
        assert err.getvalue().startswith("ERROR ") and len(err.getvalue().splitlines()) == 1


# one flag's texts: (flag, command that reads its value) -> its texts, valid and not, as for the INI keys
_FLAG_SUITES = st.sampled_from(["entire", "lags_noncumulative", "attention", "sector", "bogus", "", "entire,sector"])
FLAG_TEXTS = {
    ("--seed", "lexstats"): _INI_NUMBERS,
    ("--output", "lexstats"): st.sampled_from(["", " ", "out", "fresh/deep", "calendar.txt", "calendar.txt/out"]),
    ("--h", "panel"): _INI_NUMBERS,
    ("--suite", "panel"): st.lists(_FLAG_SUITES, min_size=1, max_size=3),
    ("--n-boot", "simulate"): _INI_NUMBERS,
    ("--n-days", "simulate"): _INI_NUMBERS,
    ("--day-boundary", "distill"): st.sampled_from(["00:00", "09:30", "25:00", "12:00+05:00", "", "noon", "-1"]),
    ("--window", "indicators"): _INI_NUMBERS,
}


def test_every_flag_is_mutated():
    assert sorted(flag for flag, _ in FLAG_TEXTS) == sorted(setting.flag for setting in SETTINGS if setting.flag)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(target=st.sampled_from(sorted(FLAG_TEXTS)).flatmap(lambda key: st.tuples(st.just(key), FLAG_TEXTS[key])))
def test_flag_mutation_keeps_the_exit_code_contract(distilled_fixture, target):
    (flag, command), texts = target
    texts = texts if isinstance(texts, list) else [texts]
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        shutil.copytree(distilled_fixture, root, dirs_exist_ok=True)
        ini = root / "newsflow.ini"
        _set_ini_value(ini, "run", "output", str(root / "out"))
        err = io.StringIO()
        # a relative --output is taken from the working directory, here the temporary root
        with contextlib.chdir(root), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([command, "--config", ini, *(arg for text in texts for arg in (flag, text))])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and re.fullmatch(r"ERROR [A-Z_]+: .*", lines[0])
    # a value load_config or the band-size check refuses names the flag that set it
    if lines and lines[0].startswith("ERROR INVALID_VALUE"):
        assert lines[0].endswith(f" for key '{flag}'")


@pytest.mark.parametrize("args, message", [
    pytest.param(["panel", "--h"], "INPUT_ERROR: argument --h: expected one argument", id="flag_without_value"),
    pytest.param(["panel", "--bogus"], "INPUT_ERROR: unrecognized arguments: --bogus", id="unknown_flag"),
    pytest.param(["bogus"], "INPUT_ERROR: argument command: invalid choice: 'bogus'", id="unknown_command"),
    pytest.param([], "INPUT_ERROR: the following arguments are required: command", id="no_command"),
    pytest.param(["panel", "--h", "1", "--h", "2"], "INPUT_ERROR: argument --h: given more than once",
                 id="repeated_flag"),
    pytest.param(["panel", "--config", "a.ini"], "INPUT_ERROR: argument --config: given more than once",
                 id="repeated_config"),
    pytest.param(["distill", "--day-boundary", "-x"], "INPUT_ERROR: argument --day-boundary: expected one argument",
                 id="value_like_a_flag"),
    # a negative number is taken as the value, and load_config refuses it naming the flag
    pytest.param(["simulate", "--n-days", "-5"], "INVALID_VALUE: invalid value '-5' for key '--n-days'",
                 id="negative_value"),
    # only the full flags are accepted, not their prefixes
    pytest.param(["indicators", "--wind", "10"], "INPUT_ERROR: unrecognized arguments: --wind 10",
                 id="abbreviated_flag"),
    pytest.param(["report", "--conf", "x.ini"], "INPUT_ERROR: unrecognized arguments: --conf x.ini",
                 id="abbreviated_config"),
    pytest.param(["report", "--out", "DIR"], "INPUT_ERROR: unrecognized arguments: --out DIR",
                 id="abbreviated_output"),
])
def test_malformed_command_line_is_one_error_line(distilled_fixture, capsys, args, message):
    capsys.readouterr()
    code = run([*args[:1], "--config", distilled_fixture / "newsflow.ini", *args[1:]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"ERROR {message}")


@pytest.mark.parametrize("args", [["--help"], ["panel", "--help"], ["panel", "--h", "1", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exit_:
        run(args)
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: newsflow") and "overrides [simulate] n_boot" in out and err == ""


def _edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _set_cell(path, line, column, value):
    def edit(lines):
        cells = lines[line - 1].split(",")
        cells[column] = value
        lines[line - 1] = ",".join(cells)
        return lines

    _edit_lines(path, edit)


def _set_inactive_cell(path, column, value):
    """Set one cell of the first row with I=0 and n_articles=0."""
    lines = path.read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines[1:], 2) if text.split(",")[3] == "0")
    _set_cell(path, line, column, value)


def _replace_line(number, edit_cells):
    def edit(lines):
        lines[number - 1] = ",".join(edit_cells(lines[number - 1].split(",")))
        return lines

    return edit


@pytest.mark.parametrize("command, corrupt", [
    pytest.param(["panel"], lambda root: _set_cell(root / "market.csv", 3, 1, "abc"),
                 id="market_cell_not_numeric"),
    pytest.param(["panel"], lambda root: _edit_lines(root / "market.csv", lambda lines: lines + lines[1:2]),
                 id="market_date_repeated"),
    pytest.param(["panel", "--suite", "sector"], lambda root: _set_cell(root / "sectors.csv", 1, 1, "industry"),
                 id="sectors_without_sector_column"),
    pytest.param(["report"], lambda root: _edit_lines(
        root / "out" / "sentiment.csv", lambda lines: lines[:300] + [",".join(lines[300].split(",")[:4])]),
                 id="sentiment_truncated"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "indicators.csv", 5, 2, "1.2.3"),
                 id="indicators_bad_number"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "sentiment.csv", 4, 1, "2020-02-30"),
                 id="sentiment_bad_date"),
    pytest.param(["panel"], lambda root: _edit_lines(root / "out" / "sentiment.csv", lambda lines: lines + lines[200:201]),
                 id="sentiment_key_repeated"),
    pytest.param(["panel"], lambda root: _edit_lines(root / "out" / "indicators.csv", lambda lines: lines + lines[200:201]),
                 id="indicators_key_repeated"),
    pytest.param(["panel", "--suite", "sector"],
                 lambda root: _edit_lines(root / "sectors.csv", lambda lines: lines + [lines[1].lower()]),
                 id="sectors_symbol_repeated"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "indicators.csv", 5, 2, "inf"),
                 id="indicators_log_vol_inf"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "indicators.csv", 5, 4, "nan"),
                 id="indicators_ret_nan"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "sentiment.csv", 4, 4, "inf"),
                 id="sentiment_pos_inf"),
    pytest.param(["panel"], lambda root: _set_cell(root / "market.csv", 3, 2, "-inf"),
                 id="market_vix_minus_inf"),
    pytest.param(["report"], lambda root: _set_cell(root / "out" / "sentiment.csv", 4, 3, "7"),
                 id="sentiment_I_out_of_range"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "sentiment.csv", 4, 6, "-5"),
                 id="sentiment_n_articles_negative"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "sentiment.csv", 4, 3, "1"),
                 id="sentiment_active_without_articles"),
    pytest.param(["panel"], lambda root: _set_cell(root / "out" / "sentiment.csv", 4, 4, "-3.0"),
                 id="sentiment_pos_negative"),
    pytest.param(["panel"], lambda root: _set_inactive_cell(root / "out" / "sentiment.csv", 4, "0.5"),
                 id="sentiment_pos_without_articles"),
    pytest.param(["panel"], lambda root: _set_inactive_cell(root / "out" / "sentiment.csv", 5, "0.25"),
                 id="sentiment_neg_without_articles"),
])
def test_malformed_panel_input_exits_2(distilled_fixture, tmp_path, capsys, command, corrupt):
    root = tmp_path / "run"
    shutil.copytree(distilled_fixture, root)
    corrupt(root)
    code = run([*command, "--config", root / "newsflow.ini", "--output", root / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def paneled_fixture(distilled_fixture, tmp_path_factory):
    """The distilled fixture with its panel outputs (results_entire.csv, residuals_*.csv) written."""
    root = tmp_path_factory.mktemp("paneled") / "run"
    shutil.copytree(distilled_fixture, root)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["panel", "--config", root / "newsflow.ini", "--output", root / "out"]) == 0
    return root


def _truncate(line, n_fields):
    return _replace_line(line, lambda cells: cells[:n_fields])


def _set(line, column, value):
    return _replace_line(line, lambda cells: cells[:column] + [value] + cells[column + 1:])


def _repeat(line):
    return lambda lines: lines + lines[line - 1:line]


def _then(*edits):
    def edit(lines):
        for one in edits:
            lines = one(lines)
        return lines

    return edit


def _quote_all(lines):
    return [",".join(f'"{cell}"' for cell in line.split(",")) for line in lines]


SENTIMENT_ACTIVE_LINE = 50  # the first I=1 row of the distilled fixture's sentiment.csv
SENTIMENT_RANGE_ERROR = ("ERROR MALFORMED_RECORD: {root}/out/sentiment.csv:50: "
                         "sentiment pos=1.5 and neg=0.04854368932038835 must lie in [0, 1]")


# The stderr line of each edit, as the row-wise readers printed it; {root} is the tree.
@pytest.mark.parametrize("command, name, edit, expected", [
    pytest.param(["report"], "out/sentiment.csv", _truncate(300, 4),
                 "ERROR MALFORMED_RECORD: {root}/out/sentiment.csv:300: 4 fields where the header has 7",
                 id="sentiment_truncated"),
    pytest.param(["report"], "out/sentiment.csv", _set(SENTIMENT_ACTIVE_LINE, 4, "inf"),
                 "ERROR MALFORMED_RECORD: {root}/out/sentiment.csv:50: non-finite number 'inf'",
                 id="sentiment_pos_inf"),
    pytest.param(["report"], "out/sentiment.csv", _set(300, 1, "2020-01-04"),
                 "ERROR MALFORMED_RECORD: {root}/out/sentiment.csv:300: sentiment date 2020-01-04 not in calendar",
                 id="sentiment_off_calendar"),
    pytest.param(["report"], "out/sentiment.csv", _repeat(200),
                 "ERROR MALFORMED_RECORD: {root}/out/sentiment.csv:1802: "
                 "duplicate sentiment row for BL SYM01 2020-03-12",
                 id="sentiment_key_repeated"),
    pytest.param(["report"], "out/sentiment.csv", _set(2, 3, "1"),
                 "ERROR MALFORMED_RECORD: {root}/out/sentiment.csv:2: "
                 "sentiment I=1 with n_articles=0; I is 1 exactly when n_articles > 0",
                 id="sentiment_active_without_articles"),
    pytest.param(["report"], "out/sentiment.csv", _set(SENTIMENT_ACTIVE_LINE, 4, "1.5"), SENTIMENT_RANGE_ERROR,
                 id="sentiment_pos_above_1"),
    pytest.param(["report"], "out/sentiment.csv",
                 _then(_set(SENTIMENT_ACTIVE_LINE, 4, "1.5"), _set(300, 1, "2020-01-04"), _truncate(400, 3)),
                 SENTIMENT_RANGE_ERROR, id="sentiment_first_fault_in_file_order"),
    pytest.param(["report"], "out/sentiment.csv", _then(_set(300, 4, "inf"), _set(300, 1, "2020-01-04")),
                 "ERROR MALFORMED_RECORD: {root}/out/sentiment.csv:300: sentiment date 2020-01-04 not in calendar",
                 id="sentiment_first_rule_in_the_row"),
    pytest.param(["panel"], "out/indicators.csv", _truncate(300, 3),
                 "ERROR MALFORMED_RECORD: {root}/out/indicators.csv:300: 3 fields where the header has 5",
                 id="indicators_truncated"),
    pytest.param(["panel"], "out/indicators.csv", _then(lambda lines: lines[:9] + [""] + lines[9:], _truncate(300, 3)),
                 "ERROR MALFORMED_RECORD: {root}/out/indicators.csv:300: 3 fields where the header has 5",
                 id="indicators_blank_line_then_truncated"),
    pytest.param(["panel"], "out/indicators.csv", _set(300, 4, "nan"),
                 "ERROR MALFORMED_RECORD: {root}/out/indicators.csv:300: non-finite number 'nan'",
                 id="indicators_ret_nan"),
    pytest.param(["panel"], "out/indicators.csv", _set(300, 1, "2031-01-02"),
                 "ERROR MALFORMED_RECORD: {root}/out/indicators.csv:300: indicator date 2031-01-02 not in calendar",
                 id="indicators_off_calendar"),
    pytest.param(["panel"], "out/indicators.csv", _repeat(200),
                 "ERROR MALFORMED_RECORD: {root}/out/indicators.csv:602: duplicate indicator row for SYM01 2020-03-12",
                 id="indicators_key_repeated"),
    pytest.param(["indicators"], "prices.csv", _truncate(300, 5),
                 "ERROR PRICE_PARSE_ERROR: line 300: 5 fields where the header has 7", id="prices_truncated"),
    pytest.param(["indicators"], "prices.csv", _set(300, 5, "inf"),
                 "ERROR PRICE_PARSE_ERROR: line 300: non-finite number 'inf'", id="prices_close_inf"),
    pytest.param(["indicators"], "prices.csv", _set(300, 1, "2020-01-04"),
                 "ERROR PRICE_PARSE_ERROR: line 300: date 2020-01-04 not in trading calendar",
                 id="prices_off_calendar"),
    pytest.param(["indicators"], "prices.csv", _repeat(200),
                 "ERROR PRICE_PARSE_ERROR: line 602: second bar for SYM01 on 2020-03-12", id="prices_key_repeated"),
    pytest.param(["panel"], "market.csv", _truncate(30, 2),
                 "ERROR MALFORMED_RECORD: {root}/market.csv:30: 2 fields where the header has 3", id="market_truncated"),
    pytest.param(["panel"], "market.csv", _set(30, 2, "-inf"),
                 "ERROR MALFORMED_RECORD: {root}/market.csv:30: non-finite number '-inf'", id="market_vix_inf"),
    pytest.param(["panel"], "market.csv", _then(_set(30, 2, "-inf"), _quote_all),
                 "ERROR MALFORMED_RECORD: {root}/market.csv:30: non-finite number '-inf'", id="market_quoted_vix_inf"),
    pytest.param(["panel"], "market.csv", _set(30, 0, "2020-01-04"),
                 "ERROR MALFORMED_RECORD: {root}/market.csv:30: market date 2020-01-04 not in trading calendar",
                 id="market_off_calendar"),
    pytest.param(["panel"], "market.csv", _repeat(20),
                 "ERROR MALFORMED_RECORD: {root}/market.csv:152: duplicate market date 2020-01-30",
                 id="market_date_repeated"),
    pytest.param(["panel", "--suite", "sector"], "sectors.csv", _truncate(3, 1),
                 "ERROR MALFORMED_RECORD: {root}/sectors.csv:3: 1 fields where the header has 2", id="sectors_truncated"),
    pytest.param(["panel", "--suite", "sector"], "sectors.csv", lambda lines: lines + [lines[1].lower()],
                 "ERROR MALFORMED_RECORD: {root}/sectors.csv:6: duplicate sector row for SYM00",
                 id="sectors_symbol_repeated"),
    pytest.param(["simulate"], "out/residuals_log_vol_BL.csv", _truncate(40, 2),
                 "ERROR MALFORMED_RECORD: {root}/out/residuals_log_vol_BL.csv:40: 2 fields where the header has 3",
                 id="residuals_truncated"),
    pytest.param(["simulate"], "out/residuals_log_vol_BL.csv", _set(40, 2, "nan"),
                 "ERROR MALFORMED_RECORD: {root}/out/residuals_log_vol_BL.csv:40: non-finite number 'nan'",
                 id="residuals_nan"),
])
def test_malformed_input_names_its_first_offending_row(paneled_fixture, tmp_path, capsys, command, name, edit, expected):
    root = tmp_path / "run"
    shutil.copytree(paneled_fixture, root)
    _edit_lines(root / name, edit)
    capsys.readouterr()
    code = run([*command, "--config", root / "newsflow.ini", "--output", root / "out"])
    assert code == 2
    assert capsys.readouterr().err == expected.format(root=root) + "\n"


# one row of a stage file changed: (kind, *arguments), cell indices taken
# modulo the row's length; "set" puts a value into one cell
STAGE_ROW_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 6)),
    st.tuples(st.just("swap"), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.just("set"), st.integers(2, 6), st.sampled_from(["nan", "inf", "-inf", "9" * 400])),
    st.tuples(st.just("repeat")),
    st.tuples(st.just("set"), st.just(1), st.sampled_from(["2020-01-04", "2031-01-02", "2020-02-30"])),
    st.tuples(st.just("set"), st.sampled_from([3, 6]), st.sampled_from(["-1", "2", "7", "0", "1", "-5", "1.5"])),
)


def _mutate_row(lines, row, mutation):
    kind, *args = mutation
    line = 1 + row % (len(lines) - 1)
    cells = lines[line].split(",")
    if kind == "truncate":
        cells = cells[: args[0] % len(cells)]
    elif kind == "swap":
        i, j = (k % len(cells) for k in args)
        cells[i], cells[j] = cells[j], cells[i]
    elif kind == "set":
        cells[args[0] % len(cells)] = args[1]
    else:
        return lines + [lines[line]]
    return lines[:line] + [",".join(cells)] + lines[line + 1 :]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(["out/sentiment.csv", "out/indicators.csv", "market.csv", "sectors.csv"]),
    row=st.integers(0, 10**6),
    mutation=STAGE_ROW_MUTATIONS,
)
def test_stage_file_mutation_keeps_the_exit_code_contract(distilled_fixture, name, row, mutation):
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "out").mkdir()
        for stage_file in ("newsflow.ini", "calendar.txt", "market.csv", "sectors.csv",
                           "out/sentiment.csv", "out/indicators.csv"):
            shutil.copy(distilled_fixture / stage_file, root / stage_file)
        _edit_lines(root / name, lambda lines: _mutate_row(lines, row, mutation))
        # the sector suite reads sectors.csv; no sector of this fixture has two symbols, so it fits nothing
        for command in (["panel", "--suite", "entire", "--suite", "sector"], ["report"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([*command, "--config", root / "newsflow.ini", "--output", root / "out"])
            assert code in (0, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("ERROR ") and len(err.getvalue().splitlines()) == 1


def _run_indicators_on(fixture, out, edit):
    """`indicators` on the fixture's calendar and an edited copy of its prices.csv; (rc, stderr)."""
    out = Path(out)
    for name in ("newsflow.ini", "calendar.txt", "prices.csv"):
        shutil.copy(fixture / name, out / name)
    _edit_lines(out / "prices.csv", edit)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["indicators", "--config", out / "newsflow.ini", "--output", out / "out"])
    return code, err.getvalue()


@pytest.mark.parametrize("edit, line", [
    pytest.param(_replace_line(10, lambda cells: cells[:5]), 10, id="truncated_row"),
    pytest.param(_replace_line(10, lambda cells: cells + ["1"]), 10, id="extra_field"),
    pytest.param(_replace_line(10, lambda cells: ["", *cells[1:]]), 10, id="empty_symbol"),
    pytest.param(lambda lines: lines + lines[9:10], 602, id="repeated_symbol_date"),
    pytest.param(lambda lines: lines + [lines[9].lower()], 602, id="repeated_symbol_date_lower_case"),
])
def test_malformed_price_row_exits_2_with_its_line(distilled_fixture, tmp_path, edit, line):
    code, err = _run_indicators_on(distilled_fixture, tmp_path, edit)
    assert code == 2
    assert err.startswith(f"ERROR PRICE_PARSE_ERROR: line {line}: ") and len(err.splitlines()) == 1


def test_indicators_fits_the_detrend_once_per_symbol(distilled_fixture, tmp_path, monkeypatch):
    calls = []
    fit = indicators.fit_detrend_model
    monkeypatch.setattr(indicators, "fit_detrend_model", lambda *args, **kwargs: calls.append(1) or fit(*args, **kwargs))
    code, _ = _run_indicators_on(distilled_fixture, tmp_path, lambda lines: lines)
    assert code == 0
    assert len(calls) == 4  # the fixture's symbols


# one row of prices.csv changed, as STAGE_ROW_MUTATIONS, or its symbol emptied or
# lower-cased, or its high and low swapped
PRICE_ROW_MUTATIONS = st.one_of(
    STAGE_ROW_MUTATIONS,
    st.tuples(st.just("set"), st.just(0), st.sampled_from(["", "sym00"])),
    st.tuples(st.just("swap"), st.just(3), st.just(4)),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(row=st.integers(0, 10**6), mutation=PRICE_ROW_MUTATIONS)
def test_price_file_mutation_keeps_the_exit_code_contract(distilled_fixture, row, mutation):
    with tempfile.TemporaryDirectory() as out:
        code, err = _run_indicators_on(distilled_fixture, out, lambda lines: _mutate_row(lines, row, mutation))
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("ERROR ") and len(err.splitlines()) == 1


# one line of calendar.txt changed: cut short, repeated at the end, swapped
# with the next line (dates out of order), or replaced
CALENDAR_LINE_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 9)),
    st.tuples(st.just("repeat")),
    st.tuples(st.just("swap")),
    st.tuples(st.just("set"), st.sampled_from(
        ["2020-02-30", "20200107", "2020-1-7", "x", "# comment", " 2020-01-07 ", "1999-12-31", "9999-12-31"])),
)


def _mutate_calendar_line(lines, row, mutation):
    kind, *args = mutation
    line = row % len(lines)
    if kind == "repeat":
        return lines + [lines[line]]
    if kind == "swap":
        following = (line + 1) % len(lines)
        lines = list(lines)
        lines[line], lines[following] = lines[following], lines[line]
        return lines
    text = lines[line][: args[0]] if kind == "truncate" else args[0]
    return lines[:line] + [text] + lines[line + 1 :]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(row=st.integers(0, 10**6), mutation=CALENDAR_LINE_MUTATIONS)
def test_calendar_mutation_keeps_the_exit_code_contract(distilled_fixture, row, mutation):
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        shutil.copytree(distilled_fixture, root, dirs_exist_ok=True)
        _edit_lines(root / "calendar.txt", lambda lines: _mutate_calendar_line(lines, row, mutation))
        # distill and indicators write elsewhere, so panel and report read the
        # stage files written on the unchanged calendar
        for command in (["distill", "--output", root / "fresh"], ["indicators", "--output", root / "fresh"],
                        ["panel", "--suite", "entire"], ["report"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([*command, "--config", root / "newsflow.ini"])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert err.getvalue().startswith("ERROR ") and len(err.getvalue().splitlines()) == 1


def _copy_of(fixture, root):
    shutil.copytree(fixture, root)
    return root


def test_empty_price_file_is_reported_at_line_1_without_a_header(distilled_fixture, tmp_path, capsys):
    root = _copy_of(distilled_fixture, tmp_path / "run")
    (root / "prices.csv").write_bytes(b"")
    code = run(["indicators", "--config", root / "newsflow.ini", "--output", root / "out"])
    assert code == 2
    assert capsys.readouterr().err == "ERROR PRICE_PARSE_ERROR: line 1: no header\n"


def test_price_file_with_a_byte_order_mark_reads_as_without_one(distilled_fixture, tmp_path):
    root = _copy_of(distilled_fixture, tmp_path / "run")
    prices = root / "prices.csv"
    prices.write_bytes(codecs.BOM_UTF8 + prices.read_bytes())
    assert run(["indicators", "--config", root / "newsflow.ini", "--output", root / "out"]) == 0
    assert (root / "out" / "indicators.csv").read_bytes() == (distilled_fixture / "out" / "indicators.csv").read_bytes()


def _corpus_as_directory(root):
    """Rewrite the fixture's jsonl corpus as JSON sidecars and text bodies, and point the config at them."""
    corpus = root / "corpus"
    corpus.mkdir()
    for line in (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        (corpus / f"{record['id']}.txt").write_text(record.pop("body"), encoding="utf-8")
        (corpus / f"{record['id']}.json").write_text(json.dumps(record), encoding="utf-8")
    ini = root / "newsflow.ini"
    ini.write_text(ini.read_text(encoding="utf-8").replace(
        "path = corpus.jsonl\nformat = jsonl", "path = corpus\nformat = directory_of_text_files"
    ), encoding="utf-8")


@pytest.mark.parametrize("name, line", [
    ("calendar.txt", 3), ("corpus.jsonl", 3), ("corpus/art-00004.txt", 1), ("corpus/art-00004.json", 1),
    ("bl_neg.txt", 3), ("mpqa.tff", 3),
])
def test_text_input_that_is_not_utf8_exits_2_naming_the_file(distilled_fixture, tmp_path, capsys, name, line):
    root = _copy_of(distilled_fixture, tmp_path / "run")
    if name.startswith("corpus/"):
        _corpus_as_directory(root)
    lines = (root / name).read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    (root / name).write_bytes(b"\n".join(lines))
    code = run(["distill", "--config", root / "newsflow.ini", "--output", root / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR MALFORMED_RECORD: {root / name}:{line}: not UTF-8: byte 0xff")
    assert len(err.splitlines()) == 1


def _distill_with_symbols(fixture, root, symbols):
    """sentiment.csv of distill on a copy of the fixture with `[corpus] symbols` set."""
    root = _copy_of(fixture, root)
    _edit_lines(root / "newsflow.ini", lambda lines: [
        line + f"\nsymbols = {symbols}" if line == "[corpus]" else line for line in lines
    ])
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["distill", "--config", root / "newsflow.ini", "--output", root / "out"]) == 0
    return (root / "out" / "sentiment.csv").read_text(encoding="utf-8")


def test_distill_symbols_keeps_the_unfiltered_rows_of_those_symbols(distilled_fixture, tmp_path):
    written = _distill_with_symbols(distilled_fixture, tmp_path / "run", "SYM01, SYM03")
    header, *rows = (distilled_fixture / "out" / "sentiment.csv").read_text(encoding="utf-8").splitlines()
    kept = [row for row in rows if row.split(",")[0] in ("SYM01", "SYM03")]
    # articles that name SYM01 or SYM03 with other symbols too count under each of the two
    assert len(kept) == 2 * len(rows) // 4
    assert written.splitlines() == [header, *kept]


def test_distill_repeated_symbol_counts_once(distilled_fixture, tmp_path):
    repeated = _distill_with_symbols(distilled_fixture, tmp_path / "repeated", "SYM01, SYM01, sym03")
    assert repeated == _distill_with_symbols(distilled_fixture, tmp_path / "once", "SYM01, SYM03")


def test_unknown_panel_suite_exits_2_before_writing(distilled_fixture, tmp_path, capsys):
    root = _copy_of(distilled_fixture, tmp_path / "run")
    before = sorted(path.name for path in (root / "out").iterdir())
    code = run(["panel", "--config", root / "newsflow.ini", "--output", root / "out",
                "--suite", "entire", "--suite", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "ERROR INVALID_VALUE: invalid value 'bogus' for key '--suite'\n"
    assert sorted(path.name for path in (root / "out").iterdir()) == before


@pytest.mark.parametrize("ini_suites, extra_args", [
    pytest.param("entire, entire", [], id="ini"),
    pytest.param("entire", ["--suite", "entire", "--suite", "entire"], id="flag"),
])
def test_repeated_panel_suite_runs_once(distilled_fixture, tmp_path, capsys, ini_suites, extra_args):
    root = _copy_of(distilled_fixture, tmp_path / "run")
    _set_ini_value(root / "newsflow.ini", "panel", "suites", ini_suites)
    capsys.readouterr()
    assert run(["panel", "--config", root / "newsflow.ini", "--output", root / "out", *extra_args]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("suite=entire cells=12 ")


@pytest.mark.parametrize("command", ["distill", "indicators", "panel", "simulate", "lexstats", "report"])
@pytest.mark.parametrize("output, in_ini", [
    pytest.param("taken", False, id="flag_names_a_file"),
    pytest.param("taken/out", True, id="ini_names_a_path_under_a_file"),
])
def test_output_path_blocked_by_a_file_exits_2(mini_fixture, capsys, command, output, in_ini):
    (mini_fixture / "taken").write_text("not a directory\n", encoding="utf-8")
    ini = mini_fixture / "newsflow.ini"
    if in_ini:
        ini.write_text(ini.read_text(encoding="utf-8").replace(str(mini_fixture / "out"), str(mini_fixture / output)),
                       encoding="utf-8")
    before = sorted(mini_fixture.rglob("*"))
    code = run([command, "--config", ini] + ([] if in_ini else ["--output", mini_fixture / output]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR INVALID_VALUE") and len(err.splitlines()) == 1
    assert sorted(mini_fixture.rglob("*")) == before


def test_output_file_blocked_by_a_directory_exits_2(mini_fixture, capsys):
    (mini_fixture / "out" / "sentiment.csv").mkdir(parents=True)
    code = run(["distill", "--config", mini_fixture / "newsflow.ini"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR INVALID_VALUE") and "'[run] output'" in err and len(err.splitlines()) == 1
    # the temporary file is removed and no manifest is written
    assert [path.name for path in (mini_fixture / "out").iterdir()] == ["sentiment.csv"]


# an input file, a command that reads it, and the ERROR code when the file is missing
UNREADABLE_INPUTS = [
    ("corpus.jsonl", ["distill"], "MISSING_INPUT"),
    ("corpus.jsonl", ["lexstats"], "MISSING_INPUT"),
    ("calendar.txt", ["distill"], "MISSING_INPUT"),
    ("calendar.txt", ["indicators"], "MISSING_INPUT"),
    ("calendar.txt", ["panel"], "MISSING_INPUT"),
    ("calendar.txt", ["report"], "MISSING_INPUT"),
    ("prices.csv", ["indicators"], "MISSING_INPUT"),
    ("market.csv", ["panel"], "MISSING_INPUT"),
    ("market.csv", ["simulate"], "MISSING_INPUT"),
    ("sectors.csv", ["panel", "--suite", "sector"], "MISSING_INPUT"),
    ("bl_neg.txt", ["distill"], "LEXICON_NOT_FOUND"),
    ("bl_neg.txt", ["lexstats"], "LEXICON_NOT_FOUND"),
    ("mpqa.tff", ["distill"], "LEXICON_NOT_FOUND"),
    ("mpqa.tff", ["lexstats"], "LEXICON_NOT_FOUND"),
    ("out/sentiment.csv", ["panel"], "MISSING_INPUT"),
    ("out/sentiment.csv", ["report"], "MISSING_INPUT"),
    ("out/indicators.csv", ["panel"], "MISSING_INPUT"),
    ("out/results_entire.csv", ["simulate"], "MISSING_INPUT"),
    ("out/residuals_log_vol_BL.csv", ["simulate"], "MISSING_INPUT"),
]


@pytest.mark.parametrize("how", ["missing", "directory"])
@pytest.mark.parametrize("name, command, missing_code", [
    pytest.param(name, command, code, id=f"{name}-{'_'.join(command)}") for name, command, code in UNREADABLE_INPUTS
])
def test_unreadable_input_exits_2_with_one_error_line(paneled_fixture, tmp_path, capsys, name, command,
                                                      missing_code, how):
    root = _copy_of(paneled_fixture, tmp_path / "run")
    (root / name).unlink()
    if how == "directory":
        (root / name).mkdir()
    capsys.readouterr()
    code = run([*command, "--config", root / "newsflow.ini", "--output", root / "out"])
    assert code == 2
    err = capsys.readouterr().err
    if how == "missing":
        assert err.startswith(f"ERROR {missing_code}: ") and len(err.splitlines()) == 1
    else:
        assert err == f"ERROR MISSING_INPUT: cannot read {root / name}: Is a directory\n"


def test_missing_corpus_directory_exits_2(distilled_fixture, tmp_path, capsys):
    root = _copy_of(distilled_fixture, tmp_path / "run")
    _corpus_as_directory(root)
    shutil.rmtree(root / "corpus")
    code = run(["distill", "--config", root / "newsflow.ini", "--output", root / "out"])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR MISSING_INPUT: cannot read {root / 'corpus'}: No such file or directory\n"


def test_config_path_that_is_a_directory_exits_2(mini_fixture, capsys):
    code = run(["distill", "--config", mini_fixture])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR MISSING_INPUT: cannot read {mini_fixture}: Is a directory\n"
    assert not (mini_fixture / "out").exists()


@pytest.mark.parametrize("ini_extra, extra_args, expected", [
    pytest.param("[simulate]\nn_boot = 50\n", [], "TOO_FEW_BOOTSTRAPS: n_boot must be >= 100, got 50", id="n_boot=50"),
    pytest.param("[corpus]\nformat = xml\n", [], "INVALID_VALUE: invalid value 'xml' for key '[corpus] format'",
                 id="format=xml"),
    pytest.param("", ["--h", "abc"], "INVALID_VALUE: invalid value 'abc' for key '--h'", id="h_flag=abc"),
    pytest.param("", ["--seed", "x"], "INVALID_VALUE: invalid value 'x' for key '--seed'", id="seed_flag=x"),
    pytest.param("", ["--output", ""], "INVALID_VALUE: invalid value '' for key '--output'", id="output_flag=empty"),
    pytest.param("", ["--day-boundary", ""], "INVALID_VALUE: invalid value '' for key '--day-boundary'",
                 id="day_boundary_flag=empty"),
    pytest.param("", ["--day-boundary", "25:00"], "INVALID_VALUE: invalid value '25:00' for key '--day-boundary'",
                 id="day_boundary_flag=25:00"),
    pytest.param("", ["--suite", "bogus"], "INVALID_VALUE: invalid value 'bogus' for key '--suite'",
                 id="suite_flag=bogus"),
    pytest.param("", ["--n-boot", 99], "TOO_FEW_BOOTSTRAPS: n_boot must be >= 100, got 99", id="n_boot_flag=99"),
    pytest.param("", ["--n-days", 0], "INVALID_VALUE: invalid value '0' for key '--n-days'", id="n_days_flag=0"),
    pytest.param("[simulate]\nn_days = 0\n", [], "INVALID_VALUE: invalid value '0' for key '[simulate] n_days'",
                 id="n_days=0"),
    pytest.param("[panel]\nh = 6\n", [], "INVALID_VALUE: invalid value '6' for key '[panel] h'", id="h=6"),
    pytest.param("", ["--h", 0], "INVALID_VALUE: invalid value '0' for key '--h'", id="h_flag=0"),
    pytest.param("[indicators]\nwindow = 9\n", [], "INVALID_VALUE: invalid value '9' for key '[indicators] window'",
                 id="window=9"),
    pytest.param("", ["--window", 9], "INVALID_VALUE: invalid value '9' for key '--window'", id="window_flag=9"),
    *(pytest.param(f"[{section}]\n{key} =\n", [], f"INVALID_VALUE: invalid value '' for key '[{section}] {key}'",
                   id=f"{section}_{key}=empty")
      for section, key in (("corpus", "path"), ("corpus", "calendar"), ("prices", "path"), ("market", "path"),
                           ("sectors", "path"))),
])
def test_config_value_is_checked_whatever_the_command(mini_fixture, capsys, ini_extra, extra_args, expected):
    ini = mini_fixture / "newsflow.ini"
    extra = configparser.ConfigParser(interpolation=None)
    extra.read_string(ini_extra)
    for section in extra.sections():
        for key, value in extra[section].items():
            _set_ini_value(ini, section, key, value)
    for command in COMMANDS:
        code = run([command, "--config", ini, *extra_args])
        assert code == 2
        assert capsys.readouterr().err == f"ERROR {expected}\n"
    assert not (mini_fixture / "out").exists()


@pytest.mark.parametrize("flag, written", [
    pytest.param(None, "out", id="ini_value_from_the_ini_folder"),
    pytest.param("flagged", "sub/flagged", id="flag_from_the_working_directory"),
])
def test_relative_output_from_a_subfolder(mini_fixture, monkeypatch, flag, written):
    _set_ini_value(mini_fixture / "newsflow.ini", "run", "output", "out")
    (mini_fixture / "sub").mkdir()
    monkeypatch.chdir(mini_fixture / "sub")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["indicators", "--config", "../newsflow.ini"] + (["--output", flag] if flag else [])) == 0
    assert sorted(path.name for path in (mini_fixture / written).iterdir()) == [
        "indicators.csv", "manifest_indicators.json"]
    assert [path.name for path in (mini_fixture / "sub").iterdir()] == ([] if flag is None else ["flagged"])


def test_empty_run_output_exits_2_before_any_work(mini_fixture, monkeypatch, capsys):
    _set_ini_value(mini_fixture / "newsflow.ini", "run", "output", "")
    (mini_fixture / "sub").mkdir()
    monkeypatch.chdir(mini_fixture / "sub")
    before = sorted(mini_fixture.rglob("*"))
    assert run(["indicators", "--config", "../newsflow.ini"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR INVALID_VALUE") and "[run] output" in err and len(err.splitlines()) == 1
    assert sorted(mini_fixture.rglob("*")) == before


def test_distill_aggregates_once_per_lexicon(distilled_fixture, tmp_path, monkeypatch):
    calls = []
    aggregate = sentiment.aggregate_daily
    monkeypatch.setattr(sentiment, "aggregate_daily", lambda *args: calls.append(1) or aggregate(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["distill", "--config", distilled_fixture / "newsflow.ini", "--output", tmp_path]) == 0
    assert len(calls) == 3  # BL, LM and MPQA
    assert (tmp_path / "sentiment.csv").read_bytes() == (distilled_fixture / "out" / "sentiment.csv").read_bytes()


def test_distill_scores_each_article_once_for_every_lexicon(distilled_fixture, tmp_path, monkeypatch):
    calls = []
    score = sentiment.score_article
    monkeypatch.setattr(sentiment, "score_article", lambda *args, **kwargs: calls.append(1) or score(*args, **kwargs))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["distill", "--config", distilled_fixture / "newsflow.ini", "--output", tmp_path]) == 0
    counts = dict(field.split("=") for field in out.getvalue().split())
    assert len(calls) == int(counts["assigned"]) - int(counts["zero_word"]) > 0
    assert (tmp_path / "sentiment.csv").read_bytes() == (distilled_fixture / "out" / "sentiment.csv").read_bytes()


# one line of corpus.jsonl changed: (kind, *arguments), positions taken modulo
# the line's length; "set" gives one field a value of another JSON type
CORPUS_LINE_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(["id", "published_at", "symbols", "title", "body", "contributor"])),
    st.tuples(
        st.just("set"),
        st.sampled_from(["id", "published_at", "symbols", "title", "body", "contributor"]),
        st.sampled_from([None, 0, 20200106, 1.5, True, [], ["SYM00"], [None, {}], {}, {"text": "x"}]),
    ),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("repeat")),
    st.tuples(st.just("byte"), st.integers(0, 10**4), st.sampled_from([b"\xff", b"\xc3", b"\x80"])),
)


def _mutate_corpus_line(lines, row, mutation):
    kind, *args = mutation
    line = row % len(lines)
    text = lines[line]
    if kind == "repeat":
        return lines + [text]
    if kind == "truncate":
        text = text[: args[0] % len(text)]
    elif kind == "byte":
        at = args[0] % len(text)
        text = text[:at] + args[1] + text[at:]
    else:
        record = json.loads(text)
        if kind == "drop":
            del record[args[0]]
        else:
            record[args[0]] = args[1]
        text = json.dumps(record, sort_keys=True).encode("utf-8")
    return lines[:line] + [text] + lines[line + 1 :]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(row=st.integers(0, 10**6), mutation=CORPUS_LINE_MUTATIONS)
def test_corpus_mutation_keeps_the_exit_code_contract(distilled_fixture, row, mutation):
    lines = (distilled_fixture / "corpus.jsonl").read_bytes().splitlines()
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        for name in ("newsflow.ini", "calendar.txt", "bl_pos.txt", "bl_neg.txt", "lm_pos.txt", "lm_neg.txt", "mpqa.tff"):
            shutil.copy(distilled_fixture / name, out / name)
        (out / "corpus.jsonl").write_bytes(b"\n".join(_mutate_corpus_line(lines, row, mutation)) + b"\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["distill", "--config", out / "newsflow.ini", "--output", out / "out"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("ERROR ") and len(err.getvalue().splitlines()) == 1


# one line of a lexicon file changed: (kind, *arguments); "set" gives one key
# of an MPQA line a new value, "line" replaces the whole line
MPQA_KEYS = ("type", "len", "word1", "pos1", "stemmed1", "priorpolarity")
MPQA_LINE_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(MPQA_KEYS)),
    st.tuples(
        st.just("set"),
        st.sampled_from(["type", "len", "pos1", "stemmed1", "priorpolarity"]),
        st.sampled_from(["", "weak", "Noun", "yes", "positve", "0", "2", "-1", "x"]),
    ),
    st.tuples(st.just("set"), st.just("word1"), st.sampled_from(["", "GOOD", "Good_News", "=", "a__b"])),
    st.tuples(st.just("line"), st.sampled_from(["=", "word1", "; comment", ""])),
    st.tuples(st.just("token"), st.sampled_from(["=", "word1", "extra=1"])),
    st.tuples(st.just("repeat")),
)
WORDLIST_LINE_MUTATIONS = st.one_of(
    st.tuples(st.just("drop")),
    st.tuples(st.just("upper")),
    st.tuples(st.just("line"), st.sampled_from(["=", "", "; comment", "Good News", "word1=good"])),
    st.tuples(st.just("repeat")),
)


def _mutate_lexicon_line(lines, line, mutation):
    kind, *args = mutation
    text = lines[line]
    if kind == "repeat":
        return lines + [text]
    if kind == "drop" and not args:
        return lines[:line] + lines[line + 1 :]
    if kind == "upper":
        text = text.upper()
    elif kind == "line":
        text = args[0]
    elif kind == "token":
        text = f"{text} {args[0]}"
    else:
        pairs = [token.partition("=") for token in text.split()]
        if kind == "drop":
            text = " ".join(f"{k}={v}" for k, _, v in pairs if k != args[0])
        else:
            text = " ".join(f"{k}={args[1] if k == args[0] else v}" for k, _, v in pairs)
    return lines[:line] + [text] + lines[line + 1 :]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    target=st.one_of(
        st.tuples(st.just("mpqa.tff"), MPQA_LINE_MUTATIONS),
        st.tuples(st.sampled_from(["bl_pos.txt", "lm_neg.txt"]), WORDLIST_LINE_MUTATIONS),
    ),
    row=st.integers(0, 10**6),
)
def test_lexicon_mutation_keeps_the_exit_code_contract(distilled_fixture, target, row):
    name, mutation = target
    lines = (distilled_fixture / name).read_text(encoding="utf-8").splitlines()
    line = row % len(lines)
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        for other in ("newsflow.ini", "calendar.txt", "corpus.jsonl", "bl_pos.txt", "bl_neg.txt",
                      "lm_pos.txt", "lm_neg.txt", "mpqa.tff"):
            shutil.copy(distilled_fixture / other, out / other)
        (out / name).write_text("\n".join(_mutate_lexicon_line(lines, line, mutation)) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["distill", "--config", out / "newsflow.ini", "--output", out / "out"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("ERROR ") and len(err.getvalue().splitlines()) == 1
        if name == "mpqa.tff":
            assert f"mpqa.tff:{line + 1}: " in err.getvalue()


@pytest.mark.parametrize("text, read", [
    ("spec,variable,estimate\nlog_vol/BL/h=1,(intercept),0.5\nlog_vol/BL/h=1,I,inf\n",
     lambda path: _read_entire_coefficients(path, "BL")),
    ("symbol,day,residual\nAAA,0,0.5\nAAA,1,nan\n", _read_residual_pool),
], ids=["coefficient_inf", "residual_nan"])
def test_non_finite_panel_result_is_malformed(tmp_path, text, read):
    path = tmp_path / "results.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecord, match=re.escape(f"{path}:3: non-finite")):
        read(path)


def test_simulate_reads_panel_outputs_before_fitting(tmp_path_factory, monkeypatch, capsys):
    root = build_fixture(tmp_path_factory.mktemp("paneled"), n_symbols=4, n_days=300, n_articles=300)
    for command in ("distill", "indicators", "panel"):
        assert run([command, "--config", root / "newsflow.ini"]) == 0
    (root / "out" / "residuals_log_vol_BL.csv").unlink()
    fits = []
    fit = scenario.fit_ma1_garch11
    monkeypatch.setattr(scenario, "fit_ma1_garch11", lambda *args, **kwargs: fits.append(1) or fit(*args, **kwargs))
    capsys.readouterr()
    code = run(["simulate", "--config", root / "newsflow.ini"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR MISSING_INPUT") and len(err.splitlines()) == 1
    assert fits == []


def test_simulate_checks_n_days_before_fitting(paneled_fixture, monkeypatch, capsys):
    fits = []
    fit = scenario.fit_ma1_garch11
    monkeypatch.setattr(scenario, "fit_ma1_garch11", lambda *args, **kwargs: fits.append(1) or fit(*args, **kwargs))
    capsys.readouterr()
    code = run(["simulate", "--config", paneled_fixture / "newsflow.ini", "--output", paneled_fixture / "out",
                "--n-days", 0])
    assert code == 2
    assert capsys.readouterr().err == "ERROR INVALID_VALUE: invalid value '0' for key '--n-days'\n"
    assert fits == []


INI_BAND_KEY = "'[simulate] n_days, n_boot, grid_points'"


@pytest.mark.parametrize("edit, extra_args, key", [
    pytest.param(("n_boot = 150", "n_boot = 1000000000000"), [], INI_BAND_KEY, id="n_boot"),
    pytest.param(("n_days = 250", "n_days = 1000000000000"), [], INI_BAND_KEY, id="n_days"),
    pytest.param(("min_active = 30", "min_active = 30\ngrid_points = 1000000000000"), [], INI_BAND_KEY,
                 id="grid_points"),
    pytest.param(None, ["--n-boot", 10**12], "'--n-boot'", id="n_boot_flag"),
    pytest.param(None, ["--n-days", 10**12], "'--n-days'", id="n_days_flag"),
    # 4 symbols x 250 days x 134,218 draws is the first multiplier matrix above 1 GiB
    pytest.param(None, ["--n-boot", 134_218], "'--n-boot'", id="n_boot_flag_at_the_bound"),
    pytest.param(None, ["--n-days", 10**6, "--n-boot", 10**6], "'--n-days, --n-boot'", id="both_flags"),
    # the refused array is the grid_points x (4 x 250) weights, which --n-boot does not size
    pytest.param(("min_active = 30", "min_active = 30\ngrid_points = 1000000000000"), ["--n-boot", 200],
                 INI_BAND_KEY, id="grid_points_with_n_boot_flag"),
])
def test_simulate_refuses_huge_band_sizes_before_fitting(paneled_fixture, monkeypatch, capsys, edit, extra_args, key):
    ini = paneled_fixture / "newsflow.ini"
    if edit is not None:
        text = ini.read_text(encoding="utf-8")
        assert edit[0] in text
        ini = paneled_fixture / "huge.ini"
        ini.write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
    # a stand-in fit that fails at once, so a missing check cannot reach the huge allocations
    fits = []
    monkeypatch.setattr(scenario, "fit_ma1_garch11", lambda *args, **kwargs: fits.append(1))
    capsys.readouterr()
    code = run(["simulate", "--config", ini, "--output", paneled_fixture / "out", *extra_args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR INVALID_VALUE: ") and len(err.splitlines()) == 1
    assert err.endswith(f" bytes, above {1 << 30})' for key {key}\n") and "Traceback" not in err
    assert fits == []


def _without_estimate(how, spec, name):
    """A results file edit: blank the estimate of (spec, name), or drop its row."""
    def edit(lines):
        out = []
        for line in lines:
            cells = line.split(",")
            if cells[:2] == [spec, name]:
                if how == "missing":
                    continue
                line = ",".join(cells[:2] + [""] + cells[3:])
            out.append(line)
        assert len(out) == len(lines) - (how == "missing")
        return out
    return edit


@pytest.mark.parametrize("how", ["blank", "missing"])
@pytest.mark.parametrize("name", scenario.SIMULATION_COEFFICIENTS)
def test_simulate_without_a_coefficient_exits_2_before_fitting(paneled_fixture, tmp_path, monkeypatch, capsys,
                                                                 how, name):
    root = tmp_path / "run"
    shutil.copytree(paneled_fixture, root)
    results = root / "out" / "results_entire.csv"
    _edit_lines(results, _without_estimate(how, "log_vol/BL/h=1", name))
    fits = []
    monkeypatch.setattr(scenario, "fit_ma1_garch11", lambda *args, **kwargs: fits.append(1))
    capsys.readouterr()
    code = run(["simulate", "--config", root / "newsflow.ini", "--output", root / "out"])
    assert code == 2
    expected = f"ERROR MISSING_INPUT: no estimate of {name} for spec 'log_vol/BL/h=1' in {results}\n"
    assert capsys.readouterr().err == expected
    assert fits == []


@pytest.fixture(scope="module")
def long_paneled_fixture(tmp_path_factory):
    """build_fixture(6 symbols, 300 days, 300 articles) with its panel outputs: long enough for the GARCH fits."""
    root = build_fixture(tmp_path_factory.mktemp("long_paneled"), n_symbols=6, n_days=300, n_articles=300)
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("distill", "indicators", "panel"):
            assert run([command, "--config", root / "newsflow.ini"]) == 0
    return root


# with min_active = 140 and one simulated day, seeds 3 and 4 draw no active
# symbol-day and seed 1 draws one
@pytest.mark.parametrize("seed, n_points", [(1, 1), (3, 0), (4, 0)])
def test_simulate_with_too_few_scatter_points_exits_2(long_paneled_fixture, capsys, seed, n_points):
    ini = long_paneled_fixture / "sparse.ini"
    text = (long_paneled_fixture / "newsflow.ini").read_text(encoding="utf-8")
    assert "n_days = 250" in text and "min_active = 30" in text
    ini.write_text(text.replace("n_days = 250", "n_days = 1").replace("min_active = 30", "min_active = 140"),
                   encoding="utf-8")
    capsys.readouterr()
    code = run(["simulate", "--config", ini, "--seed", seed])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR TOO_FEW_POINTS: plug-in bandwidth needs n >= 20, got {n_points}\n"


def test_simulate_with_every_symbol_below_min_active_exits_2(long_paneled_fixture, capsys):
    with open(long_paneled_fixture / "out" / "sentiment.csv", newline="", encoding="utf-8") as handle:
        active = Counter(row["symbol"] for row in csv.DictReader(handle) if row["lexicon"] == "BL" and row["I"] == "1")
    most = max(active.values())
    ini = long_paneled_fixture / "inactive.ini"
    text = (long_paneled_fixture / "newsflow.ini").read_text(encoding="utf-8")
    # one day more than the most active symbol of the first projection has
    ini.write_text(text.replace("min_active = 30", f"min_active = {most + 1}"), encoding="utf-8")
    capsys.readouterr()
    assert run(["simulate", "--config", ini]) == 2
    assert capsys.readouterr().err == (
        "ERROR MISSING_COMPONENT: scenario component 'sentiment models' is missing for projection 'BL': "
        f"no symbol with return residuals has at least [simulate] min_active = {most + 1} active days "
        f"(the most of any symbol is {most})\n"
    )


def _paneled(root):
    for command in ("distill", "indicators", "panel"):
        assert run([command, "--config", root / "newsflow.ini"]) == 0
    return root


def test_simulate_on_a_short_market_series_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    root = _paneled(build_fixture(tmp_path, n_symbols=6, n_days=200, n_articles=600))
    fits = []
    monkeypatch.setattr(scenario, "fit_ma1_garch11", lambda *args, **kwargs: fits.append(1))
    capsys.readouterr()
    assert run(["simulate", "--config", root / "newsflow.ini"]) == 2
    assert capsys.readouterr().err == (
        "ERROR INPUT_ERROR: market return series has 200 days, fewer than the 250 a GARCH fit needs\n"
    )
    assert fits == []


def test_simulate_skips_a_flat_symbol_naming_it(tmp_path, capsys):
    root = build_fixture(tmp_path, n_symbols=6, n_days=300, n_articles=900)

    def flatten(lines):
        # every price of SYM03 at 50.0: its returns have zero variance
        out = []
        for line in lines:
            cells = line.split(",")
            if cells[0] == "SYM03":
                cells[2:6] = ["50.0"] * 4
            out.append(",".join(cells))
        return out

    _edit_lines(root / "prices.csv", flatten)
    _paneled(root)
    capsys.readouterr()
    assert run(["simulate", "--config", root / "newsflow.ini"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[0] == "skipped_returns=SYM03"
    # the other symbols are still modelled; SYM00 has too few active days for a sentiment model
    simulated = (root / "out" / "simulated_BL.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert sorted({line.split(",")[0] for line in simulated}) == ["SYM01", "SYM02", "SYM04", "SYM05"]


def test_report_with_fewer_than_4_symbols_exits_2_before_writing(tmp_path, capsys):
    root = build_fixture(tmp_path, n_symbols=3, n_days=60, n_articles=120)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["distill", "--config", root / "newsflow.ini"]) == 0
    written = sorted(path.name for path in (root / "out").iterdir())
    capsys.readouterr()
    assert run(["report", "--config", root / "newsflow.ini"]) == 2
    assert capsys.readouterr().err == "ERROR INPUT_ERROR: attention grouping needs at least 4 symbols\n"
    # neither the summary and correlation tables, which need no grouping, nor anything else
    assert sorted(path.name for path in (root / "out").iterdir()) == written


def test_panel_summary_counts_low_rank_cells(distilled_fixture, tmp_path, capsys):
    # 4 symbols clustered by entity identify at most 3 of the 8 coefficients' directions
    root = tmp_path / "run"
    shutil.copytree(distilled_fixture, root)
    ini = root / "newsflow.ini"
    ini.write_text(ini.read_text(encoding="utf-8") + "\n[panel]\ncluster = by_entity\n", encoding="utf-8")
    assert run(["panel", "--config", ini, "--output", root / "out"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "suite=entire cells=12 fitted=12 psd_repaired=0 low_rank=12"
    )


@pytest.mark.parametrize("raw, expected", [("no", False), ("Off", False), ("0", False), ("yes", True)])
def test_negation_bidirectional_accepts_configparser_booleans(mini_fixture, raw, expected):
    ini = mini_fixture / "newsflow.ini"
    ini.write_text(ini.read_text(encoding="utf-8") + f"\n[negation]\nbidirectional = {raw}\n",
                   encoding="utf-8")
    assert load_config(ini).negation.bidirectional is expected


def _with_negation(root, negators):
    ini = root / "newsflow.ini"
    ini.write_text(ini.read_text(encoding="utf-8") + f"\n[negation]\nnegators = {negators}\n", encoding="utf-8")
    return ini


def test_negators_are_lowercased(mini_fixture, tmp_path):
    corpus = mini_fixture / "corpus.jsonl"
    corpus.write_text(corpus.read_text(encoding="utf-8").replace("The company reported good results.", "Not good."),
                      encoding="utf-8")
    outputs = []
    for negators in ("not", "Not"):
        root = tmp_path / negators
        shutil.copytree(mini_fixture, root)
        ini = _with_negation(root, negators)
        assert load_config(ini).negation.negators == frozenset({"not"})
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["distill", "--config", ini, "--output", root / "out"]) == 0
        outputs.append((root / "out" / "sentiment.csv").read_bytes())
    assert outputs[0] == outputs[1]
    # 7 tokens: "good" of the title positive; the negated "good", "debt" and "fell" negative
    assert f",BL,1,{1 / 7!r},{3 / 7!r},1\n" in outputs[0].decode()


@pytest.mark.parametrize("negator", ["isn't", "no way", "42", "not!", "'", "no."])
def test_negator_that_is_not_one_token_exits_2(mini_fixture, capsys, negator):
    code = run(["distill", "--config", _with_negation(mini_fixture, f"not,{negator},never")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR INVALID_VALUE: ") and "[negation] negators" in err
    assert len(err.splitlines()) == 1


def test_contraction_negator_is_one_token(mini_fixture):
    ini = _with_negation(mini_fixture, "n't, NEVER")
    assert load_config(ini).negation.negators == frozenset({"n't", "never"})
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["distill", "--config", ini]) == 0


def test_readme_configuration_example_documents_every_setting(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "newsflow.ini").write_text(block, encoding="utf-8")
    assert load_config(tmp_path / "newsflow.ini").output_dir == tmp_path / "out"
    documented = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    documented.read_string(block)
    assert [s.key for s in SETTINGS if not documented.has_option(s.section, s.option)] == []
    # the example gives every setting its default value, but for the seed
    assert [s.key for s in SETTINGS if documented[s.section][s.option] != s.default] == ["[run] seed"]


def test_cli_import_skips_scipy_stats_and_signal():
    # every CLI command pays its import time; scipy.stats and scipy.signal
    # (which imports scipy.stats) cost about as much as the rest together
    src = str(Path(newsflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, newsflow.cli; print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"


# perfbench/stage.py's order: import newsflow.cli, then patch every traced
# binding, then run each stage as a cli.<stage> span; the traced names, call counts and counters
# are the benchmark's per-layer metrics
TRACER_PROBE = """
import contextlib, importlib, json, sys
import newsflow.cli
from tracer import TRACED, Tracer

config, output, *stages = sys.argv[1:]
unresolved = [name for name, (module, attr) in TRACED.items()
              if not callable(getattr(importlib.import_module(module), attr, None))]
codes = []
layers = {}  # stage -> the traced functions it called
tracer = Tracer()
if not unresolved:
    tracer.install()
    with contextlib.redirect_stdout(sys.stderr):
        for stage in stages:
            first = len(tracer.spans)
            main = tracer.wrap(f"cli.{stage}", newsflow.cli.main)
            codes.append(main([stage, "--config", config, "--output", output]))
            layers[stage] = sorted({span[1] for span in tracer.spans[first:]})
print(json.dumps({"unresolved": unresolved, "codes": codes, "counters": tracer.counters, "layers": layers}))
"""


def test_perfbench_tracer_installs_and_counts_on_the_first_three_stages(mini_fixture, distilled_fixture, tmp_path):
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(newsflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, str(repo / "perfbench"), os.environ.get("PYTHONPATH")])
    )}

    def trace(root, stages):
        probe = subprocess.run([sys.executable, "-c", TRACER_PROBE, root / "newsflow.ini", root / "out", *stages],
                               env=env, capture_output=True, text=True)
        assert probe.returncode == 0, probe.stderr
        result = json.loads(probe.stdout)
        assert result["unresolved"] == []
        assert result["codes"] == [0] * len(stages)
        return result

    counters = trace(mini_fixture, ("distill", "indicators", "panel"))["counters"]
    assert counters["sentiment.tokens"] > 0 and counters["panel.observations"] > 0
    assert counters["corpus.unassigned"] == 0
    assert counters["indicators.warmup_days"] == 120  # 130 days, a 120-day window

    # the coverage check of perfbench/run.py: on four symbols and three lexica,
    # each function that perfbench/layer_map.json maps to a stage records a call there
    stages = ("distill", "indicators", "panel", "lexstats", "report")
    root = tmp_path / "run"
    shutil.copytree(distilled_fixture, root)
    layers = trace(root, stages)["layers"]
    layer_map = json.loads((repo / "perfbench" / "layer_map.json").read_text(encoding="utf-8"))
    uncovered = sorted({
        (stage, spec["function"]) for spec in layer_map.values() for stage in spec["stages"]
        if stage in stages and spec["function"] not in layers[stage]
    })
    assert uncovered == []


def test_missing_config_file(tmp_path, capsys):
    code = run(["distill", "--config", tmp_path / "absent.ini"])
    assert code == 2
    assert "ERROR MISSING_INPUT" in capsys.readouterr().err


def test_indicators_warmup_and_determinism(mini_fixture, capsys):
    code = run(["indicators", "--config", mini_fixture / "newsflow.ini"])
    assert code == 0
    out = capsys.readouterr().out
    assert "warmup=120" in out  # 130-day fixture: V defined from ordinal 120 on
    first = (mini_fixture / "out" / "indicators.csv").read_bytes()
    assert run(["indicators", "--config", mini_fixture / "newsflow.ini"]) == 0
    assert (mini_fixture / "out" / "indicators.csv").read_bytes() == first
    rows = first.decode().splitlines()
    # constant bars: every V cell that exists must be ~0, and rows 2..121 empty
    data = [r.split(",") for r in rows[1:]]
    assert all(r[3] == "" for r in data[:120])
    assert all(r[3] != "" for r in data[120:])


def test_distill_output_row_count(mini_fixture, capsys):
    code = run(["distill", "--config", mini_fixture / "newsflow.ini"])
    assert code == 0
    rows = (mini_fixture / "out" / "sentiment.csv").read_text().splitlines()
    assert len(rows) == 1 + 130  # header + one symbol x 130 days x 1 lexicon
    # day 0 has an article: I=1 with pos 2/9? scoring checked elsewhere; here shape
    assert rows[1].startswith("AAA,")


def test_manifest_written_and_stable(mini_fixture):
    assert run(["indicators", "--config", mini_fixture / "newsflow.ini"]) == 0
    manifest_path = mini_fixture / "out" / "manifest_indicators.json"
    first = manifest_path.read_bytes()
    manifest = json.loads(first)
    assert manifest["command"] == "indicators"
    assert manifest["config_sha256"]
    assert any("prices.csv" in k for k in manifest["inputs"])
    assert run(["indicators", "--config", mini_fixture / "newsflow.ini"]) == 0
    assert manifest_path.read_bytes() == first


def test_numerical_error_maps_to_exit_3(mini_fixture, monkeypatch, capsys):
    from newsflow import cli
    from newsflow.errors import NonConvergence

    def boom(config):
        raise NonConvergence("optimizer stalled")

    monkeypatch.setitem(cli.COMMANDS, "panel", boom)
    code = run(["panel", "--config", mini_fixture / "newsflow.ini"])
    assert code == 3
    assert "ERROR NON_CONVERGENCE" in capsys.readouterr().err
