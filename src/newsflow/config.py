"""Run configuration: one INI-style declarative file plus CLI flag overrides.

SETTINGS declares each scalar setting once, with its INI key, default,
parser and flag; load_config checks every value once, flags included,
before any command runs.
"""

from __future__ import annotations

import configparser
import datetime as dt
import hashlib
import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from ._util import read_text
from .corpus import CORPUS_FORMATS
from .errors import InputError, InvalidValue, TooFewBootstraps
from .panel import SUITES, ClusterMode
from .sentiment import DEFAULT_NEGATORS, NegationConfig, tokenize

LEXICON_KINDS = ("wordlists", "mpqa")


@dataclass(frozen=True)
class LexiconSource:
    name: str
    kind: str  # wordlists: positive,negative paths; mpqa: one entries file
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class RunConfig:
    corpus_path: Path
    corpus_format: str
    calendar_path: Path
    prices_path: Path
    market_path: Path
    lexicons: tuple[LexiconSource, ...]
    output_dir: Path
    seed: int
    symbols: tuple[str, ...]
    day_boundary: dt.time
    negation: NegationConfig
    detrend_window: int
    lag_h: int
    suites: tuple[str, ...]
    cluster_mode: str
    sectors_path: Path | None
    sim_projections: tuple[str, ...]
    sim_n_days: int
    sim_n_boot: int
    sim_grid_points: int
    sim_min_active: int
    plot_x_range: tuple[float, float] | None
    plot_y_range: tuple[float, float] | None
    lexstats_min_count: int
    lexstats_top: int
    # the flag or INI key that set each SETTINGS field, for messages; not part of the fingerprint
    keys: Mapping[str, str] = field(repr=False, compare=False)


# Parsers of a setting's text: each returns the value, or raises ValueError
# (KeyError for a lookup) for a text that is malformed or out of bounds.

def _integer(low=-math.inf, high=math.inf):
    def parse(text):
        value = int(text)
        if not low <= value <= high:
            raise ValueError(text)
        return value

    return parse


def _one_of(*choices):
    def parse(text):
        if text not in choices:
            raise ValueError(text)
        return text

    return parse


def _boolean(text):
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _clock_time(text):
    """Article timestamps are compared as naive UTC, so a time with an offset is rejected."""
    boundary = dt.time.fromisoformat(text)
    if boundary.tzinfo is not None:
        raise ValueError(text)
    return boundary


def _n_boot(text):
    value = int(text)
    if value < 100:
        raise TooFewBootstraps(f"n_boot must be >= 100, got {value}")
    return value


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


@dataclass(frozen=True)
class Setting:
    field: str  # of RunConfig; negation_* are RunConfig.negation's
    section: str
    option: str
    default: str
    parse: Callable[[str], object]
    flag: str | None = None
    # the file's value is a comma list and the flag repeatable; each item is parsed, a repeat dropped
    many: bool = False

    @property
    def key(self) -> str:
        return f"[{self.section}] {self.option}"


# every scalar setting: its RunConfig field, INI key, default text, parser and flag
SETTINGS = (
    Setting("seed", "run", "seed", "0", int, "--seed"),
    # a relative path in the file is taken from the file's folder, a flag's from the working directory
    Setting("output_dir", "run", "output", "out", Path, "--output"),
    Setting("corpus_format", "corpus", "format", "jsonl", _one_of(*CORPUS_FORMATS)),
    Setting("day_boundary", "corpus", "day_boundary", "00:00", _clock_time, "--day-boundary"),
    Setting("negation_window", "negation", "window", "5", _integer(0)),
    Setting("negation_bidirectional", "negation", "bidirectional", "true", _boolean),
    Setting("detrend_window", "indicators", "window", "120", _integer(10), "--window"),
    Setting("lag_h", "panel", "h", "1", _integer(1, 5), "--h"),
    Setting("suites", "panel", "suites", "entire", _one_of(*SUITES), "--suite", many=True),
    Setting("cluster_mode", "panel", "cluster", "two_way", _one_of(*(mode.value for mode in ClusterMode))),
    Setting("sim_n_days", "simulate", "n_days", "300", _integer(1), "--n-days"),
    Setting("sim_n_boot", "simulate", "n_boot", "500", _n_boot, "--n-boot"),
    Setting("sim_grid_points", "simulate", "grid_points", "101", _integer(2)),
    # the sentiment copula needs at least 3 rows for its 2 columns
    Setting("sim_min_active", "simulate", "min_active", "30", _integer(3)),
    Setting("lexstats_min_count", "lexstats", "min_count", "3", _integer(1)),
    Setting("lexstats_top", "lexstats", "top", "10", _integer(1)),
)


def _parsed(parse, text: str, key: str):
    """parse(text); an empty text, or one parse rejects, is an InvalidValue of key."""
    try:
        if text:
            return parse(text)
    except (ValueError, KeyError):
        pass
    raise InvalidValue(key, text)


def _items(text: str) -> list[str]:
    """The non-blank items of a comma list, stripped."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_lexicons(section, base: Path) -> tuple[LexiconSource, ...]:
    sources = []
    for name, value in section.items():
        name = name.upper()
        kind, _, path_list = value.partition(":")
        kind = kind.strip()
        paths = tuple(base / p for p in _items(path_list))
        if kind not in LEXICON_KINDS:
            raise InputError(f"unknown lexicon format {kind!r} for {name}")
        if kind == "wordlists" and len(paths) != 2:
            raise InputError(f"lexicon {name}: wordlists format needs pos,neg paths")
        if kind == "mpqa" and len(paths) != 1:
            raise InputError(f"lexicon {name}: mpqa format takes exactly one path")
        sources.append(LexiconSource(name=name, kind=kind, paths=paths))
    return tuple(sources)


def _get_range(section, lo_key, hi_key):
    """Both bounds of a plot range, or None; one bound alone, or lo >= hi, is an error."""
    lo = section.get(lo_key, "").strip()
    hi = section.get(hi_key, "").strip()
    if not lo and not hi:
        return None
    low = _parsed(_finite, lo, f"[simulate] {lo_key}")
    high = _parsed(_finite, hi, f"[simulate] {hi_key}")
    if low >= high:
        raise InvalidValue(f"[simulate] {lo_key}", f"{lo} (not below {hi_key} = {hi})")
    return (low, high)


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse the INI run file; a flag's text wins over the file's value.

    `overrides` maps a SETTINGS field to its flag's text (a list of texts
    for a repeatable flag), or to None for a flag not given.  Each setting's
    text, the flag's if given, else the file's, else the default, is parsed
    and checked once, whichever command runs; an empty, malformed or
    out-of-bounds text is an InvalidValue that names the flag, if one set
    it, or else the key.  The input files are checked where they are read
    (`_util.read_text`), not here.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(read_text(path), source=str(path))
        # interpolate every value now, so that a stray "%" is a malformed file, not a traceback
        for name in parser.sections():
            parser.items(name)
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())  # configparser messages span lines
        raise InputError(f"malformed config file {path}: {detail}") from None
    base = path.parent

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    flagged = {field: text for field, text in (overrides or {}).items() if text is not None}
    values, keys = {}, {}
    for setting in SETTINGS:
        if setting.flag and setting.field in flagged:
            key, texts = setting.flag, flagged[setting.field]
            texts = texts if setting.many else [texts]
        else:
            key, text = setting.key, section(setting.section).get(setting.option, setting.default)
            # a blank item of a list is skipped: "entire," is one suite
            texts = (_items(text) or [""]) if setting.many else [text]
        items = [_parsed(setting.parse, text.strip(), key) for text in texts]
        values[setting.field] = tuple(dict.fromkeys(items)) if setting.many else items[0]
        keys[setting.field] = key
    output = values["output_dir"]
    if "output_dir" not in flagged:
        output = values["output_dir"] = base / output
    # the output directory is made at the first write, which a file at or above it would stop
    if not next(folder for folder in (output, *output.parents) if folder.exists()).is_dir():
        raise InvalidValue(keys["output_dir"], str(output))

    negators = [t.lower() for t in _items(section("negation").get("negators", ",".join(DEFAULT_NEGATORS)))]
    for negator in negators:
        # a negator matches one token, so it must tokenize to itself; the
        # defaults do (a test checks it), so only a configured one is tokenized
        if negator not in DEFAULT_NEGATORS and tokenize(negator).sentences != ((negator,),):
            raise InvalidValue("[negation] negators", negator)
    corpus = section("corpus")
    simulate = section("simulate")
    return RunConfig(
        corpus_path=base / corpus.get("path", "corpus.jsonl"),
        calendar_path=base / corpus.get("calendar", "calendar.txt"),
        prices_path=base / section("prices").get("path", "prices.csv"),
        market_path=base / section("market").get("path", "market.csv"),
        sectors_path=(base / section("sectors")["path"]) if "path" in section("sectors") else None,
        lexicons=_parse_lexicons(section("lexicons"), base),
        # a repeated symbol is listed once, in the order of its first mention
        symbols=tuple(dict.fromkeys(s.upper() for s in _items(corpus.get("symbols", "")))),
        negation=NegationConfig(
            window=values.pop("negation_window"),
            negators=frozenset(negators),
            bidirectional=values.pop("negation_bidirectional"),
        ),
        sim_projections=tuple(s.upper() for s in _items(simulate.get("projections", ""))),
        plot_x_range=_get_range(simulate, "x_min", "x_max"),
        plot_y_range=_get_range(simulate, "y_min", "y_max"),
        keys=keys,
        **values,
    )


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dt.time):
        return value.isoformat()
    if isinstance(value, NegationConfig):
        return {
            "window": value.window,
            "negators": sorted(value.negators),
            "bidirectional": value.bidirectional,
        }
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, LexiconSource):
        return {"name": value.name, "kind": value.kind, "paths": [str(p) for p in value.paths]}
    return value


def config_fingerprint(config: RunConfig, input_paths: list[Path]) -> dict:
    """Manifest payload: config hash plus per-input checksums (provenance)."""
    payload = {k: _jsonable(v) for k, v in sorted(vars(config).items()) if k != "keys"}
    config_hash = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    checksums = {}
    for p in sorted(set(map(str, input_paths))):
        path = Path(p)
        if path.is_file():
            checksums[p] = _file_sha256(path)
    return {"config_sha256": config_hash, "inputs": checksums}


def _file_sha256(path: Path) -> str:
    """The file's SHA-256, read 1 MiB at a time rather than whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()
