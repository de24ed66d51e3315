"""Run configuration: one INI-style declarative file plus CLI flag overrides.

load_config checks every value once, flags included, before any command runs.
"""

from __future__ import annotations

import configparser
import datetime as dt
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from ._util import read_text
from .errors import InputError, InvalidValue, TooFewBootstraps
from .panel import SUITES, ClusterMode
from .sentiment import DEFAULT_NEGATORS, NegationConfig, tokenize

LEXICON_KINDS = ("wordlists", "mpqa")
# (field, INI key, flag, lowest, highest) of the bounded values a flag can
# set; a value out of bounds is an InvalidValue of the flag, if one set it
FLAGGED_BOUNDS = (
    ("lag_h", "[panel] h", "--h", 1, 5),
    ("detrend_window", "[indicators] window", "--window", 10, math.inf),
    ("sim_n_days", "[simulate] n_days", "--n-days", 1, math.inf),
)


@dataclass(frozen=True)
class LexiconSource:
    name: str
    kind: str  # wordlists: positive,negative paths; mpqa: one entries file
    paths: tuple[Path, ...]

    def __post_init__(self):
        if self.kind not in LEXICON_KINDS:
            raise InputError(f"unknown lexicon format {self.kind!r} for {self.name}")
        if self.kind == "wordlists" and len(self.paths) != 2:
            raise InputError(f"lexicon {self.name}: wordlists format needs pos,neg paths")
        if self.kind == "mpqa" and len(self.paths) != 1:
            raise InputError(f"lexicon {self.name}: mpqa format takes exactly one path")


@dataclass(frozen=True)
class RunConfig:
    corpus_path: Path
    corpus_format: str
    calendar_path: Path
    prices_path: Path
    market_path: Path
    lexicons: tuple[LexiconSource, ...]
    output_dir: Path
    seed: int = 0
    symbols: tuple[str, ...] = ()
    day_boundary: dt.time = dt.time(0, 0)
    negation: NegationConfig = NegationConfig()
    detrend_window: int = 120
    lag_h: int = 1
    suites: tuple[str, ...] = ("entire",)
    cluster_mode: str = "two_way"
    sectors_path: Path | None = None
    sim_projections: tuple[str, ...] = ()
    sim_n_days: int = 300
    sim_n_boot: int = 500
    sim_grid_points: int = 101
    sim_min_active: int = 30
    plot_x_range: tuple[float, float] | None = None
    plot_y_range: tuple[float, float] | None = None
    lexstats_min_count: int = 3
    lexstats_top: int = 10


def _parse_lexicons(section: configparser.SectionProxy, base: Path) -> tuple[LexiconSource, ...]:
    sources = []
    for name, value in section.items():
        kind, _, path_list = value.partition(":")
        paths = tuple(base / p.strip() for p in path_list.split(",") if p.strip())
        sources.append(LexiconSource(name=name.upper(), kind=kind.strip(), paths=paths))
    return tuple(sources)


def _parse_number(raw: str, key: str, kind=int):
    """Parse an integer (or finite float) INI value; a malformed one is InvalidValue."""
    try:
        value = kind(raw)
    except ValueError:
        raise InvalidValue(key, raw) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidValue(key, raw)
    return value


def _get_range(section, lo_key, hi_key):
    """Both bounds of a plot range, or None; one bound alone, or lo >= hi, is an error."""
    lo = section.get(lo_key, "").strip()
    hi = section.get(hi_key, "").strip()
    if not lo and not hi:
        return None
    if not (lo and hi):
        missing = hi_key if lo else lo_key
        raise InvalidValue(f"[simulate] {missing}", "")
    low = _parse_number(lo, f"[simulate] {lo_key}", float)
    high = _parse_number(hi, f"[simulate] {hi_key}", float)
    if low >= high:
        raise InvalidValue(f"[simulate] {lo_key}", f"{lo} (not below {hi_key} = {hi})")
    return (low, high)


def parse_day_boundary(raw: str) -> dt.time:
    """Session boundary clock time, e.g. ``00:00``; shared by INI and CLI flag.

    Article timestamps are compared as naive UTC, so a time with an offset is rejected.
    """
    try:
        boundary = dt.time.fromisoformat(raw)
    except ValueError as exc:
        raise InputError(f"bad day_boundary {raw!r}") from exc
    if boundary.tzinfo is not None:
        raise InputError(f"bad day_boundary {raw!r}: no UTC offset allowed")
    return boundary


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse the INI run file; override values win over file values.

    A relative path in the file, `[run] output` included, is taken from the
    file's folder.  Every value is checked here, once, after the overrides
    are applied, so a flag is held to the same bounds as the INI key it
    overrides, whichever command runs; a value out of bounds is an
    InvalidValue that names the flag, if one set it, or else the key.  The
    input files are checked where they are read (`_util.read_text`), not
    here.
    """
    path = Path(path)
    text = read_text(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=str(path))
        # interpolate every value now, so that a stray "%" is a malformed file, not a traceback
        for name in parser.sections():
            parser.items(name)
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())  # configparser messages span lines
        raise InputError(f"malformed config file {path}: {detail}") from None
    base = path.parent

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    corpus = section("corpus")
    negation = section("negation")
    panel = section("panel")
    simulate = section("simulate")
    run = section("run")

    def number(name, key, default):
        return _parse_number(section(name).get(key, default).strip(), f"[{name}] {key}")

    def at_least(name, key, default, low):
        value = number(name, key, default)
        if value < low:
            raise InvalidValue(f"[{name}] {key}", str(value))
        return value

    window = at_least("negation", "window", "5", 0)
    bidirectional_raw = negation.get("bidirectional", "true").strip().lower()
    if bidirectional_raw not in parser.BOOLEAN_STATES:
        raise InvalidValue("[negation] bidirectional", bidirectional_raw)
    cluster_mode = panel.get("cluster", "two_way").strip()
    if cluster_mode not in {mode.value for mode in ClusterMode}:
        raise InvalidValue("[panel] cluster", cluster_mode)

    negators = tuple(
        t.strip().lower() for t in negation.get("negators", ",".join(DEFAULT_NEGATORS)).split(",") if t.strip()
    )
    for negator in negators:
        # a negator matches one token, so it must tokenize to itself; the
        # defaults do (a test checks it), so only a configured one is tokenized
        if negator not in DEFAULT_NEGATORS and tokenize(negator).sentences != ((negator,),):
            raise InvalidValue("[negation] negators", negator)
    # a repeated symbol is listed once, in the order of its first mention
    symbols = tuple(dict.fromkeys(
        s.strip().upper() for s in corpus.get("symbols", "").split(",") if s.strip()
    ))

    output = run.get("output", "out").strip()
    if not output:
        raise InvalidValue("[run] output", output)

    config = RunConfig(
        corpus_path=base / corpus.get("path", "corpus.jsonl"),
        corpus_format=corpus.get("format", "jsonl"),
        calendar_path=base / corpus.get("calendar", "calendar.txt"),
        prices_path=base / section("prices").get("path", "prices.csv"),
        market_path=base / section("market").get("path", "market.csv"),
        sectors_path=(base / section("sectors")["path"]) if "path" in section("sectors") else None,
        lexicons=_parse_lexicons(parser["lexicons"], base) if parser.has_section("lexicons") else (),
        output_dir=base / output,
        seed=number("run", "seed", "0"),
        symbols=symbols,
        day_boundary=parse_day_boundary(corpus.get("day_boundary", "00:00")),
        negation=NegationConfig(
            window=window,
            negators=frozenset(negators),
            bidirectional=parser.BOOLEAN_STATES[bidirectional_raw],
        ),
        detrend_window=number("indicators", "window", "120"),
        lag_h=number("panel", "h", "1"),
        suites=tuple(s.strip() for s in panel.get("suites", "entire").split(",") if s.strip()),
        cluster_mode=cluster_mode,
        sim_projections=tuple(
            s.strip().upper() for s in simulate.get("projections", "").split(",") if s.strip()
        ),
        sim_n_days=number("simulate", "n_days", "300"),
        sim_n_boot=number("simulate", "n_boot", "500"),
        sim_grid_points=at_least("simulate", "grid_points", "101", 2),
        # the sentiment copula needs at least 3 rows for its 2 columns
        sim_min_active=at_least("simulate", "min_active", "30", 3),
        plot_x_range=_get_range(simulate, "x_min", "x_max"),
        plot_y_range=_get_range(simulate, "y_min", "y_max"),
        lexstats_min_count=at_least("lexstats", "min_count", "3", 1),
        lexstats_top=at_least("lexstats", "top", "10", 1),
    )
    flagged = {k: v for k, v in (overrides or {}).items() if v is not None}
    config = replace(config, **flagged)
    for field, key, flag, low, high in FLAGGED_BOUNDS:
        value = getattr(config, field)
        if not low <= value <= high:
            raise InvalidValue(flag if field in flagged else key, str(value))
    if config.sim_n_boot < 100:
        raise TooFewBootstraps(f"n_boot must be >= 100, got {config.sim_n_boot}")
    if not config.suites:
        raise InvalidValue("[panel] suites", "")
    for suite in config.suites:
        if suite not in SUITES:
            raise InvalidValue("[panel] suites", suite)
    # the output directory is made at the first write, which a file at or above it would stop
    output = config.output_dir
    if not next(path for path in (output, *output.parents) if path.exists()).is_dir():
        raise InvalidValue("[run] output", str(output))
    return config


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
    payload = {k: _jsonable(v) for k, v in sorted(vars(config).items())}
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
