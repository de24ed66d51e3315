"""Output checks for one pipeline repetition.

Three kinds of check feed the benchmark's failed count:

* every stage writes its expected files (and exits 0, checked by the runner);
* outputs agree with what the generated inputs imply: exact row counts,
  Garman-Klass volatility and log returns recomputed from the price file,
  value ranges, fitted panel cells, and the simulate invariants (grid length
  equals ``grid_points``; ``band_lower <= fitted <= band_upper`` where finite);
* for seeds whose summary is recorded in ``reference/<workload>.json``, every
  CSV of distill, indicators, panel, lexstats and report matches that summary:
  row counts exactly, each numeric column's count of filled cells exactly, and
  its sum of absolute values, minimum and maximum within ``RTOL``.

Byte-identical repetition (the determinism contract) is checked by the runner
with ``digest``.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

# Outputs are byte-identical at one commit, so any tolerance only serves later
# commits that change summation order (grouped sums, FIR detrend, array
# assembly).  Those move a value by a few ulps; aggregated over up to ~1e5
# cells that stays below ~1e-11 relative, while a changed estimator or a
# dropped row moves these aggregates by far more than 1e-9.
RTOL = 1e-9
ATOL = 1e-12

REGRESSORS = ("I", "Pos", "Neg", "R_M", "VIX", "log_vol_t", "ret_t", "dvol_t")
DEPENDENTS = ("log_vol", "dvol", "ret")
LEXICA = ("BL", "LM", "MPQA")
SUMMARIZED_STAGES = ("distill", "indicators", "panel", "lexstats", "report")


def expected_files(stage: str, workload) -> list[str]:
    files = [f"manifest_{stage}.json"]
    if stage == "distill":
        files.append("sentiment.csv")
    elif stage == "indicators":
        files.append("indicators.csv")
    elif stage == "panel":
        for suite in workload.suites:
            files += [f"results_{suite}.csv", f"table_{suite}.txt"]
        if "entire" in workload.suites:
            files += [f"residuals_log_vol_{p}.csv" for p in LEXICA + ("PCA",)]
    elif stage == "simulate":
        for p in workload.sim_projections:
            files += [f"simulated_{p}.csv", f"curves_{p}.csv", f"overlap_{p}.csv", f"figure_{p}.svg"]
    elif stage == "lexstats":
        files.append("lexstats.csv")
    elif stage == "report":
        files += ["report_summary.csv", "report_monthly_correlation.csv", "report_attention.csv"]
    return files


def digest(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def summarize(out_dir: Path, workload) -> dict:
    """Row count and per-numeric-column [filled, sum|x|, min, max] of each CSV."""
    summary = {}
    for stage in SUMMARIZED_STAGES:
        if stage not in workload.stages:
            continue
        for name in expected_files(stage, workload):
            if not name.endswith(".csv"):
                continue
            rows = _rows(out_dir / name)
            columns = {}
            for column in (rows[0].keys() if rows else ()):
                cells = [row[column] for row in rows]
                values = [_float(c) for c in cells if c != ""]
                if not values or any(v is None for v in values):
                    continue  # text column
                columns[column] = [len(values), math.fsum(abs(v) for v in values), min(values), max(values)]
            summary[name] = {"rows": len(rows), "columns": columns}
    return summary


def compare_summary(actual: dict, reference: dict) -> list[str]:
    problems = []
    for name, ref in reference.items():
        got = actual.get(name)
        if got is None:
            problems.append(f"{name}: missing from outputs")
            continue
        if got["rows"] != ref["rows"]:
            problems.append(f"{name}: {got['rows']} rows, reference {ref['rows']}")
        for column, ref_stats in ref["columns"].items():
            stats = got["columns"].get(column)
            if stats is None:
                problems.append(f"{name}.{column}: no longer numeric")
                continue
            if stats[0] != ref_stats[0]:
                problems.append(f"{name}.{column}: {stats[0]} filled cells, reference {ref_stats[0]}")
            for label, a, b in zip(("sum|x|", "min", "max"), stats[1:], ref_stats[1:]):
                if not math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL):
                    problems.append(f"{name}.{column}: {label} {a!r}, reference {b!r}")
    return problems


def _calendar(in_dir: Path) -> list[dt.date]:
    return [dt.date.fromisoformat(line) for line in (in_dir / "calendar.txt").read_text().split()]


def invariants(in_dir: Path, out_dir: Path, workload) -> list[str]:
    """Checks implied by the generated inputs, valid for every seed."""
    problems: list[str] = []
    days = _calendar(in_dir)
    start = dt.datetime.combine(days[0], dt.time(0, 0))
    end = dt.datetime.combine(days[-1] + dt.timedelta(days=1), dt.time(0, 0))
    assigned = []
    universe_set: set[str] = set()
    for line in (in_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        article = json.loads(line)
        universe_set.update(article["symbols"])
        if start <= dt.datetime.fromisoformat(article["published_at"]) < end:
            assigned.append(article["symbols"])
    universe = sorted(universe_set)

    def expect(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    stages = workload.stages
    if "distill" in stages:
        rows = _rows(out_dir / "sentiment.csv")
        expect(len(rows) == len(universe) * len(days) * len(LEXICA),
               f"sentiment.csv: {len(rows)} rows, expected {len(universe)}x{len(days)}x{len(LEXICA)}")
        mentions = sum(len(s) for s in assigned)
        for lexicon in LEXICA:
            sub = [r for r in rows if r["lexicon"] == lexicon]
            total = sum(int(r["n_articles"]) for r in sub)
            expect(total == mentions, f"sentiment.csv {lexicon}: {total} article mentions, expected {mentions}")
            expect(all((r["I"] == "1") == (int(r["n_articles"]) > 0) for r in sub),
                   f"sentiment.csv {lexicon}: I disagrees with n_articles")
            expect(all(0.0 <= float(r["pos"]) <= 1.0 and 0.0 <= float(r["neg"]) <= 1.0 for r in sub),
                   f"sentiment.csv {lexicon}: pos/neg outside [0, 1]")

    if "indicators" in stages:
        bars = {(r["symbol"], r["date"]): r for r in _rows(in_dir / "prices.csv")}
        rows = _rows(out_dir / "indicators.csv")
        expect(len(rows) == len(bars), f"indicators.csv: {len(rows)} rows, expected {len(bars)}")
        prev_date = {d.isoformat(): days[i - 1].isoformat() for i, d in enumerate(days) if i}
        for row in rows:
            bar = bars.get((row["symbol"], row["date"]))
            if bar is None:
                problems.append(f"indicators.csv: {row['symbol']} {row['date']} not in prices.csv")
                break
            o, h, l, c = (float(bar[k]) for k in ("open", "high", "low", "close"))
            u, d, cc = math.log(h) - math.log(o), math.log(l) - math.log(o), math.log(c) - math.log(o)
            var = 0.511 * (u - d) ** 2 - 0.019 * (cc * (u + d) - 2.0 * u * d) - 0.383 * cc ** 2
            if not math.isclose(float(row["log_vol"]), 0.5 * math.log(var), rel_tol=RTOL, abs_tol=ATOL):
                problems.append(f"indicators.csv: log_vol of {row['symbol']} {row['date']} is not Garman-Klass")
                break
            prev = bars.get((row["symbol"], prev_date.get(row["date"], "")))
            want = math.log(c) - math.log(float(prev["close"])) if prev else None
            got = _float(row["ret"]) if row["ret"] else None
            if (want is None) != (got is None) or (
                    want is not None and not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)):
                problems.append(f"indicators.csv: ret of {row['symbol']} {row['date']} is not the log return")
                break

    if "panel" in stages:
        n_specs = {"entire": len(DEPENDENTS) * (len(LEXICA) + 1),
                   "lags_cumulative": len(DEPENDENTS) * len(LEXICA) * 4}
        for suite in workload.suites:
            rows = _rows(out_dir / f"results_{suite}.csv")
            want = n_specs[suite] * (1 + len(REGRESSORS))
            expect(len(rows) == want, f"results_{suite}.csv: {len(rows)} rows, expected {want} (every cell fitted)")
            expect(all(math.isfinite(float(r["estimate"])) for r in rows if r["estimate"]),
                   f"results_{suite}.csv: non-finite estimate")

    if "simulate" in stages:
        for projection in workload.sim_projections:
            rows = _rows(out_dir / f"curves_{projection}.csv")
            for curve in ("pos", "neg"):
                sub = [r for r in rows if r["curve"] == curve]
                expect(len(sub) == workload.sim_grid_points,
                       f"curves_{projection}.csv {curve}: {len(sub)} grid rows, expected {workload.sim_grid_points}")
                for r in sub:
                    lo, mid, hi = (_float(r[k]) if r[k] else None for k in ("band_lower", "fitted", "band_upper"))
                    if None not in (lo, mid, hi) and not lo <= mid <= hi:
                        problems.append(f"curves_{projection}.csv {curve}: band excludes the fit at {r['grid']}")
                        break
            expect(len(_rows(out_dir / f"simulated_{projection}.csv")) > 0, f"simulated_{projection}.csv is empty")
            expect((out_dir / f"figure_{projection}.svg").read_text().startswith("<svg"),
                   f"figure_{projection}.svg is not an SVG")

    if "report" in stages:
        rows = _rows(out_dir / "report_summary.csv")
        expect(len(rows) == 2 * len(LEXICA), f"report_summary.csv: {len(rows)} rows, expected {2 * len(LEXICA)}")
        rows = _rows(out_dir / "report_attention.csv")
        expect(len(rows) == len(universe), f"report_attention.csv: {len(rows)} rows, expected {len(universe)}")
    return problems
