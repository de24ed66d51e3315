"""Summarize benchmark run records: median, quartiles and spread per metric.

Usage, from the repository root after some runs of ``perfbench/run.py``:

    python3 perfbench/summarize.py [--write-baseline perfbench/baseline.json]

Reads ``.perfbench/results/*.json`` and prints, for each workload and metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, over the recorded runs, one run per seed.  With
``--write-baseline`` it also stores that table, with the environment of the
runs, as the baseline that later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(results: Path) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("correct"):
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def table(records: list[dict], key: str) -> dict[str, dict]:
    out = {}
    for metric in records[0][key]:
        values = [r[key][metric] for r in records if metric in r[key]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[metric] = {
            "median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", default=".perfbench/results")
    parser.add_argument("--write-baseline", default=None)
    args = parser.parse_args(argv)

    runs = load(Path(args.results))
    if not runs:
        print("no correct run records found", file=sys.stderr)
        return 2
    baseline = {}
    for (workload, trace), records in sorted(runs.items()):
        key = "per_layer" if trace else "end_to_end"
        rows = table(records, key)
        seeds = sorted(r["seed"] for r in records)
        print(f"{workload} trace={trace} runs={len(records)} seeds={seeds}")
        for metric, row in rows.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"  {metric:<42} median {row['median']:14.6f}  q1 {row['q1']:14.6f}  "
                  f"q3 {row['q3']:14.6f}  spread {spread}")
        baseline.setdefault(workload, {})[key] = rows
        baseline[workload].setdefault("seeds", {})[key] = seeds
        baseline[workload]["environment"] = records[-1]["environment"]
    if args.write_baseline:
        Path(args.write_baseline).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
