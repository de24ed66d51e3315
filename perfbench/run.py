"""newsflow benchmark: seeded workloads through the CLI stages, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload news_dense --seed 1 --seconds 30 --trace 0

The runner generates the workload's inputs from the seed (its own set-up,
not timed), then repeats the pipeline until ``--seconds`` are used (at least
twice).  Each repetition starts a fresh interpreter (``stage.py``) whose
import of ``newsflow.cli`` plus config load is one ``setup_s`` sample; that
interpreter forks one process per stage, which calls ``newsflow.cli.main``
once.  BLAS/OpenMP threads and ``NEWSFLOW_THREADS`` are pinned to 1.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, with the tracing overhead.

Every repetition is checked (exit codes, expected files, byte-identical
outputs across repetitions, input-derived invariants, the recorded reference
summary).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` (stage invocations) and ``metrics``; the exit code
is 0 only when every check passed.  A run record with the environment goes
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import check
import tracer
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
E2E_UNITS = {
    "distill_s": "s", "indicators_s": "s", "panel_s": "s", "simulate_s": "s",
    "lexstats_s": "s", "report_s": "s", "pipeline_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "failed_ops": "share",
}
# Reported in the final JSON line: the metrics every workload has.  simulate_s
# exists on sim_bands only and failed_ops is 0 when correct; both are printed
# and recorded, and failures also show in the JSON's failed count.
GATED = ("distill_s", "indicators_s", "panel_s", "lexstats_s", "report_s",
         "pipeline_s", "setup_s", "peak_rss_mb")
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "NEWSFLOW_THREADS": "1",
}
STAGE_TIMEOUT_S = 100
MAX_PASSES = 24
PASSES_PER_RUNNER = 4  # a new interpreter, so one more setup_s sample, every fourth pass
MIN_STAGE_SAMPLE_S = 0.5
MAX_REPEAT = 10
SELF_SUM_RTOL = 0.01  # sum of self times vs stage wall time
SELF_SUM_ATOL_S = 0.005


class StageFailed(Exception):
    pass


class StageRunner:
    """A fresh ``stage.py`` interpreter; its start-up is one set-up sample."""

    def __init__(self, root: Path, ini: Path, out: Path, logs: Path, stages, env):
        cmd = [sys.executable, str(HERE / "stage.py"), "--config", str(ini), "--output", str(out),
               "--stages", ",".join(stages), "--log-dir", str(logs)]
        spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.passes = 0
        ready = self._read()
        if ready is None or "ready" not in ready:
            self.close()
            raise StageFailed(f"stage runner failed to start; see {logs}")
        self.setup_s = ready["ready"] - spawned

    def _read(self) -> dict | None:
        # a watchdog, so that a hung stage cannot hang the benchmark
        timer = threading.Timer(STAGE_TIMEOUT_S, self.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        return json.loads(line) if line.startswith("{") else None

    def run_pass(self, trace_dir: Path | None, repeat: dict[str, int]) -> dict[str, list[dict]]:
        """Stage name -> records of its calls in this pass."""
        self.passes += 1
        request = {"trace_dir": str(trace_dir) if trace_dir else None, "repeat": repeat}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        records: dict[str, list[dict]] = {}
        while (record := self._read()) is not None and not record.get("done"):
            records.setdefault(record["stage"], []).append(record)
        if record is None:
            raise StageFailed(f"stage runner ended during a pass (exit {self.proc.poll()})")
        return records

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the runner already ended
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _repeats(passes: list[dict]) -> dict[str, int]:
    """Calls per stage in the next pass: short stages are called several times,
    so that every stage gets about MIN_STAGE_SAMPLE_S of samples per pass."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        if not p["traced"]:
            for stage, recs in p["stages"].items():
                samples.setdefault(stage, []).extend(r["wall_s"] for r in recs)
    return {stage: min(MAX_REPEAT, max(1, round(MIN_STAGE_SAMPLE_S / statistics.median(walls))))
            for stage, walls in samples.items()}


def _owner(message: str, owners: dict[str, str]) -> str | None:
    matches = [name for name in owners if message.startswith(name)]
    return owners[max(matches, key=len)] if matches else None


def traced_layers(stages: dict, workload) -> tuple[dict, dict, list[str]]:
    """Layer times and counters of one traced pass, plus check problems."""
    problems = []
    per_stage = {}
    counters: dict[str, float] = {}
    for stage in workload.stages:
        record = stages[stage][0]  # traced passes call each stage once
        spans = tracer.read_spans(record["spans"])
        times = tracer.layer_times(spans)
        per_stage[stage] = times
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
        total_self = sum(t["self_s"] for t in times.values())
        if abs(total_self - record["wall_s"]) > SELF_SUM_RTOL * record["wall_s"] + SELF_SUM_ATOL_S:
            problems.append(f"{stage}: layer self times sum to {total_self:.4f} s, "
                            f"stage wall time is {record['wall_s']:.4f} s")
        negative = [name for name, t in times.items() if t["self_s"] < -1e-6]
        if negative:
            problems.append(f"{stage}: negative self time in {negative}")
    return per_stage, counters, problems


def layer_metrics(per_stage: dict, counters: dict, layer_map: dict, workload) -> tuple[dict, list[str]]:
    totals: dict[str, dict[str, float]] = {}
    for times in per_stage.values():
        for name, t in times.items():
            agg = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in agg:
                agg[key] += t[key]
    calls = totals.get("stemmer.porter_stem", {}).get("calls", 0)
    derived = dict(counters)
    derived["stemmer.distinct_ratio"] = counters.get("stemmer.distinct_args", 0) / calls if calls else 0.0
    values = {}
    problems = []
    for metric, spec in layer_map.items():
        if metric == "trace.overhead_s":
            continue
        function = spec["function"]
        prefix, _, kind = metric.rpartition(".")
        if prefix == function and kind in ("s", "self_s", "calls"):
            values[metric] = totals.get(function, {}).get(kind, 0)
        else:
            values[metric] = derived.get(metric, 0)
        for stage in spec["stages"]:
            if stage in workload.stages and per_stage[stage].get(function, {}).get("calls", 0) == 0:
                problems.append(f"coverage: {metric} recorded no call to {function} in {stage}")
    return values, problems


def environment(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():  # a benchmark checkout need not be a git repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "newsflow").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode())
        source.update(path.read_bytes())

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "NEWSFLOW_THREADS": PINNED_ENV["NEWSFLOW_THREADS"],
        "seed": seed,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's output summary in reference/<workload>.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "newsflow" / "cli.py").is_file():
        print("perfbench: src/newsflow/cli.py not found; run from the root of a newsflow checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + str(HERE)

    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = root / ".perfbench" / "work" / run_id
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, root, workload, layer_map, env, work, results, run_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, workload, layer_map, env, work, results, run_id) -> int:
    gen_start = time.perf_counter()
    ini = generate(workload, args.seed, work / "in")
    gen_s = time.perf_counter() - gen_start

    owners = {name: stage for stage in workload.stages for name in check.expected_files(stage, workload)}
    out, logs = work / "out", results / "logs" / run_id
    logs.mkdir(parents=True, exist_ok=True)
    failed_ops: set[tuple[int, str]] = set()
    problems: list[str] = []
    passes: list[dict] = []
    setups: list[float] = []
    repeat: dict[str, int] = {}
    first_digest = None
    runner = None
    start = time.monotonic()

    def flag(index: int, message: str, stage: str | None = None) -> None:
        problems.append(f"pass {index}: {message}")
        failed_ops.add((index, stage or _owner(message, owners) or "pipeline"))

    try:
        while len(passes) < MAX_PASSES:
            index = len(passes)
            traced = bool(args.trace) and index % 2 == 1
            trace_dir = results / "spans" / run_id / f"pass{index}" if traced else None
            if trace_dir is not None:
                trace_dir.mkdir(parents=True)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            try:
                if runner is None or runner.passes >= PASSES_PER_RUNNER:
                    if runner is not None:
                        runner.close()
                    runner = StageRunner(root, ini, out, logs, workload.stages, env)
                    setups.append(runner.setup_s)
                stages = runner.run_pass(trace_dir, {} if traced else repeat)
            except StageFailed as exc:
                flag(index, str(exc))
                break
            passes.append({"traced": traced, "stages": stages})
            for stage in workload.stages:
                for record in stages.get(stage) or [{"rc": None, "error": "not run"}]:
                    if record.get("rc") != 0:
                        flag(index, f"{stage} failed (exit {record.get('rc')}; {record.get('error')}); "
                                    f"see {logs / (stage + '.log')}", stage)
                for name in check.expected_files(stage, workload):
                    if not (out / name).is_file():
                        flag(index, f"{name}: not written by {stage}", stage)
            if problems:
                break
            digest = check.digest(out)
            if first_digest is None:
                first_digest = digest
                for message in check.invariants(work / "in", out, workload):
                    flag(index, message)
                summary = check.summarize(out, workload)
                ref_path = HERE / "reference" / f"{workload.name}.json"
                references = json.loads(ref_path.read_text()) if ref_path.exists() else {}
                if str(args.seed) in references:
                    for message in check.compare_summary(summary, references[str(args.seed)]):
                        flag(index, message)
                elif args.record_reference and not problems:
                    references[str(args.seed)] = summary
                    ref_path.parent.mkdir(exist_ok=True)
                    ref_path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
            else:
                for name in sorted(set(digest) | set(first_digest)):
                    if digest.get(name) != first_digest.get(name):
                        flag(index, f"{name}: differs from pass 0 (outputs must be byte-identical)")
            if not traced:
                repeat = _repeats(passes)
            if traced:
                passes[-1]["layers"], passes[-1]["counters"], trace_problems = traced_layers(stages, workload)
                for message in trace_problems:
                    flag(index, message)
            if problems:
                break
            elapsed = time.monotonic() - start
            # at least two passes: the determinism check needs a pair
            if len(passes) >= 2 and elapsed + elapsed / len(passes) > args.seconds:
                break
    finally:
        if runner is not None:
            runner.close()

    attempted = sum(len(recs) for p in passes for recs in p["stages"].values()) or 1
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    e2e = {}
    if plain and not problems:
        for stage in workload.stages:
            e2e[f"{stage}_s"] = statistics.median(r["wall_s"] for p in plain for r in p["stages"][stage])
        e2e["pipeline_s"] = sum(e2e[f"{stage}_s"] for stage in workload.stages)
        e2e["setup_s"] = statistics.median(setups)
        e2e["peak_rss_mb"] = statistics.median(
            max(r["maxrss_kb"] for recs in p["stages"].values() for r in recs) / 1024 for p in plain)
    e2e["failed_ops"] = len(failed_ops) / attempted

    layers = {}
    if traced_passes and not problems:
        samples = []
        for p in traced_passes:
            values, coverage = layer_metrics(p["layers"], p["counters"], layer_map, workload)
            samples.append(values)
            for message in coverage:
                flag(passes.index(p), message)
        for metric in samples[0]:
            layers[metric] = statistics.median(s[metric] for s in samples)
        traced_pipeline = statistics.median(
            sum(recs[0]["wall_s"] for recs in p["stages"].values()) for p in traced_passes)
        layers["trace.overhead_s"] = traced_pipeline - e2e["pipeline_s"]

    correct = not problems
    record = {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params(),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "generate_s": gen_s,
        "measured_s": time.monotonic() - start,
        "setup_s": setups,
        "passes": [
            {"traced": p["traced"],
             "stages": {s: [{k: r.get(k) for k in ("rc", "wall_s", "maxrss_kb")} for r in recs]
                        for s, recs in p["stages"].items()}}
            for p in passes
        ],
        "end_to_end": e2e,
        "per_layer": layers,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": len(failed_ops),
        "environment": environment(root, args.seed),
    }
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"newsflow benchmark: workload={workload.name} seed={args.seed} passes={len(plain)} "
          f"untraced, {len(traced_passes)} traced; set-up samples={len(setups)}")
    for metric, value in e2e.items():
        print(f"  {metric:<14} {value:12.6f} {E2E_UNITS[metric]}")
    for metric, value in layers.items():
        print(f"  {metric:<42} {value:16.6f} {layer_map[metric]['unit']}")
    for message in problems:
        print(f"  CHECK FAILED {message}")
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")

    if args.trace:
        metrics = {m: {"value": layers[m], "unit": spec["unit"]} for m, spec in layer_map.items() if m in layers}
    else:
        metrics = {m: {"value": e2e[m], "unit": E2E_UNITS[m]} for m in GATED if m in e2e}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed_ops),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
