"""Stage runner: a fresh interpreter that forks one process per stage call.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/stage.py --config IN/newsflow.ini --output OUT \
        --stages distill,indicators --log-dir LOGS

The runner imports ``newsflow.cli`` and loads the config, then prints
``{"ready": <CLOCK_MONOTONIC seconds>}``; the caller subtracts its spawn time
to get the set-up time.  Each line read from stdin then starts one pass of the
pipeline: ``{"trace_dir": null}`` untraced, or a directory for span files, and
optionally ``"repeat": {stage: n}`` to call a stage n times in a row.  Every
call forks one child, which calls ``newsflow.cli.main`` once, so no cache
warmed by one call reaches another, and the runner itself never calls into
the pipeline.  For each call the runner prints one JSON line (exit code, wall
time of the ``cli.main`` call, the child's peak RSS and, when tracing, the
span file and counters), then ``{"done": true}`` at the end of the pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _child(stage: str, argv: list[str], log_dir: str, trace_dir: str | None, out_fd: int) -> None:
    from newsflow import cli

    log = os.open(os.path.join(log_dir, f"{stage}.log"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    main = cli.main
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(f"cli.{stage}", cli.main)
    start = time.perf_counter()
    try:
        rc = main(argv)
    except Exception:  # a traceback is a failed stage, never a crashed benchmark
        import traceback

        traceback.print_exc()
        rc = 1
    wall = time.perf_counter() - start
    sys.stdout.flush()
    sys.stderr.flush()
    record = {
        "stage": stage,
        "rc": rc,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["spans"] = tracer.dump(os.path.join(trace_dir, f"{stage}.spans.tsv.gz"))
        record["counters"] = tracer.counters
    os.write(out_fd, json.dumps(record).encode())


def _run_stage(stage: str, argv: list[str], log_dir: str, trace_dir: str | None) -> dict:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            _child(stage, argv, log_dir, trace_dir, write_fd)
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    while chunk := os.read(read_fd, 1 << 16):
        chunks.append(chunk)
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    if not chunks:
        return {"stage": stage, "rc": None, "wall_s": None, "maxrss_kb": None,
                "error": f"stage process ended without a result (wait status {status})"}
    return json.loads(b"".join(chunks))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--stages", required=True)
    parser.add_argument("--log-dir", required=True)
    args = parser.parse_args()

    from newsflow.cli import load_config

    load_config(args.config)
    print(json.dumps({"ready": time.monotonic()}), flush=True)

    for line in sys.stdin:
        request = json.loads(line)
        for stage in args.stages.split(","):
            argv = [stage, "--config", args.config, "--output", args.output]
            for _ in range(request.get("repeat", {}).get(stage, 1)):
                print(json.dumps(_run_stage(stage, argv, args.log_dir, request["trace_dir"])), flush=True)
        print(json.dumps({"done": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
