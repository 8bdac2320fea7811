"""Measurement process: runs one workload's rounds through nldyn.cli.main.

Usage: python3 worker.py <source dir> <run dir> <workload> <seed> <seconds> <trace> [trace file]

Starts whole rounds until ``seconds`` have passed since the first one
began, times each CLI command with nothing but the g-call counter
installed (and, when ``trace`` is 1, the span tracer), then checks what
each command printed and wrote. Prints one JSON line with the round
times, the counts of each round, the attempted and failed commands, the
check failures, and this process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from checks import CheckError
from tracer import RateCounter, Tracer
from workloads import OUT, WORKLOADS


def _output_bytes(run_dir: Path, stdouts: list[str]) -> int:
    files = sum(p.stat().st_size for p in (run_dir / OUT).rglob("*") if p.is_file())
    return files + sum(len(s.encode()) for s in stdouts)


def run_round(cli, ops) -> list[tuple]:
    """Run each command once: (op, exit code or error, stdout, stderr, seconds)."""
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(op.argv))
            except (Exception, SystemExit) as exc:  # a failed command, not a harness fault
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        results.append((op, rc, out.getvalue(), err.getvalue(), seconds))
    return results


def main(argv: list[str]) -> int:
    src, run_dir, name, seed, seconds, trace = argv[:6]
    trace_file = argv[6] if len(argv) > 6 else None
    os.environ["NLDYN_WORKERS"] = "1"  # sweeps run their grid one point at a time
    sys.path.insert(0, src)
    from nldyn import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"nldyn imported from {cli.__file__}, not from {src}")

    workload = WORKLOADS[name](int(seed))
    run_dir = Path(run_dir)
    os.chdir(run_dir)
    counter = RateCounter()
    counter.install()
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()

    rounds, errors = [], []
    attempted = failed = incorrect = 0
    peak_kb = None
    began = time.perf_counter()
    while time.perf_counter() - began < float(seconds) or not rounds:
        shutil.rmtree(run_dir / OUT, ignore_errors=True)
        results = run_round(cli, workload.ops)
        attempted += len(results)
        if peak_kb is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record = {"wall_s": sum(r[4] for r in results), "counts": counter.take(),
                  "output_bytes": _output_bytes(run_dir, [r[2] for r in results])}
        if tracer:
            record["trace"] = tracer.take()
            tracer.keep_spans = False  # raw spans of the first round only
        rounds.append(record)
        for op, rc, stdout, stderr, _ in results:
            if rc != 0:
                failed += 1
                errors.append(f"{' '.join(op.argv)}: exit {rc}: {stderr.strip()[-300:]}")
                continue
            try:
                op.check(run_dir, stdout)
            except CheckError as exc:
                incorrect += 1
                errors.append(f"{' '.join(op.argv)}: {exc}")

    if tracer and trace_file:
        spans = [{"id": i, "parent": p, "name": n, "start": s - began, "end": e - began}
                 for i, p, n, s, e in tracer.spans]
        Path(trace_file).write_text(json.dumps({"workload": name, "seed": int(seed),
                                                "rounds": rounds, "spans": spans}))
    print(json.dumps({"rounds": rounds, "attempted": attempted, "failed": failed,
                      "incorrect": incorrect, "errors": errors[:20],
                      "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
