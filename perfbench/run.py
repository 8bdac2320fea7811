"""Benchmark of the nldyn CLI: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload pair-check --seed 1 --seconds 20 --trace 0

Writes the workload's configs from the seed, times the set-up of
``PROBES`` fresh processes, then starts one fresh measurement process
(worker.py) that runs whole rounds of the workload's CLI commands for
``--seconds`` and checks every output. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the commands run under the span tracer, the per-layer
metrics are reported instead, and the spans of the first round are
written under ``perfbench/_work/traces``. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 3
PROBE_TIMEOUT_S = 15  # with the worker's, within the 180 s a run may take
WORKER_TIMEOUT_S = 120


def _declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _run_json(cmd: list[str], cwd: Path, timeout: float) -> dict:
    """Run a child to its end and parse the JSON of its last output line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _same_in_every_round(rounds: list[dict], key: str) -> float:
    values = {r["counts"][key] for r in rounds}
    if len(values) != 1:
        raise RuntimeError(f"{key} differs between rounds: {sorted(values)}")
    return values.pop()


def _rate_counts(rounds: list[dict]) -> tuple[float, float]:
    """g calls and simulated time of a round, the same in every round.

    Each record follows an evaluation of the rates, so a round must count
    at least as many g calls as records: fewer means g was reached some
    way the counter does not see, and the ratio would read as a gain.
    """
    g_calls = _same_in_every_round(rounds, "model.g.calls")
    records = _same_in_every_round(rounds, "dynamics.records")
    if not g_calls >= records > 0:
        raise RuntimeError(f"counted {g_calls} g calls for {records} records: "
                           "the g-call counter missed evaluations")
    return g_calls, _same_in_every_round(rounds, "dynamics.simulated_t")


def end_to_end(worker: dict, probes: list[dict], names) -> dict[str, float]:
    rounds = worker["rounds"]
    g_calls, sim_t = _rate_counts(rounds)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "rate_evals_per_t": g_calls / sim_t,
    }
    return {name: metrics[name] for name in names}


def per_layer(worker: dict, probes: list[dict], names) -> dict[str, float]:
    rounds = worker["rounds"]
    _rate_counts(rounds)
    merged = [dict(r["counts"], **r["trace"], **{"cli.output_bytes": r["output_bytes"],
                                                 "trace.wall_s": r["wall_s"]})
              for r in rounds]
    out = {}
    for name in names:
        if name == "setup.import_s":
            out[name] = statistics.median(p["import_s"] for p in probes)
        else:
            out[name] = statistics.median(m.get(name, 0) for m in merged)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nldyn" / "cli.py").is_file():
        print(f"no nldyn sources under {src}", file=sys.stderr)
        return 2

    work = HERE / "_work"
    run_dir = work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        for name, text in workload.configs.items():
            (run_dir / name).write_text(text)
        probes = [
            _run_json([sys.executable, str(HERE / "probe.py"), str(src), workload.setup_config],
                      run_dir, PROBE_TIMEOUT_S)
            for _ in range(PROBES)
        ]
        cmd = [sys.executable, str(HERE / "worker.py"), str(src), str(run_dir),
               args.workload, str(args.seed), str(args.seconds), str(args.trace)]
        if args.trace:
            traces = work / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd.append(str(traces / f"{args.workload}-seed{args.seed}.json"))
        worker = _run_json(cmd, run_dir, WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in worker["errors"]:
        print(f"error: {line}", file=sys.stderr)
    if args.trace:
        units = _declared("per_layer")
        metrics = per_layer(worker, probes, units)
    else:
        units = _declared("end_to_end")
        metrics = end_to_end(worker, probes, units)
    print(f"{args.workload} seed {args.seed}: {len(worker['rounds'])} rounds, "
          f"{worker['attempted']} commands, {worker['failed']} failed, "
          f"{worker['incorrect']} with wrong output")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": worker["incorrect"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
