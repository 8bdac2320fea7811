"""Tests of the benchmark itself: its checkers and the repeatability of its counts.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each workload's commands run once through ``nldyn.cli.main`` to give
genuine outputs; the checker must accept those and reject copies with one
deliberate fault: a shifted plateau, a broken mass column, a FAIL audit row.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checks import CheckError  # noqa: E402
from run import _rate_counts  # noqa: E402
from worker import run_round  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402

SEED = 5


def _run_once(name: str, run_dir: Path):
    """Run one round of a workload in run_dir; return the workload and stdouts."""
    from nldyn import cli

    workload = WORKLOADS[name](SEED)
    for cfg, text in workload.configs.items():
        (run_dir / cfg).write_text(text)
    old = Path.cwd()
    os.environ["NLDYN_WORKERS"] = "1"
    os.chdir(run_dir)
    try:
        results = run_round(cli, workload.ops)
    finally:
        os.chdir(old)
    assert [r[1] for r in results] == [0] * len(results), [r[3] for r in results]
    return workload, [r[2] for r in results]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def genuine(request, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp(request.param)
    workload, stdouts = _run_once(request.param, run_dir)
    return request.param, run_dir, workload, stdouts


def _check_all(run_dir: Path, workload, stdouts) -> None:
    for op, stdout in zip(workload.ops, stdouts):
        op.check(run_dir, stdout)


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text()))


def _shift_field(line: str, column: int, delta: float, sep: str = ",") -> str:
    cells = line.split(sep)
    cells[column] = repr(float(cells[column]) + delta)
    return sep.join(cells)


def test_genuine_outputs_pass(genuine):
    _, run_dir, workload, stdouts = genuine
    _check_all(run_dir, workload, stdouts)


def test_shifted_plateau_rejected(genuine, tmp_path):
    name, run_dir, workload, stdouts = genuine
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    out = copy / OUT
    if name == "pair-check":
        stdouts = list(stdouts)
        i = next(k for k, op in enumerate(workload.ops) if op.argv[0] == "predict")
        stdouts[i] = "\n".join(
            _shift_field(line, 1, 1e-3, " = ") if line.startswith("plateau_1_value") else line
            for line in stdouts[i].splitlines()
        )
    elif name == "wide-simulate":
        lines = (out / "wide.profile.dat").read_text().splitlines()
        lines[-1] = _shift_field(lines[-1], 1, 1e-3, " ")
        (out / "wide.profile.dat").write_text("\n".join(lines) + "\n")
    else:
        sweep = next(out.glob("*.sweep.csv"))
        _rewrite(sweep, lambda t: "\n".join(
            _shift_field(line, 1, 1e-3) if k == 2 else line
            for k, line in enumerate(t.splitlines())) + "\n")
    with pytest.raises(CheckError, match="plateau|staircase"):
        _check_all(copy, workload, stdouts)


def test_broken_mass_column_rejected(genuine, tmp_path):
    name, run_dir, workload, stdouts = genuine
    if name == "pair-check":
        pytest.skip("check and predict write no trajectory")
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    trajectory = sorted((copy / OUT).glob("*.trajectory.csv"))[-1]
    _rewrite(trajectory, lambda t: "\n".join(
        _shift_field(line, 2, 1e-6) if k == 3 else line
        for k, line in enumerate(t.splitlines())) + "\n")
    with pytest.raises(CheckError, match="mass column"):
        _check_all(copy, workload, stdouts)


def test_fail_audit_row_rejected(genuine, tmp_path):
    name, run_dir, workload, stdouts = genuine
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    if name == "pair-check":
        stdouts = [s.replace("pass  energy-monotonicity", "FAIL  energy-monotonicity")
                   for s in stdouts]
    elif name == "wide-simulate":
        _rewrite(copy / OUT / "wide.summary.txt",
                 lambda t: t.replace("pass  mass-conservation", "FAIL  mass-conservation"))
    else:
        pytest.skip("sweep writes no audit table")
    with pytest.raises(CheckError, match="reads FAIL"):
        _check_all(copy, workload, stdouts)


def test_crossing_in_order_preservation_rejected(genuine, tmp_path):
    name, run_dir, workload, stdouts = genuine
    if name != "wide-simulate":
        pytest.skip("only simulate's summary carries an order-preservation row")
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    _rewrite(copy / OUT / "wide.summary.txt", lambda t: re.sub(
        r"(?m)^\s*\S+(\s+order-preservation\s+worst )\S+", r"FAIL\g<1>-1.000e-03", t))
    assert "FAIL  order-preservation" in (copy / OUT / "wide.summary.txt").read_text()
    with pytest.raises(CheckError, match="order-preservation"):
        _check_all(copy, workload, stdouts)


def test_missed_g_calls_refused():
    rounds = [{"counts": {"model.g.calls": 3, "dynamics.records": 5,
                          "dynamics.simulated_t": 1.0}}] * 2
    with pytest.raises(RuntimeError, match="missed"):
        _rate_counts(rounds)


def _traced_counts(seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "expr-sweep",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_counts(SEED), _traced_counts(SEED)
    assert first == second
    assert first["model.g.calls"] > 0 and first["quad.integrand_evals"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pair-check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
