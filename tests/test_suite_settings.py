"""The pytest settings in pyproject.toml keep a failing test's report."""

import os
import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_reports_its_example(tmp_path):
    """Under the repository's warning filters, a failing property test is
    reported by name with its falsifying example, not lost to an
    INTERNALERROR in hypothesis's report."""
    (tmp_path / "test_fail.py").write_text(_FAILING_PROPERTY)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(_PYPROJECT),
         "--rootdir", str(tmp_path), "test_fail.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_fail.py::test_fails" in proc.stdout
    # the example is printed over several lines, each led by pytest's "E"
    report = "".join(line.removeprefix("E").strip() for line in proc.stdout.splitlines())
    assert "Falsifying example: test_fails(x=5" in report
