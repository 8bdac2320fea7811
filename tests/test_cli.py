"""Tests for the command-line front end: config grammar, commands, outputs."""

import numpy as np
import pytest

from nldyn import cli
from nldyn.errors import ConfigError

H1_CONFIG = """\
# reference all-above-one run
model.builtin = "logistic-identity"
domain.measure = 1.0
initial.atoms = "1.5:0.5, 2.0:0.5"
integrator.t_max = 200.0
integrator.record_every = 0.01
output.dir = "{out}"
output.base = "h1"
run.seed = 0
"""

H3_CONFIG = """\
model.builtin = "logistic-identity"
domain.measure = 1.0
initial.atoms = "-1.0:0.5, -0.2:0.5"
integrator.t_max = 200.0
integrator.record_every = 0.01
output.dir = "{out}"
output.base = "h3"
"""

GUARD_CONFIG = """\
# left-flattened g: the g-integral crosses zero in finite time
model.g = "u*(1-u)/(1+4*u^2)"
model.p = "u"
domain.measure = 1.0
initial.atoms = "0.3:0.73, -1.0:0.27"
integrator.t_max = 50.0
integrator.record_every = 0.001
output.dir = "{out}"
output.base = "guard"
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return str(path)


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", 'modle.g = "u"\n')
        assert cli.main(["simulate", cfg]) == 2

    def test_unknown_key_named_in_message(self, capsys, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", 'modle.g = "u"\n')
        cli.main(["simulate", cfg])
        assert "modle.g" in capsys.readouterr().err

    def test_ill_typed_value_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("integrator.t_max = fast\n")

    def test_unquoted_string_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("model.builtin = logistic-identity\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text('model.g = "u"\nmodel.g = "u"\n')

    def test_both_model_sources_rejected(self, tmp_path):
        text = (
            'model.builtin = "logistic-identity"\nmodel.g = "u*(1-u)"\n'
            'model.p = "u"\ninitial.atoms = "1.5:1.0"\n'
        )
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(text)
        assert cli.main(["simulate", str(cfg)]) == 2

    def test_expression_initial_data(self, tmp_path):
        text = (
            'model.builtin = "logistic-identity"\n'
            'initial.expr = "1 + x"\ninitial.samples = 100\n'
        )
        run_cfg = cli.parse_config_text(text)
        u0 = run_cfg.build_initial()
        assert len(u0) == 100
        assert float(np.dot(u0.weights, u0.values)) == pytest.approx(1.5, abs=1e-3)

    def test_missing_file(self):
        assert cli.main(["simulate", "/nonexistent/path.cfg"]) == 2

    @pytest.mark.parametrize("key", ["domain.measure", "integrator.rtol"])
    def test_nan_value_exit_2(self, tmp_path, capsys, key):
        text = H1_CONFIG.replace("domain.measure = 1.0\n", "") + f"{key} = nan\n"
        cfg = _write(tmp_path, "nan.cfg", text)
        assert cli.main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err


class TestSimulate:
    def test_h1_run_outputs(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["simulate", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "h1.trajectory.csv").exists()
        assert (out / "h1.profile.dat").exists()
        summary = (out / "h1.summary.txt").read_text()
        assert "termination = Stationary" in summary
        assert "hypothesis = H1" in summary
        assert "energy_limit = 1.53125" in summary

    def test_guard_termination_is_success(self, tmp_path):
        cfg = _write(tmp_path, "guard.cfg", GUARD_CONFIG)
        assert cli.main(["simulate", cfg]) == 0
        summary = (tmp_path / "out" / "guard.summary.txt").read_text()
        assert "termination = DenominatorVanishing" in summary

    def test_numerical_failure_exit_3_with_diagnostic(self, tmp_path, monkeypatch):
        from nldyn import dynamics
        from nldyn.errors import NumericalFailureError

        def explode(u0, pair, cfg):
            raise NumericalFailureError("synthetic blow-up", 1.5, u0.values)

        monkeypatch.setattr(dynamics, "integrate", explode)
        monkeypatch.setattr(cli.dynamics, "integrate", explode)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["simulate", cfg]) == 3
        diag = (tmp_path / "out" / "h1.failure.txt").read_text()
        assert "synthetic blow-up" in diag and "1.5" in diag

    def test_cubic_model_beyond_range_four(self, tmp_path):
        """The antiderivative check tolerates roundoff on the range +-4."""
        text = H1_CONFIG.replace('"logistic-identity"', '"logistic-cubic"').replace(
            '"1.5:0.5, 2.0:0.5"', '"3.0:0.5, 1.5:0.5"'
        ).replace("integrator.t_max = 200.0", "integrator.t_max = 5.0")
        cfg = _write(tmp_path, "cubic.cfg", text)
        assert cli.main(["simulate", cfg]) == 0

    def test_other_library_error_exit_3(self, tmp_path, capsys, monkeypatch):
        from nldyn.errors import PairingError

        def refuse(u0, pair, cfg):
            raise PairingError("synthetic pairing fault")

        monkeypatch.setattr(cli.dynamics, "integrate", refuse)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["simulate", cfg]) == 3
        err = capsys.readouterr().err
        assert err == "error: synthetic pairing fault\n"

    def test_overflowing_atom_exit_3_one_line(self, tmp_path):
        """g*p overflows at 1e150: exit 3 with the failure file, no warnings."""
        import subprocess
        import sys

        text = H1_CONFIG.replace('"1.5:0.5, 2.0:0.5"', '"1e150:1.0"')
        cfg = _write(tmp_path, "big.cfg", text)
        proc = subprocess.run(
            [sys.executable, "-m", "nldyn.cli", "simulate", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1
        diag = (tmp_path / "out" / "h1.failure.txt").read_text()
        assert "non-finite g or p value" in diag

    def test_overflowing_antiderivative_exit_2(self, tmp_path, capsys):
        """P overflows on the working range of 1e200: the model is refused."""
        text = H1_CONFIG.replace('"1.5:0.5, 2.0:0.5"', '"1e200:1.0"')
        cfg = _write(tmp_path, "big.cfg", text)
        assert cli.main(["simulate", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: model: ")

    def test_deterministic_csv(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["simulate", cfg]) == 0
        first = (tmp_path / "out" / "h1.trajectory.csv").read_bytes()
        assert cli.main(["simulate", cfg]) == 0
        second = (tmp_path / "out" / "h1.trajectory.csv").read_bytes()
        assert first == second


class TestRearrange:
    def test_inline_values(self, tmp_path):
        rc = cli.main(
            [
                "rearrange",
                "--values", "1,3,2",
                "--domain-measure", "1.0",
                "--out-dir", str(tmp_path),
                "--base", "tri",
            ]
        )
        assert rc == 0
        rows = [
            tuple(float(x) for x in line.split())
            for line in (tmp_path / "tri.staircase.dat").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows[0] == (0.0, 3.0)
        assert rows[-1][1] == 1.0
        dist = (tmp_path / "tri.distribution.dat").read_text()
        assert dist.startswith("#")

    def test_config_field(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["rearrange", cfg]) == 0
        assert (tmp_path / "out" / "h1.staircase.dat").exists()

    def test_empty_values_rejected(self, tmp_path):
        assert cli.main(["rearrange", "--values", "", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "args", [["--values", "1,nan"], ["--values", "1,2", "--domain-measure", "-1"]]
    )
    def test_bad_inline_field_exit_2(self, tmp_path, capsys, args):
        assert cli.main(["rearrange", *args, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


class TestPredict:
    def test_identity_p_closed_form(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(["predict", cfg, "--m0", "2.0", "--energy-limit", "2.5"])
        assert rc == 0
        out = capsys.readouterr().out
        fields = dict(l.split(" = ") for l in out.strip().splitlines() if " = " in l)
        assert float(fields["plateau_1_value"]) == pytest.approx(3.0, abs=1e-10)
        assert (tmp_path / "out" / "h1.predicted.dat").exists()

    def test_h2_refused(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(
            ["predict", cfg, "--m0", "0.5", "--energy-limit", "0.1", "--hypothesis", "h2"]
        )
        assert rc == 2

    def test_infeasible_inputs_exit_4(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(["predict", cfg, "--m0", "2.0", "--energy-limit", "0.4"])
        assert rc == 4

    def test_ambiguous_m0_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(["predict", cfg, "--m0", "0.5", "--energy-limit", "0.1"])
        assert rc == 2

    def test_h3_inferred_from_negative_mass(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        rc = cli.main(["predict", cfg, "--m0", "-1.0", "--energy-limit", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        fields = dict(l.split(" = ") for l in out.strip().splitlines() if " = " in l)
        assert float(fields["plateau_1_value"]) == pytest.approx(-2.0, abs=1e-10)


class TestCheck:
    def test_h1_audit_passes(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "predictor-consistency" in out

    def test_h3_audit_passes(self, tmp_path):
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        assert cli.main(["check", cfg]) == 0

    def test_corrupting_hook_fails_audit(self, tmp_path, monkeypatch):
        import dataclasses

        def corrupt(tr):
            values = tr.values.copy()
            mid = len(values) // 2
            values[mid, 0] += 0.05
            masses = tr.mass_series.copy()
            masses[mid] += 0.05 * tr.weights[0]
            return dataclasses.replace(tr, values=values, mass_series=masses)

        monkeypatch.setattr(cli, "_trajectory_hook", corrupt)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["check", cfg]) == 1


class TestSweep:
    def test_upper_value_sweep_mu_increasing(self, tmp_path):
        """Varying the pinned-plus-moving pair's top value: mu tracks it."""
        text = H1_CONFIG.replace('"1.5:0.5, 2.0:0.5"', '"1.0:0.5, 1.2:0.5"').replace(
            'integrator.record_every = 0.01', 'integrator.record_every = 0.1'
        )
        cfg = _write(tmp_path, "sw.cfg", text)
        rc = cli.main(["sweep", cfg, "--vary", "initial.atoms.1.value=1.2:2.0:5"])
        assert rc == 0
        lines = (tmp_path / "out" / "h1.sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,mu_or_xi,a1,energy_limit,termination"
        assert len(lines) == 6
        mus = [float(line.split(",")[1]) for line in lines[1:]]
        params = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(b2 > b1 for b1, b2 in zip(mus, mus[1:]))
        # the pinned-atom family rests immediately, so mu equals the top value
        np.testing.assert_allclose(mus, params, atol=1e-9)

    def test_count_one_degenerates_to_single_run(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(["sweep", cfg, "--vary", "integrator.t_max=50.0:50.0:1"])
        assert rc == 0
        lines = (tmp_path / "out" / "h1.sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "out" / "h1-000.trajectory.csv").exists()

    def test_invalid_key_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["sweep", cfg, "--vary", "integrator.scheme=1:2:2"]) == 2

    def test_all_runs_failing_exit_3(self, tmp_path, capsys):
        """Negative weights make every grid point fail field construction."""
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(["sweep", cfg, "--vary", "initial.atoms.0.weight=-1.0:-0.5:3"])
        assert rc == 3
        lines = (tmp_path / "out" / "h1.sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert all("error:" in line for line in lines[1:])
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert err[0].startswith("sweep run 0 (initial.atoms.0.weight = -1) failed: ")
        assert "weights must be positive" in err[0]

    def test_bad_grid_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["sweep", cfg, "--vary", "integrator.t_max=1:2"]) == 2

    def test_non_finite_grid_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["sweep", cfg, "--vary", "initial.samples=nan:4:2"]) == 2


class TestConsoleScript:
    def test_no_scipy_import(self):
        import subprocess
        import sys

        code = (
            "import sys, nldyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_entry_point_runs(self, tmp_path):
        import subprocess
        import sys

        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "nldyn.cli", "simulate", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "Stationary" in proc.stdout
