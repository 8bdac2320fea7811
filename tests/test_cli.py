"""Tests for the command-line front end: config grammar, commands, outputs."""

import io
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from nldyn import IntegratorConfig, cli
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

# 300 samples of 1 + x: settling atoms would cross by an ulp without the
# integrator's projection onto the atom order
WIDE_CONFIG = """\
model.builtin = "logistic-cubic"
initial.expr = "1 + x"
initial.samples = 300
integrator.t_max = 200.0
output.dir = "{out}"
output.base = "wide"
"""

# three atoms under logistic-cubic: the trapezoid rule on the record grid
# missed the dissipation identity here by 6.6e-4 against a tol of 2.8e-6
CUBIC_CONFIG = """\
model.builtin = "logistic-cubic"
domain.measure = 1.0
initial.atoms = "2.0:0.3, 1.5:0.3, 1.0:0.4"
integrator.t_max = 200.0
output.dir = "{out}"
output.base = "cubic"
"""

# the middle atom's measure is below the ulp of its position, 1.0, in the
# rearrangement
TINY_WEIGHT_CONFIG = """\
model.builtin = "logistic-identity"
domain.measure = 2.0
initial.atoms = "2.0:1.0, 1.5:1e-20, 1.2:1.0"
output.dir = "{out}"
output.base = "tiny"
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

    def test_integrator_keys_follow_integrator_config(self):
        run_cfg = cli.parse_config_text("integrator.dt_max = 0.5\n")
        assert run_cfg.integrator_config() == IntegratorConfig(dt_max=0.5)
        assert cli.parse_config_text("").integrator_config() == IntegratorConfig()

    def test_override_casts_by_key_type(self):
        run_cfg = cli.parse_config_text("")
        seeded = cli.apply_override(run_cfg, "run.seed", 3.0)
        assert seeded.seed == 3 and type(seeded.seed) is int
        assert cli.apply_override(run_cfg, "integrator.rtol", 1e-6).rtol == 1e-6
        with pytest.raises(ConfigError, match="not a numeric run-config key"):
            cli.apply_override(run_cfg, "output.base", 1.0)

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
    def test_wide_run_keeps_the_atom_order(self, tmp_path):
        cfg = _write(tmp_path, "wide.cfg", WIDE_CONFIG)
        assert cli.main(["simulate", cfg]) == 0
        summary = (tmp_path / "out" / "wide.summary.txt").read_text()
        assert "pass  order-preservation             worst 0.000e+00" in summary
        assert "FAIL" not in summary

    def test_tiny_weight_run_writes_every_output(self, tmp_path, capsys):
        cfg = _write(tmp_path, "tiny.cfg", TINY_WEIGHT_CONFIG)
        assert cli.main(["simulate", cfg]) == 0
        assert capsys.readouterr().err == ""
        for suffix in ("trajectory.csv", "profile.dat", "summary.txt"):
            assert (tmp_path / "out" / f"tiny.{suffix}").stat().st_size > 0
        assert cli.main(["check", cfg]) == 0

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

    def test_trajectory_csv_is_to_csv(self, tmp_path, monkeypatch):
        runs = []
        integrate = cli.dynamics.integrate

        def keep(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli.dynamics, "integrate", keep)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["simulate", cfg]) == 0
        text = io.StringIO()
        runs[0].to_csv(text)
        assert (tmp_path / "out" / "h1.trajectory.csv").read_bytes() == text.getvalue().encode()

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
        # H1_CONFIG lists its atoms in increasing order
        assert "pass  rearrangement-commutation-flow worst 0.000e+00" in out

    def test_h3_audit_passes(self, tmp_path):
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        assert cli.main(["check", cfg]) == 0

    def test_corrupted_run_fails_audit(self, tmp_path, monkeypatch):
        import dataclasses

        integrate = cli.dynamics.integrate

        def corrupt(*args, **kwargs):
            tr = integrate(*args, **kwargs)
            values = tr.values.copy()
            mid = len(values) // 2
            values[mid, 0] += 0.05
            masses = tr.mass_series.copy()
            masses[mid] += 0.05 * tr.weights[0]
            return dataclasses.replace(tr, values=values, mass_series=masses)

        monkeypatch.setattr(cli.dynamics, "integrate", corrupt)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["check", cfg]) == 1

    def test_integrates_once(self, tmp_path, monkeypatch):
        calls = []
        integrate = cli.dynamics.integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(cli.dynamics, "integrate", counting)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["check", cfg]) == 0
        assert len(calls) == 1

    def test_crossing_fails_commutation(self, tmp_path, monkeypatch, capsys):
        # the two equal-weight atoms trade values from mid-run on: each
        # record keeps its staircase, but the atoms cross
        import dataclasses

        integrate = cli.dynamics.integrate

        def swap(*args, **kwargs):
            tr = integrate(*args, **kwargs)
            values = tr.values.copy()
            mid = len(values) // 2
            values[mid:] = values[mid:, ::-1]
            return dataclasses.replace(tr, values=values)

        monkeypatch.setattr(cli.dynamics, "integrate", swap)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["check", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAIL  rearrangement-commutation-flow" in out

    def test_wide_run_passes_order_preservation(self, tmp_path, capsys):
        cfg = _write(tmp_path, "wide.cfg", WIDE_CONFIG)
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "pass  order-preservation             worst 0.000e+00" in out
        assert "FAIL" not in out

    def test_cubic_run_passes_dissipation_identity(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cubic.cfg", CUBIC_CONFIG)
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "pass  dissipation-identity" in out
        assert "FAIL" not in out

    def test_sorted_initial_field_passes_commutation(self, tmp_path, capsys):
        # 100 samples of 1 + x are already sorted: the rearranged copy must
        # integrate exactly as the original, step for step
        cfg = _write(tmp_path, "sorted.cfg", (
            'model.builtin = "logistic-identity"\n'
            'domain.measure = 1.0\n'
            'initial.expr = "1 + x"\n'
            'initial.samples = 100\n'
            'output.dir = "{out}"\n'
        ))
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "pass  rearrangement-commutation-flow worst 0.000e+00" in out

    @pytest.mark.parametrize("seed", ["-1", "1" + "0" * 29, "1" + "0" * 400],
                             ids=["negative", "30-digit", "401-digit"])
    def test_any_integer_seed(self, tmp_path, seed):
        # run.seed seeds Python's random for the isometry pair sample
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG + f"run.seed = {seed}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nldyn", "check", cfg], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("atoms, reason", [
        ("-0.5:0.5, 1.5:0.5", "skipped: no hypothesis"),
    ])
    def test_dissipation_skip_names_its_reason(self, tmp_path, capsys, atoms, reason):
        cfg = _write(tmp_path, "skip.cfg", (
            'model.builtin = "logistic-cubic"\n'
            'initial.atoms = "' + atoms + '"\n'
            'integrator.t_max = 1.0\n'
            'output.dir = "{out}"\n'
        ))
        assert cli.main(["check", cfg]) == 0
        row, = (line for line in capsys.readouterr().out.splitlines()
                if "dissipation-identity" in line)
        assert row.endswith(f"({reason})"), row

    def test_two_record_run_checks_dissipation(self, tmp_path, capsys):
        # H3, stationary at t = 1.46e-6 after two records: the integral
        # carried on the steps needs no record grid
        cfg = _write(tmp_path, "two.cfg", (
            'model.builtin = "logistic-cubic"\n'
            'initial.atoms = "-60.0:0.5, -50.0:0.5"\n'
            'integrator.t_max = 1.0\n'
            'output.dir = "{out}"\n'
        ))
        assert cli.main(["check", cfg]) == 0
        row, = (line for line in capsys.readouterr().out.splitlines()
                if "dissipation-identity" in line)
        assert row.startswith("pass") and "skipped" not in row, row

    def test_large_energy_passes_predictor_residuals(self, tmp_path, capsys):
        # E near 2e6: the row bounds each residual relative to the size of
        # its constraint, as the predictor does
        cfg = _write(tmp_path, "far.cfg", (
            'model.builtin = "logistic-cubic"\n'
            'initial.atoms = "-60.0:0.5, -50.0:0.5"\n'
            'output.dir = "{out}"\n'
        ))
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "pass  predictor-residuals" in out
        assert "FAIL" not in out


class TestPredictorLookup:
    def test_wrapped_predictors_see_every_cli_call(self, tmp_path, monkeypatch):
        """predict, check and sweep call omega.predict_h1/predict_h3 as they
        are at call time, so a wrapper (a test double, a tracer) sees them."""
        from nldyn import omega

        calls = {"predict_h1": 0, "predict_h3": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(omega, name)):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(omega, name, counted)
        h1 = _write(tmp_path, "h1.cfg", H1_CONFIG)
        h3 = _write(tmp_path, "h3.cfg", H3_CONFIG)
        assert cli.main(["predict", h1, "--m0", "2.0", "--energy-limit", "2.5"]) == 0
        assert cli.main(["predict", h3, "--m0", "-1.0", "--energy-limit", "1.0"]) == 0
        assert calls == {"predict_h1": 1, "predict_h3": 1}
        assert cli.main(["check", h1]) == 0
        assert cli.main(["check", h3]) == 0
        assert calls == {"predict_h1": 2, "predict_h3": 2}
        assert cli.main(["sweep", h1, "--vary", "run.seed=0:0:1"]) == 0
        assert calls == {"predict_h1": 3, "predict_h3": 2}


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
    def test_closed_stdout_exits_141_without_traceback(self, tmp_path):
        """`nldyn check run.cfg | head -1`: the reader is gone before the
        audit table is written (closing after its first line would race
        with the table's single write)."""
        import os
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nldyn", "check", cfg],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == "", proc.stderr  # no traceback, no flush error

    def test_no_scipy_import(self):
        code = (
            "import sys, nldyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_numpy_random_or_ma_import(self, tmp_path):
        """check, simulate and sweep load neither numpy.random (about 6 MB
        of resident memory) nor numpy.ma (about 1.6 MB). Each command is
        judged by what it adds to sys.modules, so a numpy that imports
        either itself does not fail the test."""
        h1 = _write(tmp_path, "h1.cfg", H1_CONFIG)
        h3 = _write(tmp_path, "h3.cfg", H3_CONFIG)
        commands = [
            ["check", h1],
            ["check", h3],
            ["simulate", h3],
            ["sweep", h3, "--vary", "initial.atoms.0.value=-1.2:-0.8:2"],
        ]
        code = textwrap.dedent("""
            import contextlib, io, json, sys
            from nldyn import cli
            subpackages = ("numpy.random", "numpy.ma")
            added = []
            for argv in json.loads(sys.argv[1]):
                before = {m for m in subpackages if m in sys.modules}
                with contextlib.redirect_stdout(io.StringIO()):
                    exit_code = cli.main(argv)
                loaded = [m for m in subpackages if m in sys.modules and m not in before]
                added.append([argv[0], exit_code, loaded])
            print(json.dumps(added))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        added = json.loads(proc.stdout)
        assert [name for name, _, _ in added] == ["check", "check", "simulate", "sweep"]
        for name, exit_code, loaded in added:
            assert exit_code == 0, name
            assert loaded == [], (name, loaded)

    def test_entry_point_runs(self, tmp_path):
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "nldyn.cli", "simulate", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "Stationary" in proc.stdout

    def test_package_runs_as_module(self, tmp_path):
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "nldyn", "simulate", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "h3.trajectory.csv").exists()
        assert "Stationary" in proc.stdout
