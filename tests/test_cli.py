"""Tests for the command-line front end: config grammar, commands, outputs."""

import io
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from helpers import run_cli_bounded
from nldyn import IntegratorConfig, cli, dynamics, extract_limit
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

# atoms up to 28,000 under an oscillating p with a closed-form P
WIDE_RANGE_CONFIG = """\
model.g = "u*(1-u)"
model.p = "u + 0.1*sin(u)"
domain.measure = 0.001
initial.expr = "1/x"
initial.samples = 14
output.dir = "{out}"
output.base = "range"
"""

# H1 (the top atom is above 1), but the mass rounds to exactly |Omega|,
# outside the H1 predictor's range m0 > |Omega|; stationary at t = 0
ROUNDED_MASS_CONFIG = """\
model.builtin = "logistic-identity"
domain.measure = 1.0
initial.atoms = "1.0:0.5, 1.0000000000000002:0.5"
output.dir = "{out}"
output.base = "rounded"
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

    @pytest.mark.parametrize("expr, message", [
        ("1 +", "initial.expr: syntax error at offset 3"),
        ("log(x - 0.5)", "initial.expr produced non-finite samples"),
    ], ids=["unparsable", "non-finite"])
    def test_bad_initial_expr_exit_2(self, tmp_path, capsys, expr, message):
        cfg = _write(tmp_path, "bad.cfg", (
            'model.builtin = "logistic-identity"\n'
            f'initial.expr = "{expr}"\n'
            'initial.samples = 4\n'
        ))
        assert cli.main(["simulate", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("key", ["domain.measure", "integrator.rtol"])
    def test_nan_value_exit_2(self, tmp_path, capsys, key):
        text = H1_CONFIG.replace("domain.measure = 1.0\n", "") + f"{key} = nan\n"
        cfg = _write(tmp_path, "nan.cfg", text)
        assert cli.main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err

    @pytest.mark.parametrize("command", ["check", "simulate", "sweep"])
    @pytest.mark.parametrize("tol", ["-1", "0", "-0.0", "-5e-324"])
    def test_non_positive_cluster_tol_exit_2(self, tmp_path, capsys, command, tol):
        """A non-positive cluster_tol would read as a failed predictor audit."""
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG.replace(
            '"1.5:0.5, 2.0:0.5"', '"2.0:0.5, 1.5:0.5"') + f"omega.cluster_tol = {tol}\n")
        extra = ["--vary", "run.seed=0:1:2"] if command == "sweep" else []
        capsys.readouterr()
        assert cli.main([command, cfg, *extra]) == 2
        assert capsys.readouterr().err == (
            "config error: omega.cluster_tol must be positive and finite\n")


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
        from nldyn.errors import FieldError

        def refuse(u0, pair, cfg):
            raise FieldError("synthetic pairing fault")

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

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize("model, value", [
        pytest.param('model.builtin = "logistic-identity"\n', "1e308", id="builtin-1e308"),
        pytest.param('model.builtin = "logistic-identity"\n', "9e307", id="builtin-9e307"),
        pytest.param('model.g = "u*(1-u)"\nmodel.p = "u"\n', "1e308", id="expr-1e308"),
    ])
    def test_atom_near_float_limit_refused_at_finite_witness(
        self, tmp_path, capsys, command, model, value
    ):
        """The working range +-(1e308 + 1) spans past the float range: the
        model is refused where P overflows, at a finite witness, never nan."""
        text = H1_CONFIG.replace('model.builtin = "logistic-identity"\n', model).replace(
            '"1.5:0.5, 2.0:0.5"', f'"{value}:0.5, 1.5:0.5"')
        cfg = _write(tmp_path, "big.cfg", text)
        capsys.readouterr()
        assert cli.main([command, cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nan" not in err, err
        assert "d(antiderivative)/ds = p (witness u=-" in err, err
        assert err.endswith(": P overflows\n"), err

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

    def test_values_may_start_negative(self, tmp_path, capsys):
        args = ["--domain-measure", "1.0", "--out-dir", str(tmp_path), "--base", "neg"]
        assert cli.main(["rearrange", "--values", "-1,2,3", *args]) == 0
        assert capsys.readouterr().out == "wrote staircase with 3 plateaus\n"

    @pytest.mark.parametrize("args", [
        ["--values", "-inf,1"],
        ["--values", "-nan,1"],
        ["--values", "1,2", "--domain-measure", "-inf"],
    ])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, args):
        assert cli.main(["rearrange", *args, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--values", "5,6,7"), ("--domain-measure", "3"), ("--out-dir", "x"), ("--base", "y"),
    ])
    def test_config_with_inline_flag_refused(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["rearrange", cfg, flag, value]) == 2
        assert capsys.readouterr().err == (
            "config error: rearrange takes a config or --values, --domain-measure, "
            "--out-dir and --base, not both\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h1.cfg"]

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


class TestStaircaseBytes:
    """Every byte of the staircase files and of rearrange's stdout."""

    def test_sub_ulp_plateau_left_out(self, tmp_path, capsys):
        cfg = _write(tmp_path, "tiny.cfg", TINY_WEIGHT_CONFIG)
        assert cli.main(["rearrange", cfg]) == 0
        assert capsys.readouterr().out == "wrote staircase with 2 plateaus\n"
        out = tmp_path / "out"
        assert (out / "tiny.staircase.dat").read_text() == (
            "# decreasing rearrangement\n# columns: y value\n"
            "0 2\n1 2\n1 1.2\n2 1.2\n"
        )
        assert (out / "tiny.distribution.dat").read_text() == (
            "# columns: s measure_above_s\n2 0\n2 1\n1.2 1\n1.2 2\n"
        )

    def test_ties_tiny_value_and_signed_zero(self, tmp_path, capsys):
        argv = ["rearrange", "--values", "3,1,2,2,3,1e-300,-0",
                "--out-dir", str(tmp_path), "--base", "v"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "wrote staircase with 5 plateaus\n"
        ys = ["0", "0.2857142857142857", "0.5714285714285714",
              "0.71428571428571419", "0.8571428571428571", "1"]
        plateaus = ["3", "2", "1", "1e-300", "-0"]
        assert (tmp_path / "v.staircase.dat").read_text() == (
            "# decreasing rearrangement\n# columns: y value\n"
            + "".join(f"{ys[i]} {v}\n{ys[i + 1]} {v}\n" for i, v in enumerate(plateaus))
        )
        assert (tmp_path / "v.distribution.dat").read_text() == (
            "# columns: s measure_above_s\n"
            + "".join(f"{v} {ys[i]}\n{v} {ys[i + 1]}\n" for i, v in enumerate(plateaus))
        )

    def test_h1_final_profile(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["simulate", cfg]) == 0
        assert (tmp_path / "out" / "h1.profile.dat").read_text() == (
            "# final decreasing rearrangement\n# columns: y value\n"
            "0 1.7500000000164164\n0.5 1.7500000000164164\n"
            "0.5 1.7499999999835876\n1 1.7499999999835876\n"
        )


class TestPredict:
    def test_identity_p_closed_form(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(["predict", cfg, "--m0", "2.0", "--energy-limit", "2.5"])
        assert rc == 0
        out = capsys.readouterr().out
        fields = dict(l.split(" = ") for l in out.strip().splitlines() if " = " in l)
        assert float(fields["plateau_1_value"]) == pytest.approx(3.0, abs=1e-10)
        assert (tmp_path / "out" / "h1.predicted.dat").exists()

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

    def test_h3_main_measure_is_mass_over_xi(self, tmp_path, capsys):
        # a1 = m0 / xi exactly; read back from breakpoints as
        # |Omega| - (|Omega| - a1) it would lose its last bit
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        assert cli.main(["predict", cfg, "--m0", "-0.3", "--energy-limit", "0.7"]) == 0
        out = capsys.readouterr().out
        fields = dict(l.split(" = ") for l in out.strip().splitlines() if " = " in l)
        a1 = -0.3 / float(fields["plateau_1_value"])
        assert fields["plateau_1_measure"] == f"{a1:.17g}"
        assert 1.0 - (1.0 - a1) != a1
        assert fields["plateau_2_value"] == "0"

    def test_negative_values_in_exponent_form(self, tmp_path, capsys):
        # an H3 mass is negative; argparse's own matcher takes only -12 and -1.5
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        outs = []
        for m0 in ("-0.6", "-6e-1", "-.6", "-6E-1"):
            assert cli.main(["predict", cfg, "--m0", m0, "--energy-limit", "0.18"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1:] == outs[:1] * 3
        assert "hypothesis = H3" in outs[0]

    @pytest.mark.parametrize("m0, energy, rc, start", [
        ("3", "1e308", 4, "prediction infeasible: "),
        ("1e77", "1.7e308", 3, "error: constraint residuals exceed their bounds: "),
        ("8e76", "1e308", 3, "error: constraint residuals exceed their bounds: "),
    ])
    def test_target_past_every_finite_g_under_cubic(
        self, tmp_path, capsys, m0, energy, rc, start
    ):
        """E / m0 above G at P's overflow (near 4e230): the bisection ends
        where s**4 overflows, and P there is inf, not an OverflowError."""
        cfg = _write(tmp_path, "cubic.cfg", H1_CONFIG.replace(
            '"logistic-identity"', '"logistic-cubic"'))
        capsys.readouterr()
        assert cli.main(["predict", cfg, "--m0", m0, "--energy-limit", energy]) == rc
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1, err

    def test_negative_energy_limit_in_exponent_form(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h3.cfg", H3_CONFIG)
        assert cli.main(["predict", cfg, "--m0", "-0.6", "--energy-limit", "-1e-5"]) == 4
        assert capsys.readouterr().err.startswith("prediction infeasible: ")

    @pytest.mark.parametrize("flag, value, message", [
        ("--m0", "inf", "m0 must be finite"),
        ("--m0", "-inf", "m0 must be finite"),
        ("--m0", "-Infinity", "m0 must be finite"),
        ("--energy-limit", "-inf", "energy limit must be finite"),
        ("--energy-limit", "-NaN", "energy limit must be finite"),
    ])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, flag, value, message):
        # a minus before inf or nan is a value too, and reaches the finite checks
        argv = ["predict", _write(tmp_path, "h1.cfg", H1_CONFIG), "--m0", "2.0",
                "--energy-limit", "2.5"]
        argv[argv.index(flag) + 1] = value
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"bad predictor input: {message}\n"

    @pytest.mark.parametrize("m0, energy, message", [
        ("1e308", "1.0", "right-hand side 5e-309 at or below G(1+)"
                         " (function range sampled: [1.0, inf])"),
        ("-1e308", "1e308", "plateau measure 4.999999999999999e+307 exceeds domain measure 1.0"),
        ("1e307", "1e308", "plateau measure 5.555555555555556e+305 exceeds domain measure 1.0"),
    ])
    def test_huge_mass_exit_4(self, tmp_path, capsys, m0, energy, message):
        # the bracket's far end 2|m0|/|Omega| is capped at the largest float,
        # and the bisection runs until the bracket is exhausted
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["predict", cfg, "--m0", m0, "--energy-limit", energy]) == 4
        assert capsys.readouterr().err == f"prediction infeasible: {message}\n"

    @pytest.mark.parametrize("measure", ["-1.0", "0.0"])
    @pytest.mark.parametrize("config", [H1_CONFIG, WIDE_CONFIG])
    def test_non_positive_domain_measure_exit_2(self, tmp_path, capsys, config, measure):
        # initial data by atoms and by expression: predict refuses the config
        # with the line that simulate prints
        text = config.replace("domain.measure = 1.0\n", "") + f"domain.measure = {measure}\n"
        cfg = _write(tmp_path, "c.cfg", text)
        assert cli.main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial.") and err.count("\n") == 1
        assert cli.main(["predict", cfg, "--m0", "2.0", "--energy-limit", "2.5"]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("measure", ["-1.0", "0.0"])
    def test_non_positive_domain_measure_without_initial_data_exit_2(
        self, tmp_path, capsys, measure
    ):
        # no initial data to build: the measure reaches the predictor
        cfg = _write(tmp_path, "bare.cfg", (
            'model.builtin = "logistic-identity"\n'
            f"domain.measure = {measure}\n"
            'output.dir = "{out}"\n'
        ))
        assert cli.main(["predict", cfg, "--m0", "2.0", "--energy-limit", "2.5"]) == 2
        assert capsys.readouterr().err == (
            f"bad predictor input: domain measure must be positive and finite, got {measure}\n"
        )

    def test_config_without_initial_data(self, tmp_path, capsys):
        """The model is validated on +-2 and the measure read from the config."""
        cfg = _write(tmp_path, "bare.cfg", (
            'model.builtin = "logistic-identity"\n'
            "domain.measure = 2.0\n"
            'output.dir = "{out}"\n'
        ))
        assert cli.main(["predict", cfg, "--m0", "3.0", "--energy-limit", "3.0"]) == 0
        assert "domain_measure = 2\n" in capsys.readouterr().out

    def test_help_lists_only_the_energy_route(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["predict", "--help"])
        options = [w for w in capsys.readouterr().out.split() if w.startswith("--")]
        assert sorted(set(options)) == ["--energy-limit", "--help", "--m0"]


class TestCheck:
    def test_h1_audit_passes(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "predictor-consistency" in out
        assert len(out.splitlines()) == 9

    def test_unsettled_run_skips_the_predictor(self, tmp_path, capsys):
        text = H1_CONFIG.replace("integrator.t_max = 200.0", "integrator.t_max = 1.0")
        cfg = _write(tmp_path, "h1.cfg", text)
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 8
        assert out[-1] == ("pass  predictor-consistency          worst 0.000e+00  "
                           "tol 1.000e-03  (skipped: run not stationary)")

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

    def test_crossing_fails_order_preservation(self, tmp_path, monkeypatch, capsys):
        # the two equal-weight atoms trade values from mid-run on: each
        # record keeps its staircase, but the atoms cross. Their gap only
        # closes as the run settles, so the worst is minus the gap at the
        # first swapped row
        import dataclasses

        integrate = cli.dynamics.integrate
        gaps = []

        def swap(*args, **kwargs):
            tr = integrate(*args, **kwargs)
            values = tr.values.copy()
            mid = len(values) // 2
            gaps.append(float(np.max(values[mid]) - np.min(values[mid])))
            values[mid:] = values[mid:, ::-1]
            return dataclasses.replace(tr, values=values)

        monkeypatch.setattr(cli.dynamics, "integrate", swap)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["check", cfg]) == 1
        out = capsys.readouterr().out
        assert len(gaps) == 1 and gaps[0] > 0.0
        assert f"FAIL  order-preservation             worst {-gaps[0]:.3e}" in out

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

    def test_mass_outside_the_regime_skips_the_predictor(self, tmp_path, capsys):
        cfg = _write(tmp_path, "rounded.cfg", ROUNDED_MASS_CONFIG)
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == ("pass  predictor-consistency          worst 0.000e+00  tol 1.000e-03  "
                           "(skipped: m0 = 1.0 outside the H1 range for |Omega| = 1.0)")


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


class TestModelValidation:
    def test_builtin_validated_once_on_the_run_range(self, tmp_path, monkeypatch):
        """Each command, and each sweep point, validates the pair once, on a
        range reaching 1 past its largest |value|."""
        from nldyn import model

        ranges = []
        validate = model.validate_pair

        def counted(pair, s_range, *args):
            ranges.append(tuple(s_range))
            return validate(pair, s_range, *args)

        monkeypatch.setattr(model, "validate_pair", counted)
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        for argv, want in (
            (["check", cfg], [(-3.0, 3.0)]),
            (["predict", cfg, "--m0", "2.0", "--energy-limit", "2.5"], [(-3.0, 3.0)]),
            (["simulate", cfg], [(-3.0, 3.0)]),
            (["sweep", cfg, "--vary", "initial.atoms.1.value=2.0:3.0:2"], [(-3.0, 3.0), (-4.0, 4.0)]),
        ):
            ranges.clear()
            assert cli.main(argv) == 0
            assert ranges == want, argv[0]


_ATOMS = 'initial.atoms = "1.5:0.5, 2.0:0.5"\n'
_G = 'model.g = "u*(1-u)"\n'
_VALIDATION = "model: model validation failed: "

# config lines and the message each config error prints, one case per way a
# bad expression, model name or model reaches the command line
_CONFIG_ERRORS = {
    "unknown-builtin": ('model.builtin = "nope"\n' + _ATOMS,
                        "model: unknown model 'nope'; "
                        "available: logistic-cubic, logistic-identity"),
    "g-syntax": ('model.g = "u*(1-"\nmodel.p = "u"\n' + _ATOMS,
                 "model: syntax error at offset 5: expected (, -, identifier, number, "
                 "found 'end of input'"),
    "p-unknown-variable": (_G + 'model.p = "u + v"\n' + _ATOMS,
                           "model: unknown identifier 'v' at offset 4; "
                           "known names: u, exp, log, tanh, sin, cos"),
    "p-unknown-function": (_G + 'model.p = "sinh(u)"\n' + _ATOMS,
                           "model: unknown identifier 'sinh' at offset 0; "
                           "known names: exp, log, tanh, sin, cos"),
    "p-variable-exponent": (_G + 'model.p = "u^u"\n' + _ATOMS,
                            "model: syntax error at offset 2: expected finite constant exponent, "
                            "found 'non-constant expression'"),
    "p-bad-character": (_G + 'model.p = "u $ 1"\n' + _ATOMS,
                        "model: syntax error at offset 2: expected identifier, number, operator, "
                        "found '$'"),
    "initial-syntax": ('model.builtin = "logistic-identity"\n'
                       'initial.expr = "1 +"\ninitial.samples = 4\n',
                       "initial.expr: syntax error at offset 3: expected (, -, identifier, number, "
                       "found 'end of input'"),
    "initial-unknown": ('model.builtin = "logistic-identity"\n'
                        'initial.expr = "1 + y"\ninitial.samples = 4\n',
                        "initial.expr: unknown identifier 'y' at offset 4; "
                        "known names: x, exp, log, tanh, sin, cos"),
    "initial-weights": ('model.builtin = "logistic-identity"\n'
                        'initial.atoms = "2.0:0.5, 1.5:0.4"\n',
                        "initial.atoms: weights sum to 0.9, domain measure is 1.0 "
                        "(relative mismatch 1.000e-01 beyond 1e-09)"),
    "g-at-0": ('model.g = "u*(1-u)+1"\nmodel.p = "u"\n' + _ATOMS,
               _VALIDATION + "g(0) = 0 (witness u=0.0): got 1.0"),
    "g-at-1": ('model.g = "u"\nmodel.p = "u"\n' + _ATOMS,
               _VALIDATION + "g(1) = 0 (witness u=1.0): got 1.0"),
    "p-decreasing": (_G + 'model.p = "-u"\n' + _ATOMS,
                     _VALIDATION + "p' > 0 on the working range (witness u=-3.0): p' = -1.0"),
    "g-nan": ('model.g = "u*(1-u)/0"\nmodel.p = "u"\n' + _ATOMS,
              _VALIDATION + "g(0) = 0 (witness u=0.0): got not a number"),
    "cubic-overflow": ('model.builtin = "logistic-cubic"\ninitial.atoms = "1e200:1.0"\n',
                       _VALIDATION + "d(antiderivative)/ds = p (witness u=-1e+200): P overflows"),
    "g-without-p": (_G + _ATOMS, "both model.g and model.p are required"),
}


_PREDICT = ["predict", "--m0", "2.0", "--energy-limit", "2.5"]
_SWEEP = ["sweep", "--vary", "integrator.rtol=1e-8:1e-7:2"]


def _error_line_params():
    for case, (lines, message) in _CONFIG_ERRORS.items():
        line = f"config error: {message}\n"
        yield pytest.param(lines, ["simulate"], 2, line, id=f"{case}-simulate")
        yield pytest.param(lines, _PREDICT, 2, line, id=f"{case}-predict")
        yield pytest.param(lines, _SWEEP, 3, "error:ConfigError", id=f"{case}-sweep")
    yield pytest.param(
        'model.builtin = "logistic-cubic"\n' + _ATOMS,
        ["predict", "--m0", "1e77", "--energy-limit", "1.7e308"], 3,
        "error: constraint residuals exceed their bounds: mass 0.000e+00 (bound 1.000e+67), "
        "energy inf (bound 1.700e+298)\n", id="cubic-residual-predict")


class TestErrorLines:
    @pytest.mark.parametrize("lines, command, rc, want", _error_line_params())
    def test_error_line_and_exit_code(self, tmp_path, capsys, lines, command, rc, want):
        """The whole stderr line and exit code of simulate and predict; the
        error cell of each sweep row."""
        cfg = _write(tmp_path, "e.cfg", lines + (
            'domain.measure = 1.0\nintegrator.t_max = 5.0\n'
            'output.dir = "{out}"\noutput.base = "e"\n'))
        capsys.readouterr()
        assert cli.main([command[0], cfg, *command[1:]]) == rc
        err = capsys.readouterr().err
        if command[0] != "sweep":
            assert err == want
            return
        rows = (tmp_path / "out" / "e.sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == [want, want]


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

    def test_mass_outside_the_regime_reads_the_settled_run(self, tmp_path):
        cfg = _write(tmp_path, "rounded.cfg", ROUNDED_MASS_CONFIG)
        assert cli.main(["sweep", cfg, "--vary", "integrator.rtol=1e-8:1e-7:2"]) == 0
        lines = (tmp_path / "out" / "rounded.sweep.csv").read_text().splitlines()
        assert lines[1] == "1e-08,1,1,0.50000000000000011,Stationary"
        assert lines[2] == "9.9999999999999995e-08,1,1,0.50000000000000011,Stationary"

    def test_h2_rows_read_the_settled_run(self, tmp_path):
        # no H2 predictor: the top atom settles at 1 on its own measure
        text = H1_CONFIG.replace('"1.5:0.5, 2.0:0.5"', '"0.9:0.4, 0.3:0.6"').replace(
            'integrator.record_every = 0.01', 'integrator.record_every = 0.1'
        )
        cfg = _write(tmp_path, "h2.cfg", text)
        assert cli.main(["sweep", cfg, "--vary", "initial.atoms.0.value=0.8:0.9:2"]) == 0
        lines = (tmp_path / "out" / "h1.sweep.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [row[4] for row in rows] == ["Stationary", "Stationary"]
        for _, mu, a1, _, _ in rows:
            assert float(mu) == pytest.approx(1.0, abs=1e-9)
            assert float(a1) == 0.4

    def test_h3_rows_read_the_main_plateau(self, tmp_path):
        # a pinned atom at 0 and a pair merging at -0.6: the row reads xi,
        # not the background plateau 0
        text = H3_CONFIG.replace('"-1.0:0.5, -0.2:0.5"', '"0.0:0.5, -1.0:0.25, -0.2:0.25"')
        text = text.replace("t_max = 200.0", "t_max = 300.0").replace(
            "record_every = 0.01", "record_every = 0.1"
        )
        cfg = _write(tmp_path, "h3.cfg", text)
        assert cli.main(["sweep", cfg, "--vary", "integrator.t_max=300:300:1"]) == 0
        lines = (tmp_path / "out" / "h3.sweep.csv").read_text().strip().splitlines()
        _, xi, a1, _, _ = lines[1].split(",")
        assert float(xi) == pytest.approx(-0.6, abs=1e-6)
        assert float(a1) == pytest.approx(0.5, abs=1e-6)

    def test_h2_rows_read_the_top_plateau(self, tmp_path):
        text = H1_CONFIG.replace(
            '"1.5:0.5, 2.0:0.5"', '"0.9:0.2, 0.7:0.2, 0.5:0.2, 0.3:0.2, 0.2:0.2"'
        ).replace("t_max = 200.0", "t_max = 400.0")
        cfg = _write(tmp_path, "h2.cfg", text)
        assert cli.main(["sweep", cfg, "--vary", "integrator.t_max=400:400:1"]) == 0
        lines = (tmp_path / "out" / "h1.sweep.csv").read_text().strip().splitlines()
        run_cfg = cli.load_config(cfg)
        u0 = run_cfg.build_initial()
        tr = dynamics.integrate(u0, run_cfg.build_pair(u0), run_cfg.integrator_config())
        top, measure = extract_limit(tr, run_cfg.cluster_tol).limit.atoms[0]
        assert lines[1].split(",")[1:3] == [f"{top:.17g}", f"{measure:.17g}"]
        assert (top, measure) == (pytest.approx(1.0, abs=1e-6), 0.4)

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

    def test_atom_near_float_limit_fails_its_run_without_nan(self, tmp_path, capsys):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc = cli.main(["sweep", cfg, "--vary", "initial.atoms.0.value=1e308:1e308:1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nan" not in err, err
        assert err.startswith("sweep run 0 (initial.atoms.0.value = 1e+308) failed: model: ")

    def test_grid_spanning_past_the_float_range(self, tmp_path, capsys):
        """stop - start overflows: the grid is still finite, ends included."""
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        vary = "integrator.t_max=-1e308:1.7976931348623157e308:3"
        assert cli.main(["sweep", cfg, "--vary", vary]) == 0
        assert "nan" not in capsys.readouterr().err
        lines = (tmp_path / "out" / "h1.sweep.csv").read_text().strip().splitlines()
        grid = [float(line.split(",")[0]) for line in lines[1:]]
        assert grid[0] == -1e308 and grid[2] == 1.7976931348623157e308
        assert grid[0] < grid[1] < grid[2]

    def test_negative_atom_index_exit_2(self, tmp_path, capsys):
        """initial.atoms.-1 would vary the last atom, by Python's indexing."""
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        capsys.readouterr()
        assert cli.main(["sweep", cfg, "--vary", "initial.atoms.-1.value=3:3:1"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: bad atom index in 'initial.atoms.-1.value'\n"
        assert not (tmp_path / "out").exists()

    def test_bad_grid_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["sweep", cfg, "--vary", "integrator.t_max=1:2"]) == 2

    def test_non_finite_grid_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        assert cli.main(["sweep", cfg, "--vary", "initial.samples=nan:4:2"]) == 2


class TestBoundedRuns:
    """Inputs that would hang or allocate without bound, each run in a child
    process under a time limit and an address-space limit of 2 GiB."""

    def test_record_grid_finer_than_a_step_exit_3(self, tmp_path):
        text = H1_CONFIG.replace("record_every = 0.01", "record_every = 1e-300")
        cfg = _write(tmp_path, "h1.cfg", text)
        rc, _, err = run_cli_bounded(["simulate", cfg], tmp_path)
        assert rc == 3 and err.count("\n") == 1, err
        assert err.startswith("numerical failure; diagnostics at ")
        diag = (tmp_path / "out" / "h1.failure.txt").read_text()
        assert diag.startswith("numerical failure: record grid too fine: record_every 1e-300 ")
        assert "t = 0.0\n" in diag
        rc, _, err = run_cli_bounded(["check", cfg], tmp_path)
        assert rc == 3 and err.count("\n") == 1, err
        assert "record grid too fine" in err

    def test_oscillating_p_on_a_wide_range_exit_0(self, tmp_path):
        """The closed form's check against quadrature costs the same on any
        range: at the range's ends it took millions of evaluations of p."""
        cfg = _write(tmp_path, "range.cfg", WIDE_RANGE_CONFIG)
        rc, out, err = run_cli_bounded(["simulate", cfg], tmp_path, timeout=10.0)
        assert rc == 0 and err == "", err
        assert out.startswith("termination Stationary")

    def test_unallocatable_sample_count_exit_3(self, tmp_path):
        text = (
            'model.builtin = "logistic-identity"\n'
            'initial.expr = "1 + x"\n'
            "initial.samples = 1000000000000000\n"
            'output.dir = "out"\n'
        )
        cfg = _write(tmp_path, "big.cfg", text)
        rc, out, err = run_cli_bounded(["simulate", cfg], tmp_path)
        assert rc == 3 and out == "" and err.count("\n") == 1, err
        assert err.startswith("out of memory: ")

    def test_unallocatable_sweep_grid_exit_3(self, tmp_path):
        cfg = _write(tmp_path, "h1.cfg", H1_CONFIG)
        rc, out, err = run_cli_bounded(
            ["sweep", cfg, "--vary", "integrator.t_max=1:2:100000000000"], tmp_path
        )
        assert rc == 3 and out == "" and err.count("\n") == 1, err
        assert err.startswith("out of memory: ")
        assert not (tmp_path / "out").exists()


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
