"""Property test of the config boundary: any config text ends cleanly.

Whatever text a config file holds, ``nldyn simulate`` either runs (exit
0) or exits with a documented code and a one-line message on stderr,
with no traceback and within a fixed time. The generated texts are valid
configs, or valid configs with one fault injected (malformed, non-finite,
out-of-range or overflowing entries), so both outcomes are exercised.

The valid ranges keep each run's legitimate work small, so the time
bound catches hangs rather than long runs: fields of at most 24 atoms on
a domain of measure at most 4. Expression models draw p from those with
a closed-form antiderivative, polynomial or not (u^3+u, tanh(u) + 2*u,
u + 0.1*sin(u)): P is then one array call per recorded block. A p
without one (such as u*exp(u)) is left out. Its P is a cumulative
adaptive quadrature, about a thousand integrand evaluations per recorded
block, so 24 atoms recorded every 0.01 take seconds, where a closed form
takes a fraction of one; that cost belongs to the quadrature path, not
to the config boundary, and would make this test several times slower.

A second property types numbers into argv: the five subcommands with
numbers at the edges of the float range in every place a number goes
(options, ``--values`` lists, ``--vary`` grids, atom values).
"""

import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nldyn import cli

TIME_BOUND_S = 30.0

_BAD_NUMBER = st.sampled_from(
    ["", "abc", "1e", "--1", "0x10", "true", '"1.0"', "nan", "inf", "-inf", "0", "-1.0", "1e308", "5e-324"]
)

_MODELS = st.sampled_from([
    ['model.builtin = "logistic-identity"'],
    ['model.builtin = "logistic-cubic"'],
    ['model.g = "u*(1-u)"', 'model.p = "u"'],
    ['model.g = "u*(1-u)"', 'model.p = "u^3+u"'],
    ['model.g = "u*(1-u)"', 'model.p = "tanh(u) + 2*u"'],
    ['model.g = "u*(1-u)"', 'model.p = "u + 0.1*sin(u)"'],
    ['model.g = "u*(1-u)/(1+4*u^2)"', 'model.p = "u"'],
])
_BAD_MODELS = st.sampled_from([
    ['model.builtin = "logistic"'],
    ['model.builtin = logistic-identity'],
    ['model.g = "u*(1-u)"', 'model.p = "-u"'],
    ['model.g = "u"', 'model.p = "u"'],
    ['model.g = "u*(1"', 'model.p = "u"'],
    ['model.g = "u*(1-u)"', 'model.p = "log(u)"'],
    # constant faults: a zero divisor or a non-finite literal or value
    ['model.g = "u*(1-u)"', 'model.p = "u + 0.1*u/0"'],
    ['model.g = "u*(1-u)"', 'model.p = "u + 1/(1-1)"'],
    ['model.g = "u*(1-u)"', 'model.p = "u + 1e999"'],
    ['model.g = "u*(1-u)"', 'model.p = "u + 0.1*sin(1e308^2)"'],
    ['model.g = "u*(1-u)"', 'model.p = "u + 0.1*(exp(1e308) - exp(1e308))*u"'],
    ['model.g = "u*(1-u)"', 'model.p = "u + (1/0)^0"'],
    ['model.g = "u*(1-u)"'],
    [],
])

# valid ranges of the integrator keys; t_max is always set, since its
# default of 100 with a small dt_max makes a long run
_INTEGRATOR = {
    "integrator.t_max": (1e-3, 20.0),
    "integrator.rtol": (1e-12, 1e-2),
    "integrator.atol": (1e-14, 1e-2),
    "integrator.dt_init": (1e-6, 1e-3),
    "integrator.dt_max": (0.05, 10.0),
    "integrator.stat_tol": (1e-12, 1e-2),
    "integrator.record_every": (1e-2, 10.0),
}

# keys the config grammar no longer has: a config that sets one is refused
_REMOVED_KEYS = {
    "integrator.lipschitz_cap": "yes",
    "integrator.eps_den": "1e-12",
}

_FAULTS = (
    "model", "atom value", "atom weight", "measure", "expr", "samples",
    "extra line", *_INTEGRATOR, *_REMOVED_KEYS,
)


@st.composite
def config_texts(draw, atom_values=st.floats(-3.0, 3.0)):
    """A valid config text, or one with a single fault injected."""
    fault = draw(st.one_of(st.none(), st.sampled_from(_FAULTS)))
    lines = list(draw(_BAD_MODELS if fault == "model" else _MODELS))
    measure = draw(st.floats(1e-3, 4.0))
    lines.append(
        f"domain.measure = {draw(_BAD_NUMBER) if fault == 'measure' else repr(measure)}"
    )
    if fault in ("expr", "samples") or draw(st.booleans()):
        expr = draw(st.sampled_from(["1 + x", "-x", "0.5 + 0.1*x", "2 - x"]))
        samples = draw(st.integers(1, 24))
        if fault == "expr":
            expr = draw(st.sampled_from([
                "1/x", "x^", "log(-x)", "exp(1000*x)", "", "1 + x + 0/0", "1 + x + 1e999*0",
                "1 + x + tanh(1/0)",
            ]))
        if fault == "samples":
            samples = draw(st.sampled_from(["0", "-2", "1.5", "many"]))
        lines.append(f'initial.expr = "{expr}"')
        lines.append(f"initial.samples = {samples}")
    else:
        values = draw(st.lists(atom_values, min_size=1, max_size=4))
        weight = repr(measure / len(values))
        if fault == "atom value":
            values[0] = draw(st.sampled_from([1e150, -1e150, 1e200, 1e300, float("nan")]))
        if fault == "atom weight":
            weight = draw(st.sampled_from(["-0.5", "0", "1e300", "x"]))
        atoms = ", ".join(f"{v!r}:{weight}" for v in values)
        lines.append(f'initial.atoms = "{atoms}"')
    for key, (lo, hi) in _INTEGRATOR.items():
        if fault == key:
            lines.append(f"{key} = {draw(_BAD_NUMBER)}")
        elif key == "integrator.t_max" or draw(st.booleans()):
            lines.append(f"{key} = {draw(st.floats(lo, hi))!r}")
    if fault in _REMOVED_KEYS:
        lines.append(f"{fault} = {_REMOVED_KEYS[fault]}")
    if fault == "extra line":
        bad = draw(st.sampled_from(["integrator.t_max = 1.0", "no equals sign", "run.seeds = 1"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n", fault


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=config_texts())
def test_any_config_text_ends_cleanly(case, capsys):
    text, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text + f'output.dir = "{tmp}/out"\n')
        capsys.readouterr()
        start = time.perf_counter()
        rc = cli.main(["simulate", str(cfg)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
    assert rc in (0, 2, 3), text
    if fault in _REMOVED_KEYS:
        assert rc == 2 and "unknown key" in err, (text, err)
    if rc != 0:
        assert err.count("\n") == 1 and err.strip(), (text, err)
    assert elapsed < TIME_BOUND_S, (text, elapsed)


# numbers as a user types them: signed zeros, the subnormal and overflow
# edges, infinities and nan in their spellings, exponent and minus-led forms
_NUMBERS = st.sampled_from([
    "0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "1.7976931348623157e308",
    "inf", "-inf", "Infinity", "-Infinity", "nan", "NaN",
    "1e-3", "2.5E+2", "1.5e0", "-1", "-.5", "-6e-1", "-1e-1", "-2.5",
    "0.5", "1.5", "1.75", "2", "3", "-0.6",
])

_VARY_KEYS = st.sampled_from([
    "integrator.t_max", "integrator.rtol", "integrator.atol", "integrator.dt_init",
    "integrator.dt_max", "integrator.stat_tol", "integrator.record_every", "domain.measure",
    "omega.cluster_tol", "run.seed", "initial.samples", "initial.atoms.0.value",
    "initial.atoms.1.weight", "initial.atoms.-1.value",
])

_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


@st.composite
def command_lines(draw):
    """argv for one of the five subcommands, with CFG for the config path
    and OUT for an output directory, and the config text."""
    text, _ = draw(config_texts(atom_values=_NUMBERS.map(float)))
    command = draw(st.sampled_from(["simulate", "check", "predict", "rearrange", "sweep"]))
    argv = [command, "CFG"]
    if command == "predict":
        argv += ["--m0", draw(_NUMBERS), "--energy-limit", draw(_NUMBERS)]
    elif command == "sweep":
        start, stop, count = draw(_NUMBERS), draw(_NUMBERS), draw(st.integers(1, 3))
        argv += ["--vary", f"{draw(_VARY_KEYS)}={start}:{stop}:{count}"]
    elif command == "rearrange" and draw(st.booleans()):
        argv = [command, "--values", ",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=5))),
                "--out-dir", "OUT"]
        if draw(st.booleans()):
            argv += ["--domain-measure", draw(_NUMBERS)]
    return argv, text


def _run_argv(argv, text, capsys):
    """Exit code, stderr and seconds of one in-process CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text + f'output.dir = "{tmp}/out"\n')
        args = [str(cfg) if a == "CFG" else f"{tmp}/out" if a == "OUT" else a for a in argv]
        capsys.readouterr()
        start = time.perf_counter()
        try:
            rc = cli.main(args)
        except SystemExit as exc:  # argparse refusing an argument
            rc = exc.code
        elapsed = time.perf_counter() - start
        return rc, capsys.readouterr().err, elapsed


_H1 = 'model.builtin = "logistic-identity"\ninitial.atoms = "2.0:0.5, 1.5:0.5"\n'
_CUBIC = _H1.replace("logistic-identity", "logistic-cubic")
_H1_EXPR = 'model.g = "u*(1-u)"\nmodel.p = "u"\ninitial.atoms = "1e308:0.5, 1.5:0.5"\n'


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=command_lines())
# an atom near the float limit once gave a nan witness in model validation
@example(case=(["simulate", "CFG"], _H1.replace("2.0:0.5", "1e308:0.5")))
@example(case=(["check", "CFG"], _H1.replace("2.0:0.5", "9e307:0.5")))
@example(case=(["simulate", "CFG"], _H1_EXPR))
@example(case=(["sweep", "CFG", "--vary", "initial.atoms.0.value=1e308:1e308:1"], _H1))
# the predictor's bisection under logistic-cubic ending where s**4 overflows
@example(case=(["predict", "CFG", "--m0", "3", "--energy-limit", "1e308"], _CUBIC))
@example(case=(["predict", "CFG", "--m0", "1e77", "--energy-limit", "1.7e308"], _CUBIC))
# a non-positive cluster_tol once read as a failed audit, and a negative
# atom index as the last atom
@example(case=(["check", "CFG"], _H1 + "integrator.t_max = 50.0\nomega.cluster_tol = -1\n"))
@example(case=(["check", "CFG"], _H1 + "integrator.t_max = 50.0\nomega.cluster_tol = 0\n"))
@example(case=(["sweep", "CFG", "--vary", "initial.atoms.-1.value=3:3:1"], _H1))
def test_any_typed_argv_ends_cleanly(case, capsys):
    """Every subcommand ends with a documented exit code; a failure is
    one stderr line (a sweep's, one line per failed run), never a
    traceback, and names no nan that the input did not hold. Exit 1 is
    only ``check``'s audit verdict, which it prints on stdout."""
    argv, text = case
    rc, err, elapsed = _run_argv(argv, text, capsys)
    assert rc in (0, 1, 2, 3, 4), (argv, text, rc, err)
    lines = err.splitlines()
    assert "Traceback" not in err and all(line.strip() for line in lines), (argv, text, err)
    if rc == 1:
        assert argv[0] == "check" and not err, (argv, text, err)
    elif rc != 0:
        runs = [line for line in lines if line.startswith("sweep run ")]
        assert len(lines) == 1 or (argv[0] == "sweep" and runs == lines), (argv, text, err)
    if not _NAN.search("\n".join([*argv, text])):
        assert not _NAN.search(err), (argv, text, err)
    assert elapsed < TIME_BOUND_S, (argv, text, elapsed)


@pytest.mark.parametrize(
    "lines, offset",
    [
        (['model.g = "u*(1-u)"', 'model.p = "u + (1/0)^0"', 'initial.atoms = "0.5:1.0"'], 6),
        (['model.builtin = "logistic-identity"', 'initial.expr = "1 + x + tanh(1/0)"',
          "initial.samples = 4"], 14),
    ],
)
def test_absorbed_constant_fault_is_a_config_error(lines, offset, tmp_path, capsys):
    """A constant fault that its context would absorb under numpy's rules
    (p = u + 1, samples 2 + x) is refused at parse, naming its node."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + f'\nintegrator.t_max = 1.0\noutput.dir = "{tmp_path}/out"\n')
    capsys.readouterr()
    rc = cli.main(["simulate", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and f"division by zero (node at offset {offset})" in err, err
