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
"""

import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

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
    "integrator.eps_den": (1e-14, 1.0),
    "integrator.stat_tol": (1e-12, 1e-2),
    "integrator.record_every": (1e-2, 10.0),
}

_FAULTS = (
    "model", "atom value", "atom weight", "measure", "expr", "samples",
    "extra line", *_INTEGRATOR, "integrator.lipschitz_cap",
)


@st.composite
def config_texts(draw):
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
            expr = draw(st.sampled_from(["1/x", "x^", "log(-x)", "exp(1000*x)", ""]))
        if fault == "samples":
            samples = draw(st.sampled_from(["0", "-2", "1.5", "many"]))
        lines.append(f'initial.expr = "{expr}"')
        lines.append(f"initial.samples = {samples}")
    else:
        values = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
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
    if fault == "integrator.lipschitz_cap":
        lines.append("integrator.lipschitz_cap = yes")
    if fault == "extra line":
        bad = draw(st.sampled_from(["integrator.t_max = 1.0", "no equals sign", "run.seeds = 1"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(text=config_texts())
def test_any_config_text_ends_cleanly(text, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text + f'output.dir = "{tmp}/out"\n')
        capsys.readouterr()
        start = time.perf_counter()
        rc = cli.main(["simulate", str(cfg)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
    assert rc in (0, 2, 3), text
    if rc != 0:
        assert err.count("\n") == 1 and err.strip(), (text, err)
    assert elapsed < TIME_BOUND_S, (text, elapsed)
