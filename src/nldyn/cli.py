"""Command-line front end: config ingestion, run orchestration, file outputs.

Config files are flat ``section.key = value`` text: one assignment per
line, ``#`` comment lines, quoted strings for expressions. Unknown or
ill-typed keys reject the whole config (strict parsing). See README for
the full grammar and the list of keys.

Subcommands: simulate, rearrange, predict, check, sweep. Exit codes:
0 success, 1 failed audit, 2 config error, 3 numerical failure or any
other library error, 4 prediction infeasible, 141 stdout closed by the
reader.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import dynamics, energy, exprparse, field as field_mod, model, omega
from .errors import (
    ConfigError,
    FieldError,
    InfeasibleMeasureError,
    NldynError,
    NoRootError,
    NotConvergedError,
    NumericalFailureError,
)

# config key -> (RunConfig field, value type, default); the integrator.*
# keys are IntegratorConfig's fields, with its defaults
_KEYS: dict[str, tuple[str, type, object]] = {
    "model.builtin": ("model_builtin", str, None),
    "model.g": ("model_g", str, None),
    "model.p": ("model_p", str, None),
    "domain.measure": ("domain_measure", float, 1.0),
    "initial.atoms": ("initial_atoms", str, None),
    "initial.expr": ("initial_expr", str, None),
    "initial.samples": ("initial_samples", int, None),
    **{
        f"integrator.{f.name}": (f.name, float, f.default)
        for f in fields(dynamics.IntegratorConfig)
    },
    "omega.cluster_tol": ("cluster_tol", float, 1e-4),
    "output.dir": ("output_dir", str, "."),
    "output.base": ("output_base", str, "run"),
    "run.seed": ("seed", int, 0),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description (see _KEYS for keys and defaults)."""

    model_builtin: str | None
    model_g: str | None
    model_p: str | None
    domain_measure: float
    initial_atoms: tuple[tuple[float, float], ...] | None
    initial_expr: str | None
    initial_samples: int | None
    t_max: float
    rtol: float
    atol: float
    dt_init: float
    dt_max: float
    eps_den: float | None
    stat_tol: float
    record_every: float
    cluster_tol: float
    output_dir: str
    output_base: str
    seed: int

    def integrator_config(self) -> dynamics.IntegratorConfig:
        try:
            return dynamics.IntegratorConfig(
                **{f.name: getattr(self, f.name) for f in fields(dynamics.IntegratorConfig)}
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def build_initial(self) -> field_mod.AtomField:
        if (self.initial_atoms is None) == (self.initial_expr is None):
            raise ConfigError(
                "exactly one of initial.atoms and initial.expr must be given"
            )
        if self.initial_atoms is not None:
            values = [v for v, _ in self.initial_atoms]
            weights = [w for _, w in self.initial_atoms]
            try:
                return field_mod.AtomField(values, weights, self.domain_measure)
            except NldynError as exc:
                raise ConfigError(f"initial.atoms: {exc}") from None
        if self.initial_samples is None or self.initial_samples < 1:
            raise ConfigError("initial.expr needs initial.samples >= 1")
        try:
            ast = exprparse.parse(self.initial_expr, var="x")
        except NldynError as exc:
            raise ConfigError(f"initial.expr: {exc}") from None
        fn = exprparse.to_callable(ast, var="x")
        n = self.initial_samples
        xs = (np.arange(n) + 0.5) * (self.domain_measure / n)
        values = np.asarray(fn(xs), dtype=float)
        if not np.all(np.isfinite(values)):
            raise ConfigError("initial.expr produced non-finite samples")
        return field_mod.from_samples(values.tolist(), self.domain_measure)

    def build_pair(self, u0: field_mod.AtomField) -> model.NonlinearityPair:
        has_builtin = self.model_builtin is not None
        has_expr = self.model_g is not None or self.model_p is not None
        if has_builtin == has_expr:
            raise ConfigError(
                "exactly one of model.builtin and (model.g, model.p) must be given"
            )
        s_range = max(2.0, float(np.max(np.abs(u0.values))) + 1.0)
        try:
            if has_builtin:
                pair = model.builtin_model(self.model_builtin)
                if s_range > 2.0:
                    model.validate_pair(pair, (-s_range, s_range))
                return pair
            if self.model_g is None or self.model_p is None:
                raise ConfigError("both model.g and model.p are required")
            return exprparse.build_model(
                self.model_g, self.model_p, (-s_range, s_range)
            )
        except NldynError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"model: {exc}") from None


def _parse_atoms(text: str) -> tuple[tuple[float, float], ...]:
    atoms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"initial.atoms entries must be value:weight, got {chunk!r}"
            )
        try:
            atoms.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"initial.atoms: bad number in {chunk!r}") from None
    if not atoms:
        raise ConfigError("initial.atoms is empty")
    return tuple(atoms)


def _typed(raw: str, typ: type, key: str):
    raw = raw.strip()
    if typ is str:
        if len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
            raise ConfigError(f"key {key!r} needs a quoted string value, got {raw!r}")
        return raw[1:-1]
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} needs a {typ.__name__} value, got {raw!r}") from None
    # an int is always finite, and math.isfinite overflows on one past 1e308
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r} needs a finite value, got {raw!r}")
    return value


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key = value grammar; unknown keys are rejected."""
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = _typed(raw, _KEYS[key][1], key)

    values = {name: seen.get(key, default) for key, (name, _, default) in _KEYS.items()}
    if values["initial_atoms"] is not None:
        values["initial_atoms"] = _parse_atoms(values["initial_atoms"])
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def apply_override(cfg: RunConfig, key: str, value: float) -> RunConfig:
    """Numeric override for sweeps; atom entries via initial.atoms.<i>.<field>."""
    entry = _KEYS.get(key)
    if entry is not None and entry[1] is not str:
        name, cast, _ = entry
        return replace(cfg, **{name: cast(value)})
    parts = key.split(".")
    if (
        len(parts) == 4
        and parts[0] == "initial"
        and parts[1] == "atoms"
        and parts[3] in ("value", "weight")
    ):
        if cfg.initial_atoms is None:
            raise ConfigError(f"cannot vary {key!r}: config has no initial.atoms")
        try:
            idx = int(parts[2])
            atom = cfg.initial_atoms[idx]
        except (ValueError, IndexError):
            raise ConfigError(f"bad atom index in {key!r}") from None
        new_atom = (float(value), atom[1]) if parts[3] == "value" else (atom[0], float(value))
        atoms = list(cfg.initial_atoms)
        atoms[idx] = new_atom
        return replace(cfg, initial_atoms=tuple(atoms))
    raise ConfigError(f"key {key!r} is not a numeric run-config key")


# ------------------------------------------------------------------ outputs

def _out_path(cfg: RunConfig, suffix: str) -> Path:
    directory = Path(cfg.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{cfg.output_base}{suffix}"


def _write_staircase(path: Path, profile: field_mod.StepProfile, title: str):
    header = f"# {title}\n# columns: y value\n"
    path.write_text(header + field_mod.staircase_lines(profile))


def _distribution_table(u: field_mod.AtomField) -> str:
    """Staircase of the distribution function s -> measure of {w > s}.

    The rearranged profile already carries the jump structure: the
    measure strictly above plateau value i is breakpoint i, and the
    left limit at that value is breakpoint i + 1.
    """
    profile = field_mod.rearrange(u)
    lines = ["# columns: s measure_above_s"]
    for i, v in enumerate(profile.plateau_values.tolist()):
        lines.append(f"{v:.17g} {profile.breakpoints[i]:.17g}")
        lines.append(f"{v:.17g} {profile.breakpoints[i + 1]:.17g}")
    return "\n".join(lines) + "\n"


def _summary_lines(
    tr: dynamics.Trajectory, report: dynamics.TrajectoryReport
) -> list[str]:
    drift = float(np.max(np.abs(tr.mass_series - tr.mass_series[0])))
    lines = [
        f"termination = {tr.termination.value}",
        f"hypothesis = {tr.hypothesis.tag}",
        f"energy_index = {tr.hypothesis.energy_index}",
        f"t_final = {tr.times[-1]:.17g}",
        f"mass_initial = {tr.mass_series[0]:.17g}",
        f"mass_drift = {drift:.17g}",
        f"final_energy = {tr.energy_series[-1]:.17g}",
        f"final_max_rhs = {tr.final_max_rhs:.17g}",
    ]
    try:
        elim = energy.energy_limit(tr)
        lines.append(f"energy_limit = {elim.value:.17g}")
        lines.append(f"energy_limit_error_bar = {elim.error_bar:.17g}")
    except NotConvergedError:
        lines.append("energy_limit = not-converged")
    lines.append("")
    lines.append("invariant audit:")
    lines.extend("  " + s for s in report.lines())
    return lines


# ----------------------------------------------------------------- commands

def cmd_simulate(config_path: str) -> int:
    cfg = load_config(config_path)
    u0 = cfg.build_initial()
    pair = cfg.build_pair(u0)
    icfg = cfg.integrator_config()
    try:
        tr = dynamics.integrate(u0, pair, icfg)
    except NumericalFailureError as exc:
        diag = _out_path(cfg, ".failure.txt")
        diag.write_text(
            f"numerical failure: {exc}\n"
            f"t = {exc.t!r}\nvalues = {np.asarray(exc.values).tolist()!r}\n"
        )
        print(f"numerical failure; diagnostics at {diag}", file=sys.stderr)
        return 3
    report = dynamics.verify_trajectory(tr)
    with _out_path(cfg, ".trajectory.csv").open("w") as fh:
        tr.to_csv(fh)
    _write_staircase(
        _out_path(cfg, ".profile.dat"),
        field_mod.rearrange(tr.snapshots[-1]),
        "final decreasing rearrangement",
    )
    _out_path(cfg, ".summary.txt").write_text("\n".join(_summary_lines(tr, report)) + "\n")
    print(f"termination {tr.termination.value} at t = {tr.times[-1]:g}")
    return 0


def cmd_rearrange(
    config_path: str | None,
    inline_values: str | None = None,
    inline_measure: float = 1.0,
    out_dir: str = ".",
    out_base: str = "rearrange",
) -> int:
    if config_path is not None:
        cfg = load_config(config_path)
        u = cfg.build_initial()
    else:
        if not inline_values:
            raise ConfigError("rearrange needs a config or --values")
        try:
            samples = [float(v) for v in inline_values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"bad --values list: {inline_values!r}") from None
        if not samples:
            raise ConfigError("empty --values list")
        try:
            u = field_mod.from_samples(samples, inline_measure)
        except FieldError as exc:
            raise ConfigError(f"--values/--domain-measure: {exc}") from None
        cfg = None
    base_cfg = cfg if cfg is not None else replace(
        parse_config_text(""), output_dir=out_dir, output_base=out_base
    )
    profile = field_mod.rearrange(u)
    _write_staircase(
        _out_path(base_cfg, ".staircase.dat"), profile, "decreasing rearrangement"
    )
    _out_path(base_cfg, ".distribution.dat").write_text(_distribution_table(u))
    print(f"wrote staircase with {len(profile.plateau_values)} plateaus")
    return 0


def _predictor(tag: str | None):
    """The analytic limit predictor for a hypothesis tag, or None.

    Looked up at call time, so that a wrapped ``omega.predict_h1`` or
    ``predict_h3`` sees every call.
    """
    return {"H1": omega.predict_h1, "H3": omega.predict_h3}.get(tag)


def cmd_predict(
    config_path: str,
    m0: float,
    energy_limit_value: float,
    hypothesis: str | None = None,
) -> int:
    cfg = load_config(config_path)
    # working range for model validation comes from the initial data when present
    try:
        u0 = cfg.build_initial()
    except ConfigError:
        u0 = field_mod.AtomField([0.5], [cfg.domain_measure], cfg.domain_measure)
    pair = cfg.build_pair(u0)
    omega_measure = cfg.domain_measure

    tag = hypothesis.upper() if hypothesis else None
    if tag == "H2":
        print("the analytic H2 predictor is not implemented yet", file=sys.stderr)
        return 2
    if tag is None:
        if m0 > omega_measure:
            tag = "H1"
        elif m0 < 0.0:
            tag = "H3"
        else:
            print(
                f"cannot infer hypothesis from m0 = {m0!r} "
                f"(needs m0 > |Omega| for H1 or m0 < 0 for H3)",
                file=sys.stderr,
            )
            return 2
    predict = _predictor(tag)
    if predict is None:
        print(f"unknown hypothesis {hypothesis!r}", file=sys.stderr)
        return 2
    try:
        pred = predict(m0, energy_limit_value, omega_measure, pair)
    except (NoRootError, InfeasibleMeasureError) as exc:
        print(f"prediction infeasible: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"bad predictor input: {exc}", file=sys.stderr)
        return 2

    print(pred.to_summary(), end="")
    _write_staircase(_out_path(cfg, ".predicted.dat"), pred.to_profile(), "predicted limit profile")
    return 0


def cmd_check(config_path: str) -> int:
    cfg = load_config(config_path)
    # the region, multiplier-bound and energy-monotonicity rows see only the
    # recorded states: record at least every 0.01 time units
    cfg = replace(cfg, record_every=min(cfg.record_every, 0.01))
    u0 = cfg.build_initial()
    pair = cfg.build_pair(u0)
    icfg = cfg.integrator_config()
    try:
        tr = dynamics.integrate(u0, pair, icfg)
    except NumericalFailureError as exc:
        print(f"numerical failure during audit run: {exc}", file=sys.stderr)
        return 3

    checks = list(dynamics.verify_trajectory(tr).checks)

    def add(*row):
        checks.append(dynamics.CheckResult(*row))

    # integrated dissipation identity, up to the last accepted step, with the
    # dissipation integrated alongside the atoms
    if tr.hypothesis.tag is None:
        add("dissipation-identity", True, 0.0, 0.0, "skipped: no hypothesis")
    else:
        t_end, integral = tr.dissipated
        drop = float(tr.energy_series[np.searchsorted(tr.times, t_end)] - tr.energy_series[0])
        tol = 1e-6 * max(abs(tr.energy_series[0]), 1e-12)
        add("dissipation-identity", abs(drop - integral) <= tol, abs(drop - integral), tol)

    # rearrangement isometry on random snapshot pairs; the stdlib generator
    # takes any integer seed and spares the numpy.random import
    rng = random.Random(cfg.seed)
    n = tr.times.size
    worst_iso = 0.0
    if n >= 2:
        for _ in range(20):
            i, j = rng.randrange(n), rng.randrange(n)
            si, sj = tr.snapshots[i], tr.snapshots[j]
            d1 = field_mod.l1_distance(si, sj)
            d2 = field_mod.profile_l1_distance(field_mod.rearrange(si), field_mod.rearrange(sj))
            worst_iso = max(worst_iso, abs(d1 - d2))
    add("rearrangement-isometry", worst_iso <= 1e-12, worst_iso, 1e-12)

    # commutation: integrate runs every listing of a field in one canonical
    # order, so the run from u0* is this run read in u0's decreasing order.
    # At 10 records, compare u*(t), the atoms laid out in u0's decreasing
    # order, with (u(t))*, the same atoms sorted by value: they lie exactly
    # 0 apart unless atoms crossed
    order = np.argsort(-u0.values, kind="stable")
    idx = sorted(set(np.linspace(0, tr.times.size - 1, 10).astype(int).tolist()))
    worst_comm = 0.0
    for i in idx:
        snap = tr.snapshots[i]
        by_value = np.argsort(-snap.values, kind="stable")
        worst_comm = max(worst_comm, field_mod.layout_l1_distance(snap, order, by_value))
    add("rearrangement-commutation-flow", worst_comm <= 1e-12, worst_comm, 1e-12)

    # predictor consistency (H1/H3 only)
    tag = tr.hypothesis.tag
    predict = _predictor(tag)
    if predict is not None:
        try:
            elim = energy.energy_limit(tr)
            emp = omega.extract_limit(tr, cfg.cluster_tol)
            m0 = float(tr.mass_series[0])
            pred = predict(m0, elim.value, u0.domain_measure, pair)
            checks.append(omega.consistency_check(pred, emp, tol=1e-3))
            checks.append(omega.residual_check(pred, m0, elim.value, pair))
        except NotConvergedError:
            add("predictor-consistency", True, 0.0, 1e-3, "skipped: run not stationary")
        except (NoRootError, InfeasibleMeasureError) as exc:
            add("predictor-consistency", False, math.inf, 1e-3, str(exc))
    else:
        add("predictor-consistency", True, 0.0, 1e-3, f"skipped: hypothesis {tag}")

    report = dynamics.TrajectoryReport(tuple(checks))
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


def _sweep_one(cfg: RunConfig, key: str, value: float, index: int):
    run_cfg = apply_override(cfg, key, value)
    run_cfg = replace(run_cfg, output_base=f"{cfg.output_base}-{index:03d}")
    u0 = run_cfg.build_initial()
    pair = run_cfg.build_pair(u0)
    tr = dynamics.integrate(u0, pair, run_cfg.integrator_config())
    with _out_path(run_cfg, ".trajectory.csv").open("w") as fh:
        tr.to_csv(fh)

    mu = a1 = elim_v = None
    try:
        elim = energy.energy_limit(tr)
        elim_v = elim.value
        predict = _predictor(tr.hypothesis.tag)
        if predict is not None:
            pred = predict(float(tr.mass_series[0]), elim.value, u0.domain_measure, pair)
        else:
            pred = omega.extract_limit(tr, run_cfg.cluster_tol)
        mu, a1 = pred.plateau_values[0], pred.plateau_measures[0]
    except NldynError:
        pass
    return value, mu, a1, elim_v, tr.termination.value


def cmd_sweep(config_path: str, vary: str) -> int:
    cfg = load_config(config_path)
    if "=" not in vary:
        raise ConfigError(f"--vary needs key=start:stop:count, got {vary!r}")
    key, _, grid_text = vary.partition("=")
    key = key.strip()
    parts = grid_text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--vary needs key=start:stop:count, got {vary!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"bad sweep grid {grid_text!r}") from None
    if count < 1:
        raise ConfigError("sweep count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep grid bounds must be finite, got {grid_text!r}")
    apply_override(cfg, key, start)  # validates the key before any run

    grid = [start] if count == 1 else np.linspace(start, stop, count).tolist()
    results = []
    for i, v in enumerate(grid):
        try:
            results.append(_sweep_one(cfg, key, v, i))
        except Exception as exc:  # recorded per run, not fatal to the sweep
            print(f"sweep run {i} ({key} = {v:.17g}) failed: {exc}", file=sys.stderr)
            results.append((v, None, None, None, f"error:{type(exc).__name__}"))

    lines = ["parameter,mu_or_xi,a1,energy_limit,termination"]
    ok = 0
    for value, mu, a1, elim_v, term in results:
        cells = [f"{value:.17g}"]
        for x in (mu, a1, elim_v):
            cells.append("" if x is None else f"{x:.17g}")
        cells.append(term)
        lines.append(",".join(cells))
        if not term.startswith("error:"):
            ok += 1
    _out_path(cfg, ".sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"{ok}/{len(grid)} runs succeeded; index at "
          f"{_out_path(cfg, '.sweep.csv')}")
    return 0 if ok >= 1 else 3


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nldyn",
        description="simulate and analyze the mass-conserving nonlocal dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a config and write outputs")
    p.add_argument("config")

    p = sub.add_parser("rearrange", help="decreasing rearrangement of a field")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--values", help="inline comma-separated samples")
    p.add_argument("--domain-measure", type=float, default=1.0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--base", default="rearrange")

    p = sub.add_parser("predict", help="analytic limit profile from m0 and energy limit")
    p.add_argument("config")
    p.add_argument("--m0", type=float, required=True)
    p.add_argument("--energy-limit", type=float, required=True)
    p.add_argument("--hypothesis", choices=["h1", "h2", "h3"], default=None)

    p = sub.add_parser("check", help="full invariant audit of a config")
    p.add_argument("config")

    p = sub.add_parser("sweep", help="parameter sweep over a numeric config key")
    p.add_argument("config")
    p.add_argument("--vary", required=True, metavar="key=start:stop:count")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # overflow and NaN are checked where they matter and reported as one
        # line below; numpy's own floating-point warnings would only add noise
        with np.errstate(all="ignore"):
            code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `nldyn check run.cfg | head -1`):
        # point the fd at devnull so the interpreter's final flush cannot
        # raise, and exit with the shell's SIGPIPE status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(args: argparse.Namespace) -> int:
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "rearrange":
            return cmd_rearrange(
                args.config,
                inline_values=args.values,
                inline_measure=args.domain_measure,
                out_dir=args.out_dir,
                out_base=args.base,
            )
        if args.command == "predict":
            return cmd_predict(
                args.config, args.m0, args.energy_limit, args.hypothesis
            )
        if args.command == "check":
            return cmd_check(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.vary)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NldynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
