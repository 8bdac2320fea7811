"""Time integration of the mass-conserving nonlocal dynamics on atom fields.

Each atom value follows the characteristic equation

    ds/dt = g(s) p(s) - g(s) * lam(t),

with the multiplier lam recomputed from the full field at every stage, so
the weighted rate sum vanishes stage by stage and mass drift stays at the
integrator's roundoff level. The scheme is the classic 4-stage
Runge-Kutta with step-doubling error control: no stiffness is expected
inside the invariant regions, and the method is simple to audit.

Values are never clamped and mass is never projected back: drift and
region violations are diagnostics of integrator health, and violations
beyond 1e-6 abort the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from . import field as field_mod
from .errors import (
    BallTooLargeError,
    DenominatorVanishingError,
    NumericalFailureError,
)
from .field import AtomField
from .model import HypothesisClass, NonlinearityPair, classify_hypothesis, lipschitz_bound

_REGION_ABORT_TOL = 1e-6  # hard abort beyond this
_REGION_REPORT_TOL = 1e-9  # audit threshold
_LAMBDA_BOUND_TOL = 1e-9
_ENERGY_MONOTONE_TOL = 1e-9
_DT_SAFETY_OVER_L = 0.1


class Termination(str, Enum):
    REACHED_TMAX = "ReachedTmax"
    STATIONARY = "Stationary"
    DENOMINATOR_VANISHING = "DenominatorVanishing"


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control, guards and recording cadence for one integration."""

    t_max: float = 100.0
    rtol: float = 1e-8
    atol: float = 1e-10
    dt_init: float = 1e-3
    dt_max: float = 1.0
    eps_den: float | None = None  # None: scale-aware default per state
    stat_tol: float = 1e-10
    record_every: float = 0.1
    lipschitz_cap: bool = False

    def __post_init__(self):
        for name in ("t_max", "rtol", "atol", "dt_init", "dt_max", "stat_tol", "record_every"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.dt_init > self.dt_max:
            raise ValueError("dt_init must not exceed dt_max")
        if self.eps_den is not None and not 0.0 < self.eps_den < math.inf:
            raise ValueError("eps_den must be positive and finite when given")


@dataclass(frozen=True)
class Trajectory:
    """Recorded orbit: snapshots plus multiplier, mass, energy series.

    The weight vector and the atom order are identical across snapshots;
    the termination tag DenominatorVanishing realizes the blow-up
    alternative (the g-integral reached the guard in finite time).
    """

    times: np.ndarray
    snapshots: tuple[AtomField, ...]
    lambda_series: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    dissipation_series: np.ndarray
    termination: Termination
    hypothesis: HypothesisClass
    energy_index: int
    final_max_rhs: float
    config: IntegratorConfig
    pair: NonlinearityPair

    def to_csv(self) -> str:
        """Full-precision CSV: t,lambda,mass,energy,dissipation,v1,...,vn."""
        n = len(self.snapshots[0])
        header = "t,lambda,mass,energy,dissipation," + ",".join(
            f"v{i + 1}" for i in range(n)
        )
        lines = [header]
        for k, t in enumerate(self.times.tolist()):
            row = [t, float(self.lambda_series[k]), float(self.mass_series[k]),
                   float(self.energy_series[k]), float(self.dissipation_series[k])]
            row.extend(self.snapshots[k].values.tolist())
            lines.append(",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------- rate evaluation

def _observe(values, weights, omega, pair, eps_den):
    """Rates, multiplier, dissipation integrand sum, denominator, guard state.

    The multiplier is computed unguarded (diagnostics at the terminal
    state need it); ``guard_ok`` reports whether the run may continue.
    """
    gv = np.asarray(pair.g(values), dtype=float)
    pv = np.asarray(pair.p(values), dtype=float)
    num = math.fsum((weights * gv * pv).tolist())
    den = math.fsum((weights * gv).tolist())
    if eps_den is None:
        eps = 1e-10 * omega * float(np.max(np.abs(gv)))
    else:
        eps = float(eps_den)
    guard_ok = den != 0.0 and abs(den) >= eps
    lam = num / den if den != 0.0 else math.nan
    rates = gv * pv - gv * lam
    diss_sum = math.fsum((weights * gv * (pv - lam) ** 2).tolist())
    return rates, lam, diss_sum, den, guard_ok


def _g_integral(values, weights, pair) -> float:
    gv = np.asarray(pair.g(values), dtype=float)
    return math.fsum((weights * gv).tolist())


def _rates_strict(values, weights, omega, pair, eps_den):
    rates, _, _, den, ok = _observe(values, weights, omega, pair, eps_den)
    if not ok:
        gv = np.asarray(pair.g(values), dtype=float)
        eps = (
            1e-10 * omega * float(np.max(np.abs(gv)))
            if eps_den is None
            else float(eps_den)
        )
        raise DenominatorVanishingError(den, eps)
    return rates


def _rk4_values(values, weights, omega, dt, pair, eps_den):
    def stage(v, fraction):
        try:
            return _rates_strict(v, weights, omega, pair, eps_den)
        except DenominatorVanishingError as exc:
            # let the driver know where inside the step the guard tripped
            exc.stage_values = v
            exc.stage_fraction = fraction
            raise

    k1 = stage(values, 0.0)
    k2 = stage(values + 0.5 * dt * k1, 0.5)
    k3 = stage(values + 0.5 * dt * k2, 0.5)
    k4 = stage(values + dt * k3, 1.0)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rk4(
    u: AtomField, dt: float, pair: NonlinearityPair, eps_den: float | None = None
) -> AtomField:
    """One classic Runge-Kutta step; the multiplier is recomputed per stage.

    Raises DenominatorVanishingError if the guard trips at any stage.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    new_values = _rk4_values(u.values, u.weights, u.domain_measure, dt, pair, eps_den)
    return u.with_values(new_values)


# ----------------------------------------------------------------- integrate

_REGION = {
    # hypothesis tag -> (lower bound, upper bound) as functions of (a, b)
    "H1": lambda a, b: (1.0, b),
    "H2": lambda a, b: (0.0, 1.0),
    "H3": lambda a, b: (a, 0.0),
}


def integrate(u0: AtomField, pair: NonlinearityPair, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the field until t_max, stationarity, or the guard.

    Adaptive step doubling: a full step is compared against two half
    steps; the step is halved when the error estimate exceeds
    rtol*scale + atol and grown by 1.5 when far below. Snapshots are
    recorded on the uniform grid k*record_every plus the final state.
    Stationarity (max |rate| < stat_tol on two consecutive accepted
    steps) and the denominator guard terminate the run early; both are
    recorded as termination tags, not raised.
    """
    hyp = classify_hypothesis(u0, pair)
    weights = u0.weights
    omega = u0.domain_measure
    sign = -1.0 if hyp.energy_index == 2 else 1.0

    region = None
    if hyp.tag is not None:
        lo, hi = _REGION[hyp.tag](hyp.essinf_a, hyp.esssup_b)
        region = (lo - _REGION_ABORT_TOL, hi + _REGION_ABORT_TOL)

    times: list[float] = []
    snaps: list[AtomField] = []
    lam_series: list[float] = []
    mass_series: list[float] = []
    energy_series: list[float] = []
    diss_series: list[float] = []

    def record(t: float, vals: np.ndarray, lam: float, diss_sum: float):
        snap = u0.with_values(vals)
        times.append(t)
        snaps.append(snap)
        lam_series.append(lam)
        mass_series.append(field_mod.mass(snap))
        energy_series.append(sign * field_mod.integral_of(snap, pair.antideriv_P))
        diss_series.append(sign * diss_sum)

    def finish(term: Termination, final_rates) -> Trajectory:
        final_max = float(np.max(np.abs(final_rates))) if final_rates is not None else math.inf
        return Trajectory(
            times=np.asarray(times),
            snapshots=tuple(snaps),
            lambda_series=np.asarray(lam_series),
            mass_series=np.asarray(mass_series),
            energy_series=np.asarray(energy_series),
            dissipation_series=np.asarray(diss_series),
            termination=term,
            hypothesis=hyp,
            energy_index=hyp.energy_index,
            final_max_rhs=final_max,
            config=cfg,
            pair=pair,
        )

    values = np.asarray(u0.values, dtype=float).copy()
    t = 0.0
    rates, lam, diss_sum, den, guard_ok = _observe(values, weights, omega, pair, cfg.eps_den)
    record(0.0, values, lam, diss_sum)
    if not guard_ok:
        return finish(Termination.DENOMINATOR_VANISHING, None)
    if float(np.max(np.abs(rates))) < cfg.stat_tol:
        return finish(Termination.STATIONARY, rates)

    dt = min(cfg.dt_init, cfg.dt_max)
    rec_count = 1
    stationary_streak = 0
    lip_cache: tuple[float, float] | None = None  # (cbar used, dt cap)

    def lipschitz_dt_cap(vals: np.ndarray) -> float:
        nonlocal lip_cache
        cbar_now = float(np.max(np.abs(vals)))
        if lip_cache is not None and abs(cbar_now - lip_cache[0]) <= 0.025:
            return lip_cache[1]
        snap = u0.with_values(vals)
        cap = math.inf
        for radius in (0.1, 0.01, 0.001):
            try:
                est = lipschitz_bound(snap, pair, radius)
            except BallTooLargeError:
                continue
            cap = _DT_SAFETY_OVER_L / est.L
            break
        lip_cache = (cbar_now, cap)
        return cap

    while t < cfg.t_max:
        next_rec = rec_count * cfg.record_every
        next_stop = min(next_rec, cfg.t_max)
        dt_try = min(dt, cfg.dt_max)
        if cfg.lipschitz_cap:
            dt_try = min(dt_try, lipschitz_dt_cap(values))
        hit_stop = False
        if t + dt_try >= next_stop - 1e-12 * max(1.0, next_stop):
            dt_try = next_stop - t
            hit_stop = True

        try:
            big = _rk4_values(values, weights, omega, dt_try, pair, cfg.eps_den)
            half = _rk4_values(values, weights, omega, 0.5 * dt_try, pair, cfg.eps_den)
            fine = _rk4_values(half, weights, omega, 0.5 * dt_try, pair, cfg.eps_den)
        except DenominatorVanishingError as exc:
            # refine before concluding: stage states of a large trial step
            # are poor witnesses of the obstruction
            if dt_try > 1e-3 * max(1.0, t):
                dt = 0.5 * dt_try
                continue
            if times[-1] != t:
                record(t, values, lam, diss_sum)
            sv = getattr(exc, "stage_values", None)
            if sv is not None and bool(np.all(np.isfinite(sv))):
                t_stage = t + getattr(exc, "stage_fraction", 1.0) * dt_try
                if t_stage > times[-1]:
                    _, lam_s, diss_s, _, _ = _observe(sv, weights, omega, pair, cfg.eps_den)
                    record(t_stage, np.asarray(sv, dtype=float), lam_s, diss_s)
            return finish(Termination.DENOMINATOR_VANISHING, rates)

        finite = bool(np.all(np.isfinite(fine)) and np.all(np.isfinite(big)))
        flip = False
        if finite:
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(values), np.abs(fine))
            err_ratio = float(np.max(np.abs(big - fine) / scale))
            # a sign flip of the g-integral inside the step means the step
            # straddles the continuation obstruction: refine toward it
            flip = err_ratio <= 1.0 and math.copysign(
                1.0, _g_integral(fine, weights, pair)
            ) != math.copysign(1.0, den)
        else:
            err_ratio = math.inf

        if err_ratio > 1.0 or flip:
            dt = 0.5 * dt_try
            floor = 1e-30 if flip else 1e-14 * max(1.0, t)
            if dt < floor:
                # step control collapsed; decide whether the denominator
                # obstruction (a finite-time crossing of the g-integral,
                # unreachable by explicit steps) caused it
                gmax = float(np.max(np.abs(np.asarray(pair.g(values), dtype=float))))
                if flip or abs(den) < 1e-6 * omega * gmax:
                    if times[-1] != t:
                        record(t, values, lam, diss_sum)
                    return finish(Termination.DENOMINATOR_VANISHING, rates)
                raise NumericalFailureError(
                    "step size underflow (error control cannot proceed)", t, values
                )
            continue

        t_new = next_stop if hit_stop else t + dt_try
        values = fine
        rates, lam, diss_sum, den, guard_ok = _observe(values, weights, omega, pair, cfg.eps_den)

        if not np.all(np.isfinite(values)):
            raise NumericalFailureError("non-finite atom value", t_new, values)
        if region is not None:
            vmin, vmax = float(np.min(values)), float(np.max(values))
            if vmin < region[0] or vmax > region[1]:
                raise NumericalFailureError(
                    f"invariant region violated beyond {_REGION_ABORT_TOL:g} "
                    f"(values in [{vmin!r}, {vmax!r}], region {region!r})",
                    t_new,
                    values,
                )

        recorded = False
        if hit_stop and next_stop == next_rec:
            record(t_new, values, lam, diss_sum)
            recorded = True
            rec_count += 1

        t = t_new

        if not guard_ok:
            if not recorded:
                record(t, values, lam, diss_sum)
            return finish(Termination.DENOMINATOR_VANISHING, rates)

        if float(np.max(np.abs(rates))) < cfg.stat_tol:
            stationary_streak += 1
            if stationary_streak >= 2:
                if not recorded:
                    record(t, values, lam, diss_sum)
                return finish(Termination.STATIONARY, rates)
        else:
            stationary_streak = 0

        if err_ratio < 0.1:
            dt = min(dt_try * 1.5, cfg.dt_max)
        else:
            dt = dt_try

    if times[-1] != cfg.t_max:
        record(cfg.t_max, values, lam, diss_sum)
    return finish(Termination.REACHED_TMAX, rates)


# -------------------------------------------------------- characteristic flow

def characteristic_flow(
    s0: float, companion: Trajectory, pair: NonlinearityPair
) -> np.ndarray:
    """Evolve a passive tracer value through the companion's multiplier.

    Integrates ds/dt = g(s)(p(s) - lam(t)) with lam(t) the piecewise-cubic
    interpolant of the companion's multiplier series, and returns the
    tracer value at the companion's sample times.
    """
    times = companion.times
    out = [float(s0)]
    if times.size < 2:
        return np.asarray(out)
    lam_of_t: Callable[[float], float]
    if times.size < 4:
        lam_of_t = lambda tt: float(np.interp(tt, times, companion.lambda_series))
    else:
        spline = CubicSpline(times, companion.lambda_series)
        lam_of_t = lambda tt: float(spline(tt))

    def f(tt: float, y: float) -> float:
        return float(pair.g(y)) * (float(pair.p(y)) - lam_of_t(tt))

    y = float(s0)
    for t0, t1 in zip(times[:-1], times[1:]):
        span = float(t1 - t0)
        n_sub = max(1, math.ceil(span / 0.01))
        h = span / n_sub
        tt = float(t0)
        for _ in range(n_sub):
            k1 = f(tt, y)
            k2 = f(tt + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(tt + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(tt + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tt += h
        if not math.isfinite(y):
            raise NumericalFailureError("tracer value became non-finite", tt, y)
        out.append(y)
    return np.asarray(out)


# ----------------------------------------------------------------- auditing

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""


@dataclass(frozen=True)
class TrajectoryReport:
    checks: tuple[CheckResult, ...] = dc_field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"{status:4s}  {c.name:30s} worst {c.worst:.3e}  tol {c.tol:.3e}"
            if c.detail:
                line += f"  ({c.detail})"
            out.append(line)
        return out


def verify_trajectory(
    tr: Trajectory, pair: NonlinearityPair, hyp: HypothesisClass
) -> TrajectoryReport:
    """Bundled invariant audit of a completed trajectory.

    Reports mass conservation, atom-order preservation, and the invariant
    region, multiplier bound and energy monotonicity for the hypothesis.
    Each check is one array pass over the stacked snapshot values.
    """
    checks: list[CheckResult] = []
    vals = np.stack([s.values for s in tr.snapshots])

    m0 = float(tr.mass_series[0])
    mass_tol = 1e-6 * max(abs(m0), 1e-12)
    worst_mass = float(np.max(np.abs(tr.mass_series - m0)))
    checks.append(CheckResult("mass-conservation", worst_mass <= mass_tol, worst_mass, mass_tol))

    # order preservation: atoms sharing one characteristic ODE never cross,
    # so the initially sorted atoms stay sorted (a strict gap may close to
    # an exact tie as the flow settles) and initial ties stay exact ties
    sorted_v = vals[:, np.argsort(-vals[0], kind="stable")]
    gaps = sorted_v[:, :-1] - sorted_v[:, 1:]
    tied0 = gaps[0] == 0.0
    strict, ties = gaps[:, ~tied0], gaps[:, tied0]
    worst_order = float(np.min(strict)) if strict.size else 0.0
    if np.any(ties != 0.0):
        worst_order = min(worst_order, -float(np.max(np.abs(ties))))
    checks.append(
        CheckResult(
            "order-preservation",
            worst_order >= 0.0,
            worst_order,
            0.0,
            "smallest gap of the initially sorted atoms",
        )
    )

    if hyp.tag is None:
        checks.append(CheckResult("invariant-region", True, 0.0, _REGION_REPORT_TOL, "no hypothesis"))
        checks.append(CheckResult("lambda-bound", True, 0.0, _LAMBDA_BOUND_TOL, "no hypothesis"))
        checks.append(CheckResult("energy-monotonicity", True, 0.0, _ENERGY_MONOTONE_TOL, "no hypothesis"))
    else:
        lo, hi = _REGION[hyp.tag](hyp.essinf_a, hyp.esssup_b)
        worst_region = max(0.0, float(np.max(vals)) - hi, lo - float(np.min(vals)))
        checks.append(
            CheckResult(
                "invariant-region",
                worst_region <= _REGION_REPORT_TOL,
                worst_region,
                _REGION_REPORT_TOL,
                f"region [{lo:g}, {hi:g}]",
            )
        )

        ref = {
            "H1": (1.0, hyp.esssup_b),
            "H2": (0.0, 1.0),
            "H3": (hyp.essinf_a, 0.0),
        }[hyp.tag]
        bound = max(abs(float(pair.p(ref[0]))), abs(float(pair.p(ref[1]))))
        finite = np.isfinite(tr.lambda_series)
        if not np.all(finite):
            checks.append(
                CheckResult("lambda-bound", False, math.inf, bound + _LAMBDA_BOUND_TOL,
                            "non-finite multiplier under a hypothesis")
            )
        else:
            worst_lam = float(np.max(np.abs(tr.lambda_series)))
            checks.append(
                CheckResult(
                    "lambda-bound",
                    worst_lam <= bound + _LAMBDA_BOUND_TOL,
                    worst_lam,
                    bound + _LAMBDA_BOUND_TOL,
                    f"max(|p({ref[0]:g})|, |p({ref[1]:g})|) = {bound:g}",
                )
            )

        diffs = np.diff(tr.energy_series)
        worst_up = float(np.max(diffs)) if diffs.size else 0.0
        checks.append(
            CheckResult(
                "energy-monotonicity",
                worst_up <= _ENERGY_MONOTONE_TOL,
                worst_up,
                _ENERGY_MONOTONE_TOL,
            )
        )

    return TrajectoryReport(tuple(checks))


__all__ = [
    "Termination",
    "IntegratorConfig",
    "Trajectory",
    "step_rk4",
    "integrate",
    "characteristic_flow",
    "CheckResult",
    "TrajectoryReport",
    "verify_trajectory",
]
