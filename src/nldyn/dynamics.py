"""Time integration of the mass-conserving nonlocal dynamics on atom fields.

Each atom value follows the characteristic equation

    ds/dt = g(s) p(s) - g(s) * lam(t),

with the multiplier lam recomputed from the full field at every stage, so
the weighted rate sum vanishes stage by stage and mass drift stays at the
integrator's roundoff level. The scheme is the Dormand-Prince 5(4)
embedded pair with first-same-as-last stages and its 4th-order continuous
extension, which places records on their grid without cutting steps. The
flow is at most mildly stiff near its rest states, so an explicit method
suffices once each step stays inside its stability interval. Any
Runge-Kutta method and its interpolant are linear combinations of stages,
each with a zero weighted sum, so mass is conserved at interpolated
records too.

The atoms are integrated in one canonical order (value decreasing, ties
by weight), fixed at t = 0. The sums that feed each stage are pairwise
sums in that order, so the run does not depend on how the initial field
lists its atoms; only the recorded mass, energy and dissipation, which
are outputs, are summed exactly. Records are stored in the input order.

Values are never clamped and mass is never projected back: drift and
region violations are diagnostics of integrator health, and violations
beyond 1e-6 abort the run.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from . import field as field_mod
from .errors import DenominatorVanishingError, NumericalFailureError
from .field import AtomField
from .model import HypothesisClass, NonlinearityPair, classify_hypothesis
from .model import atom_rates, dissipation_sum, g_terms, guard_threshold, multiplier
from .model import input_order, unpermute

_REGION_ABORT_TOL = 1e-6  # hard abort beyond this
_REGION_REPORT_TOL = 1e-9  # audit threshold
_LAMBDA_BOUND_TOL = 1e-9
_ENERGY_MONOTONE_TOL = 1e-9


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

    def __post_init__(self):
        for name in ("t_max", "rtol", "atol", "dt_init", "dt_max", "stat_tol", "record_every"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.dt_init > self.dt_max:
            raise ValueError("dt_init must not exceed dt_max")
        if self.eps_den is not None and not 0.0 < self.eps_den < math.inf:
            raise ValueError("eps_den must be positive and finite when given")


class SnapshotView(Sequence):
    """Read-only sequence of recorded states as AtomFields.

    Indexing, slicing and iteration build an AtomField only for the rows
    asked for; a slice is another view.
    """

    def __init__(self, values: np.ndarray, weights: np.ndarray, domain_measure: float):
        self._values = values
        self._weights = weights
        self._domain_measure = domain_measure

    def __len__(self) -> int:
        return self._values.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return SnapshotView(self._values[k], self._weights, self._domain_measure)
        return AtomField(self._values[k], self._weights, self._domain_measure)

    def __iter__(self):
        for row in self._values:
            yield AtomField(row, self._weights, self._domain_measure)


@dataclass(frozen=True)
class Trajectory:
    """Recorded orbit: atom values plus multiplier, mass, energy series.

    ``values`` is a read-only (K, n) array: row k is the state at
    ``times[k]``, over the run's fixed ``weights`` and atom order.
    ``snapshots`` shows the rows as AtomFields. The termination tag
    DenominatorVanishing realizes the blow-up alternative (the
    g-integral reached the guard in finite time).
    """

    times: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    domain_measure: float
    lambda_series: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    dissipation_series: np.ndarray
    termination: Termination
    hypothesis: HypothesisClass
    final_max_rhs: float
    config: IntegratorConfig
    pair: NonlinearityPair

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        if values.shape != (self.times.size, self.weights.size):
            raise ValueError(
                f"values of shape {values.shape} do not match {self.times.size} "
                f"records of {self.weights.size} atoms"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def snapshots(self) -> SnapshotView:
        """The records as AtomFields, built on access."""
        return SnapshotView(self.values, self.weights, self.domain_measure)

    def to_csv(self) -> str:
        """Full-precision CSV: t,lambda,mass,energy,dissipation,v1,...,vn."""
        n = self.weights.size
        lines = ["t,lambda,mass,energy,dissipation," + ",".join(f"v{i + 1}" for i in range(n))]
        row_format = ",".join(["%.17g"] * (5 + n))
        series = zip(self.times.tolist(), self.lambda_series.tolist(), self.mass_series.tolist(),
                     self.energy_series.tolist(), self.dissipation_series.tolist())
        # one row at a time: the whole table as Python floats would be
        # several times the size of the array
        for head, row in zip(series, self.values):
            lines.append(row_format % (*head, *row.tolist()))
        return "\n".join(lines) + "\n"

    @property
    def energy_index(self) -> int:
        """Lyapunov index of the run's regime."""
        return self.hypothesis.energy_index


# ------------------------------------------------------ Dormand-Prince 5(4)

# Nodes and rows of the Dormand & Prince (1980) tableau for stages 2..7.
# The last row is the 5th-order solution, so stage 7 is the rate at the
# new state and serves as the next step's stage 1 (FSAL).
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th- minus 4th-order weights of the seven stages: the local error estimate
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# 4th-order continuous extension (Shampine 1986): stage i enters the
# interpolant at step fraction theta with weight sum_j P[i, j] theta^(j+1)
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_DP_SAFETY = 0.9
_DP_MIN_FACTOR = 0.2
_DP_MAX_FACTOR = 10.0
_DP_STABLE_DT_RHO = 2.0


def _combine(coeffs, ks) -> np.ndarray:
    """sum_i coeffs[i] * ks[i], one elementwise operation at a time.

    Every atom sees the same sequence of roundings, so tied atoms stay
    bitwise tied and a permuted input gives a permuted output.
    """
    acc = None
    for c, k in zip(coeffs, ks):
        if c != 0.0:
            acc = c * k if acc is None else acc + c * k
    return acc


def _dp_attempt(t, values, k1, dt, weights, omega, pair, eps_den):
    """One Dormand-Prince attempt from (t, values) with first stage k1.

    Returns the 5th-order values, the seven stage rates (the last is the
    rate at the new values), the g-integral at the new values and an
    estimate of the Jacobian's largest eigenvalue. A guard trip raises
    DenominatorVanishingError carrying the stage state and its step
    fraction.
    """
    ks = [k1]
    v = values
    for c, row in zip(_DP_C, _DP_A):
        v6, v = v, values + dt * _combine(row, ks)
        try:
            k, den = atom_rates(t + c * dt, v, weights, omega, pair, eps_den)
        except DenominatorVanishingError as exc:
            # let the driver know where inside the step the guard tripped
            exc.stage_values = v
            exc.stage_fraction = c
            raise
        ks.append(k)
    # stages 6 and 7 share the time t + dt: their rate difference over
    # their state difference estimates the Jacobian's largest eigenvalue
    # (Hairer & Wanner, Solving ODEs II, IV.2)
    dv = float(np.max(np.abs(v - v6)))
    rho = float(np.max(np.abs(ks[6] - ks[5]))) / dv if dv > 0.0 else 0.0
    return v, ks, den, rho


def _dp_dense(values, dt, ks, thetas: list[float]) -> np.ndarray:
    """The continuous extension of an accepted step, one row per fraction.

    Row r has the stage weights _DP_P @ theta_r^(1..4) and the roundings
    of ``_combine``, so it equals the extension evaluated at theta_r
    alone, bit for bit.
    """
    # the powers for all rows at once, the products one row at a time: a
    # matrix product over all rows would round differently
    q = np.array([_DP_P @ powers for powers in np.asarray(thetas)[:, None] ** np.arange(1, 5)])
    acc = None
    for c, k in zip(q.T, ks):
        if c.any():
            term = c[:, None] * k
            acc = term if acc is None else acc + term
    return values + dt * acc


# ----------------------------------------------------------------- integrate

def integrate(u0: AtomField, pair: NonlinearityPair, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the field until t_max, stationarity, or the guard.

    Adaptive Dormand-Prince 5(4) with first-same-as-last stages: six new
    rate evaluations per step attempt. The step is accepted when the
    largest atom error estimate is within rtol*scale + atol; the next
    step size follows the usual 5th-root controller, capped so that it
    times the estimated largest eigenvalue stays well inside the
    method's stability interval. Steps are cut only at t_max. States
    are recorded on the uniform grid k*record_every, plus the final
    state: the grid times inside an accepted step form one block of rows
    of its 4th-order continuous extension (a grid time on the step's end
    takes the step's own state), checked for finiteness and the region
    at once; each row then evaluates the rate kernel once for the
    multiplier and the dissipation sum. Stationarity (max |rate| <
    stat_tol on two consecutive accepted steps) and the denominator
    guard terminate the run early; both are recorded as termination
    tags, not raised.

    The atoms are integrated in ``field.canonical_order``, fixed at t = 0,
    so the rate kernel's pairwise sums, and with them the whole run, do
    not depend on the order u0 lists its atoms in. Records and the values
    a NumericalFailureError carries come back in u0's order.
    """
    order = field_mod.canonical_order(u0.values, u0.weights)
    with input_order(order):
        return _integrate_canonical(u0, order, pair, cfg)


def _integrate_canonical(
    u0: AtomField, order: np.ndarray, pair: NonlinearityPair, cfg: IntegratorConfig
) -> Trajectory:
    """``integrate`` on u0's atoms permuted by ``order``.

    Each recorded block goes back to u0's atom order as it is stored; the
    permutation is skipped when ``order`` is the identity.
    """
    hyp = classify_hypothesis(u0, pair)
    weights = u0.weights[order]
    omega = u0.domain_measure
    permuted = not np.array_equal(order, np.arange(order.size))
    sign = hyp.energy_sign

    region = None
    if hyp.region is not None:
        lo, hi = hyp.region
        region = (lo - _REGION_ABORT_TOL, hi + _REGION_ABORT_TOL)

    times: list[float] = []
    blocks: list[np.ndarray] = []
    lam_series: list[float] = []
    mass_series: list[float] = []
    energy_series: list[float] = []
    diss_series: list[float] = []

    def check_state(t: float, vals: np.ndarray):
        if not np.all(np.isfinite(vals)):
            raise NumericalFailureError("non-finite atom value", t, vals)
        if region is not None:
            vmin, vmax = float(np.min(vals)), float(np.max(vals))
            if vmin < region[0] or vmax > region[1]:
                raise NumericalFailureError(
                    f"invariant region violated beyond {_REGION_ABORT_TOL:g} "
                    f"(values in [{vmin!r}, {vmax!r}], region {region!r})",
                    t,
                    vals,
                )

    def valid_rows(block: np.ndarray) -> int:
        """How many leading rows of block pass check_state."""
        ok = np.all(np.isfinite(block), axis=1)
        if region is not None:
            ok &= (np.min(block, axis=1) >= region[0]) & (np.max(block, axis=1) <= region[1])
        bad = np.flatnonzero(~ok)
        return int(bad[0]) if bad.size else ok.size

    def record(ts: list[float], block: np.ndarray):
        """Record the rows of block at the times ts, in time order.

        P and the mass terms are formed once on the block; the rate
        kernel and each row's exact sums run per record, in the order a
        single record would run them, so the first faulty record raises.
        """
        wp = weights * field_mod.atomwise(pair.antideriv_P, block)
        wv = weights * block
        for t, vals, wp_row, wv_row in zip(ts, block, wp, wv):
            gv, pv, lam, _ = multiplier(t, vals, weights, pair)
            energy = sign * math.fsum(wp_row.tolist())
            if not math.isfinite(energy):
                raise NumericalFailureError("non-finite energy", t, vals)
            lam_series.append(lam)
            mass_series.append(math.fsum(wv_row.tolist()))
            energy_series.append(energy)
            diss_series.append(sign * dissipation_sum(weights, gv, pv, lam))
        times.extend(ts)
        blocks.append(unpermute(block, order) if permuted else block)

    def finish(term: Termination, final_rates) -> Trajectory:
        final_max = float(np.max(np.abs(final_rates))) if final_rates is not None else math.inf
        return Trajectory(
            times=np.asarray(times),
            values=np.concatenate(blocks),
            weights=u0.weights,
            domain_measure=omega,
            lambda_series=np.asarray(lam_series),
            mass_series=np.asarray(mass_series),
            energy_series=np.asarray(energy_series),
            dissipation_series=np.asarray(diss_series),
            termination=term,
            hypothesis=hyp,
            final_max_rhs=final_max,
            config=cfg,
            pair=pair,
        )

    values = u0.values[order]
    t = 0.0
    record([0.0], values[None])
    try:
        rates, den = atom_rates(0.0, values, weights, omega, pair, cfg.eps_den)
    except DenominatorVanishingError:
        return finish(Termination.DENOMINATOR_VANISHING, None)
    if float(np.max(np.abs(rates))) < cfg.stat_tol:
        return finish(Termination.STATIONARY, rates)

    dt = min(cfg.dt_init, cfg.dt_max)
    rec_count = 1
    stationary_streak = 0
    rejected = False  # the current step has had a rejected attempt

    while t < cfg.t_max:
        dt_try = min(dt, cfg.dt_max)
        last = t + dt_try >= cfg.t_max - 1e-12 * max(1.0, cfg.t_max)
        if last:
            dt_try = cfg.t_max - t

        try:
            new, ks, den_new, rho = _dp_attempt(
                t, values, rates, dt_try, weights, omega, pair, cfg.eps_den
            )
        except NumericalFailureError:
            # a stage state left the range where g and p are finite: the
            # trial step was too long
            err_ratio = math.inf
        except DenominatorVanishingError as exc:
            # refine before concluding: stage states of a large trial step
            # are poor witnesses of the obstruction
            if dt_try > 1e-3 * max(1.0, t):
                dt = 0.5 * dt_try
                rejected = True
                continue
            if times[-1] != t:
                record([t], values[None])
            sv = exc.stage_values
            if bool(np.all(np.isfinite(sv))):
                t_stage = t + exc.stage_fraction * dt_try
                if t_stage > times[-1]:
                    record([t_stage], sv[None])
            return finish(Termination.DENOMINATOR_VANISHING, rates)
        else:
            err = dt_try * _combine(_DP_E, ks)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(values), np.abs(new))
            err_ratio = float(np.max(np.abs(err) / scale))

        if not math.isfinite(err_ratio):
            err_ratio = math.inf
        # a sign flip of the g-integral inside the step means the step
        # straddles the continuation obstruction: refine toward it
        flip = err_ratio <= 1.0 and math.copysign(1.0, den_new) != math.copysign(1.0, den)
        factor = (
            _DP_MAX_FACTOR
            if err_ratio == 0.0
            else min(_DP_MAX_FACTOR, max(_DP_MIN_FACTOR, _DP_SAFETY * err_ratio ** -0.2))
        )

        if err_ratio > 1.0 or flip:
            dt = 0.5 * dt_try if flip else factor * dt_try
            rejected = True
            floor = 1e-30 if flip else 1e-14 * max(1.0, t)
            if dt < floor:
                # step control collapsed; decide whether the denominator
                # obstruction (a finite-time crossing of the g-integral,
                # unreachable by explicit steps) caused it
                gv, _ = g_terms(values, weights, pair)
                if flip or abs(den) < guard_threshold(gv, omega, 1e-6):
                    if times[-1] != t:
                        record([t], values[None])
                    return finish(Termination.DENOMINATOR_VANISHING, rates)
                raise NumericalFailureError(
                    "step size underflow (error control cannot proceed)", t, values
                )
            continue

        t_new = cfg.t_max if last else t + dt_try
        check_state(t_new, new)
        t_recs = []
        while rec_count * cfg.record_every <= t_new:
            t_recs.append(rec_count * cfg.record_every)
            rec_count += 1
        if t_recs:
            block = _dp_dense(values, dt_try, ks, [(t_rec - t) / dt_try for t_rec in t_recs])
            if t_recs[-1] == t_new:
                block[-1] = new  # a record on the step's end is the step's state
            n_ok = valid_rows(block)
            record(t_recs[:n_ok], block[:n_ok])
            if n_ok < len(t_recs):
                check_state(t_recs[n_ok], block[n_ok])  # raises

        t, values, rates, den = t_new, new, ks[-1], den_new

        if float(np.max(np.abs(rates))) < cfg.stat_tol:
            stationary_streak += 1
            if stationary_streak >= 2:
                if times[-1] != t:
                    record([t], values[None])
                return finish(Termination.STATIONARY, rates)
        else:
            stationary_streak = 0

        dt = dt_try * (min(1.0, factor) if rejected else factor)
        if rho > 0.0:
            # keep dt * |eigenvalue| well inside the real stability interval
            # (about [-3.3, 0]); at its edge the settled state would stay
            # at tolerance-level noise and never read stationary
            dt = min(dt, _DP_STABLE_DT_RHO / rho)
        rejected = False

    if times[-1] != cfg.t_max:
        record([cfg.t_max], values[None])
    return finish(Termination.REACHED_TMAX, rates)


# -------------------------------------------------------- characteristic flow

def _lambda_slopes(tr: Trajectory, pair: NonlinearityPair) -> np.ndarray:
    """Exact d(lam)/dt at every record, from the recorded states.

    With u' = g(u)(p(u) - lam) at each atom,
    lam' = (sum w (g p)'(u) u' - lam sum w g'(u) u') / sum w g(u).
    """
    vals = tr.values
    w = tr.weights
    lam = tr.lambda_series[:, None]
    gv = np.asarray(pair.g(vals), dtype=float)
    pv = np.asarray(pair.p(vals), dtype=float)
    gp = np.asarray(pair.g_prime(vals), dtype=float)
    udot = gv * (pv - lam)
    fprime = gp * pv + gv * np.asarray(pair.p_prime(vals), dtype=float)
    return ((fprime - lam * gp) * udot) @ w / (gv @ w)


def characteristic_flow(
    s0: float, companion: Trajectory, pair: NonlinearityPair
) -> np.ndarray:
    """Evolve a passive tracer value through the companion's multiplier.

    Integrates ds/dt = g(s)(p(s) - lam(t)) with lam(t) the piecewise-cubic
    Hermite interpolant of the companion's multiplier series, whose slopes
    are exact at the records (linear interpolation below four records),
    and returns the tracer value at the companion's sample times.
    """
    times = companion.times
    out = [float(s0)]
    if times.size < 2:
        return np.asarray(out)
    lam = companion.lambda_series
    slopes = _lambda_slopes(companion, pair) if times.size >= 4 else None

    y = float(s0)
    for i in range(times.size - 1):
        t0, t1 = float(times[i]), float(times[i + 1])
        span = t1 - t0
        l0, dl = float(lam[i]), float(lam[i + 1] - lam[i])
        if slopes is None:
            c1, c2, c3 = dl, 0.0, 0.0
        else:
            m0, m1 = float(slopes[i]) * span, float(slopes[i + 1]) * span
            c1, c2, c3 = m0, 3.0 * dl - 2.0 * m0 - m1, m0 + m1 - 2.0 * dl

        def f(tt: float, yy: float) -> float:
            s = (tt - t0) / span
            lam_t = l0 + s * (c1 + s * (c2 + s * c3))
            return float(pair.g(yy)) * (float(pair.p(yy)) - lam_t)

        n_sub = max(1, math.ceil(span / 0.01))
        h = span / n_sub
        tt = t0
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
    Each check is one array pass over the recorded values.
    """
    checks: list[CheckResult] = []
    vals = tr.values

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

    if hyp.region is None:
        checks.append(CheckResult("invariant-region", True, 0.0, _REGION_REPORT_TOL, "no hypothesis"))
        checks.append(CheckResult("lambda-bound", True, 0.0, _LAMBDA_BOUND_TOL, "no hypothesis"))
        checks.append(CheckResult("energy-monotonicity", True, 0.0, _ENERGY_MONOTONE_TOL, "no hypothesis"))
    else:
        lo, hi = hyp.region
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

        bound = max(abs(float(pair.p(lo))), abs(float(pair.p(hi))))
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
                    f"max(|p({lo:g})|, |p({hi:g})|) = {bound:g}",
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
    "SnapshotView",
    "Trajectory",
    "integrate",
    "characteristic_flow",
    "CheckResult",
    "TrajectoryReport",
    "verify_trajectory",
]
