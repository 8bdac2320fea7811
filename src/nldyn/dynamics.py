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

Values are never clamped into the region and mass is never projected
back: drift and region violations are diagnostics of integrator health,
and violations beyond 1e-6 abort the run. The one projection is onto
the atom order: the exact flow keeps the atoms in order (they share one
characteristic equation), but an explicit step rounds each atom on its
own, so atoms that settle on one plateau can cross by an ulp. Each state
the run keeps is therefore projected onto the ordered cone, which leaves
an ordered state, exact ties included, bit for bit as it is.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import TextIO

import numpy as np

from . import field as field_mod
from .errors import DenominatorVanishingError, NumericalFailureError
from .field import AtomField
from .model import HypothesisClass, NonlinearityPair, classify_hypothesis
from .model import atom_rates, guard_threshold, multiplier
from .model import input_order, unpermute

_REGION_ABORT_TOL = 1e-6  # hard abort beyond this
_REGION_REPORT_TOL = 1e-9  # audit threshold
_LAMBDA_BOUND_TOL = 1e-9
_ENERGY_MONOTONE_TOL = 1e-9

# the step loop's reductions, as the rate kernel takes them (model.py)
_all = np.logical_and.reduce
_max = np.maximum.reduce
_min = np.minimum.reduce
_cummin = np.minimum.accumulate


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


@dataclass(frozen=True)
class Trajectory:
    """Recorded orbit: atom values plus multiplier, mass, energy series.

    ``values`` is a read-only (K, n) array: row k is the state at
    ``times[k]``, over the run's fixed ``weights`` and atom order.
    ``snapshots`` shows the rows as AtomFields. ``dissipated`` is
    (t, integral of the dissipation over [0, t]) for t the last accepted
    step's time: the energy rate integrated alongside the atoms, on their
    own stages and steps, so it carries the step error rather than the
    record grid's. It is no record, and no output file holds it. The
    termination tag DenominatorVanishing realizes the blow-up alternative
    (the g-integral reached the guard in finite time).
    """

    times: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    domain_measure: float
    lambda_series: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    dissipation_series: np.ndarray
    dissipated: tuple[float, float]
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

    def to_csv(self, file: TextIO) -> None:
        """Write the full-precision CSV t,lambda,mass,energy,dissipation,v1,...,vn
        to an open text file.

        One row at a time: the whole table as text or as Python floats
        would be several times the size of the array.
        """
        n = self.weights.size
        header = ["t", "lambda", "mass", "energy", "dissipation"] + [f"v{i + 1}" for i in range(n)]
        file.write(",".join(header) + "\n")
        row_format = ",".join(["%.17g"] * (5 + n)) + "\n"
        series = zip(self.times.tolist(), self.lambda_series.tolist(), self.mass_series.tolist(),
                     self.energy_series.tolist(), self.dissipation_series.tolist())
        for head, row in zip(series, self.values):
            file.write(row_format % (*head, *row.tolist()))


# ------------------------------------------------------ Dormand-Prince 5(4)

# Nodes and rows of the Dormand & Prince (1980) tableau for stages 2..7.
# The last row holds the 5th-order weights, so stage 7 is the rate at the
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


def _dp_attempt(t, values, k1, d1, dt, weights, omega, pair, eps_den):
    """One Dormand-Prince attempt from (t, values) with first stage rates k1
    and dissipation sum d1.

    Returns the 5th-order values, the seven stage rates and dissipation
    sums (the last are those at the new values), the g-integral at the new
    values and an estimate of the Jacobian's largest eigenvalue. A guard
    trip raises DenominatorVanishingError carrying the stage state and its
    step fraction. Entries of ``values`` past the atoms are passive tracers
    (``model.atom_rates``); they stay out of the eigenvalue estimate.
    """
    ks, ds = [k1], [d1]
    v = values
    for c, row in zip(_DP_C, _DP_A):
        v6, v = v, values + dt * _combine(row, ks)
        try:
            k, den, d = atom_rates(t + c * dt, v, weights, omega, pair, eps_den)
        except DenominatorVanishingError as exc:
            # let the driver know where inside the step the guard tripped
            exc.stage_values = v
            exc.stage_fraction = c
            raise
        ks.append(k)
        ds.append(d)
    # stages 6 and 7 share the time t + dt: their rate difference over
    # their state difference estimates the Jacobian's largest eigenvalue
    # (Hairer & Wanner, Solving ODEs II, IV.2)
    n = weights.size
    dv = float(_max(np.abs(v[:n] - v6[:n])))
    rho = float(_max(np.abs(ks[6][:n] - ks[5][:n]))) / dv if dv > 0.0 else 0.0
    return v, ks, ds, den, rho


def _dp_dense(values, dt, ks, thetas: list[float]) -> np.ndarray:
    """The continuous extension of an accepted step, one row per fraction.

    Row r has the stage weights _DP_P @ theta_r^(1..4) and the roundings
    of ``_combine``, so it equals the extension evaluated at theta_r
    alone, bit for bit.
    """
    # one matrix-vector product per row, stacked: a single matrix product
    # over all rows (powers @ _DP_P.T) would round differently
    powers = np.asarray(thetas)[:, None] ** np.arange(1, 5)
    q = np.matmul(_DP_P, powers[:, :, None])[:, :, 0]
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
    takes the step's own state). Every state the run keeps, accepted
    or recorded, passes one gate: its atoms must be finite and inside
    the hypothesis's region, and are then projected onto their order.
    The dissipation is integrated alongside the atoms, with each step's
    5th-order weights (``Trajectory.dissipated``). Each record row
    evaluates the rate kernel once for the multiplier and the dissipation
    sum. Stationarity (max |rate| < stat_tol on two consecutive accepted
    steps) and the denominator guard terminate the run early; both are
    recorded as termination tags, not raised.

    The atoms are integrated in ``field.canonical_order``, fixed at t = 0,
    so the rate kernel's pairwise sums, and with them the whole run, do
    not depend on the order u0 lists its atoms in. Records and the values
    a NumericalFailureError carries come back in u0's order.
    """
    order = field_mod.canonical_order(u0.values, u0.weights)
    with input_order(order):
        return _integrate_canonical(u0, order, pair, cfg)[0]


def _integrate_canonical(
    u0: AtomField, order: np.ndarray, pair: NonlinearityPair, cfg: IntegratorConfig, tracers=()
) -> tuple[Trajectory, np.ndarray]:
    """``integrate`` on u0's atoms permuted by ``order``, and the tracers' records.

    Each recorded block goes back to u0's atom order as it is stored; the
    permutation is skipped when ``order`` is the identity. The tracers,
    atoms of weight zero (``model.atom_rates``), follow the atoms in the
    state through every stage, step and record, but stay out of all that
    decides the run, so the trajectory is the same with or without them.
    They stay out of the order projection too: a tracer started on an
    atom's value equals that atom bit for bit only while the projection
    leaves the atoms as they are.
    """
    hyp = classify_hypothesis(u0, pair)
    weights = u0.weights[order]
    omega = u0.domain_measure
    n = order.size
    permuted = not np.array_equal(order, np.arange(n))
    # tracers keep their place when a block goes back to the input order
    state_order = np.append(order, np.arange(n, n + len(tracers)))
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

    def admitted(block: np.ndarray) -> int:
        """How many leading states (rows) of block pass the gate.

        The gate is the one test every state the run keeps passes, as its
        current state or as a record: finite atoms, inside the region of
        the hypothesis widened by _REGION_ABORT_TOL. The atoms of the
        states it passes are projected in place onto the ordered cone: in
        canonical order, by their running minimum.
        """
        atoms = block[:, :n]
        ok = _all(np.isfinite(atoms), axis=1)
        if region is not None:
            ok &= (_min(atoms, axis=1) >= region[0]) & (_max(atoms, axis=1) <= region[1])
        bad = np.flatnonzero(~ok)
        k = int(bad[0]) if bad.size else ok.size
        kept = block[:k]
        kept[:, :n] = _cummin(kept[:, :n], axis=1)
        return k

    def refusal(t: float, vals: np.ndarray) -> NumericalFailureError:
        """The failure of the state vals at time t, which the gate refused."""
        vals = vals[:n]
        if not _all(np.isfinite(vals)):
            return NumericalFailureError("non-finite atom value", t, vals)
        vmin, vmax = float(_min(vals)), float(_max(vals))
        return NumericalFailureError(
            f"invariant region violated beyond {_REGION_ABORT_TOL:g} "
            f"(values in [{vmin!r}, {vmax!r}], region {region!r})",
            t,
            vals,
        )

    def record(ts: list[float], block: np.ndarray):
        """Record the rows of block at the times ts, in time order.

        Each row calls the rate kernel once and checks its energy, in
        record order, so the first faulty record raises. The terms of
        every exact sum are formed once on the block, elementwise with a
        single record's roundings (``model.dissipation_sum`` for the
        dissipation), and summed row by row.
        """
        atoms = block[:, :n]
        wp = (weights * field_mod.atomwise(pair.antideriv_P, atoms)).tolist()
        gs, ps, lams, energies = [], [], [], []
        for t, vals, wp_row in zip(ts, atoms, wp):
            gv, pv, lam, _ = multiplier(t, vals, weights, pair)
            energy = sign * math.fsum(wp_row)
            if not math.isfinite(energy):
                raise NumericalFailureError("non-finite energy", t, vals)
            gs.append(gv)
            ps.append(pv)
            lams.append(lam)
            energies.append(energy)
        diss = weights * np.array(gs) * (np.array(ps) - np.array(lams)[:, None]) ** 2
        lam_series.extend(lams)
        mass_series.extend(math.fsum(row) for row in (weights * atoms).tolist())
        energy_series.extend(energies)
        diss_series.extend(sign * math.fsum(row) for row in diss.tolist())
        times.extend(ts)
        blocks.append(unpermute(block, state_order) if permuted else block)

    def keep(ts: list[float], block: np.ndarray):
        """Record the states of block at the times ts, up to the first the
        gate refuses, which raises with its own time and values."""
        k = admitted(block)
        if k:
            record(ts[:k], block[:k])
        if k < len(ts):
            raise refusal(ts[k], block[k])

    def finish(term: Termination, final_rates, *ends) -> tuple[Trajectory, np.ndarray]:
        """The run, closed by the (t, state) pairs of ends that pass the gate
        and come after the last record; the first end is the last accepted
        state, where the dissipation integral stops."""
        for t_end, state in ends:
            if t_end > times[-1] and admitted(state[None]):
                record([t_end], state[None])
        final_max = float(_max(np.abs(final_rates[:n]))) if final_rates is not None else math.inf
        states = np.concatenate(blocks)
        return Trajectory(
            times=np.asarray(times),
            values=states[:, :n],
            weights=u0.weights,
            domain_measure=omega,
            lambda_series=np.asarray(lam_series),
            mass_series=np.asarray(mass_series),
            energy_series=np.asarray(energy_series),
            dissipation_series=np.asarray(diss_series),
            dissipated=(ends[0][0], sign * dissipated),
            termination=term,
            hypothesis=hyp,
            final_max_rhs=final_max,
            config=cfg,
            pair=pair,
        ), states[:, n:]

    values = np.append(u0.values[order], tracers)
    t = 0.0
    dissipated = 0.0  # the unsigned dissipation integral up to t
    keep([t], values[None])
    try:
        rates, den, diss = atom_rates(t, values, weights, omega, pair, cfg.eps_den)
    except DenominatorVanishingError:
        return finish(Termination.DENOMINATOR_VANISHING, None, (t, values))
    if float(_max(np.abs(rates[:n]))) < cfg.stat_tol:
        return finish(Termination.STATIONARY, rates, (t, values))

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
            new, ks, ds, den_new, rho = _dp_attempt(
                t, values, rates, diss, dt_try, weights, omega, pair, cfg.eps_den
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
            t_stage = t + exc.stage_fraction * dt_try
            return finish(Termination.DENOMINATOR_VANISHING, rates,
                          (t, values), (t_stage, exc.stage_values))
        else:
            err = dt_try * _combine(_DP_E, ks)[:n]
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(values[:n]), np.abs(new[:n]))
            err_ratio = float(_max(np.abs(err) / scale))

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
                if flip or abs(den) < guard_threshold(pair.g(values[:n]), omega, 1e-6):
                    return finish(Termination.DENOMINATOR_VANISHING, rates, (t, values))
                raise NumericalFailureError(
                    "step size underflow (error control cannot proceed)", t, values
                )
            continue

        t_new = cfg.t_max if last else t + dt_try
        if not admitted(new[None]):
            raise refusal(t_new, new)
        t_recs = []
        while rec_count * cfg.record_every <= t_new:
            t_recs.append(rec_count * cfg.record_every)
            rec_count += 1
        if t_recs:
            block = _dp_dense(values, dt_try, ks, [(t_rec - t) / dt_try for t_rec in t_recs])
            if t_recs[-1] == t_new:
                block[-1] = new  # a record on the step's end is the step's state
            keep(t_recs, block)

        dissipated += dt_try * _combine(_DP_A[-1], ds)
        t, values, rates, diss, den = t_new, new, ks[-1], ds[-1], den_new

        if float(_max(np.abs(rates[:n]))) < cfg.stat_tol:
            stationary_streak += 1
            if stationary_streak >= 2:
                return finish(Termination.STATIONARY, rates, (t, values))
        else:
            stationary_streak = 0

        dt = dt_try * (min(1.0, factor) if rejected else factor)
        if rho > 0.0:
            # keep dt * |eigenvalue| well inside the real stability interval
            # (about [-3.3, 0]); at its edge the settled state would stay
            # at tolerance-level noise and never read stationary
            dt = min(dt, _DP_STABLE_DT_RHO / rho)
        rejected = False

    return finish(Termination.REACHED_TMAX, rates, (t, values))


# -------------------------------------------------------- characteristic flow

def characteristic_flow(s0, run: Trajectory) -> np.ndarray:
    """s0 carried by ds/dt = g(s)(p(s) - lam(t)), at each of the run's records.

    A start on an atom's initial value is that atom's recorded series.
    Any other start is carried as a passive tracer, an atom of weight zero
    on the atoms' own steps, through a re-run of the run's initial field
    under its pair and config: at 0 or 1 it stays there, and elsewhere its
    error follows the atoms' steps. A 1-D array of starts gives a
    (starts, records) array whose row i equals the call on start i alone,
    bit for bit; a scalar start gives its 1-D series.
    Raises ValueError when a start is not finite or lies outside
    [min(ess inf u0, 0), max(ess sup u0, 1)], where the exact flow keeps
    it between atoms or the roots of g, and when the re-run does not
    reproduce the run bit for bit (a trajectory not made by
    ``integrate``); NumericalFailureError when a tracer turns non-finite.
    """
    starts = np.asarray(s0, dtype=float)
    if starts.ndim > 1:
        raise ValueError(f"tracer starts must be a scalar or a 1-D array, got shape {starts.shape}")
    flat = starts.reshape(-1).tolist()
    u0 = run.snapshots[0]
    lo = min(float(np.min(u0.values)), 0.0)
    hi = max(float(np.max(u0.values)), 1.0)
    for start in flat:
        if not lo <= start <= hi:
            raise ValueError(f"tracer start {start!r} outside [{lo!r}, {hi!r}]")
    atom_of = {v: j for j, v in enumerate(u0.values.tolist())}
    others = [v for v in flat if v not in atom_of]
    order = field_mod.canonical_order(u0.values, u0.weights)
    # a tracer that overflows is reported below; the atoms repeat a run that
    # has already completed
    with input_order(order), np.errstate(over="ignore", invalid="ignore"):
        rerun, tracers = _integrate_canonical(u0, order, run.pair, run.config, others)
    for got, want in ((rerun.times, run.times), (rerun.values, run.values)):
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            raise ValueError("the run does not reproduce under its pair and config")
    s = np.empty((len(flat), run.times.size))
    carried = iter(tracers.T)
    for i, start in enumerate(flat):
        s[i] = run.values[:, atom_of[start]] if start in atom_of else next(carried)
    bad = np.flatnonzero(~_all(np.isfinite(s), axis=0))
    if bad.size:
        k = int(bad[0])
        at_k = s[:, k] if starts.ndim else s[0, k]
        raise NumericalFailureError("tracer value became non-finite", float(run.times[k]), at_k)
    return s if starts.ndim else s[0]


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


def verify_trajectory(tr: Trajectory) -> TrajectoryReport:
    """Bundled invariant audit of a completed trajectory.

    Reports mass conservation, atom-order preservation, and the invariant
    region, multiplier bound and energy monotonicity for the run's
    hypothesis under its pair. Each check is one array pass over the
    recorded values.
    """
    checks: list[CheckResult] = []
    vals = tr.values
    hyp = tr.hypothesis

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

        bound = max(abs(float(tr.pair.p(lo))), abs(float(tr.pair.p(hi))))
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
