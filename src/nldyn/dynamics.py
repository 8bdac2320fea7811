"""Time integration of the mass-conserving nonlocal dynamics on atom fields.

Each atom value follows the characteristic equation

    ds/dt = g(s) p(s) - g(s) * lam(t),

with the multiplier lam recomputed from the full field at every stage, so
the weighted rate sum vanishes stage by stage and mass drift stays at the
integrator's roundoff level. The scheme is Tsitouras's 5(4) embedded
pair (Comput. Math. Appl. 62 (2011) 770-775) with first-same-as-last
stages and its 4th-order continuous extension, which places records on
their grid without cutting steps. The flow is at most mildly stiff near
its rest states, so an explicit method suffices once each step stays
inside its stability interval. Any Runge-Kutta method and its
interpolant are linear combinations of stages, each with a zero weighted
sum, so mass is conserved at interpolated records too.

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
from .model import atom_rates, multiplier
from .model import input_order, unpermute

_REGION_ABORT_TOL = 1e-6  # hard abort beyond this
_REGION_REPORT_TOL = 1e-9  # audit threshold
_LAMBDA_BOUND_TOL = 1e-9
_ENERGY_MONOTONE_TOL = 1e-9
# values per block of rows in the order-preservation audit
_ORDER_BLOCK_VALUES = 1 << 16
# values the records may hold, a record being its state and five series
# values: 7.5 times the 4.5 million of 4,435 records of 1,000 atoms
_MAX_RECORD_VALUES = 1 << 25

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
    stat_tol: float = 1e-10
    record_every: float = 0.1

    def __post_init__(self):
        for name in ("t_max", "rtol", "atol", "dt_init", "dt_max", "stat_tol", "record_every"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.dt_init > self.dt_max:
            raise ValueError("dt_init must not exceed dt_max")


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
    ``snapshots`` shows the rows as AtomFields. ``dissipated`` is the
    integral of the dissipation over [0, times[-1]]; the last record is
    the last accepted state. It is the energy rate integrated alongside
    the atoms, on their own stages and steps, so it carries the step error
    rather than the record grid's. It is no record, and no output file
    holds it. The termination tag DenominatorVanishing realizes the
    blow-up alternative (the g-integral reached the guard in finite time).
    """

    times: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    domain_measure: float
    lambda_series: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    dissipation_series: np.ndarray
    dissipated: float
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


# ------------------------------------------------------------ Tsitouras 5(4)

# Nodes and rows of the Tsitouras (2011) tableau for stages 2..7, to the
# 16 digits it is published with (the row sums meet the nodes to 1e-15).
# The last row holds the 5th-order weights, so stage 7 is the rate at the
# new state and serves as the next step's stage 1 (FSAL).
_RK_C = (0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0)
_RK_A = (
    (0.161,),
    (-0.008480655492356989, 0.335480655492357),
    (2.897153057105493, -6.359448489975075, 4.3622954328695815),
    (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525),
    (5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401,
     -0.028269050394068383),
    (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081,
     2.324710524099774),
)
# 5th- minus 4th-order weights of the seven stages: the local error estimate
_RK_E = (-0.00178001105222577714, -0.0008164344596567469, 0.007880878010261995,
         -0.1447110071732629, 0.5823571654525552, -0.45808210592918697, 0.015151515151515152)
# 4th-order continuous extension (Tsitouras 2011): stage i enters the
# interpolant at step fraction theta with weight sum_j P[i, j] theta^(j+1)
_RK_P = np.array([
    [1.0, -2.763706197274826, 2.9132554618219126, -1.0530884977290216],
    [0.0, 0.13169999999999998, -0.2234, 0.1017],
    [0.0, 3.9302962368947516, -5.941033872131505, 2.490627285651253],
    [0.0, -12.411077166933676, 30.33818863028232, -16.548102889244902],
    [0.0, 37.50931341651104, -88.1789048947664, 47.37952196281928],
    [0.0, -27.896526289197286, 65.09189467479366, -34.87065786149661],
    [0.0, 1.5, -4.0, 2.5],
])
_RK_SAFETY = 0.9
_RK_MIN_FACTOR = 0.2
_RK_MAX_FACTOR = 10.0
_RK_STABLE_DT_RHO = 2.0


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


def _rk_attempt(t, values, k1, d1, dt, weights, omega, pair):
    """One Runge-Kutta attempt from (t, values) with first stage rates k1
    and dissipation sum d1.

    Returns the 5th-order values, the seven stage rates and dissipation
    sums (the last are those at the new values), the g-integral's margin
    (``model.guarded_multiplier``) at the new values and an estimate of the
    Jacobian's largest eigenvalue. A stage that trips the guard or fails
    raises, as ``model.atom_rates`` does.
    Entries of ``values`` past the atoms are passive tracers
    (``model.atom_rates``); they stay out of the eigenvalue estimate.
    """
    ks, ds = [k1], [d1]
    v = values
    for c, row in zip(_RK_C, _RK_A):
        v6, v = v, values + dt * _combine(row, ks)
        k, margin, d = atom_rates(t + c * dt, v, weights, omega, pair)
        ks.append(k)
        ds.append(d)
    # stages 6 and 7 share the time t + dt: their rate difference over
    # their state difference estimates the Jacobian's largest eigenvalue
    # (Hairer & Wanner, Solving ODEs II, IV.2)
    n = weights.size
    dv = float(_max(np.abs(v[:n] - v6[:n])))
    rho = float(_max(np.abs(ks[6][:n] - ks[5][:n]))) / dv if dv > 0.0 else 0.0
    return v, ks, ds, margin, rho


def _rk_dense(values, dt, ks, thetas: list[float]) -> np.ndarray:
    """The continuous extension of an accepted step, one row per fraction.

    Row r has the stage weights _RK_P @ theta_r^(1..4) and the roundings
    of ``_combine``, so it equals the extension evaluated at theta_r
    alone, bit for bit.
    """
    # one matrix-vector product per row, stacked: a single matrix product
    # over all rows (powers @ _RK_P.T) would round differently
    powers = np.asarray(thetas)[:, None] ** np.arange(1, 5)
    q = np.matmul(_RK_P, powers[:, :, None])[:, :, 0]
    acc = None
    for c, k in zip(q.T, ks):
        if c.any():
            term = c[:, None] * k
            acc = term if acc is None else acc + term
    return values + dt * acc


# ----------------------------------------------------------------- integrate

def integrate(u0: AtomField, pair: NonlinearityPair, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the field until t_max, stationarity, or the guard.

    Adaptive Tsitouras 5(4) with first-same-as-last stages: six new
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
    sum. A stage that trips the guard or turns non-finite rejects its
    step attempt. Stationarity (max |rate| < stat_tol on two consecutive
    accepted steps) and the denominator guard (tripped by u0, or step
    control collapsing on a vanishing g-integral) terminate the run early;
    both are recorded as termination tags, not raised. Records that would
    hold over _MAX_RECORD_VALUES values raise NumericalFailureError.

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

    def finish(term: Termination, final_rates, t_end, state) -> tuple[Trajectory, np.ndarray]:
        """The run, closed by its last accepted state (t_end, state), which
        the gate has passed and where the dissipation integral stops; it is
        recorded when it comes after the last record."""
        if t_end > times[-1]:
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
            dissipated=sign * dissipated,
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
        rates, margin, diss = atom_rates(t, values, weights, omega, pair)
    except DenominatorVanishingError:
        return finish(Termination.DENOMINATOR_VANISHING, None, t, values)
    if float(_max(np.abs(rates[:n]))) < cfg.stat_tol:
        return finish(Termination.STATIONARY, rates, t, values)

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
            new, ks, ds, margin_new, rho = _rk_attempt(
                t, values, rates, diss, dt_try, weights, omega, pair
            )
        except (NumericalFailureError, DenominatorVanishingError):
            # a stage left the range where g and p are finite or tripped the
            # guard: the trial step was too long (Hairer, Norsett & Wanner,
            # Solving ODEs I, II.4)
            err_ratio = math.inf
        else:
            err = dt_try * _combine(_RK_E, ks)[:n]
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(values[:n]), np.abs(new[:n]))
            err_ratio = float(_max(np.abs(err) / scale))

        if not math.isfinite(err_ratio):
            err_ratio = math.inf
        # a sign flip of the g-integral inside the step means the step
        # straddles the continuation obstruction: refine toward it
        flip = err_ratio <= 1.0 and math.copysign(1.0, margin_new) != math.copysign(1.0, margin)
        factor = (
            _RK_MAX_FACTOR
            if err_ratio == 0.0
            else min(_RK_MAX_FACTOR, max(_RK_MIN_FACTOR, _RK_SAFETY * err_ratio ** -0.2))
        )

        if err_ratio > 1.0 or flip:
            dt = 0.5 * dt_try if flip else factor * dt_try
            rejected = True
            floor = 1e-30 if flip else 1e-14 * max(1.0, t)
            if dt < floor:
                # step control collapsed; decide whether the denominator
                # obstruction (a finite-time crossing of the g-integral,
                # unreachable by explicit steps) caused it
                if flip or abs(margin) < 1e-6:
                    return finish(Termination.DENOMINATOR_VANISHING, rates, t, values)
                raise NumericalFailureError(
                    "step size underflow (error control cannot proceed)", t, values
                )
            continue

        t_new = cfg.t_max if last else t + dt_try
        if not admitted(new[None]):
            raise refusal(t_new, new)
        # count the step's grid times before listing them: a grid much
        # finer than the step would list without bound
        rows = len(times) + t_new / cfg.record_every - rec_count + 2
        if rows * (values.size + 5) > _MAX_RECORD_VALUES:
            raise NumericalFailureError(
                f"record grid too fine: record_every {cfg.record_every!r} makes about "
                f"{rows:.3g} records of {values.size + 5} values, over {_MAX_RECORD_VALUES} in all",
                t, values[:n])
        t_recs = []
        while rec_count * cfg.record_every <= t_new:
            t_recs.append(rec_count * cfg.record_every)
            rec_count += 1
        if t_recs:
            block = _rk_dense(values, dt_try, ks, [(t_rec - t) / dt_try for t_rec in t_recs])
            if t_recs[-1] == t_new:
                block[-1] = new  # a record on the step's end is the step's state
            keep(t_recs, block)

        dissipated += dt_try * _combine(_RK_A[-1], ds)
        t, values, rates, diss, margin = t_new, new, ks[-1], ds[-1], margin_new

        if float(_max(np.abs(rates[:n]))) < cfg.stat_tol:
            stationary_streak += 1
            if stationary_streak >= 2:
                return finish(Termination.STATIONARY, rates, t, values)
        else:
            stationary_streak = 0

        dt = dt_try * (min(1.0, factor) if rejected else factor)
        if rho > 0.0:
            # keep dt * |eigenvalue| well inside the real stability interval
            # (about [-3.5, 0]); at its edge the settled state would stay
            # at tolerance-level noise and never read stationary
            dt = min(dt, _RK_STABLE_DT_RHO / rho)
        rejected = False

    return finish(Termination.REACHED_TMAX, rates, t, values)


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
    # an exact tie as the flow settles) and initial ties stay exact ties.
    # The gaps are taken over blocks of rows, never over a copy of the run
    order = np.argsort(-vals[0], kind="stable")
    upper, lower = order[:-1], order[1:]
    tied0 = vals[0, upper] - vals[0, lower] == 0.0
    su, sl, tu, tl = upper[~tied0], lower[~tied0], upper[tied0], lower[tied0]
    rows = max(1, _ORDER_BLOCK_VALUES // vals.shape[1])
    strict_mins, tie_maxes = [], []
    for k in range(0, vals.shape[0], rows):
        block = vals[k:k + rows]
        if su.size:
            strict_mins.append(np.min(block[:, su] - block[:, sl]))
        if tu.size:
            tie_maxes.append(np.max(np.abs(block[:, tu] - block[:, tl])))
    worst_order = float(np.min(strict_mins)) if strict_mins else 0.0
    worst_tie = float(np.max(tie_maxes)) if tie_maxes else 0.0
    if worst_tie != 0.0:
        # np.minimum keeps a NaN of either margin, so a NaN anywhere fails
        worst_order = float(np.minimum(worst_order, -worst_tie))
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
