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
from .model import atom_rates, multiplier, unpermute

_REGION_ABORT_TOL = 1e-6  # hard abort beyond this
_REGION_REPORT_TOL = 1e-9  # audit threshold
_LAMBDA_BOUND_TOL = 1e-9
_ENERGY_MONOTONE_TOL = 1e-9
# values per block of rows in the order-preservation audit
_ORDER_BLOCK_VALUES = 1 << 16
# values the records may hold, a record being its state and five series
# values: 7.5 times the 4.5 million of 4,435 records of 1,000 atoms
_MAX_RECORD_VALUES = 1 << 25
# grid times listed and recorded at once, so a step's records are held as
# arrays however fine the grid
_RECORD_CHUNK = 1024

# the step loop's reductions, as the rate kernel takes them (model.py)
_all = np.logical_and.reduce
_max = np.maximum.reduce
_min = np.minimum.reduce
_cummin = np.minimum.accumulate
_sum_rows = np.add.reduce  # over the rows of an array: one add per row, in order


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
    holds it. ``steps`` is a read-only (S, 10) array, one row per accepted
    step: its start t, size dt and end time, and the multiplier at each of
    its seven stages (``characteristic_flow`` replays them). The
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
    dissipated: float
    steps: np.ndarray
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
        for name, a in (("values", values), ("steps", np.asarray(self.steps, dtype=float).view())):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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
# the rows of _RK_A and _RK_E as columns, to weight the rows of a stage array
_RK_A_COLS = tuple(np.array(row)[:, None] for row in _RK_A)
_RK_E_COL = np.array(_RK_E)[:, None]


def _rk_attempt(t, values, k1, d1, lam1, dt, weights, omega, pair):
    """One Runge-Kutta attempt from (t, values) with first stage rates k1,
    dissipation sum d1 and multiplier lam1.

    Returns the 5th-order values, the seven stage rates as the rows of a
    (7, n) array and the seven stage dissipation sums as a (7, 1) column
    (the last rows are those at the new values), the seven stage
    multipliers as a list, the g-integral's margin
    (``model.atom_rates``) at the new values and an estimate of the
    Jacobian's largest eigenvalue. A stage that trips the guard or fails
    raises, as ``model.atom_rates`` does.

    Every sum over stages (here, in the caller and in ``_rk_dense``) adds
    weighted stage rows in stage order, so every atom sees the same
    roundings: ties stay bitwise tied, a permuted input gives a permuted step.
    """
    K, D, lams = np.empty((7, values.size)), np.empty((7, 1)), [lam1]
    K[0], D[0] = k1, d1
    v = values
    for i, (c, a) in enumerate(zip(_RK_C, _RK_A_COLS), 1):
        v6, v = v, values + dt * _sum_rows(a * K[:i])
        K[i], margin, D[i], lam = atom_rates(t + c * dt, v, weights, omega, pair)
        lams.append(lam)
    # stages 6 and 7 share the time t + dt: their rate difference over
    # their state difference estimates the Jacobian's largest eigenvalue
    # (Hairer & Wanner, Solving ODEs II, IV.2)
    dv = float(_max(np.abs(v - v6)))
    rho = float(_max(np.abs(K[6] - K[5]))) / dv if dv > 0.0 else 0.0
    return v, K, D, lams, margin, rho


def _rk_dense(values, dt, K, thetas: list[float]) -> np.ndarray:
    """The continuous extension of an accepted step, one row per fraction.

    Row r has the stage weights _RK_P @ theta_r^(1..4) times the rows of
    the stage rates K, added in stage order, so it equals the extension
    evaluated at theta_r alone, bit for bit. The terms are formed one
    stage at a time: all seven at once would take seven times the block.
    A stage weighted 0 on every row (the last at theta = 0.6) is left out:
    its terms could turn a -0 sum into +0, or a tracer's inf rate into nan.
    """
    # one matrix-vector product per row, stacked: a single matrix product
    # over all rows (powers @ _RK_P.T) would round differently
    powers = np.asarray(thetas)[:, None] ** np.arange(1, 5)
    q = np.matmul(_RK_P, powers[:, :, None])[:, :, 0]
    acc = None
    for c, k in zip(q.T, K):
        if c.any():
            term = c[:, None] * k
            acc = term if acc is None else acc + term
    return values + dt * acc


def _step_records(k: int, every: float, t, dt, t_new, values, new, K):
    """The records of the step dt from (t, values) to (t_new, new) with stage
    rates K at the grid times k * every, (k + 1) * every, ... up to t_new, as
    blocks of rows of its continuous extension; a time on t_new takes new."""
    while k * every <= t_new:
        ts = []
        while k * every <= t_new and len(ts) < _RECORD_CHUNK:
            ts.append(k * every)
            k += 1
        block = _rk_dense(values, dt, K, [(t_rec - t) / dt for t_rec in ts])
        if ts[-1] == t_new:
            block[-1] = new
        yield ts, block


# ----------------------------------------------------------------- integrate

def integrate(u0: AtomField, pair: NonlinearityPair, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the field until t_max, stationarity, or the guard.

    Adaptive Tsitouras 5(4) with first-same-as-last stages: six new
    rate evaluations per step attempt, the rows of one stage array
    (``_rk_attempt``). The step is accepted when the largest atom error
    estimate is within rtol*scale + atol; the next step size follows the
    usual 5th-root controller, capped so that it times the estimated
    largest eigenvalue stays well inside the method's stability
    interval. Steps are cut only at t_max. States are recorded on the
    uniform grid k*record_every, plus the final state: the grid times
    inside an accepted step form blocks of rows of its 4th-order
    continuous extension (a grid time on the step's end takes the step's
    own state). Every state the run keeps, accepted or recorded, passes
    one gate: its atoms must be finite and inside the hypothesis's
    region, and are then projected onto their order. The dissipation is
    integrated alongside the atoms, each step adding its 5th-order
    weights times its stage dissipation sums (``Trajectory.dissipated``).
    Each record row evaluates the rate kernel once for the multiplier and
    the dissipation sum. A stage that trips the guard or turns non-finite
    rejects its step attempt. Stationarity (max |rate| < stat_tol on two
    consecutive accepted steps) and the denominator guard (tripped by u0,
    or step control collapsing on a vanishing g-integral) end the run
    early; both are recorded as termination tags, not raised. Records
    that would hold over _MAX_RECORD_VALUES values raise NumericalFailureError.

    The atoms are integrated in ``field.canonical_order``, fixed at t = 0,
    so the rate kernel's pairwise sums, and with them the whole run, do
    not depend on the order u0 lists its atoms in. Records and the values
    a NumericalFailureError carries come back in u0's order.
    """
    order = field_mod.canonical_order(u0.values, u0.weights)
    try:
        return _integrate_canonical(u0, order, pair, cfg)
    except NumericalFailureError as exc:
        exc.values = unpermute(exc.values, order)
        raise


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
    n = order.size
    permuted = not np.array_equal(order, np.arange(n))
    sign = hyp.energy_sign

    region = None
    if hyp.region is not None:
        lo, hi = hyp.region
        region = (lo - _REGION_ABORT_TOL, hi + _REGION_ABORT_TOL)

    times: list[np.ndarray] = []
    blocks: list[np.ndarray] = []
    lam_series: list[np.ndarray] = []
    mass_series: list[np.ndarray] = []
    energy_series: list[np.ndarray] = []
    diss_series: list[np.ndarray] = []
    steps: list[list[float]] = []
    recorded = 0

    def admitted(block: np.ndarray) -> int:
        """How many leading states (rows) of block pass the gate.

        The gate is the one test every state the run keeps passes, as its
        current state or as a record: finite atoms, inside the region of
        the hypothesis widened by _REGION_ABORT_TOL. The states it passes
        are projected in place onto the ordered cone: in canonical order,
        by their running minimum.
        """
        ok = _all(np.isfinite(block), axis=1)
        if region is not None:
            ok &= (_min(block, axis=1) >= region[0]) & (_max(block, axis=1) <= region[1])
        bad = np.flatnonzero(~ok)
        k = int(bad[0]) if bad.size else ok.size
        block[:k] = _cummin(block[:k], axis=1)
        return k

    def refusal(t: float, vals: np.ndarray) -> NumericalFailureError:
        """The failure of the state vals at time t, which the gate refused."""
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
        nonlocal recorded
        wp = (weights * pair.antideriv_P(block)).tolist()
        gs, ps, lams, energies = [], [], [], []
        for t, vals, wp_row in zip(ts, block, wp):
            gv, pv, lam, _ = multiplier(t, vals, weights, pair)
            energy = sign * math.fsum(wp_row)
            if not math.isfinite(energy):
                raise NumericalFailureError("non-finite energy", t, vals)
            gs.append(gv)
            ps.append(pv)
            lams.append(lam)
            energies.append(energy)
        lams = np.array(lams)
        diss = weights * np.array(gs) * (np.array(ps) - lams[:, None]) ** 2
        times.append(np.array(ts))
        lam_series.append(lams)
        mass_series.append(np.array([math.fsum(row) for row in (weights * block).tolist()]))
        energy_series.append(np.array(energies))
        diss_series.append(np.array([sign * math.fsum(row) for row in diss.tolist()]))
        blocks.append(unpermute(block, order) if permuted else block)
        recorded += len(ts)

    def keep(ts: list[float], block: np.ndarray):
        """Record the states of block at the times ts, up to the first the
        gate refuses, which raises with its own time and values."""
        k = admitted(block)
        if k:
            record(ts[:k], block[:k])
        if k < len(ts):
            raise refusal(ts[k], block[k])

    def finish(term: Termination, final_rates, t_end, state) -> Trajectory:
        """The run, closed by its last accepted state (t_end, state), which
        the gate has passed and where the dissipation integral stops; it is
        recorded when it comes after the last record."""
        if t_end > times[-1][-1]:
            record([t_end], state[None])
        final_max = float(_max(np.abs(final_rates))) if final_rates is not None else math.inf
        return Trajectory(
            times=np.concatenate(times),
            values=np.concatenate(blocks),
            weights=u0.weights,
            domain_measure=omega,
            lambda_series=np.concatenate(lam_series),
            mass_series=np.concatenate(mass_series),
            energy_series=np.concatenate(energy_series),
            dissipation_series=np.concatenate(diss_series),
            dissipated=sign * dissipated,
            steps=np.array(steps).reshape(-1, 10),
            termination=term,
            hypothesis=hyp,
            final_max_rhs=final_max,
            config=cfg,
            pair=pair,
        )

    values = u0.values[order]
    t = 0.0
    dissipated = 0.0  # the unsigned dissipation integral up to t
    keep([t], values[None])
    try:
        rates, margin, diss, lam = atom_rates(t, values, weights, omega, pair)
    except DenominatorVanishingError:
        return finish(Termination.DENOMINATOR_VANISHING, None, t, values)
    if float(_max(np.abs(rates))) < cfg.stat_tol:
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
            new, K, D, lams, margin_new, rho = _rk_attempt(
                t, values, rates, diss, lam, dt_try, weights, omega, pair
            )
        except (NumericalFailureError, DenominatorVanishingError):
            # a stage left the range where g and p are finite or tripped the
            # guard: the trial step was too long (Hairer, Norsett & Wanner,
            # Solving ODEs I, II.4)
            err_ratio = math.inf
        else:
            err = dt_try * _sum_rows(_RK_E_COL * K)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(values), np.abs(new))
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
        rows = recorded + t_new / cfg.record_every - rec_count + 2
        if rows * (n + 5) > _MAX_RECORD_VALUES:
            raise NumericalFailureError(
                f"record grid too fine: record_every {cfg.record_every!r} makes about "
                f"{rows:.3g} records of {n + 5} values, over {_MAX_RECORD_VALUES} in all",
                t, values)
        for t_recs, block in _step_records(rec_count, cfg.record_every, t, dt_try, t_new,
                                           values, new, K):
            rec_count += len(t_recs)
            keep(t_recs, block)

        steps.append([t, dt_try, t_new, *lams])
        dissipated += dt_try * float(_sum_rows(_RK_A_COLS[-1] * D[:6])[0])
        t, values, rates, diss, lam, margin = t_new, new, K[6], D[6], lams[6], margin_new

        if float(_max(np.abs(rates))) < cfg.stat_tol:
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

def _replay(starts: np.ndarray, run: Trajectory) -> np.ndarray:
    """The starts carried as atoms of weight zero on the run's steps, with
    the atoms' arithmetic and stage multipliers: one row per record, one
    column per start. Raises ValueError unless the steps reach the records."""
    pair = run.pair
    times, rows = [0.0], [starts[None]]
    t_end, state, rec_count = 0.0, starts, 1
    for t, dt, t_new, *lams in run.steps.tolist():
        K = np.empty((7, state.size))
        v = state
        for i, lam in enumerate(lams):
            if i:
                v = state + dt * _sum_rows(_RK_A_COLS[i - 1] * K[:i])
            K[i] = pair.g(v) * (pair.p(v) - lam)
        for t_recs, block in _step_records(rec_count, run.config.record_every, t, dt, t_new,
                                           state, v, K):
            rec_count += len(t_recs)
            times += t_recs
            rows.append(block)
        t_end, state = t_new, v
    if t_end > times[-1]:
        times.append(t_end)
        rows.append(state[None])
    if times != run.times.tolist():
        raise ValueError("the run's steps do not reach its records")
    return np.concatenate(rows)


def characteristic_flow(s0, run: Trajectory) -> np.ndarray:
    """s0 carried by ds/dt = g(s)(p(s) - lam(t)), at each of the run's records.

    A start on an atom's initial value is that atom's recorded series.
    Any other start is carried on the run's own steps (``Trajectory.steps``)
    as an atom of weight zero, with the atoms' arithmetic and stage
    multipliers; nothing is integrated again. At 0 or 1 it stays there,
    and elsewhere its error follows the atoms' steps. A 1-D array of starts gives a
    (starts, records) array whose row i equals the call on start i alone,
    bit for bit; a scalar start gives its 1-D series.
    Raises ValueError when a start is not finite or lies outside
    [min(ess inf u0, 0), max(ess sup u0, 1)], where the exact flow keeps
    it between atoms or the roots of g, and when the run's steps do not
    reach its records (a trajectory not made by ``integrate``);
    NumericalFailureError when a tracer turns non-finite.
    """
    starts = np.asarray(s0, dtype=float)
    if starts.ndim > 1:
        raise ValueError(f"tracer starts must be a scalar or a 1-D array, got shape {starts.shape}")
    flat = starts.reshape(-1).tolist()
    v0 = run.values[0]
    lo = min(float(np.min(v0)), 0.0)
    hi = max(float(np.max(v0)), 1.0)
    for start in flat:
        if not lo <= start <= hi:
            raise ValueError(f"tracer start {start!r} outside [{lo!r}, {hi!r}]")
    atom_of = {v: j for j, v in enumerate(v0.tolist())}
    # a tracer that overflows is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.ascontiguousarray(_replay(np.array(flat), run).T)
    for i, start in enumerate(flat):
        if start in atom_of:
            s[i] = run.values[:, atom_of[start]]
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
