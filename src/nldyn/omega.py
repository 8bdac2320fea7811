"""Limit-profile prediction and extraction for the long-time dynamics.

Under H1 the orbit converges to mu * chi_A + 1 off A; the plateau value
mu is the unique root of the strictly increasing scalar function

    G(s) = (P(s) - P(1)) / (s - 1)

at the right-hand side (E_limit - P(1)|Omega|) / (m0 - |Omega|), after
which the plateau measure follows from mass conservation. Under H3 the
same construction runs with reference point 0. Under H2 the constraint
system is underdetermined (three unknowns, two equations), so only
empirical extraction from a settled trajectory is offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import field as field_mod
from .dynamics import Trajectory
from .energy import energy_limit
from .errors import (
    ComparisonError,
    InfeasibleMeasureError,
    NoRootError,
    PredictionResidualError,
)
from .field import StepProfile
from .model import NonlinearityPair
from .quad import adaptive_simpson

_RESIDUAL_TOL = 1e-10
_BRACKET_LIMIT = 1e6
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class OmegaPrediction:
    """Predicted or extracted limit step function.

    ``plateau_values[0]`` is the main plateau (mu under H1, xi under H3);
    the background plateau (value 1 or 0) follows when it has positive
    measure. Empirical H2 results list plateaus in decreasing value
    order. Residuals measure how well the plateaus reproduce the mass
    and energy constraints.
    """

    hypothesis: str | None
    plateau_values: tuple[float, ...]
    plateau_measures: tuple[float, ...]
    mass_residual: float
    energy_residual: float
    source: str  # "Analytic" or "Empirical"
    domain_measure: float
    shape_deviation: float | None = None

    def to_profile(self) -> StepProfile:
        """Decreasing staircase of the prediction on (0, |Omega|)."""
        f = field_mod.AtomField(
            np.asarray(self.plateau_values),
            np.asarray(self.plateau_measures),
            self.domain_measure,
        )
        return field_mod.rearrange(f)

    def to_summary(self) -> str:
        lines = [
            f"hypothesis = {self.hypothesis}",
            f"source = {self.source}",
            f"domain_measure = {self.domain_measure:.17g}",
            f"plateau_count = {len(self.plateau_values)}",
        ]
        for k, (v, m) in enumerate(zip(self.plateau_values, self.plateau_measures), 1):
            lines.append(f"plateau_{k}_value = {v:.17g}")
            lines.append(f"plateau_{k}_measure = {m:.17g}")
        lines.append(f"mass_residual = {self.mass_residual:.17g}")
        lines.append(f"energy_residual = {self.energy_residual:.17g}")
        if self.shape_deviation is not None:
            lines.append(f"shape_deviation = {self.shape_deviation:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GFunction:
    """Difference quotient of the antiderivative around a reference root of g.

    Strictly increasing wherever p is strictly increasing; evaluated as
    the integral mean of p between the reference point and s, which is
    the same quantity but immune to cancellation for quadrature-backed
    antiderivatives.
    """

    reference_point: float
    evaluator: Callable[[float], float]

    def __call__(self, s: float) -> float:
        return self.evaluator(float(s))


def gfunction(pair: NonlinearityPair, reference_point: float) -> GFunction:
    ref = float(reference_point)
    if pair.closed_form_P:
        p_ref = float(pair.antideriv_P(ref))

        def evaluator(s: float) -> float:
            return (float(pair.antideriv_P(s)) - p_ref) / (s - ref)

    else:

        def evaluator(s: float) -> float:
            return adaptive_simpson(lambda t: float(pair.p(t)), ref, s) / (s - ref)

    return GFunction(reference_point=ref, evaluator=evaluator)


@dataclass(frozen=True)
class GMonotonicityReport:
    ok: bool
    n: int
    span: tuple[float, float]
    worst_step: float  # smallest increment between consecutive samples
    worst_at: float
    crosscheck_error: float

    def __bool__(self) -> bool:
        return self.ok


def sample_g_monotone(
    pair: NonlinearityPair,
    reference_point: float,
    far_end: float,
    n: int = 10_000,
) -> GMonotonicityReport:
    """Audit strict monotonicity of G on the half-open span (ref, far_end].

    Quadrature-backed antiderivatives are sampled cumulatively (one
    short integral per grid segment, absolute tolerance 1e-9 each) and
    cross-checked against the pair's own antiderivative at a few
    moderate points. The audit resolves G increments down to ~1e-7;
    violations of a strictly increasing p show up orders of magnitude
    above that.
    """
    ref = float(reference_point)
    far = float(far_end)
    if far == ref:
        raise ValueError("far_end must differ from the reference point")
    k = np.arange(1, n + 1, dtype=float)
    grid = ref + (far - ref) * k / n  # excludes ref, includes far_end

    crosscheck = 0.0
    if pair.closed_form_P:
        p_ref = float(pair.antideriv_P(ref))
        p_rel = np.asarray(pair.antideriv_P(grid), dtype=float) - p_ref
    else:
        p_fn = lambda t: float(pair.p(t))
        seg_tol = 1e-9
        p_rel = np.empty(n)
        acc = adaptive_simpson(p_fn, ref, float(grid[0]), abs_tol=seg_tol)
        p_rel[0] = acc
        for i in range(1, n):
            acc += adaptive_simpson(
                p_fn, float(grid[i - 1]), float(grid[i]), abs_tol=seg_tol
            )
            p_rel[i] = acc
        # tie the cumulative path to the pair's own antiderivative
        p_ref_direct = float(pair.antideriv_P(ref))
        moderate = np.nonzero(np.abs(grid) <= 50.0)[0]
        for idx in moderate[:: max(1, moderate.size // 8)][:8]:
            direct = float(pair.antideriv_P(float(grid[idx]))) - p_ref_direct
            crosscheck = max(crosscheck, abs(direct - p_rel[idx]))

    g_vals = p_rel / (grid - ref)
    order = np.argsort(grid)
    g_sorted = g_vals[order]
    steps = np.diff(g_sorted)
    if steps.size == 0:
        return GMonotonicityReport(True, n, (float(grid.min()), float(grid.max())), math.inf, ref, crosscheck)
    worst_idx = int(np.argmin(steps))
    return GMonotonicityReport(
        ok=bool(np.all(steps > 0.0)) and bool(np.all(np.isfinite(g_sorted))),
        n=n,
        span=(float(np.min(grid)), float(np.max(grid))),
        worst_step=float(steps[worst_idx]),
        worst_at=float(grid[order][worst_idx]),
        crosscheck_error=crosscheck,
    )


# ------------------------------------------------------------------ roots

def _bisect_increasing(h: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of increasing h with h(lo) < 0 < h(hi), to bracket exhaustion."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        hm = h(mid)
        if hm == 0.0:
            return mid
        if hm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _check_residuals(mass_res: float, energy_res: float) -> None:
    if max(abs(mass_res), abs(energy_res)) > _RESIDUAL_TOL:
        raise PredictionResidualError(
            f"constraint residuals exceed {_RESIDUAL_TOL:g}: "
            f"mass {mass_res:.3e}, energy {energy_res:.3e}"
        )


def predict_h1(
    m0: float,
    E1_inf: float,
    omega_measure: float,
    pair: NonlinearityPair,
) -> OmegaPrediction:
    """Analytic H1 limit profile from mass and energy limit.

    Solves G(mu) = (E1_inf - P(1)|Omega|) / (m0 - |Omega|) by bisection
    on an expanding bracket above 1, then reads the plateau measure off
    mass conservation: a1 = (m0 - |Omega|) / (mu - 1).
    """
    omega = float(omega_measure)
    m0 = float(m0)
    if not m0 > omega:
        raise ValueError(
            f"H1 prediction needs m0 > |Omega| (got m0 = {m0!r}, |Omega| = {omega!r})"
        )
    if not math.isfinite(E1_inf):
        raise ValueError("energy limit must be finite")
    p1 = float(pair.antideriv_P(1.0))
    target = (E1_inf - p1 * omega) / (m0 - omega)
    gf = gfunction(pair, 1.0)
    lo = 1.0 + 1e-12
    h = lambda s: gf(s) - target
    h_lo = h(lo)
    if h_lo >= 0.0:
        raise NoRootError(
            f"right-hand side {target!r} at or below G(1+)",
            (gf(lo), gf(max(2.0, 2.0 * m0 / omega))),
        )
    hi = max(2.0, 2.0 * m0 / omega)
    while h(hi) < 0.0:
        hi *= 2.0
        if hi > _BRACKET_LIMIT:
            raise NoRootError(
                f"no sign change up to {_BRACKET_LIMIT:g}",
                (gf(lo), gf(_BRACKET_LIMIT)),
            )
    mu = _bisect_increasing(h, lo, hi)
    a1 = (m0 - omega) / (mu - 1.0)
    if a1 > omega * (1.0 + 1e-9):
        raise InfeasibleMeasureError(
            f"plateau measure {a1!r} exceeds domain measure {omega!r}"
        )
    a1 = min(a1, omega)
    p_mu = float(pair.antideriv_P(mu))
    mass_res = mu * a1 + (omega - a1) - m0
    energy_res = p_mu * a1 + p1 * (omega - a1) - E1_inf
    _check_residuals(mass_res, energy_res)
    if a1 < omega:
        values, measures = (mu, 1.0), (a1, omega - a1)
    else:
        values, measures = (mu,), (omega,)
    return OmegaPrediction(
        hypothesis="H1",
        plateau_values=values,
        plateau_measures=measures,
        mass_residual=mass_res,
        energy_residual=energy_res,
        source="Analytic",
        domain_measure=omega,
        shape_deviation=0.0,
    )


def predict_h3(
    m0: float,
    E3_inf: float,
    omega_measure: float,
    pair: NonlinearityPair,
) -> OmegaPrediction:
    """Analytic H3 limit profile: xi chi_A with xi < 0, a1 = m0 / xi.

    Solves P(xi)/xi = E3_inf / m0 by bisection on an expanding bracket
    below 0 (the reference-0 analog of the H1 construction; the
    monotonicity of the quotient is audited numerically per model).
    """
    omega = float(omega_measure)
    m0 = float(m0)
    if not m0 < 0.0:
        raise ValueError(f"H3 prediction needs m0 < 0 (got {m0!r})")
    if not math.isfinite(E3_inf):
        raise ValueError("energy limit must be finite")
    target = E3_inf / m0
    gf = gfunction(pair, 0.0)
    hi = -1e-12
    h = lambda s: gf(s) - target
    if h(hi) <= 0.0:
        raise NoRootError(
            f"right-hand side {target!r} at or above G(0-)",
            (gf(-max(2.0, 2.0 * abs(m0) / omega)), gf(hi)),
        )
    lo = -max(2.0, 2.0 * abs(m0) / omega)
    while h(lo) > 0.0:
        lo *= 2.0
        if -lo > _BRACKET_LIMIT:
            raise NoRootError(
                f"no sign change down to {-_BRACKET_LIMIT:g}",
                (gf(-_BRACKET_LIMIT), gf(hi)),
            )
    xi = _bisect_increasing(h, lo, hi)
    a1 = m0 / xi
    if a1 > omega * (1.0 + 1e-9):
        raise InfeasibleMeasureError(
            f"plateau measure {a1!r} exceeds domain measure {omega!r}"
        )
    a1 = min(a1, omega)
    p_xi = float(pair.antideriv_P(xi))
    mass_res = xi * a1 - m0
    energy_res = p_xi * a1 - E3_inf
    _check_residuals(mass_res, energy_res)
    if a1 < omega:
        values, measures = (xi, 0.0), (a1, omega - a1)
    else:
        values, measures = (xi,), (omega,)
    return OmegaPrediction(
        hypothesis="H3",
        plateau_values=values,
        plateau_measures=measures,
        mass_residual=mass_res,
        energy_residual=energy_res,
        source="Analytic",
        domain_measure=omega,
        shape_deviation=0.0,
    )


# -------------------------------------------------------------- extraction

def extract_limit(tr: Trajectory, cluster_tol: float = 1e-4) -> OmegaPrediction:
    """Empirical limit profile from the final snapshot of a settled run.

    Single-linkage clustering of the final atom values with gap
    threshold ``cluster_tol``; each cluster becomes a plateau with its
    weight-averaged value and summed measure. For H1/H3 the plateau list
    is ordered main-first and checked against the expected step-function
    shape; for H2 the decomposition is reported without any uniqueness
    claim.
    """
    elim = energy_limit(tr)  # raises NotConvergedError if not settled
    final = tr.values[-1]
    order = np.argsort(-final, kind="stable")
    vals = final[order]
    wts = tr.weights[order]

    clusters: list[tuple[float, float]] = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i - 1] - vals[i] > cluster_tol:
            member_w = wts[start:i]
            member_v = vals[start:i]
            weight = math.fsum(member_w.tolist())
            value = math.fsum((member_w * member_v).tolist()) / weight
            clusters.append((value, weight))
            start = i

    tag = tr.hypothesis.tag
    if tag == "H3":
        clusters = sorted(clusters, key=lambda c: c[0])  # most negative first

    values = tuple(c[0] for c in clusters)
    measures = tuple(c[1] for c in clusters)
    sign = tr.hypothesis.energy_sign
    mass_res = math.fsum(v * m for v, m in clusters) - float(tr.mass_series[0])
    energy_res = (
        sign * math.fsum(float(tr.pair.antideriv_P(v)) * m for v, m in clusters)
        - elim.value
    )

    deviation: float | None = None
    if tag in ("H1", "H3"):
        refv = 1.0 if tag == "H1" else 0.0
        mainward = (lambda v: v > refv) if tag == "H1" else (lambda v: v < refv)
        if len(values) == 1:
            deviation = 0.0 if mainward(values[0]) else math.inf
        elif len(values) == 2:
            deviation = abs(values[1] - refv) if mainward(values[0]) else math.inf
        else:
            deviation = math.inf

    return OmegaPrediction(
        hypothesis=tag,
        plateau_values=values,
        plateau_measures=measures,
        mass_residual=mass_res,
        energy_residual=energy_res,
        source="Empirical",
        domain_measure=tr.domain_measure,
        shape_deviation=deviation,
    )


# ------------------------------------------------------------- consistency

@dataclass(frozen=True)
class ConsistencyReport:
    value_diff: float
    measure_diff: float
    profile_distance: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.value_diff <= self.tol
            and self.measure_diff <= self.tol
            and self.profile_distance <= self.tol
        )


def consistency_check(
    analytic: OmegaPrediction, empirical: OmegaPrediction, tol: float = 1e-3
) -> ConsistencyReport:
    """Compare an analytic prediction against an extracted limit."""
    if analytic.hypothesis != empirical.hypothesis:
        raise ComparisonError(
            f"hypothesis mismatch: {analytic.hypothesis} vs {empirical.hypothesis}"
        )
    if analytic.source != "Analytic" or empirical.source != "Empirical":
        raise ComparisonError(
            f"expected (Analytic, Empirical) sources, got "
            f"({analytic.source}, {empirical.source})"
        )
    value_diff = abs(analytic.plateau_values[0] - empirical.plateau_values[0])
    measure_diff = abs(analytic.plateau_measures[0] - empirical.plateau_measures[0])
    profile_distance = field_mod.profile_l1_distance(
        analytic.to_profile(), empirical.to_profile()
    )
    return ConsistencyReport(
        value_diff=value_diff,
        measure_diff=measure_diff,
        profile_distance=profile_distance,
        tol=tol,
    )


__all__ = [
    "OmegaPrediction",
    "GFunction",
    "gfunction",
    "GMonotonicityReport",
    "sample_g_monotone",
    "predict_h1",
    "predict_h3",
    "extract_limit",
    "consistency_check",
    "ConsistencyReport",
]
