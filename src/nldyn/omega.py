"""Limit-profile prediction and extraction for the long-time dynamics.

Under H1 and H3 the orbit converges to one two-plateau profile,
v chi_A + r (1 - chi_A), where r is the root of g the regime leaves in
place: r = 1 with v > 1 under H1, r = 0 with v < 0 under H3. One
construction serves both. The plateau value v is the unique root of the
strictly increasing scalar function

    G(s) = (P(s) - P(r)) / (s - r)

at the right-hand side (E_limit - P(r)|Omega|) / (m0 - r|Omega|), and
the plateau measure follows from mass conservation. Under H2 the limit
is determined too: order preservation fixes its shape as
chi{u0 > theta} + v chi{u0 = theta}, and mass conservation fixes theta
and v. That predictor is not implemented yet, so under H2 only empirical
extraction from a settled trajectory is offered. Every limit, predicted
or extracted, is one canonical ``AtomField``: an atom per plateau, values
decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import field as field_mod
from .dynamics import CheckResult, Trajectory
from .energy import energy_limit
from .errors import InfeasibleMeasureError, NldynError, NoRootError
from .field import AtomField
from .model import NonlinearityPair
from .quad import adaptive_simpson

_RESIDUAL_TOL = 1e-10
_BRACKET_LIMIT = 1e6
CONSISTENCY_TOL = 1e-3  # the predictor-consistency row's bound on each gap


@dataclass(frozen=True)
class OmegaPrediction:
    """Predicted or extracted limit step function.

    ``limit`` holds the plateaus in canonical form: one atom per plateau,
    values strictly decreasing. The main plateau (mu under H1, xi under
    H3) is read off the regime by ``main_plateau``; the background plateau
    (value 1 or 0) is there when it has positive measure. Residuals
    measure how well the plateaus reproduce the mass and energy
    constraints.
    """

    hypothesis: str | None
    limit: AtomField
    mass_residual: float
    energy_residual: float
    source: str  # "Analytic" or "Empirical"
    shape_deviation: float | None = None

    def _atoms_main_first(self) -> list[tuple[float, float]]:
        return self.limit.atoms[::_REGIMES.get(self.hypothesis, (None, +1))[1]]

    def main_plateau(self) -> tuple[float, float]:
        """(value, measure) of the main plateau: the top atom under H1, the
        bottom atom under H3, and the top atom where no regime root applies."""
        return self._atoms_main_first()[0]

    def to_summary(self) -> str:
        atoms = self._atoms_main_first()
        lines = [
            f"hypothesis = {self.hypothesis}",
            f"source = {self.source}",
            f"domain_measure = {self.limit.domain_measure:.17g}",
            f"plateau_count = {len(atoms)}",
        ]
        for k, (v, m) in enumerate(atoms, 1):
            lines.append(f"plateau_{k}_value = {v:.17g}")
            lines.append(f"plateau_{k}_measure = {m:.17g}")
        lines.append(f"mass_residual = {self.mass_residual:.17g}")
        lines.append(f"energy_residual = {self.energy_residual:.17g}")
        if self.shape_deviation is not None:
            lines.append(f"shape_deviation = {self.shape_deviation:.17g}")
        return "\n".join(lines) + "\n"


def gfunction(pair: NonlinearityPair, reference_point: float) -> Callable[[float], float]:
    """G(s) = (P(s) - P(ref)) / (s - ref), the difference quotient of the
    antiderivative around a reference root of g.

    Strictly increasing wherever p is strictly increasing. A
    quadrature-backed antiderivative is evaluated as the integral mean of
    p between the reference point and s: the same quantity, but immune to
    the cancellation of P(s) - P(ref) near the reference point.
    """
    ref = float(reference_point)
    if pair.closed_form_P:
        p_ref = float(pair.antideriv_P(ref))

        def g_of(s: float) -> float:
            s = float(s)
            return (float(pair.antideriv_P(s)) - p_ref) / (s - ref)

    else:

        def g_of(s: float) -> float:
            s = float(s)
            return adaptive_simpson(lambda t: float(pair.p(t)), ref, s) / (s - ref)

    return g_of


def sample_g_monotone(
    pair: NonlinearityPair,
    reference_point: float,
    far_end: float,
    n: int = 10_000,
) -> CheckResult:
    """Audit strict monotonicity of G on the half-open span (ref, far_end].

    G is sampled as (P(grid) - P(ref)) / (grid - ref) with the pair's own
    antiderivative, one array call on the grid. The row's worst is the
    smallest increment between consecutive samples, which must stay above
    tol = 0; its detail gives the sampled span and where the smallest
    increment starts.
    """
    ref = float(reference_point)
    far = float(far_end)
    if far == ref:
        raise ValueError("far_end must differ from the reference point")
    k = np.arange(1, n + 1, dtype=float)
    grid = ref + (far - ref) * k / n  # excludes ref, includes far_end
    p_rel = pair.antideriv_P(grid) - float(pair.antideriv_P(ref))
    g_vals = p_rel / (grid - ref)
    order = np.argsort(grid)
    g_sorted = g_vals[order]
    steps = np.diff(g_sorted)
    if steps.size == 0:
        passed, worst, worst_at = True, math.inf, ref
    else:
        worst_idx = int(np.argmin(steps))
        passed = bool(np.all(steps > 0.0)) and bool(np.all(np.isfinite(g_sorted)))
        worst, worst_at = float(steps[worst_idx]), float(grid[order][worst_idx])
    return CheckResult(
        "g-monotonicity",
        passed,
        worst,
        0.0,
        f"span [{float(np.min(grid)):.17g}, {float(np.max(grid)):.17g}], "
        f"smallest step at {worst_at:.17g}",
    )


# ------------------------------------------------------------------ roots

def _bisect_increasing(h: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of increasing h with h(lo) < 0 < h(hi), to bracket exhaustion
    (at most about 2,200 halvings); the midpoint 0.5*lo + 0.5*hi is
    0.5*(lo + hi) on normal floats, but cannot overflow."""
    while True:
        mid = 0.5 * lo + 0.5 * hi
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
    return 0.5 * lo + 0.5 * hi


# regime tag -> (root r of g that the regime leaves in place, side of r
# on which the main plateau lies)
_REGIMES = {"H1": (1.0, +1), "H3": (0.0, -1)}


def regime(m0: float, omega_measure: float) -> str | None:
    """The tag whose (r, side) has side * (m0 - r|Omega|) > 0, or None:
    H1 for m0 > |Omega|, H3 for m0 < 0."""
    return next((tag for tag, (ref, side) in _REGIMES.items()
                 if side * (m0 - ref * omega_measure) > 0.0), None)


def _predict(
    tag: str,
    m0: float,
    e_inf: float,
    omega_measure: float,
    pair: NonlinearityPair,
) -> OmegaPrediction:
    """Two-plateau limit v chi_A + r (1 - chi_A) from mass and energy limit.

    Solves G(v) = (E - P(r)|Omega|) / (m0 - r|Omega|) for G around r by
    bisection on a bracket from r +- 1e-12 to a far end at 2|m0|/|Omega|
    (at least 2, at most the largest float) that doubles outwards on the
    plateau's side of r, then reads the plateau measure off mass
    conservation: a1 = (m0 - r|Omega|) / (v - r). Under H3 (r = 0) the
    terms in r and P(0) = 0 are exact zeros. m0 must be finite and in the
    regime (``regime``), E finite; the constraint residuals must pass
    ``residual_check``.
    """
    ref, side = _REGIMES[tag]
    omega = float(omega_measure)
    m0 = float(m0)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"domain measure must be positive and finite, got {omega!r}")
    if regime(m0, omega) != tag:
        raise ValueError(
            f"H1 prediction needs m0 > |Omega| (got m0 = {m0!r}, |Omega| = {omega!r})"
            if side > 0 else f"H3 prediction needs m0 < 0 (got {m0!r})"
        )
    for name, x in (("m0", m0), ("energy limit", e_inf)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
    p_ref = float(pair.antideriv_P(ref))
    target = (e_inf - p_ref * omega) / (m0 - ref * omega)
    gf = gfunction(pair, ref)
    h = lambda s: gf(s) - target

    def g_range(a: float, b: float) -> tuple[float, float]:
        """G at the two bracket ends, in increasing order of s."""
        return (gf(a), gf(b)) if side > 0 else (gf(b), gf(a))

    near = ref + side * 1e-12
    far = side * min(max(2.0, 2.0 * abs(m0) / omega), float(np.finfo(float).max))
    if side * h(near) >= 0.0:
        raise NoRootError(
            f"right-hand side {target!r} at or {'below' if side > 0 else 'above'} "
            f"G({ref:g}{'+' if side > 0 else '-'})",
            g_range(near, far),
        )
    while side * h(far) < 0.0:
        far *= 2.0
        if side * far > _BRACKET_LIMIT:
            raise NoRootError(
                f"no sign change {'up' if side > 0 else 'down'} to {side * _BRACKET_LIMIT:g}",
                g_range(near, side * _BRACKET_LIMIT),
            )
    v = _bisect_increasing(h, *((near, far) if side > 0 else (far, near)))
    a1 = (m0 - ref * omega) / (v - ref)
    if a1 > omega * (1.0 + 1e-9):
        raise InfeasibleMeasureError(
            f"plateau measure {a1!r} exceeds domain measure {omega!r}"
        )
    a1 = min(a1, omega)
    mass_res = v * a1 + ref * (omega - a1) - m0
    energy_res = float(pair.antideriv_P(v)) * a1 + p_ref * (omega - a1) - e_inf
    if a1 < omega:
        values, measures = (v, ref), (a1, omega - a1)
    else:
        values, measures = (v,), (omega,)
    pred = OmegaPrediction(
        hypothesis=tag,
        limit=AtomField(values[::side], measures[::side], omega),  # decreasing
        mass_residual=mass_res,
        energy_residual=energy_res,
        source="Analytic",
        shape_deviation=0.0,
    )
    row = residual_check(pred, m0, e_inf, pair)
    if not row.passed:
        raise NldynError(f"constraint residuals exceed their bounds: {row.detail}")
    return pred


def residual_check(
    pred: OmegaPrediction, m0: float, e_inf: float, pair: NonlinearityPair
) -> CheckResult:
    """The predictor-residuals row of an H1/H3 prediction from (m0, E).

    Each constraint residual is bounded by _RESIDUAL_TOL times the size of
    its terms, the largest of 1, |m0| (|E|) and |r||Omega| (|P(r)||Omega|);
    ``_predict`` raises when the row fails, with its detail (each residual
    and bound). Its worst is the larger residual over its size, tol _RESIDUAL_TOL.
    """
    ref, omega = _REGIMES[pred.hypothesis][0], pred.limit.domain_measure
    p_ref = float(pair.antideriv_P(ref))
    rows = (
        ("mass", pred.mass_residual, max(1.0, abs(m0), abs(ref) * omega)),
        ("energy", pred.energy_residual, max(1.0, abs(e_inf), abs(p_ref) * omega)),
    )
    passed = all(abs(r) <= _RESIDUAL_TOL * size for _, r, size in rows)
    detail = "" if passed else ", ".join(
        f"{name} {r:.3e} (bound {_RESIDUAL_TOL * size:.3e})" for name, r, size in rows
    )
    worst = max(abs(r) / size for _, r, size in rows)
    return CheckResult("predictor-residuals", passed, worst, _RESIDUAL_TOL, detail)


def predict_h1(
    m0: float, E1_inf: float, omega_measure: float, pair: NonlinearityPair
) -> OmegaPrediction:
    """Analytic H1 limit mu chi_A + 1 off A, mu > 1 (needs m0 > |Omega|)."""
    return _predict("H1", m0, E1_inf, omega_measure, pair)


def predict_h3(
    m0: float, E3_inf: float, omega_measure: float, pair: NonlinearityPair
) -> OmegaPrediction:
    """Analytic H3 limit xi chi_A with xi < 0, 0 off A (needs m0 < 0)."""
    return _predict("H3", m0, E3_inf, omega_measure, pair)


def predictor(tag: str | None) -> Callable[..., OmegaPrediction] | None:
    """predict_h1 or predict_h3 for a regime tag, or None; looked up at
    call time, so that a wrapped module attribute sees every call."""
    return {"H1": predict_h1, "H3": predict_h3}.get(tag)


# -------------------------------------------------------------- extraction

def extract_limit(tr: Trajectory, cluster_tol: float = 1e-4) -> OmegaPrediction:
    """Empirical limit profile from the final snapshot of a settled run.

    Single-linkage clustering of the final atom values with gap
    threshold ``cluster_tol``; each cluster becomes a plateau with its
    weight-averaged value and summed measure. For H1/H3 the plateaus are
    checked against the expected step-function shape (``shape_deviation``);
    for H2 the decomposition is reported without any uniqueness claim.
    Raises ValueError when cluster_tol is not positive.
    """
    if not cluster_tol > 0.0:
        raise ValueError(f"cluster_tol must be positive, got {cluster_tol!r}")
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

    sign = tr.hypothesis.energy_sign
    mass_res = math.fsum(v * m for v, m in clusters) - float(tr.mass_series[0])
    energy_res = (
        sign * math.fsum(float(tr.pair.antideriv_P(v)) * m for v, m in clusters)
        - elim.value
    )
    # the clusters come out value-decreasing; rearrange merges any that round together
    limit = field_mod.rearrange(AtomField(*zip(*clusters), tr.domain_measure))

    tag = tr.hypothesis.tag
    deviation: float | None = None
    if tag in _REGIMES:
        ref, side = _REGIMES[tag]
        values = limit.values[::side].tolist()  # main plateau first
        if len(values) > 2 or not side * (values[0] - ref) > 0.0:
            deviation = math.inf
        else:
            deviation = abs(values[1] - ref) if len(values) == 2 else 0.0

    return OmegaPrediction(
        hypothesis=tag,
        limit=limit,
        mass_residual=mass_res,
        energy_residual=energy_res,
        source="Empirical",
        shape_deviation=deviation,
    )


# ------------------------------------------------------------- consistency

def consistency_check(analytic: OmegaPrediction, empirical: OmegaPrediction) -> CheckResult:
    """Compare an analytic prediction against an extracted limit.

    The row passes when the L1 distance of the two staircases is within
    CONSISTENCY_TOL and, under H1/H3, so are the main plateau's value gap
    and measure gap; its worst is the largest of these.
    """
    if analytic.hypothesis != empirical.hypothesis:
        raise NldynError(
            f"hypothesis mismatch: {analytic.hypothesis} vs {empirical.hypothesis}"
        )
    if analytic.source != "Analytic" or empirical.source != "Empirical":
        raise NldynError(
            f"expected (Analytic, Empirical) sources, got "
            f"({analytic.source}, {empirical.source})"
        )
    gaps = [field_mod.profile_l1_distance(analytic.limit, empirical.limit)]
    if analytic.hypothesis in _REGIMES:
        (av, am), (ev, em) = analytic.main_plateau(), empirical.main_plateau()
        gaps += [abs(av - ev), abs(am - em)]
    passed = all(g <= CONSISTENCY_TOL for g in gaps)
    return CheckResult("predictor-consistency", passed, max(gaps), CONSISTENCY_TOL)


__all__ = [
    "OmegaPrediction",
    "gfunction",
    "sample_g_monotone",
    "predict_h1",
    "predict_h3",
    "extract_limit",
    "consistency_check",
    "residual_check",
]
