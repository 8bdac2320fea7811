"""Lyapunov energies, dissipation rates and the energy limit of a run.

For hypothesis index i in {1, 2, 3} the energy is

    E_i(u) = (-1)^(i+1) * integral of P(u),    P(s) = antiderivative of p,

nonincreasing along solutions in the matching regime, with instantaneous
rate (-1)^(i+1) * integral of g(u) (p(u) - lam)^2. Its limit as t -> inf
is the quantity the limit-profile predictor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import field as field_mod
from .dynamics import Termination, Trajectory
from .errors import DissipationUnavailableError, NotConvergedError
from .field import AtomField
from .model import HypothesisClass, NonlinearityPair, canonical_atoms, dissipation_sum
from .model import guarded_multiplier, input_order


def lyapunov(u: AtomField, pair: NonlinearityPair, i: int) -> float:
    """Energy of the field for hypothesis index i."""
    return HypothesisClass.energy_sign_of(i) * field_mod.integral_of(u, pair.antideriv_P)


def dissipation_rate(u: AtomField, pair: NonlinearityPair, i: int) -> float:
    """Instantaneous energy rate; nonpositive inside the regime's region.

    lam comes from the atoms in canonical order, as in ``lambda_of``, so
    the rate is the one the integrator records for this state.
    """
    sign = HypothesisClass.energy_sign_of(i)
    order, values, weights = canonical_atoms(u)
    with input_order(order):
        gv, pv, lam, _ = guarded_multiplier(0.0, values, weights, u.domain_measure, pair)
    return sign * dissipation_sum(weights, gv, pv, lam)


def dissipation_constant(
    hyp: HypothesisClass, pair: NonlinearityPair, n_samples: int = 100_000
) -> float:
    """Constant C > 0 with dE/dt <= -C * integral of |du/dt|^2.

    C = -1 / min(g) over [1, b] under H1, over [a, 0] under H3 (dense
    sampling). Unavailable for H2, where g vanishes at both region
    endpoints, and for degenerate intervals (b = 1 or a = 0).
    """
    if hyp.tag == "H2":
        raise DissipationUnavailableError(
            "no dissipation constant under H2: g vanishes at both region endpoints"
        )
    if hyp.region is None:
        raise DissipationUnavailableError("no hypothesis holds")
    lo, hi = hyp.region
    if hi <= lo:
        raise DissipationUnavailableError(
            f"degenerate interval [{lo:g}, {hi:g}]"
        )
    grid = np.linspace(lo, hi, n_samples)
    gmin = float(np.min(pair.g(grid)))
    if gmin >= 0.0:
        raise DissipationUnavailableError(
            f"g does not drop below zero on [{lo:g}, {hi:g}]"
        )
    return -1.0 / gmin


@dataclass(frozen=True)
class EnergyLimit:
    """Estimated energy limit with the last-decade variation as error bar."""

    value: float
    error_bar: float
    index: int


def energy_limit(tr: Trajectory) -> EnergyLimit:
    """Energy limit estimate: the final-snapshot energy of a settled run.

    The run must have terminated Stationary or be numerically at rest
    (max |rate| below 100 * stat_tol); otherwise NotConvergedError. The
    error bar is the energy variation over the trailing tenth of the
    recorded time span.
    """
    near_rest = tr.final_max_rhs < 100.0 * tr.config.stat_tol
    if tr.termination != Termination.STATIONARY and not near_rest:
        raise NotConvergedError(
            f"trajectory is not near stationary (termination {tr.termination.value}, "
            f"final max |rate| {tr.final_max_rhs:.3e})"
        )
    t_final = float(tr.times[-1])
    window = tr.energy_series[tr.times >= 0.9 * t_final]
    error_bar = float(np.max(window) - np.min(window)) if window.size else 0.0
    return EnergyLimit(
        value=float(tr.energy_series[-1]),
        error_bar=error_bar,
        index=tr.hypothesis.energy_index,
    )


__all__ = [
    "lyapunov",
    "dissipation_rate",
    "dissipation_constant",
    "EnergyLimit",
    "energy_limit",
]
