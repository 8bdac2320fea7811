"""Nonlinearities, the nonlocal rate and hypothesis classification.

The dynamics are driven by two scalar functions: a rate factor g with
g(0) = g(1) = 0, positive on (0, 1) and negative outside [0, 1], and a
strictly increasing function p. The nonlocal multiplier

    lam(u) = integral(g(u) p(u)) / integral(g(u))

turns the pointwise rate g(u)p(u) into the mass-conserving rate

    F(u) = g(u) p(u) - g(u) lam(u).

On a weighted-atom field both integrals are finite sums over the atoms;
the rate kernel below takes them pairwise, over the atoms in
``field.canonical_order``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DenominatorVanishingError,
    ModelValidationError,
    NumericalFailureError,
    UnknownModelError,
)
from .field import AtomField, canonical_order

ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class NonlinearityPair:
    """The model functions g and p, the derivative of p and its antiderivative.

    All callables accept scalars and numpy arrays of any shape and return
    that shape, so no caller needs ``field.atomwise``'s per-value
    fallback. ``antideriv_P`` is normalized to vanish at 0;
    ``closed_form_P`` records whether it is analytic (the builtins, and
    expression models whose p is a linear combination of polynomial terms
    and of exp, sin, cos, tanh of an affine argument) or a cumulative
    adaptive Simpson quadrature (``exprparse.build_model``).
    """

    g: ScalarFn
    p: ScalarFn
    p_prime: ScalarFn
    antideriv_P: ScalarFn
    closed_form_P: bool
    label: str = ""


@dataclass(frozen=True)
class HypothesisClass:
    """Which initial-data regime holds, with the quantities that decide it.

    ``tag`` is 'H1', 'H2', 'H3' or None. ``essinf_a``/``esssup_b`` are the
    extreme atom values; ``integral_g_u0`` is the weighted sum of g over
    the initial field, pairwise in canonical order.
    """

    tag: str | None
    essinf_a: float
    esssup_b: float
    integral_g_u0: float

    @property
    def energy_index(self) -> int:
        """Lyapunov index for this regime (1 when no hypothesis holds)."""
        return {"H1": 1, "H2": 2, "H3": 3}.get(self.tag, 1)

    @staticmethod
    def energy_sign_of(i: int) -> float:
        """The sign (-1)^(i+1) of the Lyapunov energy E_i, i in {1, 2, 3}."""
        if i not in (1, 2, 3):
            raise ValueError(f"hypothesis index must be 1, 2 or 3, got {i!r}")
        return -1.0 if i == 2 else 1.0

    @property
    def energy_sign(self) -> float:
        """The sign of this regime's Lyapunov energy."""
        return self.energy_sign_of(self.energy_index)

    @property
    def region(self) -> tuple[float, float] | None:
        """Invariant interval: H1 [1, b], H2 [0, 1], H3 [a, 0]; None without a regime."""
        a, b = self.essinf_a, self.esssup_b
        return {"H1": (1.0, b), "H2": (0.0, 1.0), "H3": (a, 0.0)}.get(self.tag)


# ----------------------------------------------------------------- builtins

def _logistic_identity() -> NonlinearityPair:
    return NonlinearityPair(
        g=lambda u: u * (1.0 - u),
        p=lambda u: u * 1.0,
        p_prime=lambda u: 0.0 * u + 1.0,
        antideriv_P=lambda s: 0.5 * s * s,
        closed_form_P=True,
        label="logistic-identity",
    )


def _logistic_cubic() -> NonlinearityPair:
    return NonlinearityPair(
        g=lambda u: u * (1.0 - u),
        p=lambda u: u ** 3 + u,
        p_prime=lambda u: 3.0 * u * u + 1.0,
        antideriv_P=lambda s: 0.25 * s ** 4 + 0.5 * s * s,
        closed_form_P=True,
        label="logistic-cubic",
    )


_CATALOGUE: dict[str, Callable[[], NonlinearityPair]] = {
    "logistic-identity": _logistic_identity,
    "logistic-cubic": _logistic_cubic,
}


def builtin_model(name: str) -> NonlinearityPair:
    """Return a catalogued nonlinearity pair (validated on construction)."""
    try:
        factory = _CATALOGUE[name]
    except KeyError:
        raise UnknownModelError(name, tuple(sorted(_CATALOGUE))) from None
    pair = factory()
    validate_pair(pair)
    return pair


# --------------------------------------------------------------- validation

def validate_pair(
    pair: NonlinearityPair,
    s_range: tuple[float, float] = (-2.0, 2.0),
    n: int = 10_000,
) -> None:
    """Sample-check the structural requirements on g and p.

    Checks g(0) = g(1) = 0, the sign pattern of g, strict monotonicity of
    p, and that the stored antiderivative matches p by finite differences.
    Raises ModelValidationError with a witness point on the first failure.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    if not lo < 0.0 < 1.0 < hi:
        raise ValueError("working range must contain [0, 1] strictly")

    for point in (0.0, 1.0):
        value = float(pair.g(point))
        if abs(value) > 1e-12:
            raise ModelValidationError(
                f"g({point:g}) = 0", point, f"got {value!r}"
            )

    def _grid(a: float, b: float) -> np.ndarray:
        # midpoint-style grid: stays strictly inside the open interval
        k = np.arange(n, dtype=float)
        return a + (b - a) * (k + 0.5) / n

    for a, b, sign in ((0.0, 1.0, 1.0), (lo, 0.0, -1.0), (1.0, hi, -1.0)):
        grid = _grid(a, b)
        gv = np.asarray(pair.g(grid), dtype=float)
        bad = np.nonzero(~(sign * gv > 0.0))[0]
        if bad.size:
            raise ModelValidationError(
                f"g {'>' if sign > 0 else '<'} 0 on ({a:g}, {b:g})",
                float(grid[bad[0]]),
                f"g = {gv[bad[0]]!r}",
            )

    full = np.linspace(lo, hi, n)
    pv = np.asarray(pair.p_prime(full), dtype=float)
    bad = np.nonzero(~(pv > 0.0))[0]
    if bad.size:
        raise ModelValidationError(
            "p' > 0 on the working range", float(full[bad[0]]), f"p' = {pv[bad[0]]!r}"
        )

    p0 = float(pair.antideriv_P(0.0))
    if abs(p0) > 1e-12:
        raise ModelValidationError("antiderivative vanishes at 0", 0.0, f"got {p0!r}")
    h = 1e-6
    eps = float(np.finfo(float).eps)
    for s in np.linspace(lo + 2 * h, hi - 2 * h, 17):
        s = float(s)
        p_plus, p_minus = float(pair.antideriv_P(s + h)), float(pair.antideriv_P(s - h))
        fd = (p_plus - p_minus) / (2 * h)
        # the difference quotient carries roundoff of order eps * |P| / h;
        # written so that a NaN quotient (P overflowed) fails the check
        tol = 1e-8 + 4.0 * eps * (abs(p_plus) + abs(p_minus)) / h
        if not abs(fd - float(pair.p(s))) <= tol:
            raise ModelValidationError(
                "d(antiderivative)/ds = p", s, f"fd {fd!r} vs p {float(pair.p(s))!r}"
            )


# -------------------------------------------------------------- rate kernel
# The only code that evaluates g and p at the atoms and sums them. The sums
# that feed a step are numpy's pairwise sums, taken in the order given:
# callers pass the atoms in ``field.canonical_order``, which makes the
# result independent of how a field lists its atoms, so the integrator and
# the public functions agree to the last bit. Each term w*g is already
# rounded once, so even an exact sum carries an error of eps * sum |w*g|;
# pairwise summation adds at most a log2(n) factor to that (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 4). Only the
# dissipation sum, an output that nothing feeds back from, stays exact.
# Hot-path reductions are the ufunc methods themselves: on a few atoms the
# np.max / ndarray.all wrappers cost more than the arithmetic.

_sum = np.add.reduce
_all = np.logical_and.reduce
_max = np.maximum.reduce


def multiplier(t: float, values: np.ndarray, weights: np.ndarray, pair: NonlinearityPair):
    """g and p at the atoms, the multiplier lam and the g-integral (unguarded).

    The atoms come in canonical order (``field.canonical_order``); the
    sums are pairwise in that order. lam is refined once from the
    residual of the weighted rate sum, which then vanishes to the
    roundoff of the rates g*(p - lam) rather than of the terms g*p: mass
    drift stays at a few ulps however long the steps. lam is nan when the
    g-integral is exactly 0 (a terminal guard state). A non-finite g or p
    value, or a sum that overflows, raises NumericalFailureError at time
    t: nothing computed from it could be trusted.
    """
    gv = np.asarray(pair.g(values), dtype=float)
    pv = np.asarray(pair.p(values), dtype=float)
    wg = weights * gv
    wgp = wg * pv
    # a non-finite g or p at any atom makes its term inf or nan; checked
    # before any sum, so no reduction meets inf - inf
    if not _all(np.isfinite(wgp)):
        raise NumericalFailureError("non-finite g or p value", t, values)
    den = float(_sum(wg))
    num = float(_sum(wgp))
    if not (math.isfinite(den) and math.isfinite(num)):
        raise NumericalFailureError("non-finite g or p value", t, values)
    if den == 0.0:
        return gv, pv, math.nan, den
    lam = num / den
    lam += float(_sum(wg * (pv - lam))) / den
    return gv, pv, lam, den


def guard_threshold(gv: np.ndarray, omega: float, rel: float = 1e-10) -> float:
    """Scale-aware guard threshold: rel * |Omega| * max |g| over the atoms.

    Shrinks together with g as all atoms approach roots of g, so the
    guard only fires when the integral is small relative to its terms.
    """
    return rel * omega * float(_max(np.abs(gv)))


def guarded_multiplier(t, values, weights, omega, pair, eps_den):
    """``multiplier``, raising DenominatorVanishingError below the guard.

    The guard is ``eps_den``, or ``guard_threshold`` when it is None.
    """
    gv, pv, lam, den = multiplier(t, values, weights, pair)
    eps = guard_threshold(gv, omega) if eps_den is None else float(eps_den)
    if den == 0.0 or abs(den) < eps:
        raise DenominatorVanishingError(den, eps)
    return gv, pv, lam, den


def atom_rates(t, values, weights, omega, pair, eps_den):
    """Per-atom rates g*(p - lam), the g-integral and the dissipation sum at
    one state (guarded).

    The dissipation sum is the pairwise sum of w*g*(p - lam)^2 over the
    atoms, the energy rate of E_1 that the integrator carries alongside the
    state. Entries of ``values`` past the atoms that ``weights`` lists are
    passive tracers, atoms of weight zero: each gets the rate g*(p - lam)
    with the atoms' lam and enters neither lam, the guard nor the sum.
    """
    n = weights.size
    gv, pv, lam, den = guarded_multiplier(t, values[:n], weights, omega, pair, eps_den)
    gap = pv - lam
    rates = gv * gap
    diss = float(_sum(weights * rates * gap))
    if values.size > n:
        s = values[n:]
        carried = np.asarray(pair.g(s), dtype=float) * (np.asarray(pair.p(s), dtype=float) - lam)
        rates = np.concatenate([rates, carried])
    return rates, den, diss


def dissipation_sum(weights: np.ndarray, gv: np.ndarray, pv: np.ndarray, lam: float) -> float:
    """The energy rate of E_1: the exact sum of w * g * (p - lam)^2."""
    return math.fsum((weights * gv * (pv - lam) ** 2).tolist())


def unpermute(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """a, whose last axis lists atoms permuted by ``order``, in the input order."""
    out = np.empty_like(a)
    out[..., order] = a
    return out


@contextmanager
def input_order(order: np.ndarray):
    """Run kernel calls on atoms permuted by ``order``, reporting failures unpermuted.

    A NumericalFailureError raised inside carries its atom values back in
    the input order, the order its caller knows.
    """
    try:
        yield
    except NumericalFailureError as exc:
        exc.values = unpermute(exc.values, order)
        raise


def canonical_atoms(u: AtomField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field's canonical order, and its values and weights in that order."""
    order = canonical_order(u.values, u.weights)
    return order, u.values[order], u.weights[order]


# ----------------------------------------------------------- classification

def classify_hypothesis(u0: AtomField, pair: NonlinearityPair) -> HypothesisClass:
    """Decide which initial-data regime the field satisfies (None if neither).

    H1: all values >= 1 and some value > 1. H2: all values in [0, 1] with
    a nonzero g-integral. H3: all values <= 0 and some value < 0.
    """
    a = float(np.min(u0.values))
    b = float(np.max(u0.values))
    _, values, weights = canonical_atoms(u0)
    integral_g = float(_sum(weights * np.asarray(pair.g(values), dtype=float)))
    tag = None
    if a >= 1.0 and b > 1.0:
        tag = "H1"
    elif a >= 0.0 and b <= 1.0 and integral_g != 0.0:
        tag = "H2"
    elif b <= 0.0 and a < 0.0:
        tag = "H3"
    return HypothesisClass(tag=tag, essinf_a=a, esssup_b=b, integral_g_u0=integral_g)


# ------------------------------------------------------- rate and multiplier

def lambda_of(u: AtomField, pair: NonlinearityPair, eps_den: float | None = None) -> float:
    """Nonlocal multiplier of the field: g-weighted average of p.

    Pairwise sums over the atoms in canonical order: the value the
    integrator records for this state, whatever order the field lists its
    atoms in. Raises DenominatorVanishingError when |sum of m*g| falls
    below ``eps_den`` (scale-aware default), NumericalFailureError on
    overflow.
    """
    order, values, weights = canonical_atoms(u)
    with input_order(order):
        return guarded_multiplier(0.0, values, weights, u.domain_measure, pair, eps_den)[2]


def rhs(u: AtomField, pair: NonlinearityPair, eps_den: float | None = None) -> np.ndarray:
    """Per-atom rates of the mass-conserving dynamics.

    r_i = g(s_i) (p(s_i) - lam), in the field's atom order, with lam as
    ``lambda_of`` gives it. The weighted rate sum vanishes identically,
    which is the discrete mass-conservation identity.
    """
    order, values, weights = canonical_atoms(u)
    with input_order(order):
        rates = atom_rates(0.0, values, weights, u.domain_measure, pair, eps_den)[0]
    return unpermute(rates, order)


__all__ = [
    "NonlinearityPair",
    "HypothesisClass",
    "builtin_model",
    "validate_pair",
    "classify_hypothesis",
    "lambda_of",
    "rhs",
]
