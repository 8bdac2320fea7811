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

from .errors import ConfigError, DenominatorVanishingError, NumericalFailureError
from .field import AtomField, canonical_order

ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class NonlinearityPair:
    """The model functions g and p, the derivative of p and its antiderivative.

    Each callable maps a scalar to a float and a float array of any shape
    to a float array of that shape: callers pass whole arrays of atom
    values and use the result as it comes. ``antideriv_P`` is normalized
    to vanish at 0; ``closed_form_P`` records whether it is analytic (the
    builtins, and expression models whose p is a linear combination of
    polynomial terms and of exp, sin, cos, tanh of an affine argument) or
    a cumulative adaptive Simpson quadrature (``exprparse.build_model``).
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


def _float64_scalars(fn: ScalarFn) -> ScalarFn:
    """fn taking a scalar as a float64 and giving back a float: a power then
    overflows to inf, as on an array, where a Python float's raises."""

    def wrapped(u):
        if np.ndim(u):
            return fn(u)
        with np.errstate(over="ignore"):
            return float(fn(np.float64(u)))

    return wrapped


def _logistic_cubic() -> NonlinearityPair:
    return NonlinearityPair(
        g=lambda u: u * (1.0 - u),
        p=_float64_scalars(lambda u: u ** 3 + u),
        p_prime=lambda u: 3.0 * u * u + 1.0,
        antideriv_P=_float64_scalars(lambda s: 0.25 * s ** 4 + 0.5 * s * s),
        closed_form_P=True,
        label="logistic-cubic",
    )


_CATALOGUE: dict[str, Callable[[], NonlinearityPair]] = {
    "logistic-identity": _logistic_identity,
    "logistic-cubic": _logistic_cubic,
}


def builtin_model(
    name: str, working_range: tuple[float, float] = (-2.0, 2.0)
) -> NonlinearityPair:
    """Return a catalogued nonlinearity pair, validated once on working_range.

    The caller passes the range it will run on (``validate_pair``); the
    command line's reaches 1 past the initial data's largest |value|.
    """
    try:
        factory = _CATALOGUE[name]
    except KeyError:
        raise ConfigError(
            f"unknown model {name!r}; available: {', '.join(sorted(_CATALOGUE))}"
        ) from None
    pair = factory()
    validate_pair(pair, working_range)
    return pair


# --------------------------------------------------------------- validation

def validation_error(check: str, witness: float, detail: str) -> ConfigError:
    """The error for a pair that fails ``check`` at the point ``witness``."""
    return ConfigError(f"model validation failed: {check} (witness u={witness!r}): {detail}")


def _shown(x: float) -> str:
    """x for a message; a nan, which the input did not type but an overflow
    or a 0 * inf made, as words."""
    return "not a number" if math.isnan(x) else repr(x)


def finite_linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), taken over the halved range and doubled back
    (exactly) when hi - lo overflows, where linspace would give nan."""
    if math.isfinite(hi - lo):
        return np.linspace(lo, hi, n)
    return 2.0 * np.linspace(0.5 * lo, 0.5 * hi, n)


def validate_pair(
    pair: NonlinearityPair,
    s_range: tuple[float, float] = (-2.0, 2.0),
    n: int = 10_000,
) -> None:
    """Sample-check the structural requirements on g and p.

    Checks g(0) = g(1) = 0, the sign pattern of g, strict monotonicity of
    p, and that the stored antiderivative matches p by finite differences.
    Raises ConfigError (``validation_error``) on the first failure.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    if not lo < 0.0 < 1.0 < hi:
        raise ValueError("working range must contain [0, 1] strictly")

    for point in (0.0, 1.0):
        value = float(pair.g(point))
        if not abs(value) <= 1e-12:  # a NaN fails too
            raise validation_error(
                f"g({point:g}) = 0", point, f"got {_shown(value)}"
            )

    def _grid(a: float, b: float) -> np.ndarray:
        # midpoint-style grid: stays strictly inside the open interval
        k = np.arange(n, dtype=float)
        if math.isfinite((b - a) * n):
            return a + (b - a) * (k + 0.5) / n
        return a + (b - a) * ((k + 0.5) / n)  # (b - a) * k would overflow

    for a, b, sign in ((0.0, 1.0, 1.0), (lo, 0.0, -1.0), (1.0, hi, -1.0)):
        grid = _grid(a, b)
        gv = np.asarray(pair.g(grid), dtype=float)
        bad = np.nonzero(~(sign * gv > 0.0))[0]
        if bad.size:
            raise validation_error(
                f"g {'>' if sign > 0 else '<'} 0 on ({a:g}, {b:g})",
                float(grid[bad[0]]),
                f"g = {_shown(float(gv[bad[0]]))}",
            )

    full = finite_linspace(lo, hi, n)
    pv = np.asarray(pair.p_prime(full), dtype=float)
    bad = np.nonzero(~(pv > 0.0))[0]
    if bad.size:
        raise validation_error(
            "p' > 0 on the working range", float(full[bad[0]]),
            f"p' = {_shown(float(pv[bad[0]]))}",
        )

    p0 = float(pair.antideriv_P(0.0))
    if abs(p0) > 1e-12:
        raise validation_error("antiderivative vanishes at 0", 0.0, f"got {_shown(p0)}")
    h = 1e-6
    eps = float(np.finfo(float).eps)
    for s in finite_linspace(lo + 2 * h, hi - 2 * h, 17):
        s = float(s)
        p_plus, p_minus = float(pair.antideriv_P(s + h)), float(pair.antideriv_P(s - h))
        ps = float(pair.p(s))
        fd = (p_plus - p_minus) / (2 * h)
        # the difference quotient carries roundoff of order eps * |P| / h;
        # written so that a NaN quotient (P overflowed) fails the check
        tol = 1e-8 + 4.0 * eps * (abs(p_plus) + abs(p_minus)) / h
        if not abs(fd - ps) <= tol:
            detail = f"fd {fd!r} vs p {_shown(ps)}" if math.isfinite(fd) else "P overflows"
            raise validation_error("d(antiderivative)/ds = p", s, detail)


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
    gv = pair.g(values)
    pv = pair.p(values)
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


def guarded_multiplier(t, values, weights, omega, pair):
    """``multiplier`` with the g-integral's margin den / (|Omega| max|g|), its
    size against its terms, in place of den; raises DenominatorVanishingError
    when the margin is below 1e-10 (g = 0 at every atom included)."""
    gv, pv, lam, den = multiplier(t, values, weights, pair)
    scale = omega * float(_max(np.abs(gv)))
    margin = den / scale if scale > 0.0 else 0.0
    if abs(margin) < 1e-10:
        raise DenominatorVanishingError(den, 1e-10 * scale)
    return gv, pv, lam, margin


def atom_rates(t, values, weights, omega, pair):
    """Per-atom rates g*(p - lam), the g-integral's margin (``guarded_multiplier``),
    the dissipation sum and lam at one state (guarded).

    The dissipation sum is the pairwise sum of w*g*(p - lam)^2 over the
    atoms, the energy rate of E_1 that the integrator carries alongside the
    state.
    """
    gv, pv, lam, margin = guarded_multiplier(t, values, weights, omega, pair)
    gap = pv - lam
    rates = gv * gap
    return rates, margin, float(_sum(weights * rates * gap)), lam


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
    integral_g = float(_sum(weights * pair.g(values)))
    tag = None
    if a >= 1.0 and b > 1.0:
        tag = "H1"
    elif a >= 0.0 and b <= 1.0 and integral_g != 0.0:
        tag = "H2"
    elif b <= 0.0 and a < 0.0:
        tag = "H3"
    return HypothesisClass(tag=tag, essinf_a=a, esssup_b=b, integral_g_u0=integral_g)


# ------------------------------------------------------- rate and multiplier

def lambda_of(u: AtomField, pair: NonlinearityPair) -> float:
    """Nonlocal multiplier of the field: g-weighted average of p.

    Pairwise sums over the atoms in canonical order: the value the
    integrator records for this state, whatever order the field lists its
    atoms in. Raises DenominatorVanishingError when |sum of m*g| falls
    below the guard (``guarded_multiplier``), NumericalFailureError on overflow.
    """
    order, values, weights = canonical_atoms(u)
    with input_order(order):
        return guarded_multiplier(0.0, values, weights, u.domain_measure, pair)[2]


def rhs(u: AtomField, pair: NonlinearityPair) -> np.ndarray:
    """Per-atom rates of the mass-conserving dynamics.

    r_i = g(s_i) (p(s_i) - lam), in the field's atom order, with lam as
    ``lambda_of`` gives it. The weighted rate sum vanishes identically,
    which is the discrete mass-conservation identity.
    """
    order, values, weights = canonical_atoms(u)
    with input_order(order):
        rates = atom_rates(0.0, values, weights, u.domain_measure, pair)[0]
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
