"""Weighted value-atom fields, distribution functions, decreasing rearrangement.

A field on a domain of measure |Omega| is stored as atoms (value, weight):
the sets of points currently sharing one value. Because the dynamics move
every point with the same initial value identically, this representation
is lossless for every quantity the toolkit computes (integrals, L1
distances along one orbit, rearrangements, energies) and the spatial
geometry of the domain never enters.

The reductions here use exact summation (math.fsum), so integrals and
distances are independent of atom order. The rate kernel in ``model``
sums pairwise instead, over the atoms in ``canonical_order``, which is
independent of atom order too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainMismatchError, FieldError, PairingError

# ingestion renormalizes weight-sum mismatches up to this relative size
_RENORM_GATE = 1e-9
# ...and the canonical invariant is enforced at this one
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class AtomField:
    """Immutable weighted-atom field.

    ``values[i]`` is the common value of a set of measure ``weights[i]``.
    Weights are positive and sum to ``domain_measure``. Values need not be
    sorted: integration keeps atoms in their initial order, and
    ``normalize`` produces the canonical (strictly decreasing, merged)
    form.
    """

    values: np.ndarray
    weights: np.ndarray
    domain_measure: float

    def __init__(self, values, weights, domain_measure: float):
        values = np.asarray(values, dtype=float).copy()
        weights = np.asarray(weights, dtype=float).copy()
        domain_measure = float(domain_measure)
        if values.ndim != 1 or values.size == 0:
            raise FieldError("field needs a nonempty 1-d list of atom values")
        if weights.shape != values.shape:
            raise FieldError("values and weights must have identical shape")
        if not 0.0 < domain_measure < math.inf:
            raise FieldError(
                f"domain measure must be positive and finite, got {domain_measure!r}"
            )
        if not np.all(np.isfinite(values)):
            raise FieldError("atom values must be finite")
        if not np.all(weights > 0.0):
            raise FieldError("atom weights must be positive")
        try:
            total = math.fsum(weights.tolist())
        except OverflowError:
            raise FieldError("atom weights sum past the float range") from None
        rel = abs(total - domain_measure) / domain_measure
        if rel > _RENORM_GATE:
            raise FieldError(
                f"weights sum to {total!r}, domain measure is {domain_measure!r} "
                f"(relative mismatch {rel:.3e} beyond {_RENORM_GATE:g})"
            )
        if rel > _WEIGHT_TOL:
            weights = weights * (domain_measure / total)
        values.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "domain_measure", domain_measure)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.weights.tolist()))

    def __len__(self) -> int:
        return self.values.size

    def normalize(self) -> "AtomField":
        """Canonical form: values strictly decreasing, equal values merged."""
        return AtomField(*_group_by_value(self.values, self.weights), self.domain_measure)

    @property
    def is_canonical(self) -> bool:
        return bool(np.all(np.diff(self.values) < 0.0))


@dataclass(frozen=True)
class StepProfile:
    """Nonincreasing step function on (0, |Omega|).

    ``breakpoints`` runs 0 = y_0 < ... < y_k = |Omega|; ``plateau_values``
    holds the strictly decreasing value on each interval.
    """

    breakpoints: np.ndarray
    plateau_values: np.ndarray

    def __init__(self, breakpoints, plateau_values):
        breakpoints = np.asarray(breakpoints, dtype=float).copy()
        plateau_values = np.asarray(plateau_values, dtype=float).copy()
        if breakpoints.size != plateau_values.size + 1:
            raise FieldError("profile needs one more breakpoint than plateau")
        if breakpoints[0] != 0.0:
            raise FieldError("profile breakpoints must start at 0")
        if not np.all(np.diff(breakpoints) > 0.0):
            raise FieldError("profile breakpoints must be strictly increasing")
        if not np.all(np.diff(plateau_values) < 0.0):
            raise FieldError("plateau values must be strictly decreasing")
        breakpoints.flags.writeable = False
        plateau_values.flags.writeable = False
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "plateau_values", plateau_values)

    @property
    def domain_measure(self) -> float:
        return float(self.breakpoints[-1])

    def value_at(self, y: float) -> float:
        """Value at y in (0, |Omega|); right-continuous at breakpoints."""
        idx = int(np.searchsorted(self.breakpoints, y, side="right")) - 1
        idx = min(max(idx, 0), self.plateau_values.size - 1)
        return float(self.plateau_values[idx])

    def to_field(self) -> AtomField:
        """Atom field with one atom per plateau (round-trip of rearrange)."""
        widths = np.diff(self.breakpoints)
        return AtomField(self.plateau_values, widths, self.domain_measure)

    def staircase(self) -> list[tuple[float, float]]:
        """(y, value) plot points with each breakpoint repeated."""
        pts: list[tuple[float, float]] = []
        for i, v in enumerate(self.plateau_values.tolist()):
            pts.append((float(self.breakpoints[i]), v))
            pts.append((float(self.breakpoints[i + 1]), v))
        return pts


def _group_by_value(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The distinct values, descending, and the exact (fsum) merged weight of each.

    Atoms are taken in the order ``argsort(values, stable)[::-1]``; a group's
    value is its last member's, which fixes the sign of a zero plateau.
    """
    order = np.argsort(values, kind="stable")[::-1]
    v = values[order]
    w = weights[order].tolist()
    cuts = np.flatnonzero(v[1:] != v[:-1]) + 1
    starts, ends = [0, *cuts.tolist()], [*cuts.tolist(), v.size]
    return v[np.asarray(ends) - 1], [math.fsum(w[a:b]) for a, b in zip(starts, ends)]


def _prefix_sums(weights: list[float]) -> list[float]:
    """0 and the exact prefix sums of the weights, each rounded once, as by
    ``math.fsum``.

    Every weight is an integer multiple of 1/D, D the largest power-of-two
    denominator among them, so the prefix sums are sums of integers, and
    one int / int division rounds each correctly. Linear in the number of
    weights, where an fsum per prefix is quadratic.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    den = max((d for _, d in ratios), default=1)
    return [s / den for s in itertools.accumulate((n * (den // d) for n, d in ratios), initial=0)]


# ------------------------------------------------------------------ builders

def from_samples(values: Sequence[float] | Iterable[float], domain_measure: float) -> AtomField:
    """Equal-weight atoms from grid samples, merged into canonical form."""
    values = list(values)
    if not values:
        raise FieldError("cannot build a field from an empty sample list")
    n = len(values)
    w = float(domain_measure) / n
    return AtomField(values, [w] * n, domain_measure).normalize()


# ---------------------------------------------------------------- integrals

def canonical_order(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The atom order the rate kernel sums in: value decreasing, ties by weight.

    Any two listings of one set of (value, weight) atoms come out as the
    same arrays in this order, so a sum taken over them in this order,
    pairwise or otherwise, does not depend on how a field lists its atoms.
    """
    return np.lexsort((weights, -values))


def mass(u: AtomField) -> float:
    """Integral of the field: exact weighted sum of atom values."""
    return math.fsum((u.weights * u.values).tolist())


def integral_of(u: AtomField, h: Callable) -> float:
    """Exact integral of h(u) over the domain: sum of m_i h(s_i).

    h is called once, on the whole array of atom values, and must return
    a float array of its shape (the ``model.NonlinearityPair`` contract).
    """
    return math.fsum((u.weights * h(u.values)).tolist())


def distribution(u: AtomField, s: float) -> float:
    """Measure of the superlevel set {w > s}; nonincreasing, right-continuous."""
    values, weights = _group_by_value(u.values, u.weights)
    return math.fsum(w for v, w in zip(values.tolist(), weights) if v > s)


# ------------------------------------------------------------- rearrangement

def rearrange(u: AtomField) -> StepProfile:
    """Decreasing rearrangement of the field.

    Sorts atoms by value descending and lays them out on (0, |Omega|);
    equal values merge into one plateau, which starts at the exact prefix
    sum of the plateaus before it. The result is equimeasurable with the
    input (identical distribution functions), up to the plateaus it omits:
    one whose exact prefix sum does not advance past its start, since its
    measure is below the ulp of its position, and those that the rounded
    prefix sums push to or past |Omega| (each start is clipped at |Omega|).
    Linear in the number of atoms after the sort.
    """
    values, weights = _group_by_value(u.values, u.weights)
    starts = np.minimum(_prefix_sums(weights[:-1]), u.domain_measure)
    kept = np.diff(np.append(starts, u.domain_measure)) > 0.0
    return StepProfile(np.append(starts[kept], u.domain_measure), values[kept])


# ----------------------------------------------------------------- distances

def l1_distance(u: AtomField, v: AtomField) -> float:
    """L1 distance between co-evolved fields (same weights, same atom order)."""
    if len(u) != len(v) or not np.array_equal(u.weights, v.weights):
        raise PairingError(
            "fields are not co-evolved: weight vectors differ in length, "
            "order or values"
        )
    return math.fsum((u.weights * np.abs(u.values - v.values)).tolist())


def profile_l1_distance(a: StepProfile, b: StepProfile) -> float:
    """Exact L1 distance between two step profiles via common refinement."""
    da, db = a.domain_measure, b.domain_measure
    if abs(da - db) > _WEIGHT_TOL * max(da, db):
        raise DomainMismatchError(
            f"profiles live on domains of measure {da!r} and {db!r}"
        )
    # each piece reads a profile on its last interval starting at or before
    # it, so a domain short by roundoff keeps its last value (``value_at``)
    bps_a, bps_b = a.breakpoints, b.breakpoints
    # np.unique's sort and adjacent-inequality mask, without the numpy.ma
    # import that np.unique makes
    cuts = np.sort(np.concatenate([bps_a, bps_b]))
    cuts = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]
    ia = np.searchsorted(bps_a[:-1], cuts[:-1], side="right") - 1
    ib = np.searchsorted(bps_b[:-1], cuts[:-1], side="right") - 1
    return math.fsum((np.diff(cuts) * np.abs(a.plateau_values[ia] - b.plateau_values[ib])).tolist())


# -------------------------------------------------------------- serialization

def staircase_lines(profile: StepProfile) -> str:
    """Two-column staircase text block (gnuplot-ready)."""
    rows = [f"{y:.17g} {v:.17g}" for y, v in profile.staircase()]
    return "\n".join(rows) + "\n"


__all__ = [
    "AtomField",
    "StepProfile",
    "from_samples",
    "canonical_order",
    "mass",
    "integral_of",
    "distribution",
    "rearrange",
    "l1_distance",
    "profile_l1_distance",
    "staircase_lines",
]
