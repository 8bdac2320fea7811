"""Independent oracles used by the tests.

Deliberately self-contained: the Euler stepper below evaluates the
dynamics from the raw definition (weighted sums over atoms) and shares
no code with the adaptive integrator it checks.
"""

import math

import numpy as np


def euler_orbit(values, weights, g, p, dt, n_steps):
    """Fixed-step explicit Euler on the atom dynamics; returns final values."""
    v = np.asarray(values, dtype=float).copy()
    w = np.asarray(weights, dtype=float)
    for _ in range(n_steps):
        gv = np.asarray(g(v), dtype=float)
        pv = np.asarray(p(v), dtype=float)
        num = math.fsum((w * gv * pv).tolist())
        den = math.fsum((w * gv).tolist())
        lam = num / den
        v = v + dt * gv * (pv - lam)
    return v


def random_h1_atoms(seed, count, n_max=7):
    """Seeded (values, weights) pairs of H1 fields: 2 to n_max atoms in [1.01, 3]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        yield rng.uniform(1.01, 3.0, size=n), rng.uniform(0.1, 1.0, size=n)


def group_by_value_reference(values, weights):
    """(value, merged weight) pairs, value descending, one atom at a time.

    The per-atom loop the field module grouped with before its numpy cuts:
    atoms in the order argsort(values, stable)[::-1], each group's weight
    an fsum of its members and its value the last member's.
    """
    order = np.argsort(values, kind="stable")[::-1]
    groups = []
    members = []
    current = None
    for idx in order:
        v = float(values[idx])
        if current is None or v == current:
            members.append(float(weights[idx]))
            current = v
        else:
            groups.append((current, math.fsum(members)))
            current = v
            members = [float(weights[idx])]
    groups.append((current, math.fsum(members)))
    return groups


def prefix_sums_reference(weights):
    """0 and every prefix sum of the weights, one math.fsum per prefix
    (quadratic in the number of weights)."""
    return [math.fsum(weights[:k]) for k in range(len(weights) + 1)]


def rearrange_reference(u):
    """Breakpoints and plateau values of u's decreasing rearrangement from the
    two loops above, leaving out each plateau whose interval is empty."""
    groups = group_by_value_reference(u.values, u.weights)
    bps = prefix_sums_reference([w for _, w in groups[:-1]]) + [u.domain_measure]
    kept = [k for k in range(len(groups)) if bps[k + 1] > bps[k]]
    return [bps[k] for k in kept] + [u.domain_measure], [groups[k][0] for k in kept]
