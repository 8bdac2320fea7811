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
