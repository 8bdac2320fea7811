"""Independent oracles used by the tests.

Deliberately self-contained: the Euler stepper below evaluates the
dynamics from the raw definition (weighted sums over atoms) and shares
no code with the adaptive integrator it checks.
"""

import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

_SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    two loops above, each start clipped at |Omega|, leaving out each plateau
    whose interval is empty."""
    groups = group_by_value_reference(u.values, u.weights)
    starts = prefix_sums_reference([w for _, w in groups[:-1]])
    bps = [min(b, u.domain_measure) for b in starts] + [u.domain_measure]
    kept = [k for k in range(len(groups)) if bps[k + 1] > bps[k]]
    return [bps[k] for k in kept] + [u.domain_measure], [groups[k][0] for k in kept]


def order_gap_reference(values):
    """The order-preservation margin in one pass over the whole run: the
    smallest gap between neighbours in the first row's stable decreasing
    order, or minus the largest split of an initial tie when that is worse."""
    sorted_v = values[:, np.argsort(-values[0], kind="stable")]
    gaps = sorted_v[:, :-1] - sorted_v[:, 1:]
    tied0 = gaps[0] == 0.0
    strict, ties = gaps[:, ~tied0], gaps[:, tied0]
    worst = float(np.min(strict)) if strict.size else 0.0
    if np.any(ties != 0.0):
        worst = float(np.minimum(worst, -np.max(np.abs(ties))))
    return worst


def run_cli_bounded(args, cwd, timeout=30.0, address_space=2 << 30):
    """(exit code, stdout, stderr) of ``python -m nldyn *args`` run in cwd
    with a time limit and an address-space limit (bytes), so that a hang or
    a runaway allocation fails the calling test instead of the host.

    A run past the time limit is killed and raises
    subprocess.TimeoutExpired.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "nldyn", *args], cwd=cwd, env=env, preexec_fn=limit,
        capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def two_atom_exact(s0, weights, g, p, s_lim, times, nodes=20):
    """Exact states (K, 2) of a two-atom field at the given times, in float64.

    Mass fixes s2 = (m0 - w1 s1) / w2, so s1 solves the scalar ODE
    s1' = f(s1) = w2 g1 g2 (p1 - p2) / (w1 g1 + w2 g2), the two-atom form
    of g (p - lam). Its time t(s) = integral of 1/f from s1(0) to s is
    summed with ``nodes``-point Gauss-Legendre panels that halve in length
    toward s_lim, the limit of s1, where 1/f is singular; s1(t) is t(s)
    inverted by bisection to the last bit, on a bracket that stops short
    of s_lim.
    """
    (a, b), (w1, w2) = s0, weights
    m0 = w1 * a + w2 * b
    x, wq = np.polynomial.legendre.leggauss(nodes)

    def f(s):
        r = (m0 - w1 * s) / w2
        g1, g2 = g(s), g(r)
        return w2 * g1 * g2 * (p(s) - p(r)) / (w1 * g1 + w2 * g2)

    def t_of(s):
        # panel edges as distances from s_lim: d0, d0/2, d0/4, ... down to s
        d, edges = s - s_lim, [a - s_lim]
        while abs(edges[-1]) > 2.0 * abs(d):
            edges.append(edges[-1] / 2.0)
        edges = np.array(edges + [d]) + s_lim
        half, mid = np.diff(edges) / 2.0, (edges[1:] + edges[:-1]) / 2.0
        return float(np.sum(half[:, None] * wq / f(mid[:, None] + half[:, None] * x)))

    far = a - s_lim
    while t_of(s_lim + far) <= times[-1]:
        far /= 256.0
    stop = s_lim + far
    assert stop != s_lim, "every record time must come before s1 reaches its limit"
    out = []
    for tk in np.asarray(times, dtype=float).tolist():
        lo, hi = a, stop  # t(lo) <= tk < t(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if t_of(mid) <= tk:
                lo = mid
            else:
                hi = mid
        out.append((lo, (m0 - w1 * lo) / w2))
    return np.array(out)
