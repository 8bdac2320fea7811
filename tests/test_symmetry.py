"""Oracles from the equation's own symmetries.

Two relations compare a run with a second run that the exact flow maps
onto it, at any atom count:

- scaling every weight and |Omega| by 2^k multiplies both sums of the
  multiplier by 2^k, so lam and the whole flow are unchanged; in floating
  point the scaling is exact, so the runs agree bit for bit;
- the mirror v = 1 - u under g~(v) = g(1 - v) and p~(v) = -p(1 - v), with
  p~ increasing and lam~ = -lam, maps H1 to H3 and H2 to H2. Step control
  scales its error by |values|, so the mirrored run takes other steps and
  agrees only to a multiple of rtol.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldyn import AtomField, IntegratorConfig, builtin_model, integrate
from nldyn.exprparse import build_model

# every field below lies in (-2, 3), and so does its mirror
_WORKING_RANGE = (-3.0, 4.0)
_VALUE_RANGES = {"H1": (1.0, 3.0), "H2": (0.0, 1.0), "H3": (-2.0, 0.0)}
# builtin -> (g~, p~) of its mirror, as expressions
_MIRRORS = {
    "logistic-identity": ("(1-u)*u", "u-1"),
    "logistic-cubic": ("(1-u)*u", "-((1-u)^3+(1-u))"),
}
# the mirror's bound on |u - (1 - v)| and |lam + lam~|, in units of rtol:
# over two sets of 40 seeded fields per rtol (2 to 20 atoms, t_max 10,
# atol = rtol/100) the worst was 9.0 rtol at rtol 1e-8 and 3.1 at 1e-10
_MIRROR_BOUND_RTOLS = 20.0


@st.composite
def fields(draw, min_atoms, max_atoms):
    """(builtin name, values, weights): a seeded random H1, H2 or H3 field,
    its values uniform over the regime's range, some drawn with ties."""
    name = draw(st.sampled_from(sorted(_MIRRORS)))
    regime = draw(st.sampled_from(sorted(_VALUE_RANGES)))
    n = draw(st.integers(min_atoms, max_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(*_VALUE_RANGES[regime], size=n)
    # one atom well inside the regime, so that it holds
    if regime == "H1":
        values[0] = max(values[0], 1.5)
    elif regime == "H3":
        values[0] = min(values[0], -0.5)
    if draw(st.booleans()):
        tied = rng.integers(0, n, size=n // 2 + 1)
        values[tied] = values[tied[0]]
    return name, values, rng.uniform(0.1, 1.0, size=n)


@pytest.fixture(scope="module")
def pairs():
    """builtin name -> (its pair, the pair of its mirror)."""
    return {name: (builtin_model(name, _WORKING_RANGE), build_model(*texts, _WORKING_RANGE))
            for name, texts in _MIRRORS.items()}


class TestPowerOfTwoScaling:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=fields(1, 39), k=st.sampled_from([-3, 5]))
    def test_scaled_weights_scale_only_the_integrals(self, pairs, case, k):
        name, values, weights = case
        pair = pairs[name][0]
        omega = math.fsum(weights.tolist())
        cfg = IntegratorConfig(t_max=20.0)
        ref = integrate(AtomField(values, weights, omega), pair, cfg)
        f = 2.0 ** k
        tr = integrate(AtomField(values, weights * f, omega * f), pair, cfg)
        assert tr.termination == ref.termination
        for attr in ("times", "values", "lambda_series", "steps"):
            assert getattr(tr, attr).tobytes() == getattr(ref, attr).tobytes(), attr
        for attr in ("mass_series", "energy_series", "dissipation_series"):
            assert getattr(tr, attr).tobytes() == (f * getattr(ref, attr)).tobytes(), attr
        assert tr.dissipated == f * ref.dissipated


class TestMirror:
    @pytest.mark.parametrize("rtol", [1e-8, 1e-10])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(case=fields(2, 20))
    def test_mirrored_run_mirrors_the_run(self, pairs, rtol, case):
        name, values, weights = case
        pair, mirror = pairs[name]
        omega = math.fsum(weights.tolist())
        cfg = IntegratorConfig(t_max=10.0, rtol=rtol, atol=rtol / 100.0)
        tr = integrate(AtomField(values, weights, omega), pair, cfg)
        mirrored = integrate(AtomField(1.0 - values, weights, omega), mirror, cfg)
        # the grid records both runs share; the last record of each is its
        # own last accepted state
        m = min(tr.times.size, mirrored.times.size) - 1
        assert tr.times[:m].tobytes() == mirrored.times[:m].tobytes()
        bound = _MIRROR_BOUND_RTOLS * rtol
        assert np.max(np.abs(tr.values[:m] - (1.0 - mirrored.values[:m])), initial=0.0) <= bound
        assert np.max(np.abs(tr.lambda_series[:m] + mirrored.lambda_series[:m]),
                      initial=0.0) <= bound
