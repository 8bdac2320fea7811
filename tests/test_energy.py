"""Tests for nldyn.energy: Lyapunov values, dissipation, energy limit."""

import numpy as np
import pytest

from helpers import random_h1_atoms
from nldyn import (
    AtomField,
    DissipationUnavailableError,
    IntegratorConfig,
    NotConvergedError,
    NumericalFailureError,
    builtin_model,
    classify_hypothesis,
    dissipation_constant,
    dissipation_rate,
    energy_limit,
    integrate,
    lyapunov,
    rhs,
)


class TestLyapunov:
    def test_constant_two(self, logistic):
        """E_1 of the constant 2 on a unit domain: P(2) = 2."""
        assert lyapunov(AtomField([2.0], [1.0], 1.0), logistic, 1) == 2.0

    def test_zero_state(self, logistic):
        assert lyapunov(AtomField([0.0], [1.0], 1.0), logistic, 2) == 0.0

    def test_index_two_flips_sign(self, logistic):
        u = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        assert lyapunov(u, logistic, 2) == -lyapunov(u, logistic, 1)

    def test_bad_index(self, logistic):
        with pytest.raises(ValueError):
            lyapunov(AtomField([1.0], [1.0], 1.0), logistic, 4)


class TestDissipationRate:
    def test_stationary_field(self, logistic):
        """Every atom sits at g = 0 or p = lam: the rate vanishes."""
        u = AtomField([1.0, 2.0], [0.5, 0.5], 1.0)
        assert dissipation_rate(u, logistic, 1) == pytest.approx(0.0, abs=1e-14)

    def test_h1_rate_value(self, logistic):
        """Hand oracle: lam = 41/22, rate = -24/484 - 9/484 = -3/44."""
        u = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        assert dissipation_rate(u, logistic, 1) == pytest.approx(-3.0 / 44.0, abs=1e-14)

    def test_h2_sign_flip_keeps_rate_nonpositive(self, logistic):
        """Atoms at 0.3 / 0.7: lam = 0.5, rate = -(0.21)(0.2)^2 = -0.0084."""
        u = AtomField([0.3, 0.7], [0.5, 0.5], 1.0)
        assert dissipation_rate(u, logistic, 2) == pytest.approx(-0.0084, abs=1e-14)
        assert dissipation_rate(u, logistic, 2) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize(
        "values", [[1e150, 2.0], [1e200, -1e200]], ids=["g*p overflow", "opposite infinities"]
    )
    def test_overflow_raises(self, logistic, values):
        """A non-finite g or p at an atom raises, as it does in integrate."""
        with pytest.raises(NumericalFailureError):
            dissipation_rate(AtomField(values, [0.5, 0.5], 1.0), logistic, 1)

    @pytest.mark.parametrize("name", ["logistic-identity", "logistic-cubic"])
    def test_equals_integrator_record(self, name):
        """On H1 fields the rate is bitwise the one integrate records at t = 0."""
        pair = builtin_model(name)
        cfg = IntegratorConfig(t_max=1e-3, record_every=1e-3)
        for values, weights in random_h1_atoms(5, 100):
            u = AtomField(values, weights, float(np.sum(weights)))
            expected = integrate(u, pair, cfg).dissipation_series[0]
            assert dissipation_rate(u, pair, 1) == expected


class TestDissipationConstant:
    def test_h1_logistic(self, logistic):
        """min of u(1-u) on [1, 2] is -2 at u = 2, so C = 1/2."""
        hyp = classify_hypothesis(AtomField([1.5, 2.0], [0.5, 0.5], 1.0), logistic)
        assert dissipation_constant(hyp, logistic) == pytest.approx(0.5, rel=1e-8)

    def test_h3_logistic(self, logistic):
        """min of g on [-1, 0] is g(-1) = -2, so C = 1/2."""
        hyp = classify_hypothesis(AtomField([-1.0, -0.2], [0.5, 0.5], 1.0), logistic)
        assert dissipation_constant(hyp, logistic) == pytest.approx(0.5, rel=1e-8)

    def test_degenerate_interval_unavailable(self, logistic):
        from nldyn.model import HypothesisClass

        degenerate = HypothesisClass(tag="H1", essinf_a=1.0, esssup_b=1.0, integral_g_u0=0.0)
        with pytest.raises(DissipationUnavailableError):
            dissipation_constant(degenerate, logistic)

    def test_h2_unavailable(self, logistic):
        hyp = classify_hypothesis(AtomField([0.3, 0.7], [0.5, 0.5], 1.0), logistic)
        with pytest.raises(DissipationUnavailableError):
            dissipation_constant(hyp, logistic)

    def test_dissipation_bounded_by_constant_times_rate_norm(self, h1_run, logistic):
        """dE/dt <= -C * sum of m r^2 pointwise along the H1 orbit."""
        C = dissipation_constant(h1_run.hypothesis, logistic)
        for snap, diss in zip(h1_run.snapshots[::100], h1_run.dissipation_series[::100]):
            r = rhs(snap, logistic)
            bound = -C * float(np.dot(snap.weights, r * r))
            assert diss <= bound + 1e-9


class TestEnergyRecord:
    def test_h1_bundle(self, logistic):
        from nldyn import classify_hypothesis, energy_record

        u = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        rec = energy_record(u, logistic, classify_hypothesis(u, logistic))
        assert rec.hypothesis_index == 1
        assert rec.value == lyapunov(u, logistic, 1)
        assert rec.dissipation == pytest.approx(-3.0 / 44.0, abs=1e-14)
        assert rec.C_constant == pytest.approx(0.5, rel=1e-8)
        assert rec.dissipation <= 1e-12

    def test_h2_constant_unavailable(self, logistic):
        from nldyn import classify_hypothesis, energy_record

        u = AtomField([0.7, 0.3], [0.5, 0.5], 1.0)
        rec = energy_record(u, logistic, classify_hypothesis(u, logistic))
        assert rec.hypothesis_index == 2
        assert rec.C_constant is None
        assert rec.dissipation <= 1e-12


class TestEnergyLimit:
    def test_constant_trajectory(self, logistic):
        u = AtomField([2.0], [1.0], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=1.0))
        el = energy_limit(tr)
        assert el.value == 2.0
        assert el.error_bar == 0.0

    def test_h1_run_estimate(self, h1_run, logistic):
        """Settled H1 orbit: the limit equals P(1.75) with a tiny error bar."""
        el = energy_limit(h1_run)
        assert el.value == pytest.approx(logistic.antideriv_P(1.75), abs=1e-9)
        assert el.error_bar < 1e-8

    def test_truncated_run_not_converged(self, logistic):
        u = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=0.5, record_every=0.1))
        with pytest.raises(NotConvergedError):
            energy_limit(tr)

    def test_limit_is_run_invariant(self, logistic):
        """Two tolerances, same initial state: limits agree to 1e-6."""
        u = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        a = integrate(u, logistic, IntegratorConfig(t_max=200.0, rtol=1e-8, record_every=0.5))
        b = integrate(u, logistic, IntegratorConfig(t_max=200.0, rtol=1e-10, record_every=0.5))
        assert energy_limit(a).value == pytest.approx(energy_limit(b).value, abs=1e-6)


class TestEnergySeriesAlongRuns:
    @pytest.mark.parametrize("fixture", ["h1_run", "h2_run", "h3_run"])
    def test_monotone_nonincreasing(self, fixture, request):
        tr = request.getfixturevalue(fixture)
        assert float(np.max(np.diff(tr.energy_series))) <= 1e-9

    def test_integrated_dissipation_identity(self, h1_run):
        """Energy drop equals the time integral of the recorded rate."""
        integral = float(np.trapezoid(h1_run.dissipation_series, h1_run.times))
        drop = float(h1_run.energy_series[-1] - h1_run.energy_series[0])
        assert abs(drop - integral) <= 1e-6 * abs(h1_run.energy_series[0])
