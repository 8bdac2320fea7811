"""Tests for nldyn.omega: the scalar predictor, extraction, consistency."""

import dataclasses
import re

import numpy as np
import pytest

from nldyn import (
    AtomField,
    ComparisonError,
    InfeasibleMeasureError,
    IntegratorConfig,
    NoRootError,
    NotConvergedError,
    PredictionResidualError,
    build_model,
    builtin_model,
    consistency_check,
    energy_limit,
    extract_limit,
    gfunction,
    integrate,
    predict_h1,
    predict_h3,
    sample_g_monotone,
)
from nldyn import omega
from nldyn.dynamics import CheckResult
from nldyn.model import NonlinearityPair

RNG = np.random.default_rng(5)


class TestGFunction:
    def test_closed_form_identity_p(self, logistic):
        """For p = id, G(s) = (s^2/2 - 1/2)/(s - 1) = (s + 1)/2."""
        gf = gfunction(logistic, 1.0)
        for s in (1.5, 2.0, 3.0, 10.0):
            assert gf(s) == pytest.approx((s + 1.0) / 2.0, rel=1e-12)

    def test_reference_zero(self, logistic):
        gf = gfunction(logistic, 0.0)
        assert gf(-2.0) == pytest.approx(-1.0, rel=1e-12)

    def test_quadrature_pair_integral_mean(self):
        pair = build_model("u*(1-u)", "u")
        gf = gfunction(pair, 1.0)
        # near the reference point the integral mean stays clean
        assert gf(1.0 + 1e-9) == pytest.approx(1.0, rel=1e-6)

    def test_monotone_audit_logistic(self, logistic):
        report = sample_g_monotone(logistic, 1.0, 1.0e4)
        assert report.passed
        # G = (s+1)/2 increments by half the grid spacing
        assert report.worst == pytest.approx(0.5 * (1e4 - 1.0) / 10_000, rel=1e-3)

    def test_monotone_audit_reference_zero_analog(self, logistic):
        assert sample_g_monotone(logistic, 0.0, -1.0e4).passed

    def test_monotone_audit_quadrature_pair(self):
        pair = build_model("u*(1-u)", "u + 0.1*u*exp(u)")
        assert not pair.closed_form_P
        report = sample_g_monotone(pair, 1.0, 20.0)
        assert report.passed
        grid = 1.0 + 19.0 * np.arange(1, 10_001) / 10_000
        P = lambda s: 0.5 * s * s + 0.1 * ((s - 1.0) * np.exp(s) + 1.0)
        exact = float(np.min(np.diff((P(grid) - P(1.0)) / (grid - 1.0))))
        assert report.worst == pytest.approx(exact, rel=1e-6)

    def test_violation_detected(self, logistic):
        """A decreasing p (never accepted by build_model) breaks the audit."""
        broken = NonlinearityPair(
            g=logistic.g,
            p=lambda u: -1.0 * u,
            p_prime=lambda u: 0.0 * u - 1.0,
            antideriv_P=lambda s: -0.5 * s * s,
            closed_form_P=True,
        )
        assert not sample_g_monotone(broken, 1.0, 100.0).passed


class TestPredictH1:
    def test_closed_form_right_side_two(self, logistic):
        """G(mu) = 2 with G(s) = (s+1)/2 gives mu = 3; inputs chosen so the
        right side is exactly 2: m0 = 2, E = 2 * (m0 - 1) + P(1) = 2.5."""
        pred = predict_h1(2.0, 2.5, 1.0, logistic)
        assert pred.plateau_values[0] == pytest.approx(3.0, abs=1e-10)
        assert pred.plateau_measures[0] == pytest.approx(0.5, abs=1e-10)
        assert pred.plateau_values[1] == 1.0

    def test_constant_limit_consistency(self, logistic):
        """Substituting the constant state: m0 = 1.75, E = P(1.75) = 1.53125
        forces mu = 1.75 with the plateau filling the whole domain."""
        pred = predict_h1(1.75, 1.53125, 1.0, logistic)
        assert pred.plateau_values == (1.75,)
        assert pred.plateau_measures == (1.0,)

    def test_defining_equation_residual(self, logistic):
        pred = predict_h1(2.0, 2.5, 1.0, logistic)
        assert abs(pred.mass_residual) <= 1e-10
        assert abs(pred.energy_residual) <= 1e-10

    def test_mass_below_domain_rejected(self, logistic):
        with pytest.raises(ValueError):
            predict_h1(0.9, 1.0, 1.0, logistic)

    def test_no_root_reports_range(self, logistic):
        # E below the P(1)|Omega| floor puts the right side under G(1+)
        with pytest.raises(NoRootError) as info:
            predict_h1(2.0, 0.4, 1.0, logistic)
        assert info.value.value_range is not None

    def test_infeasible_measure(self, logistic):
        # right side barely above G(1+): mu - 1 tiny, a1 = (m0-1)/(mu-1) huge
        with pytest.raises((InfeasibleMeasureError, NoRootError)):
            predict_h1(2.0, 0.5 + 1.0000001 * 1.0, 1.0, logistic)

    def test_hundred_random_right_sides(self, logistic):
        """Bisection vs the closed form mu = 2 R - 1 (p = id)."""
        for _ in range(100):
            R = float(RNG.uniform(1.5, 1000.0))
            m0, om = 2.0, 1.0
            E1 = R * (m0 - om) + 0.5 * om
            pred = predict_h1(m0, E1, om, logistic)
            assert pred.plateau_values[0] == pytest.approx(2.0 * R - 1.0, abs=1e-10, rel=1e-10)


class TestPredictH3:
    def test_closed_form(self, logistic):
        """P(xi)/xi = xi/2 = -1 gives xi = -2, a1 = m0/xi = 0.5."""
        pred = predict_h3(-1.0, 1.0, 1.0, logistic)
        assert pred.plateau_values[0] == pytest.approx(-2.0, abs=1e-10)
        assert pred.plateau_measures[0] == pytest.approx(0.5, abs=1e-10)
        assert pred.plateau_values[1] == 0.0

    def test_constant_limit_consistency(self, logistic):
        """m0 = -0.5, E = P(-0.5) = 0.125: xi = -0.5 fills the domain."""
        pred = predict_h3(-0.5, 0.125, 1.0, logistic)
        assert pred.plateau_values == (-0.5,)
        assert pred.plateau_measures == (1.0,)

    def test_residuals(self, logistic):
        pred = predict_h3(-1.0, 1.0, 1.0, logistic)
        assert abs(pred.mass_residual) <= 1e-10
        assert abs(pred.energy_residual) <= 1e-10

    def test_nonnegative_mass_rejected(self, logistic):
        with pytest.raises(ValueError):
            predict_h3(0.5, 1.0, 1.0, logistic)

    def test_infeasible_measure(self, logistic):
        # xi = -0.05 (from E/m0 = -0.025) makes a1 = m0/xi = 2 > |Omega|
        with pytest.raises((InfeasibleMeasureError, NoRootError)):
            predict_h3(-0.1, 0.0025, 1.0, logistic)

    def test_hundred_random_right_sides(self, logistic):
        """Bisection vs xi = 2 E / m0 (p = id)."""
        for _ in range(100):
            Rp = float(RNG.uniform(-1000.0, -0.5))
            m0 = -1.0
            E3 = Rp * m0
            pred = predict_h3(m0, E3, 1.0, logistic)
            assert pred.plateau_values[0] == pytest.approx(2.0 * Rp, abs=1e-10, rel=1e-10)


def _assert_infeasible_message(message, a1):
    found = re.fullmatch(r"plateau measure (\S+) exceeds domain measure 1\.0", message)
    assert found is not None, message
    assert float(found.group(1)) == pytest.approx(a1, rel=1e-9)


class TestPredictorMessages:
    """Both regimes' failures, pinned to their exact text and value ranges."""

    def test_h1_near_side(self, logistic):
        target = (0.4 - 0.5 * 1.0) / (2.0 - 1.0)
        with pytest.raises(NoRootError) as info:
            predict_h1(2.0, 0.4, 1.0, logistic)
        gf = gfunction(logistic, 1.0)
        assert info.value.value_range == (gf(1.0 + 1e-12), gf(4.0))
        assert str(info.value) == (
            f"right-hand side {target!r} at or below G(1+)"
            " (function range sampled: [1.0, 2.5])"
        )

    def test_h1_far_side(self, logistic):
        # G(s) = (s + 1)/2 reaches the right side 1e6 only at s = 2e6 - 1
        with pytest.raises(NoRootError) as info:
            predict_h1(2.0, 1e6 + 0.5, 1.0, logistic)
        gf = gfunction(logistic, 1.0)
        assert info.value.value_range == (gf(1.0 + 1e-12), gf(1e6))
        assert str(info.value) == (
            "no sign change up to 1e+06 (function range sampled: [1.0, 500000.5])"
        )

    def test_h3_near_side(self, logistic):
        with pytest.raises(NoRootError) as info:
            predict_h3(-1.0, -1.0, 1.0, logistic)
        gf = gfunction(logistic, 0.0)
        assert info.value.value_range == (gf(-2.0), gf(-1e-12))
        assert str(info.value) == (
            "right-hand side 1.0 at or above G(0-)"
            " (function range sampled: [-1.0, -5e-13])"
        )

    def test_h3_far_side(self, logistic):
        # G(s) = s/2 reaches the right side -1e6 only at s = -2e6
        with pytest.raises(NoRootError) as info:
            predict_h3(-1.0, 1e6, 1.0, logistic)
        gf = gfunction(logistic, 0.0)
        assert info.value.value_range == (gf(-1e6), gf(-1e-12))
        assert str(info.value) == (
            "no sign change down to -1e+06 (function range sampled: [-500000.0, -5e-13])"
        )

    def test_preconditions(self, logistic):
        with pytest.raises(ValueError) as info:
            predict_h1(0.5, 1.0, 1.0, logistic)
        assert str(info.value) == "H1 prediction needs m0 > |Omega| (got m0 = 0.5, |Omega| = 1.0)"
        with pytest.raises(ValueError) as info:
            predict_h3(0.0, 1.0, 1.0, logistic)
        assert str(info.value) == "H3 prediction needs m0 < 0 (got 0.0)"
        for predict, m0 in ((predict_h1, 2.0), (predict_h3, -1.0)):
            with pytest.raises(ValueError, match="^energy limit must be finite$"):
                predict(m0, float("nan"), 1.0, logistic)

    def test_infeasible_measure_h1(self, logistic):
        # G(mu) = 1.5 gives mu = 2, so a1 = (m0 - 1)/(mu - 1) = 2 > |Omega|
        with pytest.raises(InfeasibleMeasureError) as info:
            predict_h1(3.0, 3.5, 1.0, logistic)
        _assert_infeasible_message(str(info.value), 2.0)

    def test_infeasible_measure_h3(self, logistic):
        # G(xi) = -0.025 gives xi = -0.05, so a1 = m0/xi = 2 > |Omega|
        with pytest.raises(InfeasibleMeasureError) as info:
            predict_h3(-0.1, 0.0025, 1.0, logistic)
        _assert_infeasible_message(str(info.value), 2.0)

    def test_background_plateau_is_the_regime_root(self, logistic):
        h1 = predict_h1(2.0, 2.5, 1.0, logistic)
        h3 = predict_h3(-1.0, 1.0, 1.0, logistic)
        assert (h1.hypothesis, h1.plateau_values[1]) == ("H1", 1.0)
        assert (h3.hypothesis, h3.plateau_values[1]) == ("H3", 0.0)


    @pytest.mark.parametrize("measure", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("predict, m0", [(predict_h1, 2.0), (predict_h3, -1.0)])
    def test_domain_measure_must_be_positive_and_finite(self, logistic, predict, m0, measure):
        with pytest.raises(ValueError, match="^domain measure must be positive and finite"):
            predict(m0, 1.0, measure, logistic)


class TestResidualGate:
    def test_large_energy_limit_within_relative_bound(self):
        # an energy residual of 1.3e-8 on |E| = 1.2e7 is a relative 1e-15
        pair = builtin_model("logistic-cubic")
        pred = predict_h3(-4.517471781237884, 12288603.207467718, 1.7240025663608955, pair)
        assert abs(pred.energy_residual) <= 1e-10 * 12288603.207467718
        assert abs(pred.mass_residual) <= 1e-10 * 4.517471781237884

    @pytest.mark.parametrize("predict, m0, energy", [(predict_h1, 2.0, 2.5), (predict_h3, -1.0, 1.0)])
    def test_root_off_by_1e_6_is_refused(self, logistic, monkeypatch, predict, m0, energy):
        bisect = omega._bisect_increasing
        monkeypatch.setattr(omega, "_bisect_increasing", lambda h, lo, hi: bisect(h, lo, hi) + 1e-6)
        with pytest.raises(PredictionResidualError, match="^constraint residuals exceed"):
            predict(m0, energy, 1.0, logistic)


    def test_row_passes_exactly_when_the_predictor_gate_does(self, logistic):
        pred = predict_h1(2.0, 2.5, 1.0, logistic)
        # the mass bound is 1e-10 * max(1, |m0|, |Omega|) = 2e-10
        for res, passed in ((1.9e-10, True), (2e-10, True), (2.1e-10, False)):
            row = omega.residual_check(
                dataclasses.replace(pred, mass_residual=res), 2.0, 2.5, logistic
            )
            assert (row.name, row.passed, row.tol) == ("predictor-residuals", passed, 1e-10)
            assert row.worst == res / 2.0
        assert row.detail == "mass 2.100e-10 (bound 2.000e-10), energy 0.000e+00 (bound 2.500e-10)"


class TestAuditRows:
    def test_consistency_row(self, logistic):
        a = predict_h1(2.0, 2.5, 1.0, logistic)
        b = dataclasses.replace(a, source="Empirical", plateau_measures=(0.75, 0.25))
        row = consistency_check(a, b, tol=1e-3)
        assert isinstance(row, CheckResult)
        assert (row.name, row.passed, row.tol) == ("predictor-consistency", False, 1e-3)
        # measure gap 0.25; the staircases differ by 3 - 1 on a set of measure 0.25
        assert row.worst == pytest.approx(0.5, abs=1e-12)

    def test_monotonicity_row(self, logistic):
        row = sample_g_monotone(logistic, 1.0, 3.0, n=4)
        assert isinstance(row, CheckResult)
        assert (row.name, row.passed, row.tol) == ("g-monotonicity", True, 0.0)
        # G = (s + 1)/2 on the grid 1.5, 2, 2.5, 3 steps by 0.25 everywhere
        assert row.worst == 0.25
        assert row.detail == (
            "span [1.5, 3], smallest step at 1.5"
        )


class TestExtractLimit:
    def test_stationary_two_plateau_field(self, logistic):
        u = AtomField([1.0, 2.0], [0.5, 0.5], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=10.0))
        pred = extract_limit(tr)
        assert pred.plateau_values == (2.0, 1.0)
        assert pred.plateau_measures == (0.5, 0.5)
        assert pred.source == "Empirical"

    def test_constant_trajectory_single_plateau(self, logistic):
        tr = integrate(AtomField([0.5], [2.0], 2.0), logistic, IntegratorConfig(t_max=1.0))
        pred = extract_limit(tr)
        assert pred.plateau_values == (0.5,)
        assert pred.plateau_measures == (2.0,)

    def test_h1_run_matches_prediction(self, h1_run, logistic):
        emp = extract_limit(h1_run)
        el = energy_limit(h1_run)
        pred = predict_h1(float(h1_run.mass_series[0]), el.value, 1.0, logistic)
        rep = consistency_check(pred, emp, tol=1e-3)
        assert rep.passed

    def test_h1_genuine_two_plateau_closure(self, logistic):
        """Pinned atom at 1 plus two merging movers: the limit is a real
        two-plateau profile and the analytic prediction lands on it.
        The movers share mass 0.5 and total mass 0.875, so they merge at
        1.75 (independent mass-balance oracle)."""
        u = AtomField([1.0, 1.5, 2.0], [0.5, 0.25, 0.25], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=400.0, record_every=0.1))
        emp = extract_limit(tr)
        assert len(emp.plateau_values) == 2
        assert emp.plateau_values[0] == pytest.approx(1.75, abs=1e-6)
        assert emp.plateau_values[1] == pytest.approx(1.0, abs=1e-9)
        pred = predict_h1(
            float(tr.mass_series[0]), energy_limit(tr).value, 1.0, logistic
        )
        rep = consistency_check(pred, emp, tol=1e-3)
        assert rep.passed
        assert pred.plateau_measures[0] == pytest.approx(0.5, abs=1e-6)

    def test_h3_ordering_main_first(self, logistic):
        """Genuine two-plateau H3 limit: pinned 0-atom plus merging pair."""
        u = AtomField([0.0, -1.0, -0.2], [0.5, 0.25, 0.25], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=300.0, record_every=0.1))
        pred = extract_limit(tr)
        assert len(pred.plateau_values) == 2
        assert pred.plateau_values[0] == pytest.approx(-0.6, abs=1e-6)
        assert abs(pred.plateau_values[1]) <= 1e-6
        assert pred.shape_deviation <= 1e-6

    def test_not_converged(self, logistic):
        u = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=0.5, record_every=0.1))
        with pytest.raises(NotConvergedError):
            extract_limit(tr)

    def test_h2_separating_atoms(self, logistic):
        """Interior H2 atoms split toward the roots of g."""
        u = AtomField([0.3, 0.7, 1.0], [0.25, 0.25, 0.5], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=300.0, record_every=0.1))
        pred = extract_limit(tr)
        vals = pred.plateau_values
        assert vals[0] == pytest.approx(1.0, abs=1e-6)
        assert vals[-1] == pytest.approx(0.0, abs=1e-6)

    def test_h2_three_value_decomposition(self, logistic):
        """A single moving atom rests wherever it is (its own p equals the
        multiplier), producing the full {1, nu, 0} decomposition."""
        u = AtomField([1.0, 0.5, 0.0], [0.4, 0.2, 0.4], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=10.0, record_every=0.1))
        pred = extract_limit(tr)
        assert pred.plateau_values == (1.0, 0.5, 0.0)
        assert pred.plateau_measures == (0.4, 0.2, 0.4)
        assert 0.0 < pred.plateau_values[1] < 1.0


class TestConsistencyCheck:
    def test_identical_predictions(self, logistic):
        a = predict_h1(2.0, 2.5, 1.0, logistic)
        b = dataclasses.replace(a, source="Empirical")
        rep = consistency_check(a, b)
        assert rep.passed
        assert rep.worst == 0.0

    def test_perturbed_value_fails(self, logistic):
        a = predict_h1(2.0, 2.5, 1.0, logistic)
        b = dataclasses.replace(
            a,
            source="Empirical",
            plateau_values=(a.plateau_values[0] + 0.1, a.plateau_values[1]),
        )
        rep = consistency_check(a, b, tol=1e-3)
        assert not rep.passed
        assert rep.worst == pytest.approx(0.1, abs=1e-12)

    def test_mismatched_hypotheses(self, logistic):
        a = predict_h1(2.0, 2.5, 1.0, logistic)
        b = dataclasses.replace(predict_h3(-1.0, 1.0, 1.0, logistic), source="Empirical")
        with pytest.raises(ComparisonError):
            consistency_check(a, b)

    def test_source_validation(self, logistic):
        a = predict_h1(2.0, 2.5, 1.0, logistic)
        with pytest.raises(ComparisonError):
            consistency_check(a, a)


class TestPredictionSerialization:
    def test_summary_block(self, logistic):
        text = predict_h1(2.0, 2.5, 1.0, logistic).to_summary()
        assert "hypothesis = H1" in text
        fields = dict(
            line.split(" = ") for line in text.strip().splitlines() if " = " in line
        )
        assert float(fields["plateau_1_value"]) == pytest.approx(3.0, abs=1e-10)
        assert fields["source"] == "Analytic"

    def test_profile_is_decreasing_staircase(self, logistic):
        profile = predict_h3(-1.0, 1.0, 1.0, logistic).to_profile()
        np.testing.assert_allclose(profile.plateau_values, [0.0, -2.0], atol=1e-10)
        np.testing.assert_allclose(profile.breakpoints, [0.0, 0.5, 1.0], atol=1e-10)
