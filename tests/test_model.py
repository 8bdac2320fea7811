"""Tests for nldyn.model: nonlinearities, multiplier, rates, classification."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import random_h1_atoms
from nldyn import (
    AtomField,
    DenominatorVanishingError,
    IntegratorConfig,
    ModelValidationError,
    NumericalFailureError,
    UnknownModelError,
    build_model,
    builtin_model,
    classify_hypothesis,
    dissipation_rate,
    integrate,
    lambda_of,
    rhs,
    validate_pair,
)
from nldyn.field import canonical_order
from nldyn.quad import adaptive_simpson

RNG = np.random.default_rng(7)

# g*p overflows at 1e150, and to infinities of both signs at +-1e200
OVERFLOWING = pytest.mark.parametrize(
    "values", [[1e150, 2.0], [1e200, -1e200]], ids=["g*p overflow", "opposite infinities"]
)


class TestBuiltinModel:
    def test_logistic_identity_g(self, logistic):
        """g(u) = u(1-u): value at the hump midpoint."""
        assert logistic.g(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_antiderivative_at_zero(self, logistic):
        assert logistic.antideriv_P(0.0) == 0.0

    def test_antiderivative_quadratic(self, logistic):
        """p = id integrates to s^2/2, so P(2) = 2."""
        assert logistic.antideriv_P(2.0) == pytest.approx(2.0, abs=1e-15)

    def test_closed_form_flag(self, logistic):
        assert logistic.closed_form_P is True

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(UnknownModelError) as info:
            builtin_model("nope")
        assert "logistic-identity" in str(info.value)

    def test_second_catalogue_entry(self):
        pair = builtin_model("logistic-cubic")
        # P = s^4/4 + s^2/2
        assert pair.antideriv_P(2.0) == pytest.approx(6.0, abs=1e-14)


class TestAntiderivativeQuadrature:
    def test_identity_p_half(self):
        """Quadrature of p = tau over [0, 1] is 1/2."""
        assert adaptive_simpson(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_empty_integral(self):
        assert adaptive_simpson(lambda t: t**3, 0.0, 0.0) == 0.0

    def test_cubic_p(self):
        """p = tau^3: P(2) = 16/4 = 4 (Simpson is exact on cubics)."""
        assert adaptive_simpson(lambda t: t**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-13)

    def test_negative_direction(self):
        """P(-2) for p = id is (-2)^2 / 2 = 2: the reversed integral flips sign."""
        assert adaptive_simpson(lambda t: t, 0.0, -2.0) == pytest.approx(2.0, abs=1e-13)

    def test_depth_exhaustion_raises(self):
        """An effectively random integrand never settles: structured error."""
        from nldyn import QuadratureError

        with pytest.raises(QuadratureError):
            adaptive_simpson(lambda t: math.sin(1e12 * t), 0.0, 1.0, max_depth=12)

    def test_quadrature_backed_pair_cubic_p(self, logistic):
        """A pair carrying p = u^3 with a quadrature antiderivative:
        P(2) = 2^4 / 4 = 4 (closed-form oracle by symbolic integration)."""
        from nldyn import NonlinearityPair

        pair = NonlinearityPair(
            g=logistic.g,
            p=lambda u: u**3,
            p_prime=lambda u: 3.0 * u * u,
            antideriv_P=lambda s: adaptive_simpson(lambda t: t**3, 0.0, float(s)),
            closed_form_P=False,
        )
        assert pair.antideriv_P(2.0) == pytest.approx(4.0, abs=1e-11)


class TestValidatePair:
    def test_builtin_passes_wide_range(self, logistic):
        validate_pair(logistic, (-5.0, 5.0))

    @pytest.mark.parametrize("radius", [4.0, 10.0, 30.0])
    def test_cubic_p_passes_wide_range(self, radius):
        """Difference-quotient roundoff grows like eps*|P|/h; it is not an error."""
        validate_pair(builtin_model("logistic-cubic"), (-radius, radius))
        build_model("u*(1-u)", "u^3+u", (-radius, radius))

    @pytest.mark.parametrize("radius", [2.0, 4.0, 10.0])
    def test_wrong_antiderivative_rejected(self, radius):
        cubic = builtin_model("logistic-cubic")
        bad = dataclasses.replace(
            cubic, antideriv_P=lambda s: cubic.antideriv_P(s) + 1e-6 * s
        )
        with pytest.raises(ModelValidationError) as info:
            validate_pair(bad, (-radius, radius))
        assert info.value.check.startswith("d(antiderivative)")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_antiderivative_rejected(self, logistic):
        """P(s) = s^2/2 overflows near 1e200: a NaN difference quotient fails."""
        with pytest.raises(ModelValidationError) as info:
            validate_pair(logistic, (-1e200, 1e200))
        assert info.value.check.startswith("d(antiderivative)")

    def test_g_sign_violation_carries_witness(self, logistic):
        bad = type(logistic)(
            g=lambda u: u * 1.0,  # g(1) = 1 != 0
            p=logistic.p,
            p_prime=logistic.p_prime,
            antideriv_P=logistic.antideriv_P,
            closed_form_P=True,
        )
        with pytest.raises(ModelValidationError) as info:
            validate_pair(bad)
        assert info.value.check.startswith("g(1)")


class TestClassifyHypothesis:
    def test_h1(self, logistic):
        """All values >= 1 and not identically 1."""
        hyp = classify_hypothesis(AtomField([1.5, 2.0], [0.5, 0.5], 1.0), logistic)
        assert hyp.tag == "H1"
        assert hyp.essinf_a == 1.5
        assert hyp.esssup_b == 2.0

    def test_h2_with_g_integral(self, logistic):
        """Values in [0,1]; the g-integral is the weighted sum 0.21."""
        hyp = classify_hypothesis(AtomField([0.3, 0.7], [0.5, 0.5], 1.0), logistic)
        assert hyp.tag == "H2"
        assert hyp.integral_g_u0 == pytest.approx(0.21, rel=1e-12)

    def test_h3(self, logistic):
        hyp = classify_hypothesis(AtomField([-1.0, -0.2], [0.5, 0.5], 1.0), logistic)
        assert hyp.tag == "H3"

    def test_identically_one_is_none(self, logistic):
        """u0 = 1 everywhere is excluded from H1 and has zero g-integral."""
        hyp = classify_hypothesis(AtomField([1.0], [1.0], 1.0), logistic)
        assert hyp.tag is None

    def test_identically_zero_is_none(self, logistic):
        assert classify_hypothesis(AtomField([0.0], [2.0], 2.0), logistic).tag is None

    def test_mixed_sign_is_none(self, logistic):
        hyp = classify_hypothesis(AtomField([0.5, -0.5], [0.5, 0.5], 1.0), logistic)
        assert hyp.tag is None
        assert hyp.integral_g_u0 == pytest.approx(-0.25, rel=1e-12)


class TestLambda:
    def test_constant_field(self, logistic):
        """The multiplier of a constant state c is p(c)."""
        assert lambda_of(AtomField([0.5], [1.0], 1.0), logistic) == pytest.approx(0.5, abs=1e-15)

    def test_pinned_atom_drops_out(self, logistic):
        """g(1) = 0, so only the second atom contributes: lam = p(2)."""
        u = AtomField([1.0, 2.0], [0.5, 0.5], 1.0)
        assert lambda_of(u, logistic) == pytest.approx(2.0, abs=1e-14)

    def test_vanishing_denominator(self, logistic):
        """Both atom values are roots of g."""
        u = AtomField([0.0, 1.0], [0.5, 0.5], 1.0)
        with pytest.raises(DenominatorVanishingError):
            lambda_of(u, logistic)

    def test_explicit_eps_den(self, logistic):
        u = AtomField([0.3, 0.7], [0.5, 0.5], 1.0)  # integral g = 0.21
        with pytest.raises(DenominatorVanishingError):
            lambda_of(u, logistic, eps_den=0.5)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @OVERFLOWING
    def test_overflow_raises(self, logistic, values):
        """A non-finite g or p at an atom raises, as it does in integrate."""
        with pytest.raises(NumericalFailureError):
            lambda_of(AtomField(values, [0.5, 0.5], 1.0), logistic)

    @pytest.mark.parametrize("name", ["logistic-identity", "logistic-cubic"])
    def test_equals_integrator_record(self, name):
        """lambda_of is bitwise the multiplier integrate records at t = 0."""
        pair = builtin_model(name)
        cfg = IntegratorConfig(t_max=1e-3, record_every=1e-3)
        for values, weights in random_h1_atoms(5, 100):
            u = AtomField(values, weights, float(np.sum(weights)))
            assert lambda_of(u, pair) == integrate(u, pair, cfg).lambda_series[0]


class TestRhs:
    def test_constant_field_is_stationary(self, logistic):
        r = rhs(AtomField([0.5], [1.0], 1.0), logistic)
        np.testing.assert_allclose(r, 0.0, atol=1e-16)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @OVERFLOWING
    def test_overflow_raises(self, logistic, values):
        with pytest.raises(NumericalFailureError):
            rhs(AtomField(values, [0.5, 0.5], 1.0), logistic)

    def test_pinned_plus_matched_atom(self, logistic):
        """{(1, .5), (2, .5)}: g(1) = 0 and p(2) = lam, so both rates vanish."""
        r = rhs(AtomField([1.0, 2.0], [0.5, 0.5], 1.0), logistic)
        np.testing.assert_allclose(r, 0.0, atol=1e-14)

    def test_zero_sum_identity_h1(self, logistic):
        """Weighted rate sum vanishes; individual rates do not."""
        u = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        r = rhs(u, logistic)
        assert np.max(np.abs(r)) > 0.1
        scale = float(np.max(np.abs(r)))
        assert abs(math.fsum((u.weights * r).tolist())) <= 1e-13 * scale

    def test_zero_sum_identity_random_fields(self, logistic):
        """Discrete mass-conservation identity on random valid fields."""
        for _ in range(50):
            n = int(RNG.integers(2, 8))
            values = RNG.uniform(1.01, 3.0, size=n)  # inside the H1 zone
            weights = RNG.uniform(0.1, 1.0, size=n)
            u = AtomField(values, weights, float(np.sum(weights)))
            r = rhs(u, logistic)
            scale = max(1.0, float(np.max(np.abs(r))))
            assert abs(math.fsum((u.weights * r).tolist())) <= 1e-13 * scale

    def test_stationarity_characterization(self, logistic):
        """Rates vanish iff each atom has g = 0 or p = lam."""
        u = AtomField([1.0, 0.0, 2.0], [0.3, 0.3, 0.4], 1.0)
        lam = lambda_of(u, logistic)
        r = rhs(u, logistic)
        for value, rate in zip(u.values, r):
            characterized = abs(logistic.g(value)) < 1e-12 or abs(logistic.p(value) - lam) < 1e-12
            assert characterized == (abs(rate) <= 1e-12)

    def test_lambda_bound_h1_fields(self, logistic):
        """|lam| <= max(|p(1)|, |p(b)|) whenever all values sit in [1, b]."""
        for _ in range(25):
            values = RNG.uniform(1.0, 2.5, size=4)
            if np.all(values == 1.0):
                continue
            weights = RNG.uniform(0.1, 1.0, size=4)
            u = AtomField(values, weights, float(np.sum(weights)))
            b = float(np.max(values))
            try:
                lam = lambda_of(u, logistic)
            except DenominatorVanishingError:
                continue
            assert abs(lam) <= max(abs(logistic.p(1.0)), abs(logistic.p(b))) + 1e-12

    def test_lambda_bound_h2_fields(self, logistic):
        """H2 analog: |lam| <= max(|p(0)|, |p(1)|) for values in [0, 1]."""
        for _ in range(25):
            values = RNG.uniform(0.0, 1.0, size=4)
            weights = RNG.uniform(0.1, 1.0, size=4)
            u = AtomField(values, weights, float(np.sum(weights)))
            try:
                lam = lambda_of(u, logistic)
            except DenominatorVanishingError:
                continue
            assert abs(lam) <= max(abs(logistic.p(0.0)), abs(logistic.p(1.0))) + 1e-12


class TestCanonicalOrder:
    def test_value_decreasing_ties_by_weight(self):
        order = canonical_order(np.array([1.0, 3.0, 3.0, 2.0]), np.array([0.1, 0.5, 0.2, 0.3]))
        assert order.tolist() == [2, 1, 3, 0]

    @pytest.mark.parametrize("name", ["logistic-identity", "logistic-cubic"])
    def test_public_kernel_ignores_atom_order(self, name):
        """200 random 100-atom fields, each listed in two more orders: the
        public functions give the same bits, and rhs follows the atoms."""
        pair = builtin_model(name)
        rng = np.random.default_rng(41)
        for _ in range(200):
            values = rng.uniform(1.01, 3.0, size=100)
            weights = rng.uniform(0.1, 1.0, size=100)
            measure = math.fsum(weights.tolist())
            u = AtomField(values, weights, measure)
            lam, r = lambda_of(u, pair), rhs(u, pair)
            diss = dissipation_rate(u, pair, 1)
            g_int = classify_hypothesis(u, pair).integral_g_u0
            for _ in range(2):
                perm = rng.permutation(100)
                v = AtomField(values[perm], weights[perm], measure)
                assert lambda_of(v, pair) == lam
                assert rhs(v, pair).tobytes() == r[perm].tobytes()
                assert dissipation_rate(v, pair, 1) == diss
                assert classify_hypothesis(v, pair).integral_g_u0 == g_int

    @pytest.mark.parametrize("name", ["logistic-identity", "logistic-cubic"])
    def test_pairwise_lambda_close_to_exact_sums(self, name):
        """lam from pairwise sums agrees with exact sums of the same terms
        to 8 eps * sum |w g p| / |sum w g|."""
        pair = builtin_model(name)
        rng = np.random.default_rng(43)
        eps = float(np.finfo(float).eps)
        for k in range(400):
            lo, hi = [(1.0, 3.0), (0.0, 1.0), (-2.0, 0.0), (-1.0, 2.5)][k % 4]
            n = int(rng.integers(3, 200))
            values = rng.uniform(lo, hi, size=n)
            weights = rng.uniform(0.1, 1.0, size=n)
            u = AtomField(values, weights, math.fsum(weights.tolist()))
            try:
                lam = lambda_of(u, pair)
            except DenominatorVanishingError:
                continue
            wg = u.weights * pair.g(u.values)
            wgp = wg * pair.p(u.values)
            den = math.fsum(wg.tolist())
            exact = math.fsum(wgp.tolist()) / den
            assert abs(lam - exact) <= 8.0 * eps * float(np.sum(np.abs(wgp))) / abs(den)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failure_carries_input_order(self, logistic):
        u = AtomField([2.0, 1e150, 1.5], [0.25, 0.25, 0.5], 1.0)
        for call in (lambda_of, rhs, lambda u, pair: dissipation_rate(u, pair, 1)):
            with pytest.raises(NumericalFailureError, match="non-finite g or p") as info:
                call(u, logistic)
            assert np.array_equal(info.value.values, u.values)
