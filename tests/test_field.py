"""Tests for nldyn.field: atoms, distribution, rearrangement, L1 metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import group_by_value_reference, prefix_sums_reference, rearrange_reference
from nldyn import (
    AtomField,
    FieldError,
    OmegaPrediction,
    distribution,
    from_samples,
    integral_of,
    l1_distance,
    mass,
    profile_l1_distance,
    rearrange,
    staircase,
)
from nldyn import field as field_mod
from nldyn.field import staircase_lines

RNG = np.random.default_rng(42)

# weights built from small integers over a power-of-two denominator sum
# exactly in binary floating point, making "exact" claims literal
_dyadic_weights = st.lists(st.integers(1, 16), min_size=1, max_size=8).map(
    lambda ks: [k / 32.0 for k in ks]
)
_values = st.lists(
    st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
)

# ties, both signed zeros, and weights over 30 decades
_tied_values = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300])
    | st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)
_wide_weights = st.lists(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-15, 15)),
    min_size=1,
    max_size=60,
)


def _random_field(values, weights):
    values = values[: len(weights)] + [0.0] * max(0, len(weights) - len(values))
    total = math.fsum(weights)
    return AtomField(values, weights, total)


class TestAtomField:
    def test_two_equal_cells(self):
        u = from_samples([1.5, 2.0], 1.0)
        assert u.atoms == [(2.0, 0.5), (1.5, 0.5)]

    def test_weights_summing_past_the_float_range_refused(self):
        """Five cells of the largest measure: the three merged cells weigh
        3 * (big / 5), which rounds up, and the weights sum past big."""
        big = 1.7976931348623157e308
        with pytest.raises(FieldError, match="atom weights sum past the float range"):
            from_samples([-2.5, 1e-3, 250.0, 250.0, 250.0], big)

    def test_merge_of_equal_samples(self):
        u = from_samples([1, 1, 1, 1], 2.0)
        assert u.atoms == [(1.0, 2.0)]

    def test_midpoint_samples_of_linear_profile(self):
        """1000 midpoint samples of 1 + x on (0, 1): mass is exactly 1.5."""
        xs = (np.arange(1000) + 0.5) / 1000.0
        u = from_samples((1.0 + xs).tolist(), 1.0)
        assert len(u) == 1000
        assert mass(u) == pytest.approx(1.5, abs=1e-3)   # ingestion contract
        assert mass(u) == pytest.approx(1.5, abs=1e-12)  # midpoint rule is exact here

    def test_empty_samples_rejected(self):
        with pytest.raises(FieldError):
            from_samples([], 1.0)

    def test_weight_sum_gate(self):
        with pytest.raises(FieldError):
            AtomField([1.0, 2.0], [0.5, 0.4], 1.0)  # 10% off: beyond the gate

    def test_small_mismatch_renormalized(self):
        u = AtomField([1.0], [1.0 + 3e-10], 1.0)
        assert math.fsum(u.weights.tolist()) == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(FieldError):
            AtomField([1.0, 2.0], [1.0, 0.0], 1.0)

    @pytest.mark.parametrize("measure", [float("nan"), math.inf, -1.0])
    def test_bad_domain_measure_rejected(self, measure):
        with pytest.raises(FieldError, match="domain measure"):
            AtomField([1.0], [1.0], measure)

    def test_non_canonical_order_permitted(self):
        u = AtomField([1.0, 3.0, 2.0], [0.25, 0.25, 0.5], 1.0)
        assert not u.is_canonical
        assert rearrange(u).is_canonical

    def test_equality_compares_atoms_in_order(self):
        u = AtomField([2.0, 1.0], [0.5, 0.5], 1.0)
        assert u == AtomField([2.0, 1.0], [0.5, 0.5], 1.0)
        assert u != AtomField([1.0, 2.0], [0.5, 0.5], 1.0)
        assert u != AtomField([2.0, 1.0], [0.25, 0.75], 1.0)
        assert u != AtomField([2.0, 1.0], [1.0, 1.0], 2.0)

    def test_unhashable(self):
        """A field compares by its arrays, so it has no hash, and neither
        has a prediction that holds one."""
        u = AtomField([1.0], [1.0], 1.0)
        pred = OmegaPrediction("H1", u, 0.0, 0.0, "Analytic")
        for obj in (u, pred):
            with pytest.raises(TypeError, match="unhashable type: 'AtomField'"):
                hash(obj)


class TestMass:
    def test_weighted_sum(self):
        assert mass(AtomField([2.0, 1.5], [0.5, 0.5], 1.0)) == 1.75

    def test_constant_field(self):
        assert mass(AtomField([3.0], [2.0], 2.0)) == 6.0

    def test_invariant_under_rearrangement(self):
        u = AtomField([1.0, 3.0, 2.0], [0.25, 0.25, 0.5], 1.0)
        v = rearrange(u)
        assert mass(v) == mass(u)


class TestIntegralOf:
    def test_g_at_its_roots(self, logistic):
        u = AtomField([0.0, 1.0], [0.5, 0.5], 1.0)
        assert integral_of(u, logistic.g) == 0.0

    def test_identity_reproduces_mass(self):
        u = AtomField([1.0, 3.0, 2.0], [0.25, 0.25, 0.5], 1.0)
        assert integral_of(u, lambda s: s) == mass(u)

    def test_antiderivative_of_constant_state(self, logistic):
        """P(2) = 2 for p = id, on a unit domain."""
        assert integral_of(AtomField([2.0], [1.0], 1.0), logistic.antideriv_P) == 2.0

    def test_calls_h_once_on_the_whole_array(self):
        u = AtomField([1.0, 2.0], [0.5, 0.5], 1.0)
        calls = []

        def h(s):
            calls.append(s)
            return s * s

        assert integral_of(u, h) == 2.5
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], u.values)


class TestDistribution:
    def test_threshold_scan(self):
        u = AtomField([3.0, 2.0, 1.0], [0.2, 0.3, 0.5], 1.0)
        assert distribution(u, 1.5) == 0.5

    def test_below_min(self):
        u = AtomField([3.0, 2.0, 1.0], [0.2, 0.3, 0.5], 1.0)
        assert distribution(u, 0.0) == 1.0

    def test_above_max(self):
        u = AtomField([3.0, 2.0, 1.0], [0.2, 0.3, 0.5], 1.0)
        assert distribution(u, 3.0) == 0.0  # right-continuous: strict inequality

    @given(values=_values, weights=_dyadic_weights)
    @settings(max_examples=60, deadline=None)
    def test_equimeasurable_with_rearrangement(self, values, weights):
        """Distribution functions of the field and its rearrangement agree
        exactly at every atom value and between them."""
        u = _random_field(values, weights)
        v = rearrange(u)
        probes = list(u.values.tolist())
        probes += [x - 0.5 for x in probes] + [min(probes) - 1.0, max(probes) + 1.0]
        for s in probes:
            assert distribution(u, s) == distribution(v, s)


class TestRearrange:
    def test_three_atom_example(self):
        u = AtomField([1.0, 3.0, 2.0], [0.5, 0.2, 0.3], 1.0)
        assert rearrange(u).atoms == [(3.0, 0.2), (2.0, 0.3), (1.0, 0.5)]
        breakpoints, values = staircase(u)
        np.testing.assert_allclose(values, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(breakpoints, [0.0, 0.2, 0.5, 1.0])

    def test_fixed_point_on_sorted_field(self):
        u = AtomField([3.0, 2.0, 1.0], [0.2, 0.3, 0.5], 1.0)
        assert rearrange(u) == u

    def test_constant_field_single_plateau(self):
        breakpoints, values = staircase(AtomField([2.0], [3.0], 3.0))
        assert (breakpoints.tolist(), values.tolist()) == ([0.0, 3.0], [2.0])

    @given(values=_values, weights=_dyadic_weights)
    @settings(max_examples=60, deadline=None)
    def test_range_preserved(self, values, weights):
        u = _random_field(values, weights)
        _, plateaus = staircase(u)
        assert float(np.min(plateaus)) >= float(np.min(u.values))
        assert float(np.max(plateaus)) <= float(np.max(u.values))

    @given(values=_values, weights=_dyadic_weights)
    @settings(max_examples=60, deadline=None)
    def test_mass_equals_profile_integral(self, values, weights):
        u = _random_field(values, weights)
        breakpoints, plateaus = staircase(u)
        integral = math.fsum((np.diff(breakpoints) * plateaus).tolist())
        assert integral == pytest.approx(mass(u), abs=1e-12)

    def test_plateau_below_the_ulp_of_its_position_omitted(self):
        # 1 + 1e-20 rounds to 1: the middle plateau has no interval in the
        # staircase, and keeps its atom in the rearrangement
        u = AtomField([2.0, 1.5, 1.2], [1.0, 1e-20, 1.0], 2.0)
        assert rearrange(u).atoms == u.atoms
        breakpoints, plateaus = staircase(u)
        assert breakpoints.tolist() == [0.0, 1.0, 2.0]
        assert plateaus.tolist() == [2.0, 1.2]


class TestOneType:
    """The rearrangement is the canonical field: the staircase, the profile
    distance and the distribution read it as they read the field, bit for
    bit, sub-ulp plateaus included."""

    @staticmethod
    def _pair(values, weights, other_values, other_weights):
        u = _random_field(values, weights)
        # the second field on u's domain: its weights scaled to sum there
        scale = u.domain_measure / math.fsum(other_weights)
        return u, _random_field(other_values, [w * scale for w in other_weights])

    @given(values=_tied_values, weights=_wide_weights)
    @settings(max_examples=100, deadline=None)
    def test_canonical_and_idempotent(self, values, weights):
        u = _random_field(values, weights)
        r = rearrange(u)
        assert r.is_canonical
        assert rearrange(r) == r

    @given(values=_tied_values, weights=_wide_weights)
    @settings(max_examples=100, deadline=None)
    def test_staircase_reads_the_rearrangement_as_the_field(self, values, weights):
        u = _random_field(values, weights)
        (bps_u, vals_u), (bps_r, vals_r) = staircase(u), staircase(rearrange(u))
        assert bps_r.tobytes() == bps_u.tobytes()
        assert vals_r.tobytes() == vals_u.tobytes()

    @given(values=_tied_values, weights=_wide_weights,
           other_values=_tied_values, other_weights=_wide_weights)
    @settings(max_examples=100, deadline=None)
    def test_profile_distance_of_the_rearrangements_and_symmetric(
        self, values, weights, other_values, other_weights
    ):
        u, v = self._pair(values, weights, other_values, other_weights)
        d = profile_l1_distance(u, v)
        assert math.isfinite(d)
        assert profile_l1_distance(rearrange(u), rearrange(v)).hex() == d.hex()
        assert profile_l1_distance(v, u).hex() == d.hex()

    @given(values=_tied_values, weights=_wide_weights)
    @settings(max_examples=100, deadline=None)
    def test_distribution_equal_at_and_between_atom_values(self, values, weights):
        u = _random_field(values, weights)
        r = rearrange(u)
        levels = sorted(set(u.values.tolist()))
        probes = levels + [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        probes += [levels[0] - 1.0, levels[-1] + 1.0]
        for s in probes:
            assert distribution(r, s) == distribution(u, s)


class TestL1Distance:
    def test_identity(self):
        u = AtomField([2.0, 1.0], [0.5, 0.5], 1.0)
        assert l1_distance(u, u) == 0.0

    def test_example(self):
        u = AtomField([2.0, 1.0], [0.5, 0.5], 1.0)
        v = AtomField([1.5, 1.0], [0.5, 0.5], 1.0)
        assert l1_distance(u, v) == 0.25

    def test_mismatched_weights_rejected(self):
        u = AtomField([2.0, 1.0], [0.5, 0.5], 1.0)
        v = AtomField([2.0, 1.0], [0.25, 0.75], 1.0)
        with pytest.raises(FieldError, match="^fields are not co-evolved: "):
            l1_distance(u, v)

    def test_symmetry_and_triangle_inequality(self):
        """Metric axioms on random co-weighted triples."""
        for _ in range(50):
            w = RNG.uniform(0.1, 1.0, size=5)
            dm = float(np.sum(w))
            a, b, c = (AtomField(RNG.uniform(-3, 3, size=5), w, dm) for _ in range(3))
            assert l1_distance(a, b) == l1_distance(b, a)
            assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


class TestProfileL1Distance:
    def test_identical(self):
        u = AtomField([1.0, 2.0], [0.5, 0.5], 1.0)
        assert profile_l1_distance(u, u) == 0.0

    def test_constant_offset(self):
        a = AtomField([1.0], [1.0], 1.0)
        b = AtomField([2.0], [1.0], 1.0)
        assert profile_l1_distance(a, b) == 1.0

    def test_common_refinement_example(self):
        """3 on (0,.2), 1 on (.2,1) vs 2 on (0,.5), 1 on (.5,1): distance .5."""
        a = AtomField([3.0, 1.0], [0.2, 0.8], 1.0)
        b = AtomField([2.0, 1.0], [0.5, 0.5], 1.0)
        assert profile_l1_distance(a, b) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("swap", [False, True])
    def test_domains_within_roundoff(self, swap):
        # past the shorter domain's end its last plateau continues
        short = 1.0 - 1e-13
        a = AtomField([2.0, 1.0], [0.5, 0.5], 1.0)
        b = AtomField([2.0, 0.5], [0.5, short - 0.5], short)
        expected = math.fsum([(short - 0.5) * 0.5, (1.0 - short) * 0.5])
        assert profile_l1_distance(*((b, a) if swap else (a, b))) == expected

    def test_domain_mismatch(self):
        a = AtomField([1.0], [1.0], 1.0)
        b = AtomField([1.0], [2.0], 2.0)
        with pytest.raises(FieldError, match="^profiles live on domains of measure 1.0 and 2.0$"):
            profile_l1_distance(a, b)


class TestExactPrefixSums:
    """The linear-time grouping and prefix sums against the per-atom and
    per-prefix loops they replace (tests/helpers.py), bit for bit."""

    @staticmethod
    def _assert_matches_reference(u):
        values, weights = field_mod._group_by_value(u.values, u.weights)
        ref = group_by_value_reference(u.values, u.weights)
        assert values.tobytes() == np.array([v for v, _ in ref]).tobytes()
        assert np.array(weights).tobytes() == np.array([w for _, w in ref]).tobytes()
        ref_bps, ref_plateaus = rearrange_reference(u)
        bps, plateaus = staircase(u)
        assert bps.tobytes() == np.array(ref_bps).tobytes()
        assert plateaus.tobytes() == np.array(ref_plateaus).tobytes()

    @given(values=_tied_values, weights=_wide_weights)
    @settings(max_examples=200, deadline=None)
    def test_grouping_and_rearrangement_equal_the_loops(self, values, weights):
        self._assert_matches_reference(_random_field(values, weights))

    @given(weights=_wide_weights)
    @settings(max_examples=200, deadline=None)
    def test_prefix_sums_equal_one_fsum_per_prefix(self, weights):
        got = field_mod._prefix_sums(weights)
        assert np.array(got).tobytes() == np.array(prefix_sums_reference(weights)).tobytes()

    def test_wide_fields_equal_the_loops(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 401))
            values = rng.integers(-3, 4, size=n) * rng.choice([1.0, 0.1, 1e-7], size=n)
            weights = 10.0 ** rng.uniform(-15, 15, size=n)
            u = AtomField(values, weights, math.fsum(weights.tolist()))
            self._assert_matches_reference(u)

    def test_prefix_sums_past_the_measure_are_clipped(self):
        # the per-value grouped weights, each rounded, sum past |Omega| by
        # more than the last plateau: the last two starts lie past it
        weights = [1e-4, 1.0, 1e-5, 1e-5, 0.3, 6e11, 0.3]
        u = AtomField([0.0, 1.0, 0.0, -1.0, 1.0, 1.0, 2.5], weights, math.fsum(weights))
        self._assert_matches_reference(u)
        bps, plateaus = staircase(u)
        assert plateaus.tolist() == [2.5, 1.0]
        assert bps.tolist() == [0.0, 0.3, u.domain_measure]

    def test_fsum_values_per_atom_do_not_grow_with_atoms(self, monkeypatch):
        # an fsum per prefix would take about n/2 values per atom
        fsum = math.fsum

        def counting(xs):
            xs = list(xs)
            received.append(len(xs))
            return fsum(xs)

        per_atom = []
        for n in (10, 2000):
            u = from_samples(np.linspace(1.0, 2.0, n).tolist(), 1.0)
            received = []
            monkeypatch.setattr(math, "fsum", counting)
            staircase(u)
            monkeypatch.setattr(math, "fsum", fsum)
            per_atom.append(sum(received) / n)
        assert per_atom[0] == per_atom[1]


class TestStaircaseSerialization:
    def test_repeated_breakpoints(self):
        u = AtomField([1.0, 3.0, 2.0], [0.5, 0.2, 0.3], 1.0)
        rows = [
            tuple(float(x) for x in line.split())
            for line in staircase_lines(u).strip().splitlines()
        ]
        assert rows == [
            (0.0, 3.0), (0.2, 3.0), (0.2, 2.0), (0.5, 2.0), (0.5, 1.0), (1.0, 1.0)
        ]

