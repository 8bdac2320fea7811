"""Tests for nldyn.dynamics: stepping, adaptive integration, trajectory audit."""

import dataclasses
import functools
import io
import math
import operator
import tracemalloc

import numpy as np
import pytest

from helpers import euler_orbit, order_gap_reference, two_atom_exact
from nldyn import (
    AtomField,
    IntegratorConfig,
    NumericalFailureError,
    Termination,
    build_model,
    builtin_model,
    characteristic_flow,
    from_samples,
    integrate,
    l1_distance,
    mass,
    profile_l1_distance,
    rearrange,
    verify_trajectory,
)
from nldyn import dynamics, field as field_mod
from nldyn.dynamics import _rk_attempt, _rk_dense
from nldyn.energy import lyapunov
from nldyn.errors import DenominatorVanishingError
from nldyn.model import atom_rates, dissipation_sum, multiplier

RNG = np.random.default_rng(11)


class TestIntegrate:
    def test_constant_state_stationary_at_zero(self, logistic):
        u = AtomField([0.5], [1.0], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=10.0))
        assert tr.termination == Termination.STATIONARY
        assert tr.times.tolist() == [0.0]

    def test_h1_run_terminates_in_region(self, h1_run):
        assert h1_run.termination == Termination.STATIONARY
        for snap in h1_run.snapshots:
            assert np.all(snap.values >= 1.0 - 1e-9)
            assert np.all(snap.values <= 2.0 + 1e-9)

    def test_h1_mass_conserved(self, h1_run):
        np.testing.assert_allclose(h1_run.mass_series, 1.75, atol=1.75e-6)

    def test_h1_matches_euler_oracle_at_t1(self, h1_run, logistic):
        """Adaptive integrator vs fixed-step Euler (dt = 1e-5) at t = 1."""
        ref = euler_orbit(
            [2.0, 1.5], [0.5, 0.5], logistic.g, logistic.p, 1e-5, 100_000
        )
        k = int(np.searchsorted(h1_run.times, 1.0))
        assert h1_run.times[k] == 1.0
        assert float(np.max(np.abs(h1_run.snapshots[k].values - ref))) <= 1e-4

    def test_snapshot_weights_shared(self, h1_run):
        w0 = h1_run.snapshots[0].weights
        assert all(np.array_equal(s.weights, w0) for s in h1_run.snapshots)

    def test_records_on_uniform_grid(self, h1_run):
        diffs = np.diff(h1_run.times[:-1])
        np.testing.assert_allclose(diffs, 0.01, atol=1e-12)

    def test_mixed_sign_field_finds_rest_state(self, logistic):
        """{(.5, .5), (-.5, .5)}: the g-integral starts at -0.25 and never
        crosses zero (checked against a fine Euler oracle); the orbit
        settles on the stationary pair {1, -1}."""
        v = np.array([0.5, -0.5])
        w = np.array([0.5, 0.5])
        dens = []
        vv = v.copy()
        for _ in range(200):
            vv = euler_orbit(vv, w, logistic.g, logistic.p, 1e-3, 50)
            dens.append(0.5 * logistic.g(vv[0]) + 0.5 * logistic.g(vv[1]))
        assert np.all(np.sign(dens) == -1.0)

        tr = integrate(AtomField(v, w, 1.0), logistic, IntegratorConfig(t_max=50.0))
        assert tr.termination == Termination.STATIONARY
        np.testing.assert_allclose(tr.snapshots[-1].values, [1.0, -1.0], atol=1e-8)

    def test_denominator_crossing_terminates_with_guard(self):
        """A flattened-left-tail g makes the g-integral cross zero in finite
        time; the run must stop with the guard tag and finite values."""
        pair = build_model("u*(1-u)/(1+4*u^2)", "u", working_range=(-3.0, 3.0))
        u0 = AtomField([0.3, -1.0], [0.73, 0.27], 1.0)
        tr = integrate(u0, pair, IntegratorConfig(t_max=50.0, record_every=0.001))
        assert tr.termination == Termination.DENOMINATOR_VANISHING
        assert all(np.all(np.isfinite(s.values)) for s in tr.snapshots)
        final = tr.snapshots[-1]
        gv = np.array([pair.g(x) for x in final.values])
        den = float(np.dot(final.weights, gv))
        assert abs(den) < 1e-6 * np.max(np.abs(gv))

    def test_guard_at_start(self, logistic):
        u = AtomField([0.0, 1.0], [0.5, 0.5], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=1.0))
        assert tr.termination == Termination.DENOMINATOR_VANISHING
        assert tr.times.tolist() == [0.0]

    def test_many_atom_field_keeps_structure(self, logistic):
        """200 atoms sampled from a smooth profile: mass at roundoff,
        strict order preserved, energy nonincreasing."""
        xs = (np.arange(200) + 0.5) / 200
        u0 = AtomField((1.0 + xs**2)[::-1], np.full(200, 1.0 / 200), 1.0)
        tr = integrate(u0, logistic, IntegratorConfig(t_max=30.0, record_every=0.5))
        m0 = float(tr.mass_series[0])
        assert float(np.max(np.abs(tr.mass_series - m0))) <= 1e-6 * abs(m0)
        assert all(bool(np.all(np.diff(s.values) < 0.0)) for s in tr.snapshots)
        assert float(np.max(np.diff(tr.energy_series))) <= 1e-9

    def test_tied_atoms_stay_bitwise_equal(self, logistic):
        """Atoms sharing a value follow identical arithmetic forever, even
        with different weights."""
        u = AtomField([2.0, 2.0, 1.5], [0.25, 0.5, 0.25], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=3.0, record_every=0.1))
        for snap in tr.snapshots:
            assert snap.values[0] == snap.values[1]

    def test_ties_across_unrolled_loop_blocks_stay_bitwise_equal(self, logistic):
        """37 atoms whose tied pairs straddle canonical positions 7|8, 15|16
        and 31|32, the edges of numpy's 8-wide unrolled loops and of their
        remainder: every tie stays bitwise tied at every record."""
        rng = np.random.default_rng(37)
        values = np.linspace(2.9, 1.1, 37)
        pairs = [(7, 8), (15, 16), (31, 32)]
        for i, j in pairs:
            values[j] = values[i]
        weights = rng.uniform(0.5, 1.5, 37)
        weights /= weights.sum()
        perm = rng.permutation(37)
        u = AtomField(values[perm], weights[perm], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=5.0, record_every=0.1))
        at = np.argsort(perm)  # canonical position -> input index
        canonical = field_mod.canonical_order(u.values, u.weights)
        for i, j in pairs:
            assert {int(canonical[i]), int(canonical[j])} == {int(at[i]), int(at[j])}
            column_i, column_j = tr.values[:, at[i]], tr.values[:, at[j]]
            assert column_i.tobytes() == column_j.tobytes(), (i, j)

    def test_reaches_tmax_when_slow(self, logistic):
        u = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=0.5, record_every=0.1))
        assert tr.termination == Termination.REACHED_TMAX
        assert tr.times[-1] == 0.5

    def test_evaluation_budget(self, logistic):
        """Records no longer cut steps: the H1 fixture needs few g calls."""
        calls = []

        def counted_g(u):
            calls.append(1)
            return logistic.g(u)

        pair = dataclasses.replace(logistic, g=counted_g)
        u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        tr = integrate(u0, pair, IntegratorConfig(t_max=200.0, rtol=1e-8, record_every=0.01))
        assert tr.termination == Termination.STATIONARY
        assert len(calls) < 5000

    def test_record_grid_does_not_shape_steps(self, h1_run, logistic):
        """A coarser record grid gives the same states at the shared times."""
        u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        coarse = integrate(u0, logistic, IntegratorConfig(t_max=200.0, rtol=1e-8, record_every=0.5))
        assert coarse.times.size > 20
        for t, snap in zip(coarse.times[:-1], coarse.snapshots[:-1]):
            k = int(np.argmin(np.abs(h1_run.times - t)))
            assert abs(h1_run.times[k] - t) <= 1e-12
            np.testing.assert_allclose(h1_run.snapshots[k].values, snap.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("run", ["h1_run", "h3_run"])
    def test_mass_drift_at_every_record(self, request, run):
        """Interpolated records are stage combinations: mass stays at roundoff."""
        tr = request.getfixturevalue(run)
        assert float(np.max(np.abs(tr.mass_series - tr.mass_series[0]))) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("case", ["g overflow", "energy overflow"])
    def test_non_finite_state_raises(self, logistic, case):
        """An overflowing g*p or energy ends the run instead of recording inf."""
        if case == "g overflow":
            u0, pair = AtomField([1e200], [1.0], 1.0), logistic
        else:
            u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
            pair = dataclasses.replace(logistic, antideriv_P=lambda s: s * np.inf)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            integrate(u0, pair, IntegratorConfig(t_max=1.0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_stage_overflow_rejects_step(self):
        """A first step far beyond the stability limit overflows in a stage
        state; that rejects the step instead of ending the run."""
        cubic = builtin_model("logistic-cubic")
        u0 = AtomField([-20.0, -0.5], [0.5, 0.5], 1.0)
        tr = integrate(u0, cubic, IntegratorConfig(t_max=5.0))
        assert tr.termination == Termination.STATIONARY
        np.testing.assert_allclose(tr.snapshots[-1].values, -10.25, atol=1e-9)

    def test_record_grid_bounded(self, h1_run, logistic, monkeypatch):
        """Records that would hold more than _MAX_RECORD_VALUES values (each
        record its atoms and five series values) raise at the step that
        would pass the limit, with that step's start state."""
        monkeypatch.setattr(dynamics, "_MAX_RECORD_VALUES", 7 * 100)
        u0 = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        with pytest.raises(NumericalFailureError, match="record grid too fine") as info:
            integrate(u0, logistic, h1_run.config)
        # about 100 records by t = 1; the values come in the input order
        assert 0.8 < info.value.t < 1.0
        assert 1.5 < info.value.values[0] < info.value.values[1] < 2.0
        fine = IntegratorConfig(t_max=1.0, record_every=1e-300)
        with pytest.raises(NumericalFailureError, match="record grid too fine") as info:
            integrate(u0, logistic, fine)
        assert info.value.t == 0.0

    def test_fine_grid_holds_only_its_records(self, logistic):
        """One step of 20,000 records: the traced peak inside integrate stays
        under 250 bytes a record. Two atoms and five series values are 56
        bytes a record, held once as blocks and once joined (114 here);
        series kept as lists of Python floats took 750."""
        u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        cfg = IntegratorConfig(t_max=1e-3, dt_init=1e-3, record_every=5e-8)
        tracemalloc.start()
        try:
            tr = integrate(u0, logistic, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.times.size == 20_001
        assert peak / tr.times.size < 250
        assert tr.steps.shape == (1, 10)

    def test_csv_layout(self, h3_run):
        text = _csv_text(h3_run)
        lines = text.strip().splitlines()
        assert lines[0] == "t,lambda,mass,energy,dissipation,v1,v2"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[5] == -0.2 and first[6] == -1.0


def _csv_text(tr):
    buf = io.StringIO()
    tr.to_csv(buf)
    return buf.getvalue()


# values on which "%.17g" and "{:.17g}" could plausibly disagree
_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.797e308, 1.7976931348623157e308,
                   0.1, -1.0 / 3.0, 1e16, 123456789012345678.0]


# two-atom fields with their limit of the first atom: H1 and H3 settle on
# the constant m0 (1.75 and -0.6), and in H2 the first atom rises to the
# root 1 of g
_TWO_ATOM_RUNS = {
    "H1": (((2.0, 0.5), (1.5, 0.5)), 1.75),
    "H2": (((0.9, 0.3), (0.2, 0.7)), 1.0),
    "H3": (((-0.2, 0.5), (-1.0, 0.5)), -0.6),
}


class TestExactTwoAtomReference:
    """The integrator's global error against the exact two-atom solution
    (``helpers.two_atom_exact``), record by record, to t = 8."""

    @staticmethod
    def _run(model, hyp, **cfg):
        atoms, limit = _TWO_ATOM_RUNS[hyp]
        pair = builtin_model(model)
        u0 = AtomField([v for v, _ in atoms], [w for _, w in atoms], 1.0)
        tr = integrate(u0, pair, IntegratorConfig(t_max=8.0, record_every=0.5, **cfg))
        exact = two_atom_exact(tr.values[0], tr.weights, pair.g, pair.p, limit, tr.times)
        return tr, np.abs(tr.values - exact)

    @pytest.mark.parametrize("hyp", sorted(_TWO_ATOM_RUNS))
    @pytest.mark.parametrize("model", ["logistic-identity", "logistic-cubic"])
    def test_every_record_within_rtol(self, model, hyp):
        tr, err = self._run(model, hyp)
        # the cubic H1 run settles after a few records
        assert len(tr.times) >= 5
        assert err.max() <= tr.config.rtol, (model, hyp, err.max(axis=0))

    @pytest.mark.parametrize("hyp", sorted(_TWO_ATOM_RUNS))
    def test_reference_agrees_with_a_tight_run(self, hyp):
        # two independent solutions of the same ODE: the reference is good
        # to far below the default rtol it is used to check
        tr, err = self._run("logistic-identity", hyp, rtol=1e-13, atol=1e-16)
        assert len(tr.times) == 17
        assert err.max() <= 1e-13

    @pytest.mark.parametrize("hyp", sorted(_TWO_ATOM_RUNS))
    @pytest.mark.parametrize("model", ["logistic-identity", "logistic-cubic"])
    def test_error_proportional_to_tolerance(self, model, hyp):
        """Every record is within rtol at rtol 1e-6, 1e-8 and 1e-10 (atol
        rtol/100), and the worst error falls at least tenfold for each
        hundredfold cut in rtol: tolerance proportionality (Hairer, Norsett
        & Wanner, Solving ODEs I, II.4). The falls read 23x-185x here."""
        worst = []
        for rtol in (1e-6, 1e-8, 1e-10):
            _, err = self._run(model, hyp, rtol=rtol, atol=rtol / 100)
            assert err.max() <= rtol, (rtol, err.max(axis=0))
            worst.append(err.max())
        assert worst[0] >= 10 * worst[1] >= 100 * worst[2], worst


def _graft(tree):
    """Every rooted tree made by adding one leaf to tree. A tree is the
    sorted tuple of its subtrees, so equal trees compare equal."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for grown in _graft(child):
            yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))


def _rooted_trees(max_order):
    """(order, tree) for every rooted tree of at most max_order nodes."""
    level, out = {()}, [(1, ())]
    for order in range(2, max_order + 1):
        level = {grown for tree in level for grown in _graft(tree)}
        out += [(order, tree) for tree in sorted(level)]
    return out


class TestTableau:
    """The integrator's coefficients against the conditions they must meet
    (Hairer, Norsett & Wanner, Solving ODEs I, II.2 and II.6), each to
    1e-14: a mistyped digit fails here rather than quietly costing
    accuracy. Tree t of order r with density gamma(t) and elementary
    weights Phi(t) gives the condition w . Phi(t) = theta^r / gamma(t);
    a leaf's A . 1 is taken as c, which the first test holds to."""

    c = np.array((0.0,) + dynamics._RK_C)
    a = np.array([row + (0.0,) * (7 - len(row)) for row in ((),) + dynamics._RK_A])
    b = a[-1]

    def _residuals(self, weights, max_order, theta=1.0):
        """{tree: weights . Phi(tree) - theta^order / gamma(tree)} up to max_order."""
        def phi(tree):
            out = np.ones(7)
            for child in tree:
                out = out * (self.a @ phi(child) if child else self.c)
            return out

        def gamma(tree):
            return size(tree) * math.prod(gamma(child) for child in tree)

        def size(tree):
            return 1 + sum(size(child) for child in tree)

        return {tree: float(weights @ phi(tree)) - theta ** order / gamma(tree)
                for order, tree in _rooted_trees(max_order)}

    def test_rows_sum_to_nodes(self):
        assert np.max(np.abs(self.a.sum(axis=1) - self.c)) <= 1e-14

    def test_fifth_order_weights(self):
        res = self._residuals(self.b, 5)
        assert len(res) == 17
        assert max(map(abs, res.values())) <= 1e-14, res

    def test_embedded_fourth_order_weights(self):
        embedded = self.b - np.array(dynamics._RK_E)
        res = self._residuals(embedded, 4)
        assert len(res) == 8
        assert max(map(abs, res.values())) <= 1e-14, res
        # a 5th-order embedded pair would estimate no error at all
        fifth = [abs(r) for tree, r in self._residuals(embedded, 5).items() if tree not in res]
        assert max(fifth) > 1e-6

    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_continuous_extension_fourth_order(self, theta):
        weights = dynamics._RK_P @ theta ** np.arange(1, 5)
        res = self._residuals(weights, 4, theta)
        assert len(res) == 8
        assert max(map(abs, res.values())) <= 1e-14, res

    def test_continuous_extension_ends_on_the_step(self):
        assert np.max(np.abs(dynamics._RK_P.sum(axis=1) - self.b)) <= 1e-14

    @pytest.mark.parametrize("m", [1, 7, 9, 37])
    def test_stage_sums_add_rows_in_stage_order(self, m):
        """A step's stage sums (``_sum_rows`` of a tableau column times the
        stage rows) equal a row-by-row loop bit for bit, for one column
        and for rows wider than numpy's 8-wide unrolled loops: a numpy
        whose reduction changed this order would change output bytes."""
        rng = np.random.default_rng(m)
        K = rng.standard_normal((7, m)) * 10.0 ** rng.integers(-8, 9, (7, m))
        for col in (*dynamics._RK_A_COLS, dynamics._RK_E_COL):
            rows = col * K[:col.shape[0]]
            acc = rows[0]
            for row in rows[1:]:
                acc = acc + row
            assert dynamics._sum_rows(rows).tobytes() == acc.tobytes()


class TestCsv:
    @staticmethod
    def _format_spec_csv(tr):
        """The CSV as one format spec per value, the way it was first written."""
        n = tr.weights.size
        lines = ["t,lambda,mass,energy,dissipation," + ",".join(f"v{i + 1}" for i in range(n))]
        for k in range(tr.times.size):
            head = (tr.times[k], tr.lambda_series[k], tr.mass_series[k],
                    tr.energy_series[k], tr.dissipation_series[k])
            lines.append(",".join(f"{float(x):.17g}" for x in (*head, *tr.values[k])))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _assert_same_text(got, expected):
        # row by row: a diff of the whole text would take minutes to print
        got_rows, expected_rows = got.split("\n"), expected.split("\n")
        assert len(got_rows) == len(expected_rows)
        for k, (row, expected_row) in enumerate(zip(got_rows, expected_rows)):
            assert row == expected_row, f"row {k}"

    def test_percent_format_equals_format_spec(self):
        for x in _SPECIAL_FLOATS:
            assert "%.17g" % x == f"{x:.17g}", x

    @pytest.mark.parametrize("run", ["h1_run", "wide_run"])
    def test_rows_byte_identical(self, request, run):
        tr = request.getfixturevalue(run)
        self._assert_same_text(_csv_text(tr), self._format_spec_csv(tr))

    def test_special_values_byte_identical(self, h3_run):
        k = len(_SPECIAL_FLOATS)
        lam = h3_run.lambda_series.copy()
        lam[:k] = _SPECIAL_FLOATS
        values = h3_run.values.copy()
        values[:k, 1] = _SPECIAL_FLOATS[::-1]
        tr = dataclasses.replace(h3_run, lambda_series=lam, values=values)
        self._assert_same_text(_csv_text(tr), self._format_spec_csv(tr))

    def test_writes_row_by_row(self, h3_run, tmp_path):
        """200 records of 1000 atoms: the traced peak while writing stays
        within a few rows of text, far below the whole CSV."""
        rows, n = 200, 1000
        rng = np.random.default_rng(3)
        series = {name: rng.uniform(-1.0, 1.0, rows) for name in
                  ("lambda_series", "mass_series", "energy_series", "dissipation_series")}
        tr = dataclasses.replace(h3_run, times=np.arange(rows) * 0.01, weights=np.full(n, 1.0 / n),
                                 values=rng.uniform(-1.0, 1.0, (rows, n)), **series)
        path = tmp_path / "wide.csv"
        with path.open("w") as fh:
            tracemalloc.start()
            try:
                tr.to_csv(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        row = max(len(line) for line in path.read_text().splitlines())
        assert path.stat().st_size > 150 * row
        # a row's text, its encoded bytes and its 1005 Python floats; the
        # whole CSV as one string would be about 200 rows, three times over
        assert peak < 10 * row, (peak, row)


@pytest.fixture(scope="module")
def wide_run(logistic):
    """100 samples of 1 + x under H1, recorded every 0.5."""
    u0 = from_samples((1.0 + (np.arange(100) + 0.5) / 100).tolist(), 1.0)
    return integrate(u0, logistic, IntegratorConfig(t_max=200.0, record_every=0.5))


@pytest.fixture(scope="module")
def unsorted_run(logistic):
    """12 unsorted H1 atoms of unequal weights, two of them tied."""
    rng = np.random.default_rng(29)
    values = rng.uniform(1.01, 3.0, size=12)
    values[7] = values[2]
    weights = rng.uniform(0.1, 1.0, size=12)
    u0 = AtomField(values, weights, math.fsum(weights.tolist()))
    return integrate(u0, logistic, IntegratorConfig(t_max=20.0, record_every=0.1))


@pytest.fixture(scope="module")
def expr_run():
    """41 unsorted H1 atoms under the expression model u*(1-u), u^3+u,
    recorded every 0.001: it settles by t = 2.3, in steps holding up to
    137 records."""
    rng = np.random.default_rng(41)
    values = np.append(rng.uniform(1.1, 2.3, size=40), 1.0)
    rng.shuffle(values)
    u0 = AtomField(values, np.full(41, 1.0 / 41.0), 1.0)
    pair = build_model("u*(1-u)", "u^3+u")
    return integrate(u0, pair, IntegratorConfig(t_max=20.0, record_every=0.001))


class TestColumnarTrajectory:
    @staticmethod
    def _is_row(u, tr, k):
        return (
            np.array_equal(u.values, tr.values[k])
            and np.array_equal(u.weights, tr.weights)
            and u.domain_measure == tr.domain_measure
        )

    def test_values_read_only(self, h1_run):
        assert h1_run.values.shape == (h1_run.times.size, 2)
        assert not h1_run.values.flags.writeable
        with pytest.raises(ValueError):
            h1_run.values[0, 0] = 3.0
        assert len(h1_run.snapshots) == len(h1_run.times)

    def test_replace_keeps_caller_array_writable(self, h1_run):
        values = h1_run.values.copy()
        tr = dataclasses.replace(h1_run, values=values)
        assert not tr.values.flags.writeable and values.flags.writeable
        with pytest.raises(ValueError, match="records"):
            dataclasses.replace(h1_run, values=values[1:])

    def test_snapshot_view_rows(self, h1_run):
        tr, last = h1_run, h1_run.times.size - 1
        assert self._is_row(tr.snapshots[7], tr, 7)
        assert self._is_row(tr.snapshots[np.int64(3)], tr, 3)
        assert self._is_row(tr.snapshots[-1], tr, last)
        part = tr.snapshots[10:40:7]
        assert len(part) == len(range(10, 40, 7))
        assert all(self._is_row(u, tr, k) for u, k in zip(part, range(10, 40, 7)))
        assert all(self._is_row(u, tr, k) for k, u in enumerate(tr.snapshots))
        with pytest.raises(IndexError):
            tr.snapshots[last + 1]
        with pytest.raises(TypeError):
            tr.snapshots[0] = tr.snapshots[1]

    def test_snapshot_view_builds_only_requested_rows(self, h1_run, monkeypatch):
        built = []
        init = field_mod.AtomField.__init__

        def counting_init(obj, *args):
            built.append(1)
            init(obj, *args)

        monkeypatch.setattr(field_mod.AtomField, "__init__", counting_init)
        view = h1_run.snapshots
        part = view[100:200]
        assert len(part) == 100 and not built
        view[-1]
        part[5]
        assert len(built) == 2

    @pytest.mark.parametrize(
        "run", ["h1_run", "h2_run", "h3_run", "wide_run", "unsorted_run", "expr_run"]
    )
    def test_records_equal_kernel_bitwise(self, request, run):
        """Each record's series entries are the kernel's values at its row,
        with the atoms in the canonical order of the initial field, however
        many rows its step's block holds."""
        tr = request.getfixturevalue(run)
        pair = tr.pair
        sign = tr.hypothesis.energy_sign
        order = field_mod.canonical_order(tr.values[0], tr.weights)
        weights = tr.weights[order]
        expected = {"lam": [], "mass": [], "energy": [], "diss": []}
        for t, vals in zip(tr.times.tolist(), tr.values):
            gv, pv, lam, _ = multiplier(t, vals[order], weights, pair)
            u = AtomField(vals, tr.weights, tr.domain_measure)
            expected["lam"].append(lam)
            expected["mass"].append(mass(u))
            expected["energy"].append(lyapunov(u, pair, tr.hypothesis.energy_index))
            expected["diss"].append(sign * dissipation_sum(weights, gv, pv, lam))
        got = {"lam": tr.lambda_series, "mass": tr.mass_series,
               "energy": tr.energy_series, "diss": tr.dissipation_series}
        for name, series in got.items():
            assert np.asarray(expected[name]).tobytes() == series.tobytes(), name

    def test_step_ending_on_record_records_step_state(self, logistic):
        """Steps of exactly record_every: every record is a step's own
        5th-order state, not the continuous extension at theta = 1."""
        u0 = AtomField([1.2, 1.1], [0.5, 0.5], 1.0)
        tr = integrate(u0, logistic, IntegratorConfig(t_max=10.0, dt_init=0.5, dt_max=0.5,
                                                      record_every=0.5))
        assert tr.times.tolist() == [0.5 * k for k in range(21)]
        extension_differs = False
        dissipated = 0.0
        for k in range(1, tr.times.size):
            prev = tr.values[k - 1]
            rates, _, diss, lam = atom_rates(0.0, prev, tr.weights, 1.0, logistic)
            new, ks, ds, *_ = _rk_attempt(tr.times[k - 1], prev, rates, diss, lam, 0.5, tr.weights,
                                          1.0, logistic)
            assert np.array_equal(tr.values[k], new), k
            extension_differs |= not np.array_equal(_rk_dense(prev, 0.5, ks, [1.0])[0], new)
            # each step adds dt times the 5th-order weights over its stages,
            # summed in stage order
            terms = [b * d for b, d in zip(dynamics._RK_A[-1], ds[:6, 0].tolist())]
            dissipated += 0.5 * functools.reduce(operator.add, terms)
        assert extension_differs
        assert tr.dissipated == dissipated

    def test_dense_rows_equal_single_fraction_calls(self, logistic):
        """Each row of a dense block is the extension at its fraction alone,
        bit for bit, so a record does not depend on the other records of
        its step."""
        rng = np.random.default_rng(5)
        v = rng.uniform(1.01, 3.0, size=7)
        w = np.full(7, 1.0 / 7.0)
        rates, _, diss, lam = atom_rates(0.0, v, w, 1.0, logistic)
        _, ks, *_ = _rk_attempt(0.0, v, rates, diss, lam, 0.3, w, 1.0, logistic)
        thetas = sorted(rng.random(40).tolist()) + [1.0]
        block = _rk_dense(v, 0.3, ks, thetas)
        for theta, row in zip(thetas, block):
            assert row.tobytes() == _rk_dense(v, 0.3, ks, [theta])[0].tobytes(), theta

    def test_first_faulty_record_raises(self, h1_run, logistic):
        """A fault at several records of one step is reported at the first."""
        k = int(np.argmax(h1_run.values[:, 0] < 1.9))
        assert 0 < k and 1.8 < h1_run.values[k, 0] < 1.9
        assert h1_run.values[k + 1, 0] > 1.8

        def antideriv(s):
            s = np.asarray(s, dtype=float)
            return np.where((s > 1.8) & (s < 1.9), np.inf, 0.5 * s * s)

        pair = dataclasses.replace(logistic, antideriv_P=antideriv)
        u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        with pytest.raises(NumericalFailureError, match="non-finite energy") as info:
            integrate(u0, pair, h1_run.config)
        assert info.value.t == h1_run.times[k]
        assert np.array_equal(info.value.values, h1_run.values[k])

    @pytest.mark.parametrize("bad, match", [(np.nan, "non-finite atom value"),
                                            (2.5, "invariant region violated")])
    def test_gate_refuses_a_record_row(self, h1_run, logistic, monkeypatch, bad, match):
        """A dense record row that is not finite, or that leaves the region
        while the step's own state stays inside, raises with its own time
        and values, after the records before it."""
        dense = dynamics._rk_dense
        recorded = [1]  # rows so far, the initial state's included
        corrupted = []  # (record index, the corrupted row)

        def corrupt(values, dt, ks, thetas):
            block = dense(values, dt, ks, thetas)
            if not corrupted and len(thetas) >= 3:
                block[1, 0] = bad
                corrupted.append((recorded[0] + 1, block[1].copy()))
            recorded[0] += len(thetas)
            return block

        monkeypatch.setattr(dynamics, "_rk_dense", corrupt)
        u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        with pytest.raises(NumericalFailureError, match=match) as info:
            integrate(u0, logistic, h1_run.config)
        k, row = corrupted[0]
        assert info.value.t == h1_run.times[k]
        assert np.array_equal(info.value.values, row, equal_nan=True)
        assert row[1] == h1_run.values[k, 1]

    def test_gate_refuses_an_accepted_step(self, h1_run, logistic, monkeypatch):
        """A step whose error estimate accepts it, but whose state leaves the
        region, raises at the step's end time with the values in the order
        the input lists its atoms."""
        attempt = dynamics._rk_attempt
        pushed = []  # (end time, state) of each pushed attempt

        def push(t, values, k1, d1, lam1, dt, *args):
            new, ks, ds, lams, den, rho = attempt(t, values, k1, d1, lam1, dt, *args)
            if t > 0.0:  # from the second step on, the top atom (canonical
                new = new.copy()  # index 0) past the region [1, 2]
                new[0] = 2.0 + 1e-3
                pushed.append((t + dt, new))
            return new, ks, ds, lams, den, rho  # the same stage rates: accepted

        monkeypatch.setattr(dynamics, "_rk_attempt", push)
        u0 = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)  # not in canonical order
        with pytest.raises(NumericalFailureError, match="^invariant region violated") as info:
            integrate(u0, logistic, h1_run.config)
        t_end, new = pushed[-1]
        assert info.value.t == t_end
        assert info.value.values.tolist() == [new[1], 2.0 + 1e-3]


class TestCanonicalOrder:
    """integrate runs on the atoms in canonical order, fixed at t = 0."""

    @pytest.mark.parametrize("name", ["logistic-identity", "logistic-cubic"])
    def test_permuted_input_gives_the_same_run(self, name):
        """Fields of 3 to 40 atoms with ties of unequal weight, listed in two
        more orders: the same run to the last bit, columns permuted."""
        pair = builtin_model(name)
        rng = np.random.default_rng(31)
        cfg = IntegratorConfig(t_max=3.0, record_every=0.1)
        series = ("times", "lambda_series", "mass_series", "energy_series", "dissipation_series")
        for k in range(12):
            lo, hi = [(1.01, 3.0), (0.05, 0.95), (-2.0, -0.05)][k % 3]
            n = int(rng.integers(3, 41))
            # fewer distinct values than atoms: some atoms are tied
            values = rng.choice(rng.uniform(lo, hi, size=max(2, n // 2)), size=n)
            weights = rng.uniform(0.1, 1.0, size=n)
            measure = math.fsum(weights.tolist())
            ref = integrate(AtomField(values, weights, measure), pair, cfg)
            assert ref.times.size > 1
            for _ in range(2):
                perm = rng.permutation(n)
                tr = integrate(AtomField(values[perm], weights[perm], measure), pair, cfg)
                assert tr.termination == ref.termination
                for attr in series:
                    assert getattr(tr, attr).tobytes() == getattr(ref, attr).tobytes(), attr
                assert tr.values.tobytes() == ref.values[:, perm].tobytes()
                assert np.array_equal(tr.weights, weights[perm])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failure_at_start_carries_input_order(self, logistic):
        u0 = AtomField([1.5, 1e200, 2.0], [0.25, 0.25, 0.5], 1.0)
        with pytest.raises(NumericalFailureError, match="non-finite g or p") as info:
            integrate(u0, logistic, IntegratorConfig(t_max=1.0))
        assert np.array_equal(info.value.values, u0.values)

    def test_record_failure_carries_input_order(self, h1_run, logistic):
        """The failing record of test_first_faulty_record_raises, with the
        atoms listed the other way round."""
        k = int(np.argmax(h1_run.values[:, 0] < 1.9))

        def antideriv(s):
            s = np.asarray(s, dtype=float)
            return np.where((s > 1.8) & (s < 1.9), np.inf, 0.5 * s * s)

        pair = dataclasses.replace(logistic, antideriv_P=antideriv)
        u0 = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)
        with pytest.raises(NumericalFailureError, match="non-finite energy") as info:
            integrate(u0, pair, h1_run.config)
        assert info.value.t == h1_run.times[k]
        assert np.array_equal(info.value.values, h1_run.values[k, ::-1])

    def test_step_path_takes_no_exact_sums(self, wide_run, logistic, monkeypatch):
        """math.fsum runs three times per record (mass, energy, dissipation)
        and never for a stage, so exact sums stay off the step path."""
        u0 = wide_run.snapshots[0]
        calls = []
        fsum = math.fsum

        def counted(terms):
            calls.append(1)
            return fsum(terms)

        monkeypatch.setattr(math, "fsum", counted)
        tr = integrate(u0, logistic, wide_run.config)
        monkeypatch.undo()
        assert tr.times.tobytes() == wide_run.times.tobytes()
        assert len(calls) == 3 * tr.times.size


_TANH_CONFIG = """\
model.g = "u*(1-u)"
model.p = "tanh(u) + 2*u"
domain.measure = 8.25
initial.expr = "-x"
initial.samples = 132
integrator.rtol = 1e-12
"""


class TestClosedFormRecordPath:
    """An expression model with a closed-form P runs no quadrature per record.

    Under per-record adaptive Simpson this 132-atom run took tens of
    seconds; the closed form reproduces the energies of the same model
    with the cumulative quadrature P.
    """

    def test_no_quadrature_and_same_energies(self, monkeypatch):
        from nldyn import cli, exprparse, quad

        cfg = cli.parse_config_text(_TANH_CONFIG)
        u0 = cfg.build_initial()
        pair = cfg.build_pair(u0)
        assert pair.closed_form_P
        with monkeypatch.context() as m:
            m.setattr(exprparse, "antiderivative", lambda ast: None)
            quadrature = cfg.build_pair(u0)
        assert not quadrature.closed_form_P
        tr_quad = integrate(u0, quadrature, cfg.integrator_config())

        simpson = quad.adaptive_simpson
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return simpson(*args, **kwargs)

        monkeypatch.setattr(quad, "adaptive_simpson", counted)
        tr = integrate(u0, pair, cfg.integrator_config())
        assert calls == []
        assert tr.times.size > 10
        np.testing.assert_array_equal(tr.times, tr_quad.times)
        np.testing.assert_array_equal(tr.values, tr_quad.values)
        np.testing.assert_allclose(tr.energy_series, tr_quad.energy_series, rtol=1e-12, atol=0.0)


class TestQuadratureRecordPath:
    """A p without a closed form: P of a record block is one cumulative
    quadrature over the block's distinct values, not one Simpson integral
    from 0 per atom."""

    def test_integrand_evaluations_per_record_block(self, monkeypatch):
        from nldyn import cli, quad

        simpson = quad.adaptive_simpson
        evals = [0]

        def counted(f, *args, **kwargs):
            def counted_f(t):
                evals[0] += 1
                return f(t)

            return simpson(counted_f, *args, **kwargs)

        monkeypatch.setattr(quad, "adaptive_simpson", counted)
        cfg = cli.parse_config_text(_TANH_CONFIG.replace("tanh(u) + 2*u", "u + 0.1*u*exp(u)"))
        u0 = cfg.build_initial()
        pair = cfg.build_pair(u0)
        assert not pair.closed_form_P
        blocks = []

        def P(s):
            before = evals[0]
            out = pair.antideriv_P(s)
            blocks.append((np.unique(s).size, evals[0] - before))
            return out

        tr = integrate(u0, dataclasses.replace(pair, antideriv_P=P), cfg.integrator_config())
        assert 10 < len(blocks) <= tr.times.size
        # about a thousand evaluations a block plus a dozen per distinct
        # value; one integral from 0 per atom took some 2,000 per atom
        # (260,040 for one record of this run)
        for distinct, count in blocks:
            assert count <= 1200 + 12 * distinct


class TestRecordPathCalls:
    """The record path calls antideriv_P once per record block, on the
    whole block, and takes what it returns or raises as it comes."""

    def test_one_call_per_block_on_the_whole_block(self, logistic):
        shapes = []

        def P(s):
            shapes.append(np.shape(s))
            return logistic.antideriv_P(s)

        u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        cfg = IntegratorConfig(t_max=5.0, record_every=0.01)
        tr = integrate(u0, dataclasses.replace(logistic, antideriv_P=P), cfg)
        assert all(len(shape) == 2 and shape[1] == 2 for shape in shapes)
        assert sum(rows for rows, _ in shapes) == tr.times.size
        assert len(shapes) < tr.times.size

    def test_value_error_raised_after_one_call(self, logistic):
        calls = []

        def P(s):
            calls.append(np.shape(s))
            raise ValueError("P refuses")

        u0 = AtomField([2.0, 1.5], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="P refuses"):
            integrate(u0, dataclasses.replace(logistic, antideriv_P=P), IntegratorConfig())
        assert calls == [(1, 2)]


class TestRearrangementAlongFlow:
    def test_commutation_exact(self, logistic):
        """Integrating the rearranged state and rearranging the integrated
        state produce the same staircases at the shared record times."""
        u0 = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)  # deliberately unsorted
        cfg = IntegratorConfig(t_max=5.0, record_every=0.1)
        tr_orig = integrate(u0, logistic, cfg)
        tr_sorted = integrate(rearrange(u0), logistic, cfg)
        k = min(tr_orig.times.size, tr_sorted.times.size)
        assert np.array_equal(tr_orig.times[:k], tr_sorted.times[:k])
        for i in range(0, k, max(1, k // 10)):
            d = profile_l1_distance(tr_orig.snapshots[i], tr_sorted.snapshots[i])
            assert d <= 1e-12

    def test_isometry_along_orbit(self, h1_run):
        rng = np.random.default_rng(3)
        for _ in range(20):
            i, j = rng.integers(0, h1_run.times.size, size=2)
            d_atoms = l1_distance(h1_run.snapshots[i], h1_run.snapshots[j])
            d_prof = profile_l1_distance(h1_run.snapshots[i], h1_run.snapshots[j])
            assert abs(d_atoms - d_prof) <= 1e-12


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _sine_1d(n):
    """1.5 + 0.4 sin(2 pi x) on (0, 1), and its rearrangement 1.5 + 0.4 cos(pi r)."""
    x = _midpoints(n)
    return 1.5 + 0.4 * np.sin(2 * np.pi * x), 1.5 + 0.4 * np.cos(np.pi * x), 1.0


def _plane_2d(n):
    """1 + x + y on an n x n grid of the unit square, and its rearrangement
    3 - sqrt(2r) for r <= 1/2, 1 + sqrt(2(1 - r)) beyond, on n^2 points."""
    x, y = np.meshgrid(_midpoints(n), _midpoints(n))
    r = _midpoints(n * n)
    star = np.where(r <= 0.5, 3 - np.sqrt(2 * r), 1 + np.sqrt(2 * (1 - r)))
    return (1 + x + y).ravel(), star, 1.0


def _radial(n):
    """2 - (x^2 + y^2) at the points of an n x n grid of [-1, 1]^2 inside the
    unit disc, |Omega| = pi, and its rearrangement 2 - r/pi on as many points."""
    x, y = np.meshgrid(2 * _midpoints(n) - 1, 2 * _midpoints(n) - 1)
    q = (x * x + y * y).ravel()
    q = q[q < 1.0]
    return 2 - q, 2 - _midpoints(q.size), math.pi


class TestRearrangementOnContinuumData:
    """The rearranged equation is the original one, on data that are not
    already atoms: a field and its closed-form decreasing rearrangement,
    each sampled, give two runs under logistic-identity whose rearranged
    records converge to each other as the grid is refined, at first order
    in 1/N at t = 0, and the flow does not pull them apart. Each grid size
    is twice the one before it."""

    @pytest.mark.parametrize("make, sizes", [
        (_sine_1d, (64, 128, 256)),
        (_plane_2d, (8, 16, 32)),
        (_radial, (16, 32, 64)),
    ], ids=["1-D", "2-D", "radial"])
    def test_discretisations_converge(self, logistic, make, sizes):
        cfg = IntegratorConfig(t_max=2.0, record_every=1.0)
        dist = []
        for n in sizes:
            *samples, measure = make(n)
            runs = [integrate(from_samples(v.tolist(), measure), logistic, cfg) for v in samples]
            assert [r.times.tolist() for r in runs] == [[0.0, 1.0, 2.0]] * 2
            dist.append([
                profile_l1_distance(*(r.snapshots[k] for r in runs)) for k in range(3)
            ])
        dist = np.array(dist)  # one row per grid size, one column per record
        assert np.all(dist[1:] < dist[:-1])
        assert np.all(np.log2(dist[:-1, 0] / dist[1:, 0]) >= 0.8)
        assert np.all(dist[:, 1:] <= dist[:, :1])


_TRACER_MODELS = {
    "logistic-identity": lambda: builtin_model("logistic-identity"),
    "logistic-cubic": lambda: builtin_model("logistic-cubic"),
    "tanh": lambda: build_model("u*(1-u)", "tanh(u) + 2*u"),
}
# the initial atoms of the H1, H2 and H3 reference runs (conftest.py)
_TRACER_FIELDS = {"H1": [2.0, 1.5], "H2": [0.7, 0.3], "H3": [-0.2, -1.0]}


@functools.cache
def _companion(model: str, field: str, record_every: float):
    """A reference field's run under one model, as conftest.py runs it."""
    pair = _TRACER_MODELS[model]()
    u0 = AtomField(_TRACER_FIELDS[field], [0.5, 0.5], 1.0)
    cfg = IntegratorConfig(t_max=200.0, rtol=1e-8, record_every=record_every)
    return integrate(u0, pair, cfg)


@functools.cache
def _tight_tracers(model: str, field: str, starts: tuple[float, ...]):
    """A reference field's run at rtol 1e-13, and ``starts`` carried on its
    steps by characteristic_flow."""
    pair = _TRACER_MODELS[model]()
    u0 = AtomField(_TRACER_FIELDS[field], [0.5, 0.5], 1.0)
    cfg = IntegratorConfig(t_max=200.0, rtol=1e-13, atol=1e-15, dt_max=0.005, record_every=0.01)
    run = integrate(u0, pair, cfg)
    return run, characteristic_flow(np.array(starts), run)


class TestCharacteristicFlow:
    def test_fixed_point_one(self, h1_run, h2_run):
        for run in (h1_run, h2_run):
            y = characteristic_flow(1.0, run)
            assert np.all(y == 1.0)

    def test_fixed_point_zero(self, h1_run, h2_run):
        for run in (h1_run, h2_run):
            y = characteristic_flow(0.0, run)
            assert np.all(y == 0.0)

    @pytest.mark.parametrize("record_every", [0.01, 0.5])
    @pytest.mark.parametrize("field", ["H1", "H2", "H3"])
    @pytest.mark.parametrize("model", list(_TRACER_MODELS))
    def test_reproduces_atom_series(self, model, field, record_every):
        """A start on an atom's initial value is that atom's series, bit for bit."""
        tr = _companion(model, field, record_every)
        for j, s0 in enumerate(_TRACER_FIELDS[field]):
            y = characteristic_flow(s0, tr)
            assert y.tobytes() == np.ascontiguousarray(tr.values[:, j]).tobytes(), j

    @pytest.mark.parametrize("field", ["H1", "H2", "H3"])
    @pytest.mark.parametrize("model", list(_TRACER_MODELS))
    def test_tracer_on_an_atom_retraces_it(self, model, field):
        """On the two-atom fixtures, where the order projection never moves a
        state, the replay of the atoms' own initial values equals the atoms
        bit for bit: a tracer is a weight-zero atom on the atoms' own stages
        and steps."""
        tr = _companion(model, field, 0.01)
        tracers = dynamics._replay(tr.values[0].copy(), tr)
        assert tracers.tobytes() == tr.values.tobytes()

    @pytest.mark.parametrize("field", ["H1", "H2", "H3"])
    @pytest.mark.parametrize("model", list(_TRACER_MODELS))
    def test_tracer_leaves_the_run_unchanged(self, model, field):
        """Tracers off the atoms and the roots of g stay finite on the
        companion's steps, and the companion is as it was."""
        tr = _companion(model, field, 0.5)
        before = [getattr(tr, name).tobytes() for name in ("times", "values", "steps")]
        for s0 in (0.5, float(np.mean(_TRACER_FIELDS[field]))):
            assert np.all(np.isfinite(characteristic_flow(s0, tr)))
        assert [getattr(tr, name).tobytes() for name in ("times", "values", "steps")] == before

    @pytest.mark.parametrize("record_every", [0.01, 0.5])
    @pytest.mark.parametrize("field, starts", [("H1", (0.5, 0.9, 1.75)),
                                               ("H3", (-0.9, -0.5, 0.7))])
    @pytest.mark.parametrize("model", ["logistic-identity", "logistic-cubic"])
    def test_matches_tight_companion(self, model, field, starts, record_every):
        """Tracers between the atoms and the roots of g stay within 5e-6 of
        the same tracers on a companion at rtol 1e-13, at every common
        record, on either record grid. The tracers leave the error norm, so
        their error follows the atoms' steps; the worst here, 3.0e-6, is a
        tracer leaving the unstable root 1 (s0 = 0.9, logistic-cubic).
        Starts closer to the unstable root do worse, since the tracer
        leaves it only once the atoms have settled and their steps have
        grown: under logistic-cubic, 8.2e-6 at 0.95 and 2.0e-3 at 1.005
        (H1), 7.5e-4 at 0.005 (H3).

        H2 is left out: a tracer near the separatrix p(s) = lam_inf is
        ill-conditioned (7.0e-6 and 6.4e-6 at s0 = 0.5 under
        logistic-identity, on the 0.01 and 0.5 grids), whatever the solver.
        """
        tr = _companion(model, field, record_every)
        ref_run, ref = _tight_tracers(model, field, starts)
        common, k, k_ref = np.intersect1d(tr.times, ref_run.times, return_indices=True)
        assert common.size >= 4
        ys = characteristic_flow(np.array(starts), tr)
        for i, s0 in enumerate(starts):
            assert float(np.max(np.abs(ys[i, k] - ref[i, k_ref]))) <= 5e-6, s0

    @pytest.mark.parametrize("model", list(_TRACER_MODELS))
    def test_several_starts_equal_single_calls(self, model):
        """Starts on the atoms, the roots of g and between them, in one
        replay: row i is the call on start i alone, bit for bit."""
        tr = _companion(model, "H1", 0.5)
        starts = [1.75, 0.0, 2.0, 0.5, 1.0, 1.5, 0.9, 1.2]
        ys = characteristic_flow(np.array(starts), tr)
        assert ys.shape == (len(starts), tr.times.size)
        for s0, y in zip(starts, ys):
            single = characteristic_flow(s0, tr)
            assert single.shape == tr.times.shape
            assert y.tobytes() == single.tobytes(), s0

    def test_each_start_checked(self, h1_run):
        with pytest.raises(ValueError, match="outside"):
            characteristic_flow([1.5, 2.5], h1_run)
        with pytest.raises(ValueError, match="1-D"):
            characteristic_flow([[1.5]], h1_run)

    def test_single_snapshot_trajectory(self, logistic):
        u = AtomField([0.5], [1.0], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=1.0))
        y = characteristic_flow(0.3, tr)
        assert y.tolist() == [0.3]

    @pytest.mark.parametrize("s0", [math.nan, math.inf, -math.inf, -1e-12, 2.0 + 1e-12, 5.0])
    def test_start_outside_domain_refused(self, h1_run, s0):
        """Only [min(ess inf u0, 0), max(ess sup u0, 1)] = [0, 2] on the H1
        run: outside it a tracer can be stiffer than the atoms' steps."""
        with pytest.raises(ValueError, match="outside"):
            characteristic_flow(s0, h1_run)

    def test_overflowing_start_refused(self):
        """s0 = 5 under logistic-cubic overflowed in a scalar solver; it lies
        outside the domain, [0, 2] on the H1 run."""
        tr = _companion("logistic-cubic", "H1", 0.01)
        with pytest.raises(ValueError, match="outside"):
            characteristic_flow(5.0, tr)

    def test_hand_built_trajectory_refused(self, h1_run):
        """Steps that stop short of the records are refused."""
        with pytest.raises(ValueError, match="steps do not reach its records"):
            characteristic_flow(1.75, dataclasses.replace(h1_run, steps=h1_run.steps[:-1]))

    def test_integrates_nothing(self, h1_run, monkeypatch):
        """The replay starts no integration."""
        want = characteristic_flow([1.75, 0.5], h1_run)

        def refuse(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(dynamics, "integrate", refuse)
        monkeypatch.setattr(dynamics, "_integrate_canonical", refuse)
        assert characteristic_flow([1.75, 0.5], h1_run).tobytes() == want.tobytes()

    def test_steps_chain(self, h1_run):
        """Each step starts where the one before it ended, the last ends on the
        last record, and the H1 pair on the 0.01 grid takes 43 steps."""
        steps = h1_run.steps
        assert steps.shape == (43, 10) and not steps.flags.writeable
        assert steps[0, 0] == 0.0 and steps[0, 3] == h1_run.lambda_series[0]
        assert steps[1:, 0].tobytes() == steps[:-1, 2].tobytes()
        assert steps[-1, 2] == h1_run.times[-1]
        # each step's first stage multiplier is the one before it ended on
        assert steps[1:, 3].tobytes() == steps[:-1, 9].tobytes()

    def test_reproduces_atoms_where_the_order_projection_acts(self, monkeypatch):
        """300 samples of 1 + x under logistic-cubic settle on one plateau,
        where atoms cross by an ulp unless each kept state is projected onto
        the ordered cone. A start on each atom's value is that atom's series,
        bit for bit."""
        pair = builtin_model("logistic-cubic")
        u0 = from_samples((1.0 + (np.arange(300) + 0.5) / 300).tolist(), 1.0)
        cfg = IntegratorConfig(t_max=200.0)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_cummin", lambda a, axis: a)
            crossed = integrate(u0, pair, cfg)
        tr = integrate(u0, pair, cfg)
        for run, passed in ((crossed, False), (tr, True)):
            report = verify_trajectory(run)
            row = next(c for c in report.checks if c.name == "order-preservation")
            assert row.passed is passed, row
        y = characteristic_flow(u0.values, tr)
        assert y.tobytes() == np.ascontiguousarray(tr.values.T).tobytes()

    def test_non_finite_tracer_raises(self, h1_run, logistic):
        """A p that is infinite at the tracer's start, and nowhere the atoms
        go, leaves the atoms' run as it was and the tracer non-finite."""
        pair = dataclasses.replace(logistic, p=lambda u: np.where(u == 0.25, np.inf, u * 1.0))
        companion = integrate(h1_run.snapshots[0], pair, h1_run.config)
        assert companion.values.tobytes() == h1_run.values.tobytes()
        with pytest.raises(NumericalFailureError, match="tracer"):
            characteristic_flow(0.25, companion)

class TestDissipationIntegral:
    @pytest.mark.parametrize("run", ["h1_run", "h2_run", "h3_run"])
    def test_matches_energy_drop(self, request, run):
        """The dissipation carried on the atoms' steps meets the energy drop
        within 1e-8 of |E(0)| (2.2e-9 at worst here); the trapezoid rule on
        the 0.01 record grid missed it by 1.0e-6 on H1."""
        tr = request.getfixturevalue(run)
        drop = tr.energy_series[-1] - tr.energy_series[0]
        assert abs(drop - tr.dissipated) <= 1e-8 * abs(tr.energy_series[0])

    def test_guard_trip_in_a_stage_rejects_the_attempt(self, h1_run, logistic, monkeypatch):
        """A stage that trips the guard rejects its step attempt, and the run
        goes on, its dissipation integral meeting the energy drop; a run
        whose g-integral crosses the guard ends there."""
        calls = []

        def trip_once(*args):
            calls.append(args[0])
            if len(calls) == 20:  # a stage inside the run's first steps
                raise DenominatorVanishingError(0.0, 1e-10)
            return atom_rates(*args)

        monkeypatch.setattr(dynamics, "atom_rates", trip_once)
        tr = integrate(h1_run.snapshots[0], logistic, h1_run.config)
        monkeypatch.undo()
        assert len(calls) > 20 and tr.termination == Termination.STATIONARY
        assert tr.values.tobytes() != h1_run.values.tobytes()  # the steps changed
        np.testing.assert_allclose(tr.values[-1], 1.75, atol=1e-8)
        drop = tr.energy_series[-1] - tr.energy_series[0]
        assert abs(drop - tr.dissipated) <= 1e-8 * abs(tr.energy_series[0])

        pair = build_model("u*(1-u)/(1+4*u^2)", "u", working_range=(-3.0, 3.0))
        u0 = AtomField([0.3, -1.0], [0.73, 0.27], 1.0)
        crossing = integrate(u0, pair, IntegratorConfig(t_max=50.0, record_every=0.001))
        assert crossing.termination == Termination.DENOMINATOR_VANISHING


class TestVerifyTrajectory:
    def test_h1_run_passes(self, h1_run, logistic):
        report = verify_trajectory(h1_run)
        assert report.passed, "\n".join(report.lines())

    def test_h3_run_passes(self, h3_run, logistic):
        report = verify_trajectory(h3_run)
        assert report.passed, "\n".join(report.lines())

    def test_corrupted_snapshot_detected(self, h1_run, logistic):
        """Perturbing one recorded state must trip mass or ordering."""
        values = h1_run.values.copy()
        mid = len(values) // 2
        values[mid, 0] += 0.01
        masses = h1_run.mass_series.copy()
        masses[mid] = mass(AtomField(values[mid], h1_run.weights, h1_run.domain_measure))
        corrupted = dataclasses.replace(h1_run, values=values, mass_series=masses)
        report = verify_trajectory(corrupted)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "mass-conservation" in failed

    def test_non_finite_multiplier_fails_lambda_bound(self, h1_run):
        lam = h1_run.lambda_series.copy()
        lam[len(lam) // 2] = np.nan
        report = verify_trajectory(dataclasses.replace(h1_run, lambda_series=lam))
        row = next(c for c in report.checks if c.name == "lambda-bound")
        assert not row.passed and row.worst == math.inf

    def test_constant_trajectory_trivially_passes(self, logistic):
        u = AtomField([0.5], [1.0], 1.0)
        tr = integrate(u, logistic, IntegratorConfig(t_max=5.0))
        report = verify_trajectory(tr)
        assert report.passed

    @staticmethod
    def _order_row(report):
        return next(c for c in report.checks if c.name == "order-preservation")

    def test_gaps_settling_to_exact_ties_pass(self, logistic):
        """100 samples of 1 + x settle on 1.5; neighbours meet to the last bit."""
        u0 = from_samples((1.0 + (np.arange(100) + 0.5) / 100).tolist(), 1.0)
        tr = integrate(u0, logistic, IntegratorConfig(t_max=200.0, record_every=0.5))
        assert tr.termination == Termination.STATIONARY
        row = self._order_row(verify_trajectory(tr))
        assert row.passed and row.worst == 0.0

    def test_non_adjacent_swap_detected(self, logistic):
        """Swapping atoms 0 and 2 keeps input-adjacent signs but breaks the order."""
        u0 = AtomField([1.5, 2.0, 1.2], [0.25, 0.25, 0.25], 0.75)
        tr = integrate(u0, logistic, IntegratorConfig(t_max=5.0, record_every=0.1))
        values = tr.values.copy()
        mid = len(values) // 2
        values[mid, [0, 2]] = values[mid, [2, 0]]
        swapped = dataclasses.replace(tr, values=values)
        row = self._order_row(verify_trajectory(swapped))
        assert not row.passed and row.worst < 0.0

    def test_broken_tie_detected(self, logistic):
        """Initially tied atoms must stay tied to the last bit."""
        u0 = AtomField([1.5, 2.0, 1.5], [0.25, 0.5, 0.25], 1.0)
        tr = integrate(u0, logistic, IntegratorConfig(t_max=5.0, record_every=0.1))
        values = tr.values.copy()
        values[-1, 2] += 1e-12
        split = dataclasses.replace(tr, values=values)
        row = self._order_row(verify_trajectory(split))
        assert not row.passed and row.worst == pytest.approx(-1e-12, rel=1e-3)

    @pytest.mark.parametrize("atom", [2, 0])
    def test_nan_fails(self, logistic, atom):
        """A NaN in an atom fails the row, in a tied atom as in a strict one:
        joining the tie margin must not drop it."""
        u0 = AtomField([2.0, 1.5, 1.5, 1.5, 1.2], [0.2] * 5, 1.0)
        tr = integrate(u0, logistic, IntegratorConfig(t_max=5.0, record_every=0.1))
        assert self._order_row(verify_trajectory(tr)).passed
        values = tr.values.copy()
        values[10, atom] = np.nan
        row = self._order_row(verify_trajectory(dataclasses.replace(tr, values=values)))
        assert not row.passed and math.isnan(row.worst)

    @pytest.mark.parametrize("block_values", [1, 9, 1 << 16])
    def test_blocks_of_rows_equal_one_pass(self, logistic, monkeypatch, block_values):
        # a tie, strict gaps, and the run read with atoms swapped or split
        # from mid-run on; at 4 atoms, blocks of 1 row, 2 rows and the whole run
        u0 = AtomField([1.5, 2.0, 1.5, 1.2], [0.25, 0.25, 0.25, 0.25], 1.0)
        tr = integrate(u0, logistic, IntegratorConfig(t_max=5.0, record_every=0.1))
        mid = len(tr.values) // 2
        swapped, split = tr.values.copy(), tr.values.copy()
        swapped[mid:, [0, 1]] = swapped[mid:, [1, 0]]
        split[mid:, 2] += 1e-12
        monkeypatch.setattr(dynamics, "_ORDER_BLOCK_VALUES", block_values)
        for values in (tr.values, swapped, split):
            run = dataclasses.replace(tr, values=values)
            worst = self._order_row(verify_trajectory(run)).worst
            assert np.float64(worst).tobytes() == np.float64(order_gap_reference(values)).tobytes()

    def test_audit_rows(self, h1_run, logistic):
        report = verify_trajectory(h1_run)
        assert [c.name for c in report.checks] == [
            "mass-conservation",
            "order-preservation",
            "invariant-region",
            "lambda-bound",
            "energy-monotonicity",
        ]


class TestIntegratorConfigValidation:
    def test_negative_tolerance(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1.0, rtol=-1e-8)

    def test_dt_init_above_dt_max(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1.0, dt_init=2.0, dt_max=1.0)

    def test_nonpositive_t_max(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=0.0)

    @pytest.mark.parametrize("name", ["rtol", "t_max", "record_every"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            IntegratorConfig(**{name: float("nan")})
