"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
reference runs (shared fixtures) use logistic-identity with record
interval 0.01 and t_max = 200 at rtol 1e-8.
"""

import math

import numpy as np
import pytest

from helpers import euler_orbit
from test_exprparse import _random_ast

from nldyn import (
    AtomField,
    IntegratorConfig,
    Termination,
    build_model,
    consistency_check,
    energy_limit,
    evaluate,
    differentiate,
    extract_limit,
    integrate,
    l1_distance,
    predict_h1,
    predict_h3,
    profile_l1_distance,
    rearrange,
    sample_g_monotone,
)
from nldyn.errors import EvalDomainError


def _criterion(n: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mass_conservation(h1_run):
    worst = float(np.max(np.abs(h1_run.mass_series - 1.75)))
    _criterion(1, "mass conserved along the H1 run", worst <= 1.75e-6, f"worst drift {worst:.3e}")


def test_criterion_02_invariant_regions(h1_run, h2_run, h3_run):
    def inside(run, lo, hi):
        return all(
            float(np.min(s.values)) >= lo - 1e-9 and float(np.max(s.values)) <= hi + 1e-9
            for s in run.snapshots
        )

    ok = (
        inside(h1_run, 1.0, 2.0)
        and inside(h2_run, 0.0, 1.0)
        and inside(h3_run, -1.0, 0.0)
    )
    _criterion(2, "H1/H2/H3 runs stay inside their invariant regions", ok)


def test_criterion_03_order_preservation(h1_run, h2_run, h3_run):
    def strictly_decreasing(run):
        return all(bool(np.all(np.diff(s.values) < 0.0)) for s in run.snapshots)

    ok = all(map(strictly_decreasing, (h1_run, h2_run, h3_run)))
    _criterion(3, "atom values remain strictly decreasing in all three runs", ok)


def test_criterion_04_lambda_bound(h1_run):
    worst = float(np.max(np.abs(h1_run.lambda_series)))
    _criterion(4, "H1 multiplier bounded by max(|p(1)|, |p(2)|)", worst <= 2.0 + 1e-9,
               f"max |lambda| {worst:.6f}")


def test_criterion_05_energy_monotone_and_dissipation_identity(h1_run):
    worst_up = float(np.max(np.diff(h1_run.energy_series)))
    integral = float(np.trapezoid(h1_run.dissipation_series, h1_run.times))
    drop = float(h1_run.energy_series[-1] - h1_run.energy_series[0])
    mismatch = abs(drop - integral)
    ok = worst_up <= 1e-9 and mismatch <= 1e-6 * abs(h1_run.energy_series[0])
    _criterion(5, "energy nonincreasing; integrated dissipation matches the drop", ok,
               f"worst rise {worst_up:.2e}, identity mismatch {mismatch:.2e}")


def test_criterion_06_rearrangement_isometry(h1_run):
    rng = np.random.default_rng(2023)
    worst = 0.0
    for _ in range(20):
        i, j = rng.integers(0, h1_run.times.size, size=2)
        d_atoms = l1_distance(h1_run.snapshots[i], h1_run.snapshots[j])
        d_prof = profile_l1_distance(h1_run.snapshots[i], h1_run.snapshots[j])
        worst = max(worst, abs(d_atoms - d_prof))
    _criterion(6, "L1 distance equals rearranged-profile distance on 20 time pairs",
               worst <= 1e-12, f"worst gap {worst:.2e}")


def test_criterion_07_commutation_with_rearranged_problem(logistic):
    u0 = AtomField([1.5, 2.0], [0.5, 0.5], 1.0)  # non-canonical order on purpose
    cfg = IntegratorConfig(t_max=200.0, rtol=1e-8, record_every=0.1)
    tr_orig = integrate(u0, logistic, cfg)
    tr_sorted = integrate(rearrange(u0), logistic, cfg)
    k = min(tr_orig.times.size, tr_sorted.times.size)
    idx = np.unique(np.linspace(0, k - 1, 10).astype(int))
    ok = bool(np.array_equal(tr_orig.times[:k][idx], tr_sorted.times[:k][idx]))
    worst = 0.0
    for i in idx:
        worst = max(
            worst,
            profile_l1_distance(tr_orig.snapshots[i], tr_sorted.snapshots[i]),
        )
    ok = ok and worst <= 1e-12
    _criterion(7, "integrating the rearranged state commutes with rearranging",
               ok, f"worst staircase gap {worst:.2e} at 10 matched times")


def test_criterion_08_omega_closure_h1(h1_run, logistic):
    """The two-atom H1 run merges onto the constant 1.75, the degenerate
    form of the two-plateau limit (plateau measure = |Omega|); predictor
    and extraction must agree on it."""
    emp = extract_limit(h1_run)
    shape_ok = (
        len(emp.limit) in (1, 2)
        and emp.main_plateau()[0] > 1.0
        and (len(emp.limit) == 1 or abs(emp.limit.values[1] - 1.0) <= 1e-6)
    )
    elim = energy_limit(h1_run)
    pred = predict_h1(float(h1_run.mass_series[0]), elim.value, 1.0, logistic)
    rep = consistency_check(pred, emp)
    residuals = max(abs(pred.mass_residual), abs(pred.energy_residual))
    ok = shape_ok and rep.passed and residuals <= 1e-10
    _criterion(8, "H1 limit: extraction matches the scalar-equation prediction", ok,
               f"largest gap {rep.worst:.2e}, residuals {residuals:.2e}")


def test_criterion_09_omega_closure_h3(h3_run, logistic):
    emp = extract_limit(h3_run)
    shape_ok = (
        len(emp.limit) in (1, 2)
        and emp.main_plateau()[0] < 0.0
        and (len(emp.limit) == 1 or abs(emp.limit.values[0]) <= 1e-6)
    )
    elim = energy_limit(h3_run)
    pred = predict_h3(float(h3_run.mass_series[0]), elim.value, 1.0, logistic)
    rep = consistency_check(pred, emp)
    residuals = max(abs(pred.mass_residual), abs(pred.energy_residual))
    ok = shape_ok and rep.passed and residuals <= 1e-10
    _criterion(9, "H3 limit: extraction matches the scalar-equation prediction", ok,
               f"largest gap {rep.worst:.2e}, residuals {residuals:.2e}")


def test_criterion_10_euler_oracle_equivalence(h1_run, logistic):
    ref = euler_orbit([2.0, 1.5], [0.5, 0.5], logistic.g, logistic.p, 1e-5, 100_000)
    k = int(np.searchsorted(h1_run.times, 1.0))
    assert h1_run.times[k] == 1.0
    worst = float(np.max(np.abs(h1_run.snapshots[k].values - ref)))
    _criterion(10, "adaptive integrator matches fixed-step Euler (dt = 1e-5) at t = 1",
               worst <= 1e-4, f"sup gap {worst:.2e}")


def test_criterion_11_predictor_analytics(logistic):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        R = float(rng.uniform(1.5, 1000.0))
        pred = predict_h1(2.0, R * 1.0 + 0.5, 1.0, logistic)
        worst = max(worst, abs(pred.main_plateau()[0] - (2.0 * R - 1.0)))
    for _ in range(100):
        Rp = float(rng.uniform(-1000.0, -0.5))
        pred = predict_h3(-1.0, -Rp, 1.0, logistic)
        worst = max(worst, abs(pred.main_plateau()[0] - 2.0 * Rp))
    _criterion(11, "bisection reproduces the p = id closed forms on 100 random inputs",
               worst <= 1e-10, f"worst root gap {worst:.2e}")


def test_criterion_12_g_monotonicity_audit(logistic):
    reports = {"logistic-identity": sample_g_monotone(logistic, 1.0, 1.0e4)}
    for p_text in ("u^3 + u", "tanh(u) + 2*u", "u^5 + u"):
        pair = build_model("u*(1-u)", p_text)
        reports[p_text] = sample_g_monotone(pair, 1.0, 1.0e4)
    ok = all(r.passed for r in reports.values())
    detail = "; ".join(f"{k}: step>={r.worst:.2e}" for k, r in reports.items())
    _criterion(12, "G strictly increasing on (1, 1e4] for 4 models", ok, detail)


def test_criterion_13_parser_and_derivatives(logistic):
    pair = build_model("u*(1-u)", "u")
    s = np.linspace(-2.0, 2.0, 10_000)
    worst_model = max(
        float(np.max(np.abs(np.asarray(pair.g(s)) - np.asarray(logistic.g(s))))),
        float(np.max(np.abs(np.asarray(pair.p(s)) - np.asarray(logistic.p(s))))),
    )
    ok = worst_model <= 1e-15

    rng = np.random.default_rng(99)
    checked = 0
    worst_fd = 0.0
    attempts = 0
    while checked < 100 and attempts < 1000:
        attempts += 1
        ast = _random_ast(depth=3)
        d = differentiate(ast)
        points = 0
        tries = 0
        while points < 20 and tries < 200:
            tries += 1
            x = float(rng.uniform(-2.0, 2.0))
            try:
                f0, fp, fm = (evaluate(ast, v) for v in (x, x + 1e-6, x - 1e-6))
                df = evaluate(d, x)
            except EvalDomainError:
                continue
            if not all(map(math.isfinite, (f0, fp, fm, df))):
                continue
            if abs(fp - 2.0 * f0 + fm) > 1e-4 * max(1.0, abs(f0)):
                continue
            fd = (fp - fm) / 2e-6
            gap = abs(df - fd) / max(1.0, abs(df))
            worst_fd = max(worst_fd, gap)
            ok = ok and gap <= 1e-6
            points += 1
        if points >= 5:
            checked += 1
    ok = ok and checked == 100
    _criterion(13, "expression-built model matches builtin; derivatives match FD", ok,
               f"model gap <= 1e-15, {checked} expressions, worst FD gap {worst_fd:.2e}")


def test_criterion_14_guard_behavior():
    pair = build_model("u*(1-u)/(1+4*u^2)", "u", working_range=(-3.0, 3.0))
    u0 = AtomField([0.3, -1.0], [0.73, 0.27], 1.0)
    tr = integrate(u0, pair, IntegratorConfig(t_max=50.0, record_every=0.001))
    finite = all(bool(np.all(np.isfinite(s.values))) for s in tr.snapshots)
    ok = tr.termination == Termination.DENOMINATOR_VANISHING and finite
    _criterion(14, "denominator crossing ends with the guard tag and finite values",
               ok, f"terminated at t = {tr.times[-1]:.4f}")
