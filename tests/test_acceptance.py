"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line per
criterion.  Criterion 9 is data-conditional: it runs only when a weekly
syphilis counts CSV is supplied (env SPINGARCH_SYPHILIS_CSV or
data/syphilis.csv); otherwise it is reported as skipped, which does not fail
the suite.
"""

import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from spingarch import (
    NEGBIN,
    NEURAL,
    POISSON,
    SOFTPLUS_LINEAR,
    LinearParams,
    ModelSpec,
    NeuralWeights,
    OptimizerOptions,
    RngStream,
    SimConfig,
    empirical_moments,
    fit_cml,
    linear_moments_11,
    nb_log_pmf,
    negloglik,
    negloglik_and_grad,
    poisson_log_pmf,
    relu,
    simulate_path,
    simulation_study,
    softplus,
    softplus_deriv,
)
from spingarch.cli import main as cli_main
from spingarch.cli import parse_counts_csv


def report(criterion: int, message: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_moment_formulas_exact():
    m = linear_moments_11(LinearParams(1.8, (0.3,), (0.4,), 3.0), max_lag=3)
    values = (m.mean, m.dispersion, m.acf[0], m.acf[1], m.acf[2])
    targets = (6.000, 3.750, 0.360, 0.252, 0.176)
    for got, want in zip(values, targets):
        assert abs(got - want) <= 0.0005, f"{got} vs {want}"
    report(1, "closed-form (1,1) moments reproduce the reference row within +/-0.0005")


def test_criterion_2_simulation_matches_reference_row():
    spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, 1.0)
    params = LinearParams(1.8, (0.3,), (0.4,), 3.0)
    path = simulate_path(SimConfig(spec=spec, params=params, length=100_000,
                                   burn_in=500, rng=RngStream(42)))
    emp = empirical_moments(path, 1)
    assert abs(emp.mean - 6.008) <= 0.15, emp.mean
    assert abs(emp.acf[0] - 0.358) <= 0.03, emp.acf[0]
    report(2, f"1e5-step simulation: mean {emp.mean:.4f} (6.008 +/- 0.15), "
              f"lag-1 ACF {emp.acf[0]:.4f} (0.358 +/- 0.03)")


def test_criterion_3_estimator_recovery_study():
    spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, 1.0)
    truth = LinearParams(0.75, (0.25,), (0.45,), 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = simulation_study(spec, truth, sizes=[100, 1000], replications=100,
                                 seed=20260810, opts=OptimizerOptions(restarts=1, seed=0))
    m = table.cells[1000]
    assert abs(m["alpha1"].mean - 0.25) <= 0.03, m["alpha1"]
    assert abs(m["beta1"].mean - 0.45) <= 0.06, m["beta1"]
    violations = 0
    for name in table.param_names:
        violations += not (table.cells[1000][name].abs_bias < table.cells[100][name].abs_bias)
        violations += not (table.cells[1000][name].mse < table.cells[100][name].mse)
    assert violations <= 1, f"{violations} trend violations"
    rates = {s: table.exclusion_rate(s) for s in table.sizes}
    report(3, f"R=100 recovery: mean alpha1 {m['alpha1'].mean:.3f} (0.25 +/- 0.03), "
              f"mean beta1 {m['beta1'].mean:.3f} (0.45 +/- 0.06), "
              f"{violations} trend violations (<= 1 allowed), exclusion rates {rates}")


def test_criterion_4_information_criterion_arithmetic():
    # identity on every fit produced here
    spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0, 1.0)
    path = simulate_path(SimConfig(spec=spec, params=LinearParams(2.0, (0.3,), (), 3.0),
                                   length=400, rng=RngStream(4)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_cml(spec, path, OptimizerOptions(restarts=0))
    k = fit.estimates.k()
    assert fit.bic - fit.aic == pytest.approx(k * (math.log(400) - 2.0), abs=1e-10)
    # published pair (1488.14, 1498.15) at k=3 implies s = 208 within one obs
    gap = 1498.15 - 1488.14
    assert 3 * (math.log(208) - 2.0) == pytest.approx(gap, abs=0.02)
    implied = {s: 3 * (math.log(s) - 2.0) for s in (206, 207, 208, 209, 210)}
    best = min(implied, key=lambda s: abs(implied[s] - gap))
    assert abs(best - 208) <= 1
    report(4, f"BIC-AIC = k(ln s - 2) exact on fits; published gap {gap:.2f} implies s={best}")


def _fd_gradient(spec, series, flat, h=1e-6):
    grad = np.empty(flat.size)
    for i in range(flat.size):
        e = np.zeros(flat.size)
        e[i] = h
        up = negloglik(spec, NeuralWeights.from_flat(flat + e, spec), series)
        dn = negloglik(spec, NeuralWeights.from_flat(flat - e, spec), series)
        grad[i] = (up - dn) / (2 * h)
    return grad


def test_criterion_5_gradient_gate():
    rng = np.random.default_rng(123)
    worst = {0: 0.0, 1: 0.0}
    for q in (0, 1):
        for trial in range(20):
            family = POISSON if trial % 2 == 0 else NEGBIN
            L = int(rng.integers(1, 4))
            spec = ModelSpec(family, NEURAL, 1, q, 1.0, hidden=L)
            series = rng.integers(0, 9, 30)
            size = spec.input_width * L + L + (1 if family == NEGBIN else 0)
            flat = rng.uniform(-0.8, 0.8, size)
            w = NeuralWeights.from_flat(flat, spec)
            analytic = negloglik_and_grad(spec, w, series)[1]
            numeric = _fd_gradient(spec, series, flat)
            err = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
            worst[q] = max(worst[q], err)
    assert worst[0] < 1e-6, f"q=0 gradient error {worst[0]:.2e} blocks neural training"
    assert worst[1] < 1e-5, f"q=1 gradient error {worst[1]:.2e} blocks neural training"
    report(5, f"exact gradient vs central differences: worst q=0 error {worst[0]:.1e} (< 1e-6), "
              f"worst q=1 error {worst[1]:.1e} (< 1e-5)")


def test_criterion_6_distribution_properties():
    grid = [(n, lam) for n in (0.5, 1.0, 3.0, 10.0) for lam in (0.5, 2.0, 6.0, 12.0)]
    for n, lam in grid:
        xs = np.arange(math.ceil(lam + 40.0 * math.sqrt(lam * (1.0 + lam / n))) + 1)
        pmf = np.exp(nb_log_pmf(xs, n, lam))
        assert pmf.sum() >= 1.0 - 1e-10
        assert (xs * pmf).sum() == pytest.approx(lam, abs=1e-8)
        assert ((xs - lam) ** 2 * pmf).sum() == pytest.approx(lam * (1 + lam / n), rel=1e-6)
    for lam in (1.0, 4.0, 10.0):
        xs = np.arange(200)
        gap = np.abs(np.exp(nb_log_pmf(xs, 1e6, lam)) - np.exp(poisson_log_pmf(xs, lam)))
        assert gap.max() < 1e-4
    report(6, "NB normalization, mean/variance identities, and the n=1e6 Poisson "
              "limit hold across the parameter grid")


def test_criterion_7_softplus_property_suite():
    rng = np.random.default_rng(2468)
    N = 10_000
    x = rng.uniform(-100, 100, N)
    c = rng.uniform(1e-3, 4.0, N)
    sp = np.array([softplus(xi, ci) for xi, ci in zip(x, c)])
    r = np.asarray(relu(x))
    assert np.all(sp >= r) and np.all(sp <= c * math.log(2.0) + r + 1e-12)
    representable = c * np.exp(-np.abs(x) / c) > 8 * np.spacing(np.maximum(np.abs(x), 1.0))
    assert np.all(sp[representable] > r[representable])

    x2 = rng.uniform(-100, 100, N)
    for xi, xj, ci in zip(x, x2, c):
        assert abs(softplus(xi, ci) - softplus(xj, ci)) <= abs(xi - xj) * (1 + 1e-12) + 1e-12

    for xi, ci in zip(x, c):
        # step balances roundoff (~eps|sp|/2h) against truncation (~(h/c)^2/6);
        # dividing by the realized spacing removes the x +/- h rounding error
        h = 1e-4 * ci + 1e-8 * abs(xi)
        xp, xm = xi + h, xi - h
        fd = (softplus(xp, ci) - softplus(xm, ci)) / (xp - xm)
        d = softplus_deriv(xi, ci)
        if d < 1e-300 and fd == 0.0:
            continue
        assert abs(fd - d) <= 1e-6 * max(d, 1e-300)

    for c_small in (1e-2, 1e-5, 1e-8):
        sp_small = np.array([softplus(xi, c_small) for xi in x])
        assert np.all(np.abs(sp_small - r) <= c_small * math.log(2.0) + 1e-15)
    report(7, "ReLU sandwich, 1-Lipschitz bound, derivative finite-difference match, "
              "and c->0 ReLU convergence hold on 1e4 random points")


def test_criterion_8_cli_determinism(tmp_path):
    sim_csv = tmp_path / "sim.csv"
    sim_argv = ["simulate", "--family", "negbin", "--p", "1", "--q", "1",
                "--alpha0", "1.8", "--alpha", "0.3", "--beta", "0.4", "--n", "3",
                "--length", "500", "--seed", "17", "--out", str(sim_csv)]
    assert cli_main(sim_argv) == 0
    sim_first = sim_csv.read_bytes()
    assert cli_main(sim_argv) == 0
    assert sim_csv.read_bytes() == sim_first

    fit_out = tmp_path / "fit.txt"
    fit_argv = ["fit", str(sim_csv), "--p", "1", "--q", "1", "--seed", "1",
                "--out", str(fit_out)]
    assert cli_main(fit_argv) == 0
    fit_first = fit_out.read_bytes()
    assert cli_main(fit_argv) == 0
    assert fit_out.read_bytes() == fit_first

    study_out = tmp_path / "study.txt"
    study_argv = ["study", "--family", "negbin", "--p", "1", "--q", "1",
                  "--alpha0", "0.75", "--alpha", "0.25", "--beta", "0.45", "--n", "3",
                  "--sizes", "100,200", "--replications", "4", "--seed", "5",
                  "--out", str(study_out)]
    assert cli_main(study_argv) == 0
    study_first = study_out.read_bytes()
    assert cli_main(study_argv) == 0
    assert study_out.read_bytes() == study_first
    report(8, "simulate, fit, and study reruns with identical configs are byte-identical")


def _syphilis_path():
    env = os.environ.get("SPINGARCH_SYPHILIS_CSV")
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parents[1] / "data" / "syphilis.csv"
    return default if default.exists() else None


def test_criterion_9_conditional_weekly_case_data():
    path = _syphilis_path()
    if path is None:
        pytest.skip("conditional criterion: no weekly syphilis CSV supplied "
                    "(set SPINGARCH_SYPHILIS_CSV or add data/syphilis.csv); "
                    "not required for acceptance")
    series = parse_counts_csv(path)
    candidates = {
        "pois(1,0)": ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0, 1.0),
        "pois(2,0)": ModelSpec(POISSON, SOFTPLUS_LINEAR, 2, 0, 1.0),
        "pois(1,1)": ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 1, 1.0),
        "nb(1,0)": ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0, 1.0),
        "nb(2,0)": ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 2, 0, 1.0),
        "nb(1,1)": ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, 1.0),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        aics = {label: fit_cml(spec, series, OptimizerOptions(restarts=3, seed=0)).aic
                for label, spec in candidates.items()}
    best = min(aics, key=aics.get)
    assert best == "nb(2,0)", aics
    assert abs(aics["nb(2,0)"] - 1484.47) <= 2.0, aics["nb(2,0)"]
    report(9, f"weekly-counts model selection: nb(2,0) attains the lowest AIC "
              f"{aics['nb(2,0)']:.2f} (target 1484.47 +/- 2)")
