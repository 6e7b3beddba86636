"""Conditional maximum likelihood: likelihood values, starts, fits, SEs, study."""

import dataclasses
import math
import warnings

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
    check_stationarity,
    fit_cml,
    information_criteria,
    init_params,
    negloglik,
    negloglik_and_grad,
    nb_log_pmf,
    simulate_path,
    simulation_study,
    softplus,
    standard_errors,
)
from spingarch import estimate, simulate
from spingarch.data import CountSeries
from spingarch.estimate import _PENALTY, _Objective, _fit, _negloglik_hessian
from spingarch.exceptions import NumericError, ParameterError


def nb_spec(p=1, q=1, c=1.0):
    return ModelSpec(NEGBIN, SOFTPLUS_LINEAR, p, q, c)


def table_path(length, seed, params=None):
    params = params or LinearParams(0.75, (0.25,), (0.45,), 3.0)
    return simulate_path(SimConfig(spec=nb_spec(), params=params, length=length,
                                   burn_in=500, rng=RngStream(seed)))


class TestNegloglik:
    def test_single_zero_observation_poisson(self):
        spec = ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0)
        for a0, a1 in [(0.5, 0.3), (-1.0, 2.0), (2.0, -0.7)]:
            value = negloglik(spec, LinearParams(a0, (a1,)), [0])
            # -log pmf(0; lambda) = lambda, with the zero mean floored at 1e-4
            assert value == pytest.approx(float(softplus(a0 + a1 * 1e-4)), rel=1e-12)

    def test_composes_pmf_oracle(self):
        spec = nb_spec(q=0)
        value = negloglik(spec, LinearParams(1.0, (0.0,), (), 3.0), [2, 3])
        lam = float(softplus(1.0))
        expected = -(nb_log_pmf(2, 3.0, lam) + nb_log_pmf(3, 3.0, lam))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_against_term_by_term_oracle(self):
        # independent reimplementation: explicit per-step product of the
        # conditional pmfs, with the rising-factorial sum done term by term
        rng = np.random.default_rng(2)
        spec = nb_spec()
        for _ in range(20):
            params = LinearParams(
                rng.uniform(0.2, 3), (rng.uniform(-0.5, 0.5),), (rng.uniform(-0.5, 0.5),),
                rng.uniform(0.5, 8),
            )
            series = rng.integers(0, 12, size=25)
            xbar = max(series.mean(), 1e-4)
            n = params.n
            prev_x, prev_l = xbar, xbar
            total = 0.0
            for xt in series:
                eta = params.alpha0 + params.alpha[0] * prev_x + params.beta[0] * prev_l
                lam = math.log1p(math.exp(eta)) if eta <= 0 else eta + math.log1p(math.exp(-eta))
                rising = sum(math.log(v + n - 1.0) for v in range(1, int(xt) + 1))
                total += (
                    xt * math.log(lam / n)
                    - (n + xt) * math.log(1.0 + lam / n)
                    + rising
                    - math.lgamma(xt + 1.0)
                )
                prev_x, prev_l = float(xt), lam
            assert negloglik(spec, params, series) == pytest.approx(-total, rel=1e-9)

    def test_encoding_round_trip_consistency(self):
        spec = nb_spec()
        series = table_path(200, 4)
        params = LinearParams(0.8, (0.2,), (0.4,), 2.5)
        fobj = _Objective(spec, series, LinearParams)
        theta = params.to_flat()
        # the optimizer's view of the objective is exactly the public
        # likelihood at the decoded parameters (bit-identical)
        assert fobj(theta)[0] == negloglik(spec, LinearParams.from_flat(theta, spec), series)
        assert negloglik(spec, LinearParams.from_flat(theta, spec), series) == pytest.approx(
            negloglik(spec, params, series), rel=1e-12
        )


class TestGradient:
    @pytest.mark.parametrize("family", [POISSON, NEGBIN])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("log_n", [True, False])
    def test_gate_against_central_differences(self, family, p, q, log_n):
        rng = np.random.default_rng(100 + 10 * p + q)
        spec = ModelSpec(family, SOFTPLUS_LINEAR, p, q)
        series = rng.integers(0, 10, 60)
        params = LinearParams(rng.uniform(0.5, 2.0), tuple(rng.uniform(-0.4, 0.4, p)),
                              tuple(rng.uniform(-0.4, 0.4, q)),
                              rng.uniform(1.0, 5.0) if family == NEGBIN else None)
        value, grad = negloglik_and_grad(spec, params, series, log_n)
        assert value == negloglik(spec, params, series)
        theta = params.to_flat(log_n)
        fd = np.empty(theta.size)
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            e = np.zeros(theta.size)
            e[i] = h
            fd[i] = (negloglik(spec, LinearParams.from_flat(theta + e, spec, log_n), series)
                     - negloglik(spec, LinearParams.from_flat(theta - e, spec, log_n), series)) / (2 * h)
        assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_series_not_longer_than_q(self, size):
        # only pre-sample means feed back; the lag taps past the end are zero
        spec = ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 3)
        params = LinearParams(1.0, (0.2,), (0.3, -0.2, 0.1))
        series = np.array([4, 1, 6][:size])
        grad = negloglik_and_grad(spec, params, series)[1]
        theta = params.to_flat()
        fd = np.array([(negloglik(spec, LinearParams.from_flat(theta + e, spec), series)
                        - negloglik(spec, LinearParams.from_flat(theta - e, spec), series)) / 2e-6
                       for e in 1e-6 * np.eye(theta.size)])
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


def gradient_difference_hessian(spec, params, series):
    """Central differences of the exact gradient on the natural n scale: the
    reference for the exact Hessian."""
    theta, kind = params.to_flat(log_n=False), type(params)
    H = np.empty((theta.size, theta.size))
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = 1e-5 * max(1.0, abs(theta[i]))
        H[i] = (negloglik_and_grad(spec, kind.from_flat(theta + e, spec, log_n=False), series, log_n=False)[1]
                - negloglik_and_grad(spec, kind.from_flat(theta - e, spec, log_n=False), series, log_n=False)[1]
                ) / (2 * e[i])
    return (H + H.T) / 2


def assert_hessian_matches_differences(spec, params, series):
    series = CountSeries(series)
    H = _negloglik_hessian(spec, params, series)
    fd = gradient_difference_hessian(spec, params, series)
    assert np.max(np.abs(H - fd)) / np.max(np.abs(fd)) < 1e-6


class TestHessian:
    @pytest.mark.parametrize("family", [POISSON, NEGBIN])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_gate_against_central_differences(self, family, p, q):
        rng = np.random.default_rng(200 + 10 * p + q)
        spec = ModelSpec(family, SOFTPLUS_LINEAR, p, q)
        params = LinearParams(rng.uniform(0.5, 2.0), tuple(rng.uniform(-0.4, 0.4, p)),
                              tuple(rng.uniform(-0.4, 0.4, q)),
                              rng.uniform(1.0, 5.0) if family == NEGBIN else None)
        assert_hessian_matches_differences(spec, params, rng.integers(0, 10, 80))

    @pytest.mark.parametrize("family", [POISSON, NEGBIN])
    def test_gate_with_smoothness(self, family):
        rng = np.random.default_rng(230)
        spec = ModelSpec(family, SOFTPLUS_LINEAR, 1, 2, 0.7)
        params = LinearParams(0.4, (0.35,), (0.3, -0.2), 2.5 if family == NEGBIN else None)
        assert_hessian_matches_differences(spec, params, rng.integers(0, 10, 80))

    @pytest.mark.parametrize("family", [POISSON, NEGBIN])
    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("q", [0, 1])
    def test_neural_gate_against_central_differences(self, family, L, q):
        rng = np.random.default_rng(240 + 10 * L + q)
        spec = ModelSpec(family, NEURAL, 1, q, hidden=L)
        weights = NeuralWeights(rng.uniform(-0.8, 0.8, (spec.input_width, L)), rng.uniform(0.5, 2.0, L),
                                rng.uniform(1.0, 5.0) if family == NEGBIN else None)
        assert_hessian_matches_differences(spec, weights, rng.integers(0, 8, 60))


class TestInitParams:
    def test_iid_series(self):
        rng = np.random.default_rng(5)
        series = rng.poisson(5.0, size=2000)
        start = init_params(nb_spec(), series)
        assert abs(start.alpha[0]) < 0.15
        assert abs(start.beta[0]) < 0.15
        assert start.alpha0 == pytest.approx(series.mean(), rel=0.2)

    def test_equidispersed_clamps_n(self):
        rng = np.random.default_rng(6)
        series = (rng.random(500) < 0.4).astype(int)  # Bernoulli: underdispersed
        start = init_params(nb_spec(), series)
        assert start.n == 1e4

    def test_matched_mean_on_reference_model(self):
        path = table_path(10_000, 8, LinearParams(1.8, (0.3,), (0.4,), 3.0))
        start = init_params(nb_spec(), path)
        implied_mu = start.alpha0 / (1.0 - start.alpha[0] - start.beta[0])
        assert abs(implied_mu - 6.0) < 0.6

    def test_generic_orders(self):
        path = table_path(2000, 9)
        start = init_params(nb_spec(p=2, q=0), path)
        assert len(start.alpha) == 2 and len(start.beta) == 0
        assert start.alpha0 == pytest.approx(path.mean() * 0.8, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            init_params(nb_spec(), [1, 2, 3])


class TestFitCml:
    def test_recovery_single_fit(self):
        path = table_path(1000, 1)
        fit = fit_cml(nb_spec(), path, OptimizerOptions(restarts=1, seed=0))
        assert fit.converged
        assert math.isfinite(fit.loglik)
        report = check_stationarity(fit.estimates)
        assert report.second_order_ok

    def test_deterministic_refit(self):
        path = table_path(400, 2)
        opts = OptimizerOptions(restarts=2, seed=3)
        a = fit_cml(nb_spec(), path, opts)
        b = fit_cml(nb_spec(), path, opts)
        assert a.loglik == b.loglik
        assert a.estimates == b.estimates
        np.testing.assert_array_equal(a.lambda_path, b.lambda_path)
        np.testing.assert_array_equal(
            np.nan_to_num(a.std_errors, nan=-1), np.nan_to_num(b.std_errors, nan=-1)
        )

    @pytest.mark.parametrize("restarts, seed", [(-1, 0), (1, -1)])
    def test_negative_restarts_or_seed_rejected(self, restarts, seed):
        # a negative seed used to pass and fail inside numpy once a restart drew its start
        with pytest.raises(ParameterError):
            OptimizerOptions(restarts=restarts, seed=seed)

    def test_constant_zero_series_never_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_cml(nb_spec(q=0), np.zeros(100, dtype=int), OptimizerOptions(restarts=0))
        assert fit.lambda_path.shape == (100,)
        assert np.all(fit.lambda_path > 0)

    def test_final_value_beats_start(self):
        spec = nb_spec()
        path = table_path(500, 11)
        start_value = negloglik(spec, init_params(spec, path), path)
        fit = fit_cml(spec, path, OptimizerOptions(restarts=0))
        assert -fit.loglik <= start_value + 1e-9

    def test_scaled_gradient_small_at_optimum(self):
        spec = nb_spec()
        path = table_path(1000, 12)
        fit = fit_cml(spec, path, OptimizerOptions(restarts=1))
        theta = fit.estimates.to_flat()
        fobj = _Objective(spec, path, LinearParams)
        f0 = fobj(theta)[0]
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            e = np.zeros(theta.size)
            e[i] = h
            grad = (fobj(theta + e)[0] - fobj(theta - e)[0]) / (2 * h)
            scaled = abs(grad) * max(1.0, abs(theta[i])) / max(1.0, abs(f0))
            assert scaled <= 1e-3

    def test_line_search_backs_off_from_penalty_region(self, monkeypatch):
        # from beta1 = 0.9 with alpha0 far too small, the first L-BFGS-B trial
        # step lands where the lambda recursion overflows on this long
        # negative-alpha1 series; the objective answers (_PENALTY, zeros) and
        # the line search must back off and still find the optimum
        spec = nb_spec()
        path = table_path(2000, 5, LinearParams(3.0, (-0.3,), (0.5,), 4.0))
        reference = fit_cml(spec, path, OptimizerOptions(restarts=0))
        values = []
        evaluate = _Objective.__call__

        def recording(self, z):
            out = evaluate(self, z)
            values.append(out[0])
            return out

        monkeypatch.setattr(_Objective, "__call__", recording)
        start = np.array([0.2, 0.0, 0.9, 0.0])
        fit = _fit(_Objective(spec, path, LinearParams), [start], "CML optimization")
        assert values[1] == _PENALTY  # the first trial step
        assert fit.converged
        assert fit.loglik == pytest.approx(reference.loglik, abs=1e-6)

    @pytest.mark.parametrize("family", [NEGBIN, POISSON])
    def test_few_mean_paths_and_none_after_the_optimizer(self, family, monkeypatch):
        # in the metric of the moment start's exact Hessian a (1,1) fit takes a
        # handful of evaluations, and the winning point's own mean path gives
        # lambda_path and the standard errors
        spec = ModelSpec(family, SOFTPLUS_LINEAR, 1, 1)
        series = CountSeries(table_path(2000, 5, LinearParams(3.0, (-0.3,), (0.5,), 4.0)))
        theta0 = init_params(spec, series).to_flat()
        unscaled = _fit(_Objective(spec, series, LinearParams), [theta0], "CML optimization")
        events = []
        mean_path, minimize = LinearParams.mean_path, estimate.minimize

        def counted_mean_path(self, *args, **kwargs):
            events.append("mean_path")
            return mean_path(self, *args, **kwargs)

        def marked_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            events.append("minimize")
            return res

        monkeypatch.setattr(LinearParams, "mean_path", counted_mean_path)
        monkeypatch.setattr(estimate, "minimize", marked_minimize)
        fit = fit_cml(spec, series, OptimizerOptions(restarts=0))
        assert events.count("minimize") == 1 and events[-1] == "minimize"
        assert events.count("mean_path") <= 10
        assert fit.converged and np.all(np.isfinite(fit.std_errors))
        assert fit.loglik >= unscaled.loglik - 1e-6

    @pytest.mark.parametrize("seed", [6, 7])
    def test_negbin_fit_at_the_poisson_limit(self, seed):
        # on Poisson data the NB dispersion runs off toward infinity; the NB
        # likelihood must approach the Poisson one from below, not drift
        # upward on cancellation noise in the NB coefficient
        series = np.random.default_rng(seed).poisson(5.0, 300)
        nb = fit_cml(ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0), series)
        poisson = fit_cml(ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0), series)
        assert nb.loglik < 0
        assert nb.loglik == pytest.approx(poisson.loglik, abs=1e-3)

    def test_information_criteria_identity_on_fit(self):
        path = table_path(300, 13)
        fit = fit_cml(nb_spec(), path, OptimizerOptions(restarts=0))
        k = fit.estimates.k()
        assert fit.bic - fit.aic == pytest.approx(k * (math.log(300) - 2.0), abs=1e-10)


class TestStandardErrors:
    def test_sqrt_s_shrinkage(self):
        spec = nb_spec(q=0)
        truth = LinearParams(2.0, (0.4,), (), 3.0)
        se = {}
        for s in (10_000, 100_000):
            path = simulate_path(SimConfig(spec=spec, params=truth, length=s, rng=RngStream(21)))
            fit = fit_cml(spec, path, OptimizerOptions(restarts=0))
            se[s] = standard_errors(spec, fit.estimates, path)
        ratio = se[100_000] / se[10_000]
        assert np.all(ratio > 0.24) and np.all(ratio < 0.42)

    def test_delta_method_invariance(self):
        spec = nb_spec(q=0)
        truth = LinearParams(2.0, (0.4,), (), 3.0)
        path = simulate_path(SimConfig(spec=spec, params=truth, length=10_000, rng=RngStream(22)))
        fit = fit_cml(spec, path, OptimizerOptions(restarts=0))
        est = fit.estimates
        direct = standard_errors(spec, est, path)

        # Hessian on the optimizer's ln-n scale from likelihood values only
        # (2k^2+1 second differences), independent of the gradient code
        def f_log(t):
            params = LinearParams(float(t[0]), (float(t[1]),), (), math.exp(float(t[2])))
            return negloglik(spec, params, path)

        theta = est.to_flat(log_n=True)
        h = np.maximum(1e-5, 1e-4 * np.abs(theta))
        step = np.diag(h)
        H = np.empty((3, 3))
        for i in range(3):
            H[i, i] = (f_log(theta + step[i]) - 2.0 * f_log(theta) + f_log(theta - step[i])) / h[i] ** 2
            for j in range(i + 1, 3):
                H[i, j] = H[j, i] = (
                    f_log(theta + step[i] + step[j]) - f_log(theta + step[i] - step[j])
                    - f_log(theta - step[i] + step[j]) + f_log(theta - step[i] - step[j])
                ) / (4.0 * h[i] * h[j])
        se_log = np.sqrt(np.diag(np.linalg.inv(H)))
        se_log[2] *= est.n  # delta method back to the n scale
        np.testing.assert_allclose(se_log, direct, rtol=2e-2)

    def test_one_mean_path_and_no_gradient_calls(self, monkeypatch):
        spec, series = nb_spec(), CountSeries(table_path(300, 31))
        params = fit_cml(spec, series, OptimizerOptions(restarts=0)).estimates
        calls = {"grad": 0, "mean_path": 0}
        grad, mean_path = estimate.negloglik_and_grad, LinearParams.mean_path

        def counted_grad(*args, **kwargs):
            calls["grad"] += 1
            return grad(*args, **kwargs)

        def counted_mean_path(self, *args, **kwargs):
            calls["mean_path"] += 1
            return mean_path(self, *args, **kwargs)

        monkeypatch.setattr(estimate, "negloglik_and_grad", counted_grad)
        monkeypatch.setattr(LinearParams, "mean_path", counted_mean_path)
        se = standard_errors(spec, params, series)
        assert np.all(np.isfinite(se))
        assert calls == {"grad": 0, "mean_path": 1}

    def test_given_mean_path_is_reused(self, monkeypatch):
        spec, series = nb_spec(), CountSeries(table_path(300, 31))
        fit = fit_cml(spec, series, OptimizerOptions(restarts=0))
        direct = standard_errors(spec, fit.estimates, series)
        calls = []
        mean_path = LinearParams.mean_path

        def counted_mean_path(self, *args, **kwargs):
            calls.append(1)
            return mean_path(self, *args, **kwargs)

        monkeypatch.setattr(LinearParams, "mean_path", counted_mean_path)
        reused = standard_errors(spec, fit.estimates, series, lam=fit.lambda_path)
        assert not calls
        np.testing.assert_array_equal(reused, direct)
        np.testing.assert_array_equal(fit.std_errors, direct)

    def test_indefinite_hessian_at_a_converged_fit(self):
        # `converged` is the optimizer's verdict: this fit stops where the
        # exact Hessian has a negative eigenvalue, and every SE is NaN
        spec = nb_spec(p=2, q=2)
        truth = LinearParams(1.0, (0.3, -0.1), (0.3, 0.1), 3.0)
        path = simulate_path(SimConfig(spec=spec, params=truth, length=2000, rng=RngStream(5)))
        fit = fit_cml(spec, path)
        assert fit.converged
        assert fit.loglik == pytest.approx(-4110.7320, abs=1e-3)
        assert np.linalg.eigvalsh(_negloglik_hessian(spec, fit.estimates, CountSeries(path)))[0] < 0
        assert np.all(np.isnan(fit.std_errors))
        assert np.all(np.isnan(standard_errors(spec, fit.estimates, path)))

    def test_collinear_direction_flagged(self):
        spec = nb_spec(q=0)
        se = standard_errors(spec, LinearParams(1.0, (0.2,), (), 3.0), np.full(80, 5))
        assert np.all(np.isnan(se))


class TestInformationCriteria:
    def test_formulas(self):
        aic, bic = information_criteria(0.0, 1, 7)
        assert aic == 2.0
        assert bic == math.log(7)
        # bic - aic = k (ln s - 2) crosses zero exactly where ln s = 2
        assert 1 * (math.log(math.e**2) - 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_reported_pair_implies_sample_size(self):
        # published pair (AIC 1488.14, BIC 1498.15) at k=3: the gap
        # k (ln s - 2) = 10.01 pins s at 208 within one observation
        assert 3 * (math.log(208) - 2.0) == pytest.approx(10.01, abs=0.02)
        gaps = {s: 3 * (math.log(s) - 2.0) for s in (207, 208, 209)}
        best = min(gaps, key=lambda s: abs(gaps[s] - 10.01))
        assert best == 208

    def test_doubling_k(self):
        aic1, _ = information_criteria(-10.0, 2, 50)
        aic2, _ = information_criteria(-10.0, 4, 50)
        assert aic2 - aic1 == 4.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            information_criteria(0.0, 0, 10)
        with pytest.raises(ParameterError):
            information_criteria(0.0, 1, 0)


class TestSimulationStudy:
    def test_single_replication_degenerate(self):
        spec = nb_spec()
        truth = LinearParams(0.75, (0.25,), (0.45,), 3.0)
        table = simulation_study(spec, truth, sizes=[300], replications=1, seed=7,
                                 opts=OptimizerOptions(restarts=1))
        if table.excluded[300] == 0:
            cell = table.cells[300]["alpha1"]
            assert cell.mse == pytest.approx(cell.abs_bias**2, rel=1e-12)
            assert cell.abs_bias == pytest.approx(abs(cell.mean - 0.25), rel=1e-12)

    def test_nonstationary_truth_warns_and_survives(self):
        spec = nb_spec()
        truth = LinearParams(0.2, (0.9,), (0.6,), 3.0)  # explosive: every rep excluded
        with pytest.warns(UserWarning):
            table = simulation_study(spec, truth, sizes=[400], replications=2, seed=1,
                                     opts=OptimizerOptions(restarts=0), burn_in=2000)
        assert table.excluded[400] == 2
        assert table.cells[400] == {}

    def test_neural_truth_is_refused_before_any_replication(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate, "simulate_path", lambda config: calls.append(config))
        spec = ModelSpec(NEGBIN, NEURAL, 1, 1, hidden=1)
        truth = NeuralWeights(np.array([[0.5], [0.1], [0.05]]), np.array([2.0]), 3.0)
        with pytest.raises(ParameterError, match="softplus-linear"):
            simulation_study(spec, truth, sizes=[100], replications=2, seed=1)
        with pytest.raises(ParameterError):  # linear link, neural weights
            simulation_study(nb_spec(), truth, sizes=[100], replications=2, seed=1)
        assert calls == []

    def test_exclusions_counted_by_reason(self, monkeypatch):
        # a stubbed fit: the first call raises, the third does not converge,
        # every other one converges
        real, calls = simulate.fit_cml, []

        def fit(spec, path, opts):
            calls.append(path.size)
            if len(calls) == 1:
                raise NumericError("stub")
            return dataclasses.replace(real(spec, path, opts), converged=len(calls) != 3)

        monkeypatch.setattr(simulate, "fit_cml", fit)
        truth = LinearParams(0.75, (0.25,), (0.45,), 3.0)
        table = simulation_study(nb_spec(), truth, sizes=[150, 200], replications=2, seed=3,
                                 opts=OptimizerOptions(restarts=0))
        assert calls == [150, 150, 200, 200]
        assert table.exclusions == {150: {"NumericError": 1}, 200: {"not converged": 1}}
        assert table.excluded == {150: 1, 200: 1}
        assert table.exclusion_rate(200) == 0.5
        assert set(table.cells[150]) == set(table.cells[200]) == set(table.param_names)

    def test_exclusion_bookkeeping(self):
        spec = nb_spec()
        truth = LinearParams(0.75, (0.25,), (0.45,), 3.0)
        table = simulation_study(spec, truth, sizes=[200], replications=4, seed=3,
                                 opts=OptimizerOptions(restarts=1))
        assert table.replications == 4
        assert table.param_names == ("alpha0", "alpha1", "beta1", "n")
        assert 0.0 <= table.exclusion_rate(200) <= 1.0
        converged = 4 - table.excluded[200]
        if converged:
            assert set(table.cells[200]) == set(table.param_names)
