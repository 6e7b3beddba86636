"""Conditional maximum likelihood: likelihood values, starts, fits, SEs, study."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from spingarch.data import CountSeries, sample_acf
from spingarch.estimate import (_LOG_N_CAP, _MAX_ITERATIONS, _Objective, _Point, _dispersion_n, _fit,
                                _stationarity, _trust_step)
from spingarch.exceptions import ConvergenceWarning, NumericError, ParameterError
from spingarch.model import linear_moments_11


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
        assert fobj(theta).value == negloglik(spec, LinearParams.from_flat(theta, spec), series)
        assert negloglik(spec, LinearParams.from_flat(theta, spec), series) == pytest.approx(
            negloglik(spec, params, series), rel=1e-12
        )


class TestGradient:
    @pytest.mark.parametrize("family", [POISSON, NEGBIN])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_gate_against_central_differences(self, family, p, q):
        rng = np.random.default_rng(100 + 10 * p + q)
        spec = ModelSpec(family, SOFTPLUS_LINEAR, p, q)
        series = rng.integers(0, 10, 60)
        params = LinearParams(rng.uniform(0.5, 2.0), tuple(rng.uniform(-0.4, 0.4, p)),
                              tuple(rng.uniform(-0.4, 0.4, q)),
                              rng.uniform(1.0, 5.0) if family == NEGBIN else None)
        value, grad = negloglik_and_grad(spec, params, series)
        assert value == negloglik(spec, params, series)
        theta = params.to_flat()
        fd = np.empty(theta.size)
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            e = np.zeros(theta.size)
            e[i] = h
            fd[i] = (negloglik(spec, LinearParams.from_flat(theta + e, spec), series)
                     - negloglik(spec, LinearParams.from_flat(theta - e, spec), series)) / (2 * h)
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
    """Central differences of the exact gradient in the optimizer's
    coordinates (ln n for the dispersion): the reference for the exact
    Hessian."""
    theta, kind = params.to_flat(), type(params)
    H = np.empty((theta.size, theta.size))
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = 1e-5 * max(1.0, abs(theta[i]))
        H[i] = (negloglik_and_grad(spec, kind.from_flat(theta + e, spec), series)[1]
                - negloglik_and_grad(spec, kind.from_flat(theta - e, spec), series)[1]) / (2 * e[i])
    return (H + H.T) / 2


def assert_hessian_matches_differences(spec, params, series):
    series = CountSeries(series)
    H = _Point(spec, params, series).derivatives()[1]
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
    @pytest.mark.parametrize("p, q", [(1, 0), (1, 1), (2, 1), (1, 2), (2, 2)])
    def test_neural_gate_against_central_differences(self, family, L, p, q):
        # p = 2 or q = 2 runs the lag loops of `NeuralWeights.hessian_parts`
        # past their first term
        rng = np.random.default_rng(240 + 100 * (p - 1) + 10 * L + q)
        spec = ModelSpec(family, NEURAL, p, q, hidden=L)
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

    def test_closed_form_matches_the_moments(self):
        # a (1,1) start that hits no clamp solves the moment equations of
        # `linear_moments_11` exactly: lag-1 ACF, decay rate, dispersion
        # ratio and mean
        spec = nb_spec()
        checked = 0
        for seed in range(60):
            for truth in (LinearParams(0.75, (0.25,), (0.45,), 3.0), LinearParams(1.8, (0.3,), (0.4,), 3.0)):
                x = table_path(500, seed, truth).astype(float)
                r1, r2 = sample_acf(x, 2)
                start = init_params(spec, x)
                a1, b1 = start.alpha[0], start.beta[0]
                assert a1 + b1 <= 0.9 + 1e-15  # the clamps bound the sum; no rescale is needed
                if abs(r1) <= 0.05 or abs(r2 / r1) >= 0.9 or max(abs(a1), abs(b1)) >= 0.9 \
                        or not 0.1 < start.n < 1e4:
                    continue
                m = linear_moments_11(start, 2)
                sample = [r1, r2 / r1, x.var(ddof=1) / x.mean(), x.mean()]
                implied = [m.acf[0], m.acf[1] / m.acf[0], m.variance / m.mu, m.mu]
                np.testing.assert_allclose(implied, sample, rtol=0, atol=1e-12)
                checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("xbar", [1e-3, 0.37, 5.0, 123.456, 1e5])
    @pytest.mark.parametrize("disp", [-1.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, 1.01, 1.7, 3.0, 40.0, 1e6])
    def test_generic_dispersion_rule_is_pinned(self, xbar, disp):
        # a1 = b1 = 0, the generic and network starts: n = xbar / (D - 1) bit for bit
        expected = min(max(xbar / (disp - 1), 0.1), 1e4) if disp > 1 else 1e4
        assert _dispersion_n(xbar, disp) == expected

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["zeros", "constant", "spike", "poisson 1e7", "alternating 0/30", "trend"]),
           length=st.integers(40, 120), level=st.integers(1, 500), negbin=st.booleans())
    @example(kind="constant", length=69, level=38, negbin=True)
    def test_edge_series_starts_and_fits(self, kind, length, level, negbin):
        # 40 = 10 (p + q + 2) is the shortest series a (1,1) start accepts.
        # The example once stopped the fit with a ZeroDivisionError: its
        # Hessian's eigenvalues spanned 1e-2..1e157, and `_trust_step`'s
        # shift search ran until its slope underflowed to zero
        x = {"zeros": np.zeros(length, dtype=int), "constant": np.full(length, level),
             "spike": np.where(np.arange(length) == level % length, level, 0),
             "poisson 1e7": np.random.default_rng(level).poisson(1e7, length),
             "alternating 0/30": np.arange(length) % 2 * 30, "trend": np.arange(length)}[kind]
        spec = nb_spec() if negbin else ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 1)
        start = init_params(spec, x)
        a1, b1 = start.alpha[0], start.beta[0]
        assert math.isfinite(start.alpha0)
        assert abs(a1) <= 0.9 and abs(b1) <= 0.9 and a1 + b1 <= 0.9 + 1e-15
        assert 0.1 <= start.n <= 1e4 if negbin else start.n is None
        with warnings.catch_warnings():  # non-convergence and handled overflows are expected here
            warnings.simplefilter("ignore")
            try:
                fit = fit_cml(spec, x, OptimizerOptions(restarts=1))
            except (ParameterError, NumericError):
                return
        assert math.isfinite(fit.loglik)


class TestSelectFit:
    @staticmethod
    def _fit(family, p, q, aic, converged=True):
        spec = ModelSpec(family, SOFTPLUS_LINEAR, p, q)
        params = LinearParams(1.0, (0.1,) * p, (0.1,) * q, 2.0 if family == NEGBIN else None)
        return estimate.FitResult(spec=spec, estimates=params, std_errors=np.full(params.k(), np.nan),
                                  loglik=0.0, aic=aic, bic=aic, lambda_path=np.ones(50), converged=converged,
                                  iterations=1, restarts_used=0)

    def test_ties_go_to_fewer_parameters_then_smaller_orders_then_earlier_labels(self):
        fit = self._fit
        assert estimate.select_fit({"a": fit(NEGBIN, 1, 0, 10.0), "b": fit(POISSON, 1, 0, 10.0)}) == "b"
        assert estimate.select_fit({"a": fit(POISSON, 1, 1, 10.0), "b": fit(NEGBIN, 1, 0, 10.0)}) == "b"
        assert estimate.select_fit({"a": fit(POISSON, 1, 0, 10.0), "b": fit(POISSON, 1, 0, 10.0)}) == "a"
        assert estimate.select_fit({"a": fit(POISSON, 1, 0, 10.0), "b": fit(POISSON, 1, 0, 9.0)}, "bic") == "b"

    def test_unconverged_fits_rank_only_when_none_converged(self):
        fits = {"a": self._fit(POISSON, 1, 0, 5.0, converged=False), "b": self._fit(POISSON, 2, 0, 9.0)}
        assert estimate.select_fit(fits) == "b"
        fits["b"].converged = False
        with pytest.warns(ConvergenceWarning, match="no candidate fit converged"):
            assert estimate.select_fit(fits) == "a"
        with pytest.raises(ParameterError, match="criterion"):
            estimate.select_fit(fits, "hqc")


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
        f0 = fobj(theta).value
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            e = np.zeros(theta.size)
            e[i] = h
            grad = (fobj(theta + e).value - fobj(theta - e).value) / (2 * h)
            scaled = abs(grad) * max(1.0, abs(theta[i])) / max(1.0, abs(f0))
            assert scaled <= 1e-3

    def test_trust_region_backs_off_from_penalty_region(self, monkeypatch):
        # from beta1 = 0.9 with alpha0 far too small, the first trial step
        # lands where the lambda recursion overflows on this long
        # negative-alpha1 series; the objective answers None there, the
        # step is rejected, and the shrunken trust region still finds the optimum
        spec = nb_spec()
        path = table_path(2000, 5, LinearParams(3.0, (-0.3,), (0.5,), 4.0))
        reference = fit_cml(spec, path, OptimizerOptions(restarts=0))
        points = []
        evaluate = _Objective.__call__

        def recording(self, z):
            out = evaluate(self, z)
            points.append(out)
            return out

        monkeypatch.setattr(_Objective, "__call__", recording)
        start = np.array([0.2, 0.0, 0.9, 0.0])
        fit = _fit(_Objective(spec, path, LinearParams), [start], "CML optimization")
        assert points[0] is not None and points[1] is None  # the start and the first trial step
        assert fit.converged
        assert fit.loglik == pytest.approx(reference.loglik, abs=1e-6)

    def test_trial_with_non_finite_derivatives_is_rejected(self, monkeypatch):
        # a trial whose value passes the ratio test but whose Hessian is not
        # finite counts as off the valid region: the run stays where it was
        # and tries again with a quarter of the step
        spec = nb_spec()
        path = CountSeries(table_path(2000, 5, LinearParams(3.0, (-0.3,), (0.5,), 4.0)))
        reference = fit_cml(spec, path, OptimizerOptions(restarts=0))
        thetas, points = [], []
        evaluate, derivatives = _Objective.__call__, _Point.derivatives

        def recording(self, z):
            thetas.append(z.copy())
            return evaluate(self, z)

        def poisoned(self):  # a NaN Hessian at the second point whose derivatives are asked for
            points.append(self)
            g, H = derivatives(self)
            return (g, np.full_like(H, np.nan)) if len(points) == 2 else (g, H)

        monkeypatch.setattr(_Objective, "__call__", recording)
        monkeypatch.setattr(_Point, "derivatives", poisoned)
        fit = fit_cml(spec, path, OptimizerOptions(restarts=0))
        # derivatives are asked for only at a trial that passed the ratio test: the first one
        assert len(points) >= 3 and points[1].params.to_flat().tolist() == thetas[1].tolist()
        first, second = np.linalg.norm(thetas[1] - thetas[0]), np.linalg.norm(thetas[2] - thetas[0])
        assert second <= 0.25 * first * (1.0 + 1e-9)  # from the start again, on the shrunken region
        assert fit.estimates is not points[1].params
        assert fit.converged
        assert fit.loglik == pytest.approx(reference.loglik, abs=1e-6)

    def test_no_valid_start_raises(self):
        # beta1 = 5 overflows the lambda recursion: no run has a point to report
        spec = nb_spec()
        path = table_path(500, 5)
        with pytest.raises(NumericError, match="no start has a finite likelihood"):
            _fit(_Objective(spec, path, LinearParams), [np.array([0.2, 0.0, 5.0, 0.0])], "CML optimization")

    @pytest.mark.parametrize("family", [NEGBIN, POISSON])
    def test_few_mean_paths_and_none_after_the_optimizer(self, family, monkeypatch):
        # Newton on the exact Hessian takes four steps from the moment start:
        # five mean paths and five gradient-and-Hessian passes, and
        # lambda_path and the standard errors reuse the winning point's path
        # and Hessian
        spec = ModelSpec(family, SOFTPLUS_LINEAR, 1, 1)
        series = CountSeries(table_path(2000, 5, LinearParams(3.0, (-0.3,), (0.5,), 4.0)))
        events = []
        mean_path, derivatives, newton = LinearParams.mean_path, estimate._Point.derivatives, estimate._newton

        def counted(name, function):
            def wrapper(*args, **kwargs):
                out = function(*args, **kwargs)
                events.append(name)
                return out
            return wrapper

        monkeypatch.setattr(LinearParams, "mean_path", counted("mean_path", mean_path))
        monkeypatch.setattr(estimate._Point, "derivatives", counted("hessian", derivatives))
        monkeypatch.setattr(estimate, "_newton", counted("newton", newton))
        fit = fit_cml(spec, series, OptimizerOptions(restarts=0))
        assert events.count("newton") == 1 and events[-1] == "newton"
        assert (events.count("mean_path"), events.count("hessian")) == (5, 5)
        assert fit.iterations == 4
        assert fit.converged and np.all(np.isfinite(fit.std_errors))
        np.testing.assert_array_equal(fit.std_errors, standard_errors(spec, fit.estimates, series))

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

    def test_one_mean_path_and_one_derivative_pass(self, monkeypatch):
        spec, series = nb_spec(), CountSeries(table_path(300, 31))
        params = fit_cml(spec, series, OptimizerOptions(restarts=0)).estimates
        calls = {"derivatives": 0, "mean_path": 0}
        derivatives, mean_path = estimate._Point.derivatives, LinearParams.mean_path

        def counted_derivatives(*args, **kwargs):
            calls["derivatives"] += 1
            return derivatives(*args, **kwargs)

        def counted_mean_path(self, *args, **kwargs):
            calls["mean_path"] += 1
            return mean_path(self, *args, **kwargs)

        monkeypatch.setattr(estimate._Point, "derivatives", counted_derivatives)
        monkeypatch.setattr(LinearParams, "mean_path", counted_mean_path)
        se = standard_errors(spec, params, series)
        assert np.all(np.isfinite(se))
        assert calls == {"derivatives": 1, "mean_path": 1}

    def test_converged_is_a_stationarity_test(self, monkeypatch):
        # `converged` holds where the Newton decrement on the Hessian's
        # positive subspace is at most 1e-4 and the gradient along the other
        # directions at most 1e-5.  An ftol-stopped L-BFGS-B fit of this
        # nb(2,2) model reported convergence at the saddle below: its
        # decrement is 4e-10, but it has gradient 0.012 along an eigenvalue of
        # -0.0136.  The Newton fit leaves the saddle for a minimum 0.71 higher.
        spec = nb_spec(p=2, q=2)
        truth = LinearParams(1.0, (0.3, -0.1), (0.3, 0.1), 3.0)
        series = CountSeries(simulate_path(SimConfig(spec=spec, params=truth, length=2000, rng=RngStream(5))))

        def stationarity(params):
            g, H = _Point(spec, params, series).derivatives()
            w, Q = np.linalg.eigh(H)
            return w, _stationarity(w, Q.T @ g)

        saddle = LinearParams(1.638265219864965, (0.3089233450408892, -0.06201697733739874),
                              (0.06857739939622656, 0.048378131205584804), 3.1511317862745294)
        w, (decrement, stray) = stationarity(saddle)
        assert w[0] == pytest.approx(-0.01358, rel=1e-3)
        assert decrement < 1e-9 and stray == pytest.approx(0.01209, rel=1e-3)
        assert np.all(np.isnan(standard_errors(spec, saddle, series)))

        fit = fit_cml(spec, series)
        assert fit.converged
        assert fit.loglik == pytest.approx(-4110.02234, abs=1e-5)
        assert fit.loglik > -negloglik(spec, saddle, series) + 0.7
        w, (decrement, stray) = stationarity(fit.estimates)
        assert w[0] > 0 and decrement <= 1e-10 and stray == 0.0
        assert np.all(np.isfinite(fit.std_errors))

        # runs of no steps report the test at their starts: the saddle fails
        # on its stray gradient, the moment start on its decrement
        monkeypatch.setattr(estimate, "_MAX_ITERATIONS", 0)
        for start, passes in [(fit.estimates, True), (saddle, False), (init_params(spec, series), False)]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                stopped = _fit(_Objective(spec, series, LinearParams), [start.to_flat()], "CML optimization")
            assert stopped.iterations == 0 and stopped.converged is passes and len(caught) == (not passes)
            assert bool(np.all(np.isfinite(stopped.std_errors))) is passes

    def test_invalid_mean_path_gives_all_nan(self):
        # beta1 = 3 drives the lambda recursion off the valid region at step 645
        spec, params = nb_spec(), LinearParams(1.0, (0.2,), (3.0,), 3.0)
        series = np.random.default_rng(0).poisson(3.0, 1000)
        with pytest.raises(NumericError, match="step 645"):
            _Point(spec, params, series)
        se = standard_errors(spec, params, series)
        assert se.shape == (4,) and np.all(np.isnan(se))

    def test_collinear_direction_flagged(self):
        spec = nb_spec(q=0)
        se = standard_errors(spec, LinearParams(1.0, (0.2,), (), 3.0), np.full(80, 5))
        assert np.all(np.isnan(se))


class TestTrustStep:
    """`_trust_step` against the optimality conditions of the trust-region
    subproblem (Moré & Sorensen 1983): c minimizes a.c + c.diag(w).c / 2 over
    |c| <= r iff (w + mu) c = -a for some mu >= max(0, -w_min), with
    mu (r - |c|) = 0."""

    @staticmethod
    def model(w, a, c):
        return a @ c + 0.5 * c @ (w * c)

    def test_interior_newton_step(self):
        w, a = np.array([1.0, 4.0, 9.0]), np.array([0.5, -1.0, 2.0])
        np.testing.assert_array_equal(_trust_step(w, a, 10.0), -a / w)

    @pytest.mark.parametrize("w, a, radius", [
        ([1.0, 4.0, 9.0], [3.0, -1.0, 2.0], 0.5),  # positive definite, Newton step too long
        ([-2.0, 0.5, 3.0], [0.3, -1.0, 2.0], 1.5),  # indefinite
        ([-2.0, -2.0, 3.0], [0.3, 1e-3, 2.0], 0.7),  # repeated lowest eigenvalue
        ([0.0, 1.0, 5.0], [1e-3, 1.0, 1.0], 2.0),  # singular
    ])
    def test_boundary_step(self, w, a, radius):
        w, a = np.array(w), np.array(a)
        c = _trust_step(w, a, radius)
        assert np.linalg.norm(c) == pytest.approx(radius, rel=1e-9)
        mu = -(a + w * c) / c  # the same shift in every coordinate
        assert np.ptp(mu) < 1e-8 * max(1.0, abs(mu[0])) and mu[0] >= max(0.0, -w[0]) - 1e-9
        # no point of the ball does better
        rng = np.random.default_rng(0)
        points = rng.normal(size=(2000, 3))
        points *= radius * rng.random((2000, 1)) ** (1 / 3) / np.linalg.norm(points, axis=1, keepdims=True)
        assert self.model(w, a, c) <= min(self.model(w, a, p) for p in points)

    @pytest.mark.parametrize("w, a, radius", [
        ([-1.0, 2.0, 4.0], [0.0, 1.0, -2.0], 3.0),
        # the Hessian spectrum of the NB(1,1) fit of np.full(69, 38): the
        # lowest eigenspace is w_min alone, however large w_max is
        ([-2.9e137, 6.5e-3, 1e141, 1.8e157], [0.0, 1.0, 1.0, 1.0], 1.0),
    ], ids=["narrow", "many-decades"])
    def test_hard_case(self, w, a, radius):
        # no gradient along the lowest eigenvector and a shifted step shorter
        # than the radius: the lowest eigenvector fills the step up to it
        w, a = np.array(w), np.array(a)
        c = _trust_step(w, a, radius)
        np.testing.assert_allclose(c[1:], -a[1:] / (w[1:] - w[0]))
        assert np.linalg.norm(c) == pytest.approx(radius, rel=1e-12)
        assert abs(c[0]) == pytest.approx(math.sqrt(radius**2 - c[1:] @ c[1:]), rel=1e-12)

    def test_zero_gradient_at_a_saddle(self):
        c = _trust_step(np.array([-0.5, 1.0]), np.zeros(2), 2.0)
        np.testing.assert_allclose(np.abs(c), [2.0, 0.0])


def _single_spike():
    x = np.zeros(200, dtype=int)
    x[100] = 50
    return x


class TestDegenerateInputs:
    # NB(1,1) fits of 200 points that have no interior optimum, or a nearly
    # flat one; each ends within the iteration cap with a finite n below the
    # cap and no exception, and its outcome is pinned here
    @pytest.mark.parametrize("name, series, loglik, n_range, finite_se", [
        # lambda -> 0 along alpha0 -> -inf; n is flat and stays near its start
        ("all zeros", np.zeros(200, dtype=int), -1.18137e-5, (1e4, 1.1e4), False),
        # the Poisson limit n -> inf, stopped at a flat drift; alpha0 and the
        # lag terms are collinear, so the Hessian is singular
        ("constant 5", np.full(200, 5), -348.060449, (1e7, 1e8), False),
        # n -> 0 around the spike; the moment start's run wanders in a
        # saddle-ridden region, and the first jittered restart converges
        ("single spike of 50", _single_spike(), -11.4931846, (1e-3, 2e-3), True),
        # near the Poisson limit, with counts so large that the Hessian's
        # condition number exceeds the standard-error rule's 1e12; the run
        # ends on a flat ridge, at a point that moves with the rounding of the
        # lambda-lag solve (exact log-likelihood there: -1899.010985)
        ("Poisson(1e7)", np.random.default_rng(0).poisson(1e7, 200), -1899.010984, (2e8, 4e8), False),
    ])
    def test_outcome(self, name, series, loglik, n_range, finite_se):
        spec = nb_spec()
        fit = fit_cml(spec, series)
        assert fit.converged
        assert fit.iterations <= _MAX_ITERATIONS
        assert fit.loglik == pytest.approx(loglik, abs=1e-5)
        assert n_range[0] < fit.estimates.n < n_range[1]
        assert np.all(np.isfinite(fit.std_errors)) if finite_se else np.all(np.isnan(fit.std_errors))

    def test_poisson_1e7_escapes_the_ftol_stop(self):
        # an ftol-stopped L-BFGS-B fit reported convergence at
        # loglik -1899.059187 with |g|inf = 36; the Newton fit ends with a
        # gradient below 1e-5 and a log-likelihood 0.0127 higher
        series = np.random.default_rng(0).poisson(1e7, 200)
        fit = fit_cml(nb_spec(), series)
        assert fit.loglik > -1899.059187 + 0.01
        assert np.max(np.abs(negloglik_and_grad(nb_spec(), fit.estimates, series)[1])) < 1e-5

    def test_the_dispersion_cap_is_a_boundary(self):
        # underdispersed counts send n to infinity; from a start just below
        # the cap the first step is shortened onto it, and ln n is then held
        # there while the coefficients converge to the Poisson fit's
        spec = nb_spec(q=0)
        series = np.random.default_rng(3).binomial(10, 0.5, 300)
        start = init_params(spec, series).to_flat()
        start[-1] = _LOG_N_CAP - 0.5
        fit = _fit(_Objective(spec, series, LinearParams), [start], "CML optimization")
        poisson = fit_cml(ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0), series)
        assert fit.converged
        assert fit.estimates.n == math.exp(_LOG_N_CAP)
        assert poisson.loglik - 1e-9 < fit.loglik < poisson.loglik
        np.testing.assert_allclose(fit.estimates.to_flat()[:2], poisson.estimates.to_flat(), rtol=1e-6)


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
