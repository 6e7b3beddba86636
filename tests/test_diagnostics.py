"""Residual analysis, correlograms, periodograms, and forecast evaluation."""

import math

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
    conditional_mean_path,
    cumulative_periodogram,
    dispersion_ratio,
    fit_cml,
    one_step_forecasts,
    pacf_from_acf,
    pearson_residuals,
    rmse,
    sample_acf,
    sample_pacf,
    simulate_path,
    slfn_forward,
    softplus,
)
from spingarch.estimate import FitResult
from spingarch.exceptions import DataError
from spingarch.model import presample_init


def nb_spec(p=1, q=1):
    return ModelSpec(NEGBIN, SOFTPLUS_LINEAR, p, q, 1.0)


def make_fit(spec, params, series):
    """FitResult shell around known parameters (no optimization)."""
    lam = conditional_mean_path(spec, params, series)
    k = params.k()
    return FitResult(spec=spec, estimates=params, std_errors=np.full(k, np.nan),
                     loglik=0.0, aic=0.0, bic=0.0, lambda_path=lam, converged=True,
                     iterations=0, restarts_used=0)


class TestPearsonResiduals:
    def test_zero_when_observation_equals_mean(self):
        spec = ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0)
        params = LinearParams(2.0, (0.0,))
        lam = float(softplus(2.0))
        series = np.full(50, round(lam))
        fit = make_fit(spec, params, series)
        fit.lambda_path[:] = series  # force x_t == lambda_t
        res = pearson_residuals(fit, series)
        np.testing.assert_allclose(res, 0.0, atol=1e-15)

    def test_nb_limit_matches_poisson(self):
        series = np.random.default_rng(1).poisson(4.0, 200)
        spec_p = ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0)
        spec_n = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0)
        pois = pearson_residuals(make_fit(spec_p, LinearParams(4.0, (0.0,)), series), series)
        nb = pearson_residuals(make_fit(spec_n, LinearParams(4.0, (0.0,), (), 1e6), series), series)
        np.testing.assert_allclose(nb, pois, atol=1e-4)

    def test_white_noise_suite_on_correct_specification(self):
        spec = nb_spec()
        truth = LinearParams(1.8, (0.3,), (0.4,), 3.0)
        path = simulate_path(SimConfig(spec=spec, params=truth, length=10_000, rng=RngStream(77)))
        fit = fit_cml(spec, path, OptimizerOptions(restarts=0))
        z = pearson_residuals(fit, path)
        assert abs(z.mean()) < 0.05
        assert 0.9 <= z.var(ddof=1) <= 1.1
        acf = sample_acf(z, 10)
        excursions = int(np.sum(np.abs(acf) >= 4.0 / math.sqrt(z.size)))
        assert excursions <= 1

    def test_length_mismatch(self):
        spec = nb_spec(q=0)
        fit = make_fit(spec, LinearParams(1.0, (0.1,), (), 3.0), [1, 2, 3, 4])
        with pytest.raises(DataError):
            pearson_residuals(fit, [1, 2, 3])


class TestSampleAcf:
    def test_white_noise_bands(self):
        z = np.random.default_rng(8).standard_normal(10_000)
        acf = sample_acf(z, 10)
        excursions = int(np.sum(np.abs(acf) >= 4.0 / 100.0))
        assert excursions <= 1

    def test_constant_errors(self):
        with pytest.raises(DataError):
            sample_acf(np.full(100, 3.0), 5)

    def test_constant_up_to_rounding_errors(self):
        # the Pearson residuals of pois(1,0) fitted to 100 zeros differ only
        # in their last digits; their lag-1 ACF used to read 0.55
        z = np.full(100, -3.0310013267839387e-4)
        z[-1] = -3.0310013267839436e-4
        with pytest.raises(DataError, match="zero variance"):
            sample_acf(z, 5)
        assert np.all(np.isfinite(sample_acf(1.0 + 1e-9 * np.arange(100), 5)))

    def test_known_ar1_structure(self):
        # INARCH(1)-style count path: ACF ~ alpha1^h
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0, c=0.05)
        params = LinearParams(2.0, (0.5,), (), 3.0)
        path = simulate_path(SimConfig(spec=spec, params=params, length=200_000, rng=RngStream(4)))
        acf = sample_acf(np.asarray(path, float), 3)
        np.testing.assert_allclose(acf, [0.5, 0.25, 0.125], atol=0.02)


class TestSamplePacf:
    def test_lag1_equals_acf(self):
        z = np.random.default_rng(9).standard_normal(500)
        assert sample_pacf(z, 5)[0] == pytest.approx(sample_acf(z, 5)[0], rel=1e-12)

    def test_white_noise_bands(self):
        z = np.random.default_rng(10).standard_normal(10_000)
        pacf = sample_pacf(z, 10)
        assert int(np.sum(np.abs(pacf) >= 4.0 / 100.0)) <= 1

    def test_exact_ar1_sequence(self):
        phi = 0.65
        pacf = pacf_from_acf(phi ** np.arange(1, 9))
        assert pacf[0] == pytest.approx(phi, abs=1e-12)
        np.testing.assert_allclose(pacf[1:], 0.0, atol=1e-12)


class TestCumulativePeriodogram:
    def test_pure_cosine_concentrates(self):
        s = 256
        k = 32
        t = np.arange(s)
        x = np.cos(2 * np.pi * k * t / s)
        freqs, frac, _ = cumulative_periodogram(x)
        m = freqs.size
        assert frac[k - 2] < 0.01
        assert frac[k - 1] > 0.99

    def test_white_noise_within_band(self):
        hits = 0
        for seed in range(50):
            z = np.random.default_rng(1000 + seed).standard_normal(1024)
            freqs, frac, band = cumulative_periodogram(z)
            m = freqs.size
            uniform = np.arange(1, m + 1) / m
            hits += np.max(np.abs(frac - uniform)) < band
        assert hits >= 45  # >= 90% of trials

    def test_trend_concentrates_low_frequencies(self):
        x = np.linspace(0, 10, 512)
        _, frac, _ = cumulative_periodogram(x)
        m = frac.size
        assert frac[m // 10] > 0.5

    def test_shape_properties(self):
        z = np.random.default_rng(3).standard_normal(333)
        _, frac, _ = cumulative_periodogram(z)
        assert np.all(np.diff(frac) >= -1e-15)
        assert frac[-1] == pytest.approx(1.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(DataError):
            cumulative_periodogram(np.arange(10.0))


class TestOneStepForecasts:
    def test_constant_model(self):
        spec = nb_spec()
        params = LinearParams(2.0, (0.0,), (0.0,), 3.0)
        history = np.random.default_rng(5).poisson(2.0, 120)
        fit = make_fit(spec, params, history[:100])
        preds = one_step_forecasts(fit, history, 20)
        np.testing.assert_allclose(preds, float(softplus(2.0)), rtol=1e-14)

    def test_definitional_consistency(self):
        spec = nb_spec()
        params = LinearParams(1.5, (0.25,), (0.3,), 3.0)
        history = simulate_path(SimConfig(spec=spec, params=params, length=150, rng=RngStream(6)))
        fit = make_fit(spec, params, history[:100])
        preds = one_step_forecasts(fit, history, 50)
        init = presample_init(history[:100])
        path = conditional_mean_path(spec, params, history, presample=init)
        np.testing.assert_allclose(preds, path[100:150], rtol=1e-14)
        # the forecast path over the training prefix is the fit's own path
        np.testing.assert_array_equal(path[:100], fit.lambda_path)

    def test_forecasts_ignore_later_observations(self):
        # horizon 6 covers steps 5..10, which see observations up to step 9 only;
        # the pre-sample counts must not come from the whole history either
        spec = nb_spec()
        params = LinearParams(1.0, (0.3,), (0.6,), 3.0)
        history = np.array([2, 0, 3, 1, 4, 2, 5, 1, 3, 0])
        fit = make_fit(spec, params, history[:4])
        preds = one_step_forecasts(fit, history, 6)
        changed = history.copy()
        changed[-1] = 40
        np.testing.assert_array_equal(one_step_forecasts(fit, changed, 6), preds)

    def test_definitional_consistency_neural(self):
        # the pre-sample mean comes from the short training prefix (mean 0.75),
        # not from the whole history (mean 2.25)
        spec = ModelSpec(NEGBIN, NEURAL, 1, 1, hidden=1)
        weights = NeuralWeights(np.array([[0.8], [0.15], [0.5]]), np.array([2.5]), 3.0)
        sim = simulate_path(SimConfig(spec=spec, params=weights, length=40, rng=RngStream(6)))
        history = np.concatenate([[1, 0, 2, 0], sim])
        fit = make_fit(spec, weights, history[:4])
        preds = one_step_forecasts(fit, history, 40)
        path = conditional_mean_path(spec, weights, history, presample=presample_init(history[:4]))
        np.testing.assert_allclose(preds, path[4:44], rtol=1e-14)

    def test_one_beyond_neural(self):
        spec = ModelSpec(NEGBIN, NEURAL, 1, 1, hidden=1)
        weights = NeuralWeights(np.array([[0.8], [0.15], [0.5]]), np.array([2.5]), 3.0)
        history = np.array([2, 3, 1, 5])
        fit = make_fit(spec, weights, history)
        pred = one_step_forecasts(fit, history, 1)
        expected = slfn_forward(weights, np.array([1.0, 5.0, fit.lambda_path[-1]]))
        assert pred[0] == expected

    def test_one_beyond_neural_observation_lags(self):
        # neu-nb(2,0): the vectorised path serves the step beyond the history too
        spec = ModelSpec(NEGBIN, NEURAL, 2, 0, hidden=1)
        weights = NeuralWeights(np.array([[-2.0], [0.4], [0.1]]), np.array([7.5]), 4.0)
        history = np.array([2, 3, 1, 5, 4])
        fit = make_fit(spec, weights, history)
        pred = one_step_forecasts(fit, history, 1)
        assert pred[0] == pytest.approx(slfn_forward(weights, np.array([1.0, 4.0, 5.0])), rel=1e-15)

    def test_one_beyond_history(self):
        spec = nb_spec(q=0)
        params = LinearParams(1.0, (0.4,), (), 3.0)
        history = np.array([2, 3, 1, 5])
        fit = make_fit(spec, params, history)
        pred = one_step_forecasts(fit, history, 1)
        assert pred[0] == pytest.approx(float(softplus(1.0 + 0.4 * 5)), rel=1e-14)

    def test_insufficient_history(self):
        spec = nb_spec(q=0)
        params = LinearParams(1.0, (0.4,), (), 3.0)
        history = np.array([2, 3, 1, 5])
        fit = make_fit(spec, params, history)
        with pytest.raises(DataError):
            one_step_forecasts(fit, history, 2)

    def test_beats_constant_baseline_on_simulated_models(self):
        spec = nb_spec()
        truth = LinearParams(1.2, (0.35,), (0.35,), 3.0)
        wins = 0
        for seed in range(20):
            path = simulate_path(SimConfig(spec=spec, params=truth, length=1500,
                                           rng=RngStream(900 + seed)))
            train, split = path[:1200], 1200
            fit = fit_cml(spec, train, OptimizerOptions(restarts=0))
            preds = one_step_forecasts(fit, path, 300)
            actual = path[split:]
            model_rmse = rmse(preds, actual)
            baseline = rmse(np.full(300, train.mean()), actual)
            wins += model_rmse < baseline
        assert wins >= 16


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0, 3.0], [1, 2, 3]) == 0.0

    def test_constant_offset(self):
        assert rmse([3.0, 4.0], [1, 2]) == pytest.approx(2.0, rel=1e-14)

    def test_hand_value(self):
        assert rmse([1.0, 2.0], [2, 4]) == pytest.approx(1.5811388, abs=1e-7)

    def test_permutation_invariance(self):
        f = np.array([1.0, 5.0, 2.0, 8.0])
        a = np.array([2, 4, 2, 7])
        perm = np.array([2, 0, 3, 1])
        assert rmse(f, a) == pytest.approx(rmse(f[perm], a[perm]), rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rmse([1.0], [1, 2])


class TestDispersionRatio:
    def test_iid_poisson(self):
        x = np.random.default_rng(11).poisson(4.0, 100_000)
        assert abs(dispersion_ratio(x) - 1.0) < 0.05

    def test_constant_positive(self):
        assert dispersion_ratio(np.full(50, 7)) == 0.0

    def test_zero_mean_errors(self):
        with pytest.raises(DataError):
            dispersion_ratio(np.zeros(50, dtype=int))

    def test_one_count_errors(self):
        # the divisor s - 1 is 0, where numpy's variance is nan with two RuntimeWarnings
        with pytest.raises(DataError, match="fewer than two counts"):
            dispersion_ratio([5])
