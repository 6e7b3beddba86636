"""Neural-response models: forward pass, gradient, training, model selection."""

import math

import numpy as np
import pytest

from spingarch import (
    NEGBIN,
    NEURAL,
    POISSON,
    ModelSpec,
    NeuralWeights,
    OptimizerOptions,
    RngStream,
    SimConfig,
    conditional_mean_path,
    fit_neural,
    negloglik,
    negloglik_and_grad,
    poisson_log_pmf,
    select_hidden_units,
    simulate_path,
    slfn_forward,
)
from spingarch import estimate
from spingarch.exceptions import ConvergenceWarning, ParameterError
from spingarch.estimate import FitResult, extend_with_idle_unit

LN2 = math.log(2.0)


def nspec(family=POISSON, p=1, q=0, L=1):
    return ModelSpec(family, NEURAL, p, q, 1.0, hidden=L)


def finite_diff_gradient(spec, series, flat, h=1e-6):
    grad = np.empty(flat.size)
    for i in range(flat.size):
        e = np.zeros(flat.size)
        e[i] = h
        up = negloglik(spec, NeuralWeights.from_flat(flat + e, spec), series)
        dn = negloglik(spec, NeuralWeights.from_flat(flat - e, spec), series)
        grad[i] = (up - dn) / (2 * h)
    return grad


def relative_gradient_error(analytic, numeric):
    return np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))


class TestForward:
    def test_all_zero_weights(self):
        w = NeuralWeights(np.zeros((3, 2)), np.zeros(2))
        assert slfn_forward(w, np.array([1.0, 4.0, 2.0])) == pytest.approx(LN2, abs=1e-15)

    def test_hand_evaluated_single_unit(self):
        # hidden activation f0(0) = 0.5, output f1(0.5) = ln(1 + e^0.5)
        w = NeuralWeights(np.zeros((2, 1)), np.array([1.0]))
        assert slfn_forward(w, np.array([1.0, 7.0])) == pytest.approx(0.9740770, abs=1e-7)

    def test_monotone_in_output_scale(self):
        rng = np.random.default_rng(0)
        u0 = rng.normal(size=(3, 2))
        x = np.array([1.0, 2.0, 0.5])
        base = np.array([0.8, 1.3])  # positive weights, positive activations
        vals = [slfn_forward(NeuralWeights(u0, t * base), x) for t in np.linspace(0, 1, 11)]
        assert np.all(np.diff(vals) >= 0)

    def test_dimension_mismatch(self):
        w = NeuralWeights(np.zeros((3, 1)), np.zeros(1))
        with pytest.raises(ParameterError):
            slfn_forward(w, np.array([1.0, 2.0]))


class TestLambdaPath:
    def test_all_zero_weights_constant(self):
        spec = nspec(p=1, q=1, L=2)
        w = NeuralWeights(np.zeros((3, 2)), np.zeros(2))
        lam = conditional_mean_path(spec, w, [3, 1, 4, 1, 5])
        np.testing.assert_allclose(lam, LN2, atol=1e-15)

    def test_q0_matches_per_step_forward(self):
        spec = nspec(p=2, q=0, L=2)
        rng = np.random.default_rng(1)
        w = NeuralWeights(rng.normal(scale=0.4, size=(3, 2)), rng.normal(scale=0.4, size=2))
        series = rng.integers(0, 6, 20)
        lam = conditional_mean_path(spec, w, series)
        xbar = series.mean()
        padded = np.concatenate([[xbar, xbar], series.astype(float)])
        for t in range(20):
            xt = np.array([1.0, padded[t + 1], padded[t]])
            assert lam[t] == pytest.approx(slfn_forward(w, xt), rel=1e-14)

    def test_constant_network_ignores_lags(self):
        # rows 2..K of u0 zero: the response depends on the constant input only
        spec = nspec(p=1, q=1, L=2)
        u0 = np.zeros((3, 2))
        u0[0] = [0.7, -0.4]
        w = NeuralWeights(u0, np.array([1.1, 0.3]))
        lam = conditional_mean_path(spec, w, [9, 0, 3, 7])
        expected = slfn_forward(w, np.array([1.0, 123.0, 456.0]))  # lags irrelevant
        np.testing.assert_allclose(lam, expected, rtol=1e-14)

    def test_step_reproduces_path_exactly(self, recorded_draws):
        spec = nspec(NEGBIN, p=2, q=1, L=2)
        rng = np.random.default_rng(3)
        w = NeuralWeights(rng.normal(scale=0.5, size=(4, 2)), rng.normal(scale=0.5, size=2), 2.3)
        series = [int(v) for v in rng.integers(0, 9, 200)]
        gammas = rng.gamma(2.0, 0.5, 200).tolist()
        lam = conditional_mean_path(spec, w, series, presample=w.chain_start(spec))
        means = np.array(recorded_draws(w, spec, series, gammas))
        np.testing.assert_array_equal(means, (lam / w.n) * np.array(gammas))

    def test_draw_path_matches_vectorised_network(self, recorded_draws):
        # the scalar formula against the vectorised q = 0 path, with units
        # saturated far past where an unsplit 1/(1 + exp(-a)) overflows
        spec = nspec(p=2, q=0, L=3)
        rng = np.random.default_rng(5)
        u0 = rng.normal(scale=0.5, size=(3, 3))
        u0[:, 2] = [-40.0, 90.0, -70.0]
        w = NeuralWeights(u0, rng.normal(scale=1.5, size=3))
        series = rng.integers(0, 30, 12_000)
        start = w.chain_start(spec)
        lam = conditional_mean_path(spec, w, series, presample=start)
        lags = [np.ones(series.size), np.r_[start, series[:-1]], np.r_[start, start, series[:-2]]]
        pre = np.column_stack(lags) @ u0
        assert pre.min() <= -800 and pre.max() >= 800
        means = recorded_draws(w, spec, series.tolist(), [1.0] * series.size)  # Poisson: the means
        np.testing.assert_allclose(means, lam, rtol=1e-14, atol=0)

    def test_flat_round_trip_and_size_check(self):
        spec = nspec(NEGBIN, p=1, q=1, L=2)
        flat = np.arange(9.0) / 10.0
        w = NeuralWeights.from_flat(flat, spec, log_n=False)
        assert w.n == 0.8
        np.testing.assert_array_equal(w.to_flat(log_n=False), flat)
        assert w.k() == flat.size
        with pytest.raises(ParameterError):
            NeuralWeights.from_flat(flat[:-1], spec)

    def test_link_mismatch(self):
        w = NeuralWeights(np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(ParameterError):
            conditional_mean_path(ModelSpec(POISSON, "softplus-linear", 1, 0), w, [1, 2])

    def test_positivity(self):
        rng = np.random.default_rng(2)
        spec = nspec(p=1, q=1, L=3)
        for _ in range(20):
            w = NeuralWeights(rng.normal(size=(3, 3)), rng.normal(size=3))
            lam = conditional_mean_path(spec, w, rng.integers(0, 30, 50))
            assert np.all(lam > 0)


class TestNegloglik:
    def test_zero_weights_zero_series(self):
        spec = nspec()
        w = NeuralWeights(np.zeros((2, 1)), np.zeros(1))
        assert negloglik(spec, w, [0]) == pytest.approx(LN2, abs=1e-14)

    def test_nb_large_n_matches_poisson(self):
        rng = np.random.default_rng(3)
        series = rng.integers(0, 9, 100)
        w = NeuralWeights(rng.normal(scale=0.3, size=(2, 2)), np.array([1.0, 1.4]))
        pois = negloglik(nspec(L=2), w, series)
        nb = negloglik(nspec(NEGBIN, L=2), NeuralWeights(w.u0, w.u1, 1e6), series)
        assert abs(pois - nb) < 1e-3

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(4)
        spec = nspec(NEGBIN, p=1, q=1, L=2)
        series = rng.integers(0, 10, 20)
        w = NeuralWeights(rng.normal(scale=0.5, size=(3, 2)), rng.normal(scale=0.5, size=2), 2.5)
        xbar = series.mean()
        n = w.n
        prev_x, prev_l = float(xbar), float(xbar)
        total = 0.0
        for xt in series:
            hidden = 1.0 / (1.0 + np.exp(-(w.u0.T @ np.array([1.0, prev_x, prev_l]))))
            g = math.log(1.0 + math.exp(float(w.u1 @ hidden)))
            rising = sum(math.log(v + n - 1.0) for v in range(1, int(xt) + 1))
            total += (
                xt * math.log(g / n) - (n + xt) * math.log(1.0 + g / n)
                + rising - math.lgamma(xt + 1.0)
            )
            prev_x, prev_l = float(xt), g
        assert negloglik(spec, w, series) == pytest.approx(-total, rel=1e-9)


class TestGradient:
    def test_zero_point_hand_chain_rule(self):
        # at all-zero weights: hidden activations 0.5, f1'(0) = 0.5, so each
        # u1 component is -sum(x/ln2 - 1) * 0.5 * 0.5 (verified against the
        # finite-difference oracle below)
        spec = nspec(p=1, q=0, L=2)
        x = np.array([0, 1, 2, 3, 1])
        w = NeuralWeights(np.zeros((2, 2)), np.zeros(2))
        grad = negloglik_and_grad(spec, w, x)[1]
        expected = -np.sum(x / LN2 - 1.0) * 0.25
        np.testing.assert_allclose(grad[4:6], expected, rtol=1e-12)
        fd = finite_diff_gradient(spec, x, w.to_flat())
        np.testing.assert_allclose(grad, fd, atol=1e-7)

    @pytest.mark.parametrize("family", [POISSON, NEGBIN])
    def test_gate_q0(self, family):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(20):
            L = int(rng.integers(1, 4))
            p = int(rng.integers(1, 3))
            spec = nspec(family, p=p, q=0, L=L)
            series = rng.integers(0, 8, 30)
            size = spec.input_width * L + L + (1 if family == NEGBIN else 0)
            flat = rng.uniform(-0.8, 0.8, size)
            w = NeuralWeights.from_flat(flat, spec)
            err = relative_gradient_error(
                negloglik_and_grad(spec, w, series)[1], finite_diff_gradient(spec, series, flat)
            )
            worst = max(worst, err)
        assert worst < 1e-6

    @pytest.mark.parametrize("family", [POISSON, NEGBIN])
    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_gate_total_derivative(self, family, p, q):
        # the recursive case: a truncated per-step gradient would fail this;
        # p = 2 or q = 2 runs the lag loops of `NeuralWeights.hessian_parts`
        # past their first term
        rng = np.random.default_rng(11 + 10 * (p - 1) + 100 * (q - 1))
        worst = 0.0
        for _ in range(20):
            L = int(rng.integers(1, 3))
            spec = nspec(family, p=p, q=q, L=L)
            series = rng.integers(0, 8, 30)
            size = spec.input_width * L + L + (1 if family == NEGBIN else 0)
            flat = rng.uniform(-0.8, 0.8, size)
            w = NeuralWeights.from_flat(flat, spec)
            err = relative_gradient_error(
                negloglik_and_grad(spec, w, series)[1], finite_diff_gradient(spec, series, flat)
            )
            worst = max(worst, err)
        assert worst < 1e-5

    def test_truncated_gradient_would_fail(self):
        # sanity check that the q=1 gate has teeth: ignoring the recursive
        # dependence produces a materially different gradient
        rng = np.random.default_rng(12)
        spec = nspec(POISSON, p=1, q=1, L=1)
        series = rng.integers(0, 8, 40)
        flat = rng.uniform(-0.8, 0.8, 4)  # K*L + L with K=3, L=1
        w = NeuralWeights.from_flat(flat, spec)
        full = negloglik_and_grad(spec, w, series)[1]
        fd = finite_diff_gradient(spec, series, flat)

        # truncated variant: differentiate treating lagged lambdas as data
        lam = conditional_mean_path(spec, w, series)
        xbar = max(series.mean(), 1e-4)
        lam_lag = np.concatenate([[xbar], lam[:-1]])
        x_lag = np.concatenate([[xbar], series[:-1].astype(float)])
        B = np.column_stack([np.ones(40), x_lag, lam_lag])
        A = B @ w.u0
        H = 1.0 / (1.0 + np.exp(-A))
        z = H @ w.u1
        f1p = 1.0 / (1.0 + np.exp(-z))
        outer = (series / lam - 1.0) * f1p
        tr_u1 = H.T @ outer
        tr_u0 = B.T @ (H * (1 - H) * w.u1[None, :] * outer[:, None])
        truncated = -np.concatenate([tr_u0.ravel(), tr_u1])
        assert relative_gradient_error(full, fd) < 1e-6
        assert relative_gradient_error(truncated, fd) > 1e-3

    def test_one_observation_sign_convention(self):
        # minus the per-observation score: -(x/g - 1) * dg/dw
        spec = nspec(p=1, q=0, L=1)
        w = NeuralWeights(np.array([[0.3], [0.1]]), np.array([0.9]))
        x = [4]
        g = conditional_mean_path(spec, w, x)[0]
        grad = negloglik_and_grad(spec, w, x)[1]
        h = 1e-7
        w2 = NeuralWeights(w.u0, w.u1 + h)
        dg = (conditional_mean_path(spec, w2, x)[0] - g) / h
        assert grad[-1] == pytest.approx(-(4.0 / g - 1.0) * dg, rel=1e-5)


class TestFitNeural:
    def test_matches_generating_network(self):
        spec = nspec(p=1, q=0, L=1)
        truth = NeuralWeights(np.array([[1.0], [0.25]]), np.array([2.2]))
        path = simulate_path(SimConfig(spec=spec, params=truth, length=400, rng=RngStream(3)))
        fit = fit_neural(spec, path, OptimizerOptions(restarts=3, seed=1))
        assert fit.converged
        assert fit.loglik >= -negloglik(spec, truth, path) - 1e-3

    def test_deterministic(self):
        spec = nspec(p=1, q=1, L=1)
        rng = np.random.default_rng(6)
        series = rng.poisson(3.0, 150)
        opts = OptimizerOptions(restarts=2, seed=9)
        a = fit_neural(spec, series, opts)
        b = fit_neural(spec, series, opts)
        assert a.loglik == b.loglik
        np.testing.assert_array_equal(a.estimates.u0, b.estimates.u0)
        np.testing.assert_array_equal(a.estimates.u1, b.estimates.u1)

    def test_iid_data_close_to_constant_model(self):
        rng = np.random.default_rng(7)
        series = rng.poisson(4.0, 300)
        # the best constant-mean fit: iid Poisson likelihood at the sample mean
        const_loglik = float(np.sum(poisson_log_pmf(series, series.mean())))
        fit = fit_neural(nspec(p=1, q=0, L=1), series, OptimizerOptions(restarts=3, seed=2))
        assert fit.loglik >= const_loglik - 0.5

    def test_parameter_count(self):
        spec = nspec(NEGBIN, p=1, q=1, L=2)
        rng = np.random.default_rng(8)
        series = rng.poisson(3.0, 200)
        fit = fit_neural(spec, series, OptimizerOptions(restarts=1, seed=0))
        k = 3 * 2 + 2 + 1  # K*L + L + dispersion
        assert fit.estimates.k() == k
        assert fit.bic - fit.aic == pytest.approx(k * (math.log(200) - 2.0), abs=1e-9)

    def test_flat_drift_ends_within_a_budget(self, monkeypatch):
        # an unidentified network (one hidden unit on iid counts) has a
        # direction of curvature ~1e-6 along which each Newton step gains
        # ~1e-6; without the flat-drift stop every start crept on for all
        # 400 iterations.  Each start now ends after 9-11 trial steps.
        series = np.random.default_rng(5).poisson(5.0, 200)
        calls = {"value": 0, "hessian": 0}
        point, derivatives = estimate._Point.__init__, estimate._Point.derivatives

        def counted_point(self, *args):
            calls["value"] += 1
            point(self, *args)

        def counted_derivatives(*args):
            calls["hessian"] += 1
            return derivatives(*args)

        monkeypatch.setattr(estimate._Point, "__init__", counted_point)
        monkeypatch.setattr(estimate._Point, "derivatives", counted_derivatives)
        fit = fit_neural(nspec(L=1), series, OptimizerOptions(restarts=2))
        assert fit.converged
        assert calls["value"] <= 45 and calls["hessian"] <= 30  # 3 starts: 33 and 23 today
        assert fit.loglik == pytest.approx(-440.849348, abs=1e-5)

    def test_short_series_warns(self):
        spec = nspec(p=1, q=0, L=4)
        with pytest.warns(UserWarning):
            fit_neural(spec, np.arange(12) % 4, OptimizerOptions(restarts=0, seed=0))


class TestNesting:
    def test_extra_idle_unit_preserves_loglik(self):
        spec = nspec(p=1, q=1, L=1)
        rng = np.random.default_rng(9)
        series = rng.poisson(3.0, 200)
        fit1 = fit_neural(spec, series, OptimizerOptions(restarts=2, seed=4))
        warm = extend_with_idle_unit(fit1.estimates)
        spec2 = nspec(p=1, q=1, L=2)
        assert negloglik(spec2, warm, series) == pytest.approx(-fit1.loglik, rel=1e-12)
        fit2 = fit_neural(spec2, series, OptimizerOptions(restarts=2, seed=4), extra_starts=[warm])
        assert fit2.loglik >= fit1.loglik - 1e-6


class TestSelectHiddenUnits:
    def test_singleton_range(self):
        rng = np.random.default_rng(10)
        series = rng.poisson(3.0, 150)
        best, fits = select_hidden_units(nspec(L=1), series, [2],
                                         OptimizerOptions(restarts=1, seed=0))
        assert best == 2 and set(fits) == {2}

    def test_criterion_identity_per_L(self):
        rng = np.random.default_rng(11)
        series = rng.poisson(3.0, 150)
        _, fits = select_hidden_units(nspec(L=1), series, [1, 2],
                                      OptimizerOptions(restarts=1, seed=0))
        for L, fit in fits.items():
            k = 2 * L + L
            assert fit.aic == pytest.approx(-2 * fit.loglik + 2 * k, abs=1e-10)

    def test_recovers_small_generator(self):
        spec = nspec(p=1, q=0, L=1)
        truth = NeuralWeights(np.array([[1.2], [0.3]]), np.array([2.0]))
        hits = 0
        for trial in range(20):
            path = simulate_path(SimConfig(spec=spec, params=truth, length=250,
                                           rng=RngStream(500 + trial)))
            best, _ = select_hidden_units(spec, path, [1, 2, 3],
                                          OptimizerOptions(restarts=2, seed=trial),
                                          criterion="bic")
            hits += best == 1
        assert hits >= 16  # >= 80% of seeded trials

    @pytest.mark.parametrize("L_range, criterion", [([1, 2], "hqic"), ([], "aic")])
    def test_bad_arguments_refused_before_any_fit(self, monkeypatch, L_range, criterion):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_neural ran")

        monkeypatch.setattr(estimate, "fit_neural", no_fit)
        with pytest.raises(ParameterError):
            select_hidden_units(nspec(L=1), [1, 2, 3, 4], L_range, criterion=criterion)

    @staticmethod
    def _stub_fits(monkeypatch, outcomes):
        """Replace fit_neural by stubs: hidden units L -> (aic, converged)."""
        def stub(spec, series, opts=None, extra_starts=()):
            aic, converged = outcomes[spec.hidden]
            w = NeuralWeights(np.zeros((spec.input_width, spec.hidden)), np.zeros(spec.hidden))
            return FitResult(spec=spec, estimates=w, std_errors=np.full(w.k(), np.nan), loglik=-aic / 2,
                             aic=aic, bic=aic, lambda_path=np.ones(len(series)), converged=converged,
                             iterations=1, restarts_used=0)
        monkeypatch.setattr(estimate, "fit_neural", stub)

    def test_ranks_converged_fits_only(self, monkeypatch):
        # the lowest AIC belongs to a fit that did not converge
        self._stub_fits(monkeypatch, {1: (100.0, True), 2: (90.0, False), 3: (98.0, True)})
        best, fits = select_hidden_units(nspec(L=1), [1, 2, 3, 4], [1, 2, 3])
        assert best == 3 and set(fits) == {1, 2, 3}

    def test_ranks_every_fit_when_none_converged(self, monkeypatch):
        self._stub_fits(monkeypatch, {1: (100.0, False), 2: (90.0, False), 3: (98.0, False)})
        with pytest.warns(ConvergenceWarning, match="no candidate fit converged"):
            best, _ = select_hidden_units(nspec(L=1), [1, 2, 3, 4], [1, 2, 3])
        assert best == 2
