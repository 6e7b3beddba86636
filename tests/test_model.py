"""Conditional-mean recursion, stationarity checks, and linear moment formulas."""

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
    RngStream,
    SimConfig,
    check_stationarity,
    conditional_mean_path,
    linear_acvf_general,
    linear_moments_11,
    negloglik,
    negloglik_and_grad,
    sample_acf,
    simulate_path,
    simulation_study,
    softplus,
    standard_errors,
)
from spingarch.exceptions import NumericError, ParameterError
from spingarch.model import _inputs, _lag_adjoint


def spec11(family=NEGBIN, c=1.0):
    return ModelSpec(family, SOFTPLUS_LINEAR, 1, 1, c)


class TestModelSpec:
    def test_order_invariants(self):
        with pytest.raises(ParameterError):
            ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 0, 0)
        with pytest.raises(ParameterError):
            ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 0, 1)
        with pytest.raises(ParameterError):
            ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, c=-1.0)

    def test_neural_needs_hidden(self):
        with pytest.raises(ParameterError):
            ModelSpec(NEGBIN, "neural", 1, 0)
        assert ModelSpec(NEGBIN, "neural", 1, 1, hidden=2).input_width == 3

    def test_options_of_the_other_link_rejected(self):
        # the network's output unit uses c = 1, and a linear model has no hidden units
        with pytest.raises(ParameterError, match="softplus-linear link only"):
            ModelSpec(POISSON, NEURAL, 1, 0, c=5.0, hidden=1)
        with pytest.raises(ParameterError, match="neural link only"):
            ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, hidden=3)
        assert ModelSpec(POISSON, NEURAL, 1, 0, c=1.0, hidden=1).c == 1.0


class TestConditionalMeanPath:
    def test_collapses_to_constant(self):
        params = LinearParams(2.0, (0.0,), (0.0,), 3.0)
        lam = conditional_mean_path(spec11(), params, [1, 5, 2, 0, 4])
        np.testing.assert_allclose(lam, softplus(2.0), rtol=0, atol=1e-15)

    def test_single_observation_uses_presample_mean(self):
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0)
        params = LinearParams(0.0, (1.0,), (), 3.0)
        lam = conditional_mean_path(spec, params, [3])
        # pre-sample X is the sample mean 3, so lambda_1 = sp(3)
        assert lam[0] == pytest.approx(3.0485874, abs=1e-7)

    def test_zero_series_floor(self):
        spec = ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0)
        params = LinearParams(1.0, (2.0,), ())
        lam = conditional_mean_path(spec, params, [0, 0, 0])
        assert lam[0] == pytest.approx(float(softplus(1.0 + 2.0 * 1e-4)), abs=1e-12)

    def test_always_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            params = LinearParams(
                rng.uniform(-5, 5), (rng.uniform(-1, 1),), (rng.uniform(-1, 1),), 3.0
            )
            lam = conditional_mean_path(spec11(), params, rng.integers(0, 10, 40))
            assert np.all(lam > 0)

    def test_feedback_loop_matches_manual_recursion(self):
        params = LinearParams(0.5, (0.3,), (-0.2,), 2.0)
        series = [4, 1, 0, 6, 2]
        lam = conditional_mean_path(spec11(c=0.7), params, series)
        xbar = np.mean(series)
        prev_x, prev_l = xbar, xbar
        for t, xt in enumerate(series):
            eta = 0.5 + 0.3 * prev_x - 0.2 * prev_l
            expected = float(softplus(eta, 0.7))
            assert lam[t] == pytest.approx(expected, rel=1e-14)
            prev_x, prev_l = xt, expected

    def test_vectorized_q0_matches_generic(self):
        spec2 = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 2, 0)
        params = LinearParams(1.0, (0.25, -0.1), (), 3.0)
        series = np.array([3, 0, 5, 2, 2, 7, 1])
        lam = conditional_mean_path(spec2, params, series)
        xbar = series.mean()
        padded = np.concatenate([[xbar, xbar], series.astype(float)])
        for t in range(len(series)):
            eta = 1.0 + 0.25 * padded[t + 1] - 0.1 * padded[t]
            assert lam[t] == pytest.approx(float(softplus(eta)), rel=1e-14)

    @pytest.mark.parametrize(
        "alpha, beta",
        [((0.3, -0.15), (0.25,)), ((0.4,), (0.3, -0.2)), ((0.2, 0.1), (-0.3, 0.25))],
        ids=["p2q1", "p1q2", "p2q2"],
    )
    @pytest.mark.parametrize("presample", [None, 2.5], ids=["default-init", "explicit-init"])
    def test_higher_order_feedback_matches_manual_recursion(self, alpha, beta, presample):
        p, q = len(alpha), len(beta)
        params = LinearParams(0.6, alpha, beta, 2.0)
        series = [4, 1, 0, 6, 2, 3, 5, 0, 1]
        lam = conditional_mean_path(ModelSpec(NEGBIN, SOFTPLUS_LINEAR, p, q, 0.8), params, series,
                                    presample=presample)
        init = float(np.mean(series)) if presample is None else presample  # counts and means alike
        xs = [init] * p + series  # x_{t-i} sits at xs[p + t - i]
        lams = [init] * q  # lambda_{t-j} at lams[q + t - j]
        for t in range(len(series)):
            eta = 0.6
            eta += sum(a * xs[p + t - i] for i, a in enumerate(alpha, 1))
            eta += sum(b * lams[q + t - j] for j, b in enumerate(beta, 1))
            expected = float(softplus(eta, 0.8))
            assert lam[t] == pytest.approx(expected, rel=1e-14)
            lams.append(expected)

    def test_order_mismatch(self):
        with pytest.raises(ParameterError):
            conditional_mean_path(spec11(), LinearParams(1.0, (0.1,), (), 3.0), [1, 2])

    @pytest.mark.parametrize("q", [0, 1])
    def test_overflowing_predictor_reports_its_step(self, q):
        # alpha1 x_0 overflows to inf at step 1; the vectorised q = 0 branch
        # reports it as the q = 1 loop does
        series = np.random.default_rng(0).poisson(3.0, 200)
        spec, params = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, q), LinearParams(1.0, (1e308,), (0.0,) * q, 3.0)
        for evaluate in (conditional_mean_path, negloglik):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="at step 1$") as err:
                evaluate(spec, params, series)
            assert err.value.index == 1

    def test_non_positive_presample_rejected(self):
        with pytest.raises(ParameterError, match="presample"):
            conditional_mean_path(spec11(), LinearParams(1.0, (0.1,), (0.2,), 3.0), [1, 2], presample=0.0)

    def test_link_mismatch(self):
        spec = ModelSpec(NEGBIN, NEURAL, 1, 1, hidden=1)
        with pytest.raises(ParameterError):
            conditional_mean_path(spec, LinearParams(1.0, (0.1,), (0.2,), 3.0), [1, 2])


class TestLinearResponse:
    def test_flat_round_trip(self):
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 2, 1)
        params = LinearParams(0.6, (0.3, -0.15), (0.25,), 2.0)
        np.testing.assert_array_equal(params.to_flat(log_n=False), [0.6, 0.3, -0.15, 0.25, 2.0])
        assert params.to_flat()[-1] == np.log(2.0)
        assert LinearParams.from_flat(params.to_flat(log_n=False), spec, log_n=False) == params
        assert LinearParams.from_flat(params.to_flat(), spec).n == pytest.approx(2.0, rel=1e-15)
        poisson = LinearParams(0.6, (0.3, -0.15), (0.25,))
        assert poisson.to_flat().size == poisson.k() == 4

    def test_from_flat_checks_size(self):
        with pytest.raises(ParameterError):
            LinearParams.from_flat([0.6, 0.3, 0.25], spec11())

    def test_step_reproduces_path(self, recorded_draws):
        # draw_path, each draw returning the next count of the series, draws at
        # the series' own conditional means started where the chain starts
        rng = np.random.default_rng(8)
        series = [4, 1, 0, 6, 2, 3, 5, 0, 1] + rng.integers(0, 9, 200).tolist()
        gammas = rng.gamma(2.3, 1 / 2.3, len(series)).tolist()
        for p, q in [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)]:
            spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, p, q, 0.8)
            params = LinearParams(0.6, (0.3, -0.15)[:p], (0.25, -0.1)[:q], 2.3)
            means = np.array(recorded_draws(params, spec, series, gammas))
            if q:  # the path's feedback loop runs draw_path's scalar arithmetic
                lam = conditional_mean_path(spec, params, series, presample=params.chain_start(spec))
            else:  # numpy's SIMD exp and log1p may round differently from math's
                lam = np.array(observation_lag_loop(params, spec, series))
            np.testing.assert_array_equal(means, (lam / params.n) * np.array(gammas), err_msg=f"order ({p},{q})")


def observation_lag_loop(params, spec, series):
    """The means lambda_1..lambda_s of a q = 0 chain run along `series` from
    `chain_start`, as one scalar loop with math's exp and log1p: the reference
    for `draw_path` at q = 0."""
    p, c = spec.p, spec.c
    xs = [params.chain_start(spec)] * p + list(series)
    lam = []
    for t in range(len(series)):
        e = params.alpha0
        for i in range(1, p + 1):
            e += params.alpha[i - 1] * xs[t + p - i]
        lam.append(e + c * math.log1p(math.exp(-e / c)) if e > 0.0 else c * math.log1p(math.exp(e / c)))
    return lam


def lag_adjoint_loop(r, partials):
    """The reverse λ-lag pass as one backward scalar loop: the reference for
    `_lag_adjoint`'s banded solve."""
    s, q = partials.shape
    a = [0.0] * (s + q)  # zeros past the end
    for t in range(s - 1, -1, -1):
        v = r[t]
        for j in range(1, q + 1):
            if t + j < s:
                v += partials[t + j, j - 1] * a[t + j]
        a[t] = v
    return np.array(a[:s])


def lag_tangent_loop(r, partials):
    """The forward λ-lag pass as one scalar loop per column: the reference for
    `_lag_adjoint(..., tangent=True)`."""
    s, q = partials.shape
    y = np.zeros(r.shape)
    for t in range(s):
        y[t] = r[t]
        for j in range(1, min(q, t) + 1):
            y[t] += partials[t, j - 1] * y[t - j]
    return y


def dense_lag_system(partials):
    """The unit upper triangular I - C of the reverse λ-lag pass as a dense
    matrix, C[t, t+j] = partials[t+j, j-1]; its transpose is the tangent pass's."""
    s, q = partials.shape
    system = np.eye(s)
    for j in range(1, q + 1):
        system[np.arange(s - j), np.arange(j, s)] = -partials[j:, j - 1]
    return system


def lag_partials(kind, s, q, rng):
    if kind == "exact zeros":
        partials = rng.uniform(-0.9, 0.9, (s, q))
        partials[rng.random((s, q)) < 0.3] = 0.0
    elif kind == "near one":
        partials = rng.choice([-1.0, 1.0], (s, q)) * rng.uniform(0.97, 1.0, (s, q))
    else:  # products underflow to exactly 0, as where sp' underflows
        partials = rng.uniform(0.0, 1e-160, (s, q))
    return partials


class TestLagAdjoint:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("tangent", [False, True])
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("kind", ["exact zeros", "near one", "underflowing"])
    @pytest.mark.parametrize("s", [1, 2, 7, 200])
    def test_solve_matches_the_dense_system(self, q, tangent, k, kind, s):
        rng = np.random.default_rng([q, int(tangent), k or 1, len(kind), s])
        partials = lag_partials(kind, s, q, rng)
        r = rng.normal(size=s if k is None else (s, k))
        system = dense_lag_system(partials)
        expected = np.linalg.solve(system.T if tangent else system, r)
        got = _lag_adjoint(r, partials, tangent=tangent)
        assert got.shape == r.shape
        # normwise per column: the doubling and the dense LU round differently
        scale = np.max(np.abs(expected), axis=0)
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 50])
    def test_banded_solve_matches_the_scalar_loop(self, q, s):
        rng = np.random.default_rng(10 * q + s)
        partials = rng.uniform(-0.9, 0.9, (s, q))
        partials[rng.random((s, q)) < 0.25] = 0.0  # exact zeros among both signs
        r = rng.normal(size=s)
        r[rng.random(s) < 0.2] = 0.0
        np.testing.assert_allclose(_lag_adjoint(r, partials), lag_adjoint_loop(r, partials), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 50])
    def test_tangent_solve_matches_the_forward_loop(self, q, s):
        rng = np.random.default_rng(100 + 10 * q + s)
        partials = rng.uniform(-0.9, 0.9, (s, q))
        partials[rng.random((s, q)) < 0.25] = 0.0
        r = rng.normal(size=(s, 3))
        r[rng.random((s, 3)) < 0.2] = 0.0
        np.testing.assert_allclose(_lag_adjoint(r, partials, tangent=True), lag_tangent_loop(r, partials),
                                   rtol=1e-12, atol=1e-15)


class TestInputs:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 10])
    def test_rows_match_padded_lags(self, s):
        rng = np.random.default_rng(s)
        x, lam, init = rng.integers(0, 9, s).astype(float), rng.uniform(1.0, 5.0, s), 2.5
        for p in range(4):
            for q in range(4):
                px, pl = np.concatenate([np.full(p, init), x]), np.concatenate([np.full(q, init), lam])
                ref = np.column_stack([np.ones(s)] + [px[p - i : p - i + s] for i in range(1, p + 1)]
                                      + [pl[q - j : q - j + s] for j in range(1, q + 1)])
                np.testing.assert_array_equal(_inputs(x, lam, p, q, init), ref, err_msg=f"({p},{q})")


class TestFamilyDispersion:
    def test_negbin_without_n_is_rejected_everywhere(self):
        # one rule: Poisson uses no n, and the NB family requires one
        spec, params = spec11(NEGBIN), LinearParams(1.0, (0.3,), (0.4,))
        with pytest.raises(ParameterError, match="requires dispersion n"):
            simulate_path(SimConfig(spec=spec, params=params, length=10, rng=RngStream(1)))
        with pytest.raises(ParameterError, match="requires dispersion n"):
            negloglik(spec, params, [2, 0, 3, 1, 4])

    @pytest.mark.parametrize("call", [
        negloglik,
        negloglik_and_grad,
        conditional_mean_path,
        standard_errors,
        lambda spec, params, x: SimConfig(spec=spec, params=params, length=10, rng=RngStream(1)),
        lambda spec, params, x: simulation_study(spec, params, [50], replications=2, seed=1),
    ], ids=["negloglik", "negloglik_and_grad", "conditional_mean_path", "standard_errors", "SimConfig",
            "simulation_study"])
    def test_poisson_with_n_is_rejected_everywhere(self, call):
        # n under a Poisson spec used to be ignored by the likelihood and the
        # simulator, and turned every standard error into NaN
        spec, params = spec11(POISSON), LinearParams(1.0, (0.3,), (0.4,), n=3.0)
        x = np.random.default_rng(0).poisson(4, 400)
        with pytest.raises(ParameterError, match="poisson family takes no dispersion n"):
            call(spec, params, x)


class TestCheckStationarity:
    def test_second_order_hand_value(self):
        report = check_stationarity(LinearParams(1.0, (0.3,), (0.4,), 3.0))
        assert report.applicable
        assert report.c11_bar == pytest.approx(0.7)
        assert report.second_order_value == pytest.approx(0.52, abs=1e-12)
        assert report.first_order_ok and report.second_order_ok

    def test_first_order_violation(self):
        report = check_stationarity(LinearParams(1.0, (0.9,), (0.5,), 3.0))
        assert report.c11_bar == pytest.approx(1.4)
        assert not report.first_order_ok
        assert not report.second_order_ok

    def test_negative_coefficients_truncate(self):
        report = check_stationarity(LinearParams(1.0, (-0.3,), (-0.4,), 3.0))
        assert report.c11_bar == 0.0
        assert report.second_order_value == 0.0
        assert report.first_order_ok and report.second_order_ok

    def test_beta_magnitude_gate(self):
        # negative beta below -1 still violates |beta1| < 1
        report = check_stationarity(LinearParams(1.0, (-0.3,), (-1.2,), 3.0))
        assert not report.first_order_ok

    def test_poisson_uses_unit_weight(self):
        nb = check_stationarity(LinearParams(1.0, (0.5,), (0.0,), 3.0))
        po = check_stationarity(LinearParams(1.0, (0.5,), (0.0,)))
        assert nb.second_order_value == pytest.approx((1 + 1 / 3) * 0.25)
        assert po.second_order_value == pytest.approx(0.25)

    def test_not_applicable_orders(self):
        report = check_stationarity(LinearParams(1.0, (0.2, 0.1), (), 3.0))
        assert not report.applicable
        assert report.first_order_ok is None and report.second_order_ok is None


class TestLinearMoments11:
    def test_reference_row(self):
        m = linear_moments_11(LinearParams(1.8, (0.3,), (0.4,), 3.0))
        assert m.mu == pytest.approx(6.000, abs=1e-12)
        assert m.dispersion == pytest.approx(3.750, abs=1e-12)
        np.testing.assert_allclose(m.acf, [0.36, 0.252, 0.1764], atol=1e-12)

    def test_larger_intercept_row(self):
        m = linear_moments_11(LinearParams(3.6, (0.3,), (0.4,), 3.0))
        assert m.mu == pytest.approx(12.000, abs=1e-12)

    def test_iid_case(self):
        m = linear_moments_11(LinearParams(4.0, (0.0,), (0.0,), 3.0), max_lag=5)
        assert m.mu == pytest.approx(4.0)
        assert m.dispersion == pytest.approx(1.0 + 4.0 / 3.0)
        np.testing.assert_allclose(m.acf, 0.0, atol=1e-15)

    def test_degenerate_mean_denominator(self):
        with pytest.raises(ParameterError, match="alpha1"):
            linear_moments_11(LinearParams(1.0, (0.6,), (0.4,), 3.0))

    def test_mean_identity_over_random_draws(self):
        rng = np.random.default_rng(314)
        checked = 0
        while checked < 1000:
            a1 = rng.uniform(-0.6, 0.6)
            b1 = rng.uniform(-0.6, 0.6)
            n = rng.uniform(0.5, 20)
            a0 = rng.uniform(0.2, 10)
            params = LinearParams(a0, (a1,), (b1,), n)
            try:
                m = linear_moments_11(params)
            except ParameterError:
                continue
            checked += 1
            assert m.mu * (1.0 - a1 - b1) == pytest.approx(a0, abs=1e-12)
            # geometric ACF decay with ratio a1 + b1
            for h in range(1, 3):
                if abs(m.acf[h - 1]) > 1e-12:
                    assert m.acf[h] / m.acf[h - 1] == pytest.approx(a1 + b1, abs=1e-9)
            # overdispersion: variance at least the mean
            assert m.variance >= m.mu - 1e-9


class TestLinearAcvfGeneral:
    def test_reduces_to_closed_form_on_11(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 200:
            params = LinearParams(
                rng.uniform(0.2, 8), (rng.uniform(-0.5, 0.5),), (rng.uniform(-0.5, 0.5),),
                rng.uniform(0.5, 15),
            )
            try:
                m = linear_moments_11(params, max_lag=6)
                gx, _ = linear_acvf_general(params, max_lag=6)
            except ParameterError:
                continue
            done += 1
            assert gx[0] == pytest.approx(m.variance, abs=1e-10 * max(1, m.variance))
            np.testing.assert_allclose(gx[1:] / gx[0], m.acf, atol=1e-10)

    def test_white_noise_inarch2(self):
        gx, _ = linear_acvf_general(LinearParams(2.0, (0.0, 0.0), (), 3.0), max_lag=5)
        np.testing.assert_allclose(gx[1:], 0.0, atol=1e-12)

    def test_inarch1_geometric(self):
        gx, _ = linear_acvf_general(LinearParams(2.0, (0.5,), (), 3.0), max_lag=6)
        np.testing.assert_allclose(gx[1:] / gx[:-1], 0.5, atol=1e-12)

    def test_inarch1_against_long_simulation(self):
        # Monte-Carlo oracle: sample ACF of a million-step path
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0, c=0.05)
        params = LinearParams(2.0, (0.5,), (), 3.0)
        path = simulate_path(SimConfig(spec=spec, params=params, length=1_000_000, rng=RngStream(31)))
        emp = sample_acf(np.asarray(path, dtype=float), 4)
        gx, _ = linear_acvf_general(params, max_lag=4)
        np.testing.assert_allclose(emp, gx[1:] / gx[0], atol=0.02)

    @pytest.mark.parametrize(
        "p,q,alpha,beta",
        [(2, 0, (0.35, 0.25), ()), (2, 1, (0.3, 0.2), (0.25,)), (1, 2, (0.3,), (0.2, 0.15))],
    )
    def test_higher_orders_against_long_simulation(self, p, q, alpha, beta):
        # near-linear regime (small c) so the linear formulas are near-exact
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, p, q, c=0.05)
        params = LinearParams(1.5, alpha, beta, 3.0)
        path = simulate_path(SimConfig(spec=spec, params=params, length=500_000, rng=RngStream(64)))
        emp = sample_acf(np.asarray(path, dtype=float), 5)
        gx, _ = linear_acvf_general(params, max_lag=5)
        np.testing.assert_allclose(emp, gx[1:] / gx[0], atol=0.02)
        assert path.var(ddof=1) == pytest.approx(gx[0], rel=0.05)

    def test_poisson_family(self):
        gx, gl = linear_acvf_general(LinearParams(2.0, (0.4,), (0.2,)), max_lag=4)
        mu = 2.0 / (1 - 0.6)
        # variance link with omega0 = 1 and conditional variance mu
        assert gx[0] == pytest.approx(gl[0] + mu, rel=1e-12)

    def test_outside_region_raises(self):
        with pytest.raises(ParameterError):
            linear_acvf_general(LinearParams(1.0, (0.9,), (0.5,), 3.0), max_lag=5)
