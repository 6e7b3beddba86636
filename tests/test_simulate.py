"""Path simulation and the moment-comparison study."""

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
    RngStream,
    SimConfig,
    conditional_mean_path,
    empirical_moments,
    moment_study,
    nb_sample,
    simulate_path,
    slfn_forward,
    softplus,
)
from spingarch.exceptions import DataError, ParameterError


def nb_spec(c=1.0):
    return ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, c)


def config(params, length, seed, burn_in=500, spec=None):
    return SimConfig(spec=spec or nb_spec(), params=params, length=length,
                     burn_in=burn_in, rng=RngStream(seed))


class TestSimulatePath:
    def test_iid_mean(self):
        params = LinearParams(6.0, (0.0,), (0.0,), 3.0)
        path = simulate_path(config(params, 100_000, 7))
        assert abs(path.mean() - float(softplus(6.0))) < 0.1  # sp(6) ~ 6.0025

    def test_reference_configuration(self):
        params = LinearParams(1.8, (0.3,), (0.4,), 3.0)
        path = simulate_path(config(params, 100_000, 42))
        emp = empirical_moments(path, 1)
        assert abs(emp.mean - 6.008) < 0.15
        assert abs(emp.acf[0] - 0.358) < 0.03

    def test_determinism(self):
        params = LinearParams(1.8, (0.3,), (0.4,), 3.0)
        a = simulate_path(config(params, 2000, 5))
        b = simulate_path(config(params, 2000, 5))
        np.testing.assert_array_equal(a, b)

    def test_counts_are_nonnegative_integers(self):
        params = LinearParams(1.0, (-0.4,), (0.3,), 2.0)
        path = simulate_path(config(params, 5000, 3))
        assert path.dtype.kind == "i"
        assert np.all(path >= 0)

    def test_overdispersion_on_stationary_nb_paths(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            a1 = rng.uniform(-0.4, 0.4)
            b1 = rng.uniform(-0.4, 0.4)
            params = LinearParams(rng.uniform(1, 4), (a1,), (b1,), rng.uniform(1, 5))
            path = simulate_path(config(params, 10_000, 100 + seed))
            emp = empirical_moments(path, 1)
            assert emp.dispersion > 1.0

    def test_distinct_streams_uncorrelated(self):
        params = LinearParams(1.8, (0.3,), (0.4,), 3.0)
        n = 20_000
        a = simulate_path(SimConfig(spec=nb_spec(), params=params, length=n, rng=RngStream(5, 0)))
        b = simulate_path(SimConfig(spec=nb_spec(), params=params, length=n, rng=RngStream(5, 1)))
        da, db = a - a.mean(), b - b.mean()
        corr = float(da @ db) / (n * da.std() * db.std())
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_burn_in_insensitivity(self):
        params = LinearParams(1.8, (0.3,), (0.4,), 3.0)
        n = 100_000
        m1 = simulate_path(config(params, n, 42, burn_in=500)).mean()
        m2 = simulate_path(config(params, n, 42, burn_in=1000)).mean()
        # doubling the burn-in leaves the retained-segment mean within two
        # Monte-Carlo standard errors (variance of the mean inflated by the
        # ACF: gamma(0) (1 + 2 sum rho) / n with gamma(0)=22.5, sum rho=1.2)
        se_mean = np.sqrt(22.5 * (1 + 2 * 1.2) / n)
        assert abs(m1 - m2) < 2 * np.sqrt(2) * se_mean

    def test_poisson_family(self):
        spec = ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 0)
        path = simulate_path(SimConfig(spec=spec, params=LinearParams(4.0, (0.0,)),
                                       length=100_000, rng=RngStream(13)))
        emp = empirical_moments(path, 1)
        assert abs(emp.dispersion - 1.0) < 0.05

    def test_neural_matches_forward_reference(self):
        # a hand loop over slfn_forward: every gamma first, then one Poisson draw per step
        spec = ModelSpec(NEGBIN, NEURAL, 1, 1, hidden=2)
        w = NeuralWeights(np.array([[0.4, -0.3], [0.12, 0.05], [0.3, -0.2]]),
                          np.array([1.6, 0.9]), 2.5)
        path = simulate_path(SimConfig(spec=spec, params=w, length=300, burn_in=50,
                                       rng=RngStream(21)))
        gen = RngStream(21).generator()
        gammas = gen.standard_gamma(w.n, size=350)
        x_lag = lam_lag = slfn_forward(w, np.array([1.0, 0.0, 0.0]))
        expected = []
        for g in gammas:
            lam = slfn_forward(w, np.array([1.0, x_lag, lam_lag]))
            draw = int(gen.poisson((lam / w.n) * g))
            expected.append(draw)
            x_lag, lam_lag = float(draw), lam
        np.testing.assert_array_equal(path, expected[50:])

    def test_linear_matches_mean_path_reference(self):
        # the (2,1) path redrawn from its own conditional means, started where
        # the chain starts, with the gammas drawn first
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 2, 1, 0.8)
        params = LinearParams(0.9, (0.35, -0.2), (0.4,), 2.5)
        path = simulate_path(SimConfig(spec=spec, params=params, length=400, burn_in=0,
                                       rng=RngStream(23)))
        lam = conditional_mean_path(spec, params, path, presample=params.chain_start(spec))
        gen = RngStream(23).generator()
        gammas = gen.standard_gamma(params.n, size=400)
        np.testing.assert_array_equal(path, gen.poisson((lam / params.n) * gammas))

    def test_constant_mean_path_is_nb_sample(self):
        # alpha1 = 0: every step has the same mean, so the path is nb_sample's draws
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0)
        params = LinearParams(1.3, (0.0,), (), 2.5)
        path = simulate_path(SimConfig(spec=spec, params=params, length=700, burn_in=50,
                                       rng=RngStream(9)))
        expected = nb_sample(RngStream(9), 2.5, softplus(1.3), size=750)[50:]
        np.testing.assert_array_equal(path, expected)

    def test_explosive_parameters_raise(self):
        from spingarch.exceptions import NumericError

        params = LinearParams(2.0, (1.3,), (0.9,), 3.0)
        with pytest.raises(NumericError):
            simulate_path(config(params, 5000, 1, burn_in=2000))


class TestEmpiricalMoments:
    def test_constant_series_errors(self):
        with pytest.raises(DataError):
            empirical_moments([2, 2, 2, 2], 1)

    def test_alternating_series(self):
        series = np.tile([0, 1], 500)
        emp = empirical_moments(series, 1)
        assert emp.mean == pytest.approx(0.5)
        assert emp.acf[0] < -0.99

    def test_max_lag_bounds(self):
        with pytest.raises(ParameterError):
            empirical_moments([1, 2, 3], 5)


class TestMomentStudy:
    def test_reference_rows(self):
        grid = [
            config(LinearParams(1.8, (0.3,), (0.4,), 3.0), 50_000, 1),
            config(LinearParams(3.6, (0.3,), (0.4,), 3.0), 50_000, 2),
        ]
        rows = moment_study(grid, max_lag=3)
        lin = rows[0].linear
        assert round(lin.mu, 3) == 6.000
        assert round(lin.dispersion, 3) == 3.750
        assert [round(v, 3) for v in lin.acf] == [0.360, 0.252, 0.176]
        assert round(rows[1].linear.mu, 3) == 12.000
        for row in rows:
            assert not row.flagged
            assert abs(row.empirical.mean - row.linear.mu) < 0.3

    def test_degenerate_entry_flagged(self):
        grid = [config(LinearParams(2.0, (0.9,), (0.5,), 3.0), 2000, 3)]
        rows = moment_study(grid)
        assert rows[0].flagged
        assert rows[0].linear is None

    def test_rejects_wrong_orders(self):
        spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 0)
        bad = SimConfig(spec=spec, params=LinearParams(1.0, (0.2,), (), 3.0),
                        length=100, rng=RngStream(1))
        with pytest.raises(ParameterError):
            moment_study([bad])
