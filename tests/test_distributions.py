"""Poisson and negative binomial pmfs and samplers."""

import math
import warnings

import numpy as np
import pytest

from spingarch import RngStream, nb_log_pmf, nb_sample, poisson_log_pmf
from spingarch.distributions import loglik_scores, loglik_terms
from spingarch.exceptions import ParameterError

PARAM_GRID = [(n, lam) for n in (0.5, 1.0, 3.0, 10.0) for lam in (0.5, 2.0, 6.0, 12.0)]


def truncation_point(n, lam):
    return math.ceil(lam + 40.0 * math.sqrt(lam * (1.0 + lam / n)))


class TestNbLogPmf:
    def test_zero_count_values(self):
        # p = n/(n+lambda); pmf(0) = p^n
        assert nb_log_pmf(0, 3.0, 6.0) == pytest.approx(-3.0 * math.log(3.0), abs=1e-12)
        assert nb_log_pmf(0, 1.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_poisson_limit_pointwise(self):
        diff = nb_log_pmf(5, 1e6, 4.0) - poisson_log_pmf(5, 4.0)
        assert abs(diff) < 1e-4

    def test_domain(self):
        with pytest.raises(ParameterError):
            nb_log_pmf(-1, 3.0, 6.0)
        with pytest.raises(ParameterError):
            nb_log_pmf(2.5, 3.0, 6.0)
        with pytest.raises(ParameterError):
            nb_log_pmf(1, 0.0, 6.0)
        with pytest.raises(ParameterError):
            nb_log_pmf(1, 3.0, -1.0)

    @pytest.mark.parametrize("n,lam", PARAM_GRID)
    def test_normalization(self, n, lam):
        xs = np.arange(truncation_point(n, lam) + 1)
        total = np.exp(nb_log_pmf(xs, n, lam)).sum()
        assert total >= 1.0 - 1e-10
        assert total <= 1.0 + 1e-12

    @pytest.mark.parametrize("n,lam", PARAM_GRID)
    def test_mean_identity(self, n, lam):
        xs = np.arange(truncation_point(n, lam) + 1)
        pmf = np.exp(nb_log_pmf(xs, n, lam))
        assert (xs * pmf).sum() == pytest.approx(lam, abs=1e-8)

    @pytest.mark.parametrize("n,lam", PARAM_GRID)
    def test_variance_identity(self, n, lam):
        xs = np.arange(truncation_point(n, lam) + 1)
        pmf = np.exp(nb_log_pmf(xs, n, lam))
        var = ((xs - lam) ** 2 * pmf).sum()
        assert var == pytest.approx(lam * (1.0 + lam / n), rel=1e-6)

    @pytest.mark.parametrize("lam", [1.0, 4.0, 10.0])
    def test_poisson_limit_sup(self, lam):
        xs = np.arange(truncation_point(1e6, lam) + 1)
        gap = np.abs(np.exp(nb_log_pmf(xs, 1e6, lam)) - np.exp(poisson_log_pmf(xs, lam)))
        assert gap.max() < 1e-4

    def test_terms_match_poisson_at_huge_dispersion(self):
        # the gap to the Poisson terms is O(x^2/n), about 1e-10 here; a
        # gammaln(x+n) - gammaln(n) difference loses ~1e-3 to cancellation
        x = np.arange(0.0, 40.0)
        lam = np.linspace(0.1, 20.0, x.size)
        np.testing.assert_allclose(loglik_terms(x, lam, 1e12), loglik_terms(x, lam), rtol=0, atol=1e-9)


class TestLoglikScores:
    @pytest.mark.parametrize("n", [None, 0.7, 5.0])
    def test_lambda_score_matches_central_differences(self, n):
        x = np.array([0.0, 1.0, 3.0, 7.0, 12.0])
        lam = np.array([0.4, 2.0, 3.5, 5.0, 9.0])
        h = 1e-6 * lam
        fd = (loglik_terms(x, lam + h, n) - loglik_terms(x, lam - h, n)) / (2 * h)
        np.testing.assert_allclose(loglik_scores(x, lam, n)[0], fd, rtol=1e-7)

    @pytest.mark.parametrize("n", [0.7, 5.0, 999.0, 5e3, 1e6, 1e9])
    def test_dispersion_score_against_finite_sum(self, n):
        # psi(x + n) - psi(n) is the finite sum of 1/(n + v) over v < x for integer x
        x = np.array([0.0, 1.0, 3.0, 7.0, 12.0, 40.0])
        lam = np.array([0.4, 2.0, 3.5, 5.0, 9.0, 30.0])
        terms = [math.fsum(1.0 / (n + v) for v in range(int(xt))) - math.log1p(lt / n) + (lt - xt) / (n + lt)
                 for xt, lt in zip(x, lam)]
        assert loglik_scores(x, lam, n)[1] == pytest.approx(math.fsum(terms), rel=1e-6, abs=0)

    @pytest.mark.parametrize("n", [1e100, 1e160, 1e300])
    def test_dispersion_score_far_past_the_poisson_limit(self, n):
        # NB fits on Poisson data drive n this far; the series must not overflow
        x = np.array([0.0, 1.0, 3.0, 7.0, 12.0, 40.0])
        lam = np.array([0.4, 2.0, 3.5, 5.0, 9.0, 30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_n = loglik_scores(x, lam, n)[1]
        assert math.isfinite(d_n) and abs(d_n) * n < 1e-6

    def test_poisson_has_no_dispersion_score(self):
        assert loglik_scores(np.array([1.0]), np.array([2.0]))[1] is None


class TestPoissonLogPmf:
    def test_values(self):
        assert poisson_log_pmf(0, 1.0) == pytest.approx(-1.0, abs=1e-14)
        assert poisson_log_pmf(1, 1.0) == pytest.approx(-1.0, abs=1e-14)
        # direct evaluation: 3 ln 2.5 - 2.5 - ln 6
        assert poisson_log_pmf(3, 2.5) == pytest.approx(-1.5428872736055896, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            poisson_log_pmf(1, 0.0)
        with pytest.raises(ParameterError):
            poisson_log_pmf(-2, 1.0)


class TestNbSampling:
    def test_moments(self):
        draws = nb_sample(RngStream(100), 3.0, 6.0, size=100_000)
        mean = draws.mean()
        ratio = draws.var(ddof=1) / mean
        assert abs(mean - 6.0) < 0.06
        assert abs(ratio - 3.0) < 0.15  # target variance lam(1+lam/n) = 18

    def test_degenerate_mean(self):
        draws = nb_sample(RngStream(5), 3.0, 1e-12, size=1000)
        assert np.all(draws == 0)

    def test_empirical_pmf_matches_log_pmf(self):
        n, lam, N = 2.0, 3.0, 1_000_000
        draws = nb_sample(RngStream(2024), n, lam, size=N)
        xs = np.arange(21)
        probs = np.exp(nb_log_pmf(xs, n, lam))
        counts = np.bincount(draws, minlength=200)[:21]
        se = np.sqrt(probs * (1 - probs) / N)
        assert np.all(np.abs(counts / N - probs) <= 3 * se + 1e-12)

    def test_real_valued_dispersion(self):
        draws = nb_sample(RngStream(9), 0.37, 2.0, size=50_000)
        assert abs(draws.mean() - 2.0) < 0.1


class TestRngStream:
    def test_replay_is_identical(self):
        a = nb_sample(RngStream(7, 3), 3.0, 6.0, size=100)
        b = nb_sample(RngStream(7, 3), 3.0, 6.0, size=100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = nb_sample(RngStream(7, 0), 3.0, 4.0, size=1000)
        b = nb_sample(RngStream(7, 1), 3.0, 4.0, size=1000)
        assert not np.array_equal(a, b)
