"""Poisson and negative binomial pmfs and samplers."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from spingarch import CountSeries, RngStream, nb_log_pmf, nb_sample, poisson_log_pmf
from spingarch.distributions import _gamma_gaps, _log_nb_coef, loglik_derivatives, loglik_terms
from spingarch.exceptions import ParameterError

PARAM_GRID = [(n, lam) for n in (0.5, 1.0, 3.0, 10.0) for lam in (0.5, 2.0, 6.0, 12.0)]


def table(x):
    """The distinct-count table of x, as a fit builds it."""
    return CountSeries(x).table


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
        np.testing.assert_allclose(loglik_terms(table(x), lam, 1e12), loglik_terms(table(x), lam), rtol=0, atol=1e-9)


class TestNbCoefficient:
    @pytest.mark.parametrize("n", [1e3, 1e6, 1e9, 1e12])
    def test_coefficient_against_finite_sum(self, n):
        # log C(v+n-1, v) = v ln n + sum_{i<v} log1p(i/n) - ln v! for integer v;
        # betaln misses this by 1.7e-11 relative at n = 1e6
        v = np.array([0.0, 1.0, 2.0, 5.0, 17.0, 60.0, 250.0, 3000.0])
        expected = [k * math.log(n) + math.fsum(math.log1p(i / n) for i in range(int(k))) - math.lgamma(k + 1.0)
                    for k in v]
        got = _log_nb_coef(v, n)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], expected[1:], rtol=1e-13, atol=0)

    def test_huge_counts_near_the_poisson_limit(self):
        # at a common mean the NB log-likelihood lies just below the Poisson one
        # as n grows; betaln's lost digits put it 0.41 above at n = 1e12
        x = np.random.default_rng(0).poisson(1e7, 200)
        lam = np.full(x.size, x.mean())
        gap = np.sum(loglik_terms(table(x), lam, 1e12)) - np.sum(loglik_terms(table(x), lam))
        assert abs(gap) < 1e-3

    def test_an_array_of_dispersions_is_refused(self):
        with pytest.raises(ParameterError, match="scalar"):
            nb_log_pmf(np.array([0, 3, 40, 7]), np.array([0.5, 999.0, 1e3, 1e12]), 6.0)


class TestLoglikScores:
    @pytest.mark.parametrize("n", [None, 0.7, 5.0])
    def test_lambda_score_matches_central_differences(self, n):
        x = np.array([0.0, 1.0, 3.0, 7.0, 12.0])
        lam = np.array([0.4, 2.0, 3.5, 5.0, 9.0])
        h = 1e-6 * lam
        fd = (loglik_terms(table(x), lam + h, n) - loglik_terms(table(x), lam - h, n)) / (2 * h)
        np.testing.assert_allclose(loglik_derivatives(table(x), lam, n)[0], fd, rtol=1e-7)

    @pytest.mark.parametrize("n", [0.7, 5.0, 999.0, 5e3, 1e6, 1e9])
    def test_dispersion_score_against_finite_sum(self, n):
        # psi(x + n) - psi(n) is the finite sum of 1/(n + v) over v < x for integer x
        x = np.array([0.0, 1.0, 3.0, 7.0, 12.0, 40.0])
        lam = np.array([0.4, 2.0, 3.5, 5.0, 9.0, 30.0])
        terms = [math.fsum(1.0 / (n + v) for v in range(int(xt))) - math.log1p(lt / n) + (lt - xt) / (n + lt)
                 for xt, lt in zip(x, lam)]
        assert loglik_derivatives(table(x), lam, n)[3] == pytest.approx(math.fsum(terms), rel=1e-6, abs=0)

    @pytest.mark.parametrize("n", [1e100, 1e160, 1e300])
    def test_dispersion_score_far_past_the_poisson_limit(self, n):
        # NB fits on Poisson data drive n this far; the series must not overflow
        x = np.array([0.0, 1.0, 3.0, 7.0, 12.0, 40.0])
        lam = np.array([0.4, 2.0, 3.5, 5.0, 9.0, 30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, d_lam2, d_lam_n, d_n, d_nn = loglik_derivatives(table(x), lam, n)
        assert math.isfinite(d_n) and abs(d_n) * n < 1e-6
        assert np.all(np.isfinite(d_lam2)) and np.all(np.isfinite(d_lam_n)) and math.isfinite(d_nn)

    def test_poisson_has_no_dispersion_terms(self):
        assert loglik_derivatives(table([1]), np.array([2.0]))[2:] == (None, None, None)


class TestLoglikCurvatures:
    X = np.array([0.0, 1.0, 3.0, 7.0, 12.0, 40.0])
    LAM = np.array([0.4, 2.0, 3.5, 5.0, 9.0, 30.0])

    @pytest.mark.parametrize("n", [None, 0.7, 5.0, 2e3])
    def test_lambda_curvatures_match_central_differences_of_the_scores(self, n):
        x, lam = self.X, self.LAM
        h = 1e-6 * lam
        d_lam2, d_lam_n = loglik_derivatives(table(x), lam, n)[1:3]
        fd = (loglik_derivatives(table(x), lam + h, n)[0] - loglik_derivatives(table(x), lam - h, n)[0]) / (2 * h)
        np.testing.assert_allclose(d_lam2, fd, rtol=1e-6)
        if n is None:
            assert d_lam_n is None
            return
        # the cross term per observation: the n-derivative of the lambda score
        hn = 1e-6 * n
        fd_n = (loglik_derivatives(table(x), lam, n + hn)[0] - loglik_derivatives(table(x), lam, n - hn)[0]) / (2 * hn)
        np.testing.assert_allclose(d_lam_n, fd_n, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("n", [0.7, 5.0, 999.0, 5e3])
    def test_dispersion_curvature_matches_central_differences_of_the_score(self, n):
        x, lam = self.X, self.LAM
        h = 1e-5 * n
        fd = (loglik_derivatives(table(x), lam, n + h)[3] - loglik_derivatives(table(x), lam, n - h)[3]) / (2 * h)
        assert loglik_derivatives(table(x), lam, n)[4] == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("n", [None, 3.0])
    def test_zero_count_at_a_vanishing_mean(self, n):
        # lam**2 underflows to 0 below lam ~ 1e-154, where x / lam**2 was 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_lam2 = loglik_derivatives(table([0.0]), np.array([1e-200]), n)[1]
        assert d_lam2[0] == (0.0 if n is None else 1.0 / n)

    @pytest.mark.parametrize("n", [0.5, 3.0, 999.0, 1e3, 1e6, 1e9])
    def test_gamma_gaps_against_finite_sums(self, n):
        # psi(x + n) - psi(n) is the finite sum of 1/(n + v) over v < x, and
        # psi'(x + n) - psi'(n) minus the finite sum of 1/(n + v)^2
        v = np.array([0.0, 1.0, 2.0, 5.0, 17.0, 60.0, 250.0, 3000.0])
        digamma_gap, trigamma_gap = _gamma_gaps(v, n)
        expected = [-math.fsum(1.0 / (n + i) ** 2 for i in range(int(k))) for k in v]
        np.testing.assert_allclose(trigamma_gap, expected, rtol=1e-11, atol=0)
        expected = [math.fsum(1.0 / (n + i) for i in range(int(k))) for k in v]
        np.testing.assert_allclose(digamma_gap, expected, rtol=1e-11, atol=0)


def direct_terms(x, lam, n):
    """`loglik_terms` written over the full count array, every count evaluated
    on its own, the reference for the per-level evaluation."""
    if n is None:
        return x * np.log(lam) - lam - np.array([math.lgamma(v + 1.0) for v in x])
    return x * (np.log(lam) - np.log(n + lam)) - n * np.log1p(lam / n) + _log_nb_coef(x, n)


def direct_derivatives(x, lam, n):
    """`loglik_derivatives` written over the full count array."""
    count_term = np.divide(x, lam * lam, out=np.zeros_like(lam), where=x > 0)
    if n is None:
        return x / lam - 1.0, -count_term, None, None, None
    gap, gap2 = _gamma_gaps(x, n)
    d_n = gap - np.log1p(lam / n) + (lam - x) / (n + lam)
    d_nn = gap2 + lam / n / (n + lam) - (lam - x) / (n + lam) / (n + lam)
    return (x / lam - (n + x) / (n + lam), (n + x) / (n + lam) / (n + lam) - count_term,
            (x - lam) / (n + lam) / (n + lam), float(np.sum(d_n)), float(np.sum(d_nn)))


def _series(kind):
    rng = np.random.default_rng(11)
    if kind == "zeros":
        return np.zeros(40, dtype=int)
    if kind == "spike":
        x = np.zeros(40, dtype=int)
        x[17] = 250
        return x
    if kind == "huge":
        return 10_000_000 + rng.integers(-3, 4, 60)
    return nb_sample(RngStream(5), 2.5, 4.0, size=500)  # a typical NB series


class TestCountTables:
    """The count terms evaluated once per distinct count and gathered equal
    the direct full-array expressions bit for bit."""

    @pytest.mark.parametrize("kind", ["zeros", "spike", "huge", "typical"])
    @pytest.mark.parametrize("n", [None, 1e-3, 4.0, 999.0, 1e3, 1e12])
    def test_terms_and_derivatives_match_the_direct_expression(self, kind, n):
        counts = table(_series(kind))
        x = counts.x
        lam = np.random.default_rng(3).uniform(0.2, 1.5, x.size) * max(float(x.mean()), 1.0)
        np.testing.assert_array_equal(counts.levels[counts.index], x)
        np.testing.assert_array_equal(loglik_terms(counts, lam, n), direct_terms(x, lam, n))
        for got, ref in zip(loglik_derivatives(counts, lam, n), direct_derivatives(x, lam, n)):
            if ref is None or np.ndim(ref) == 0:
                assert got == ref
            else:
                np.testing.assert_array_equal(got, ref)

    def test_levels_are_the_distinct_counts(self):
        counts = table([3, 0, 3, 7, 0, 3])
        np.testing.assert_array_equal(counts.levels, [0.0, 3.0, 7.0])
        np.testing.assert_array_equal(counts.index, [1, 0, 1, 2, 0, 1])
        assert counts.x.dtype == np.float64

    def test_table_is_built_once_per_series(self):
        series = CountSeries([1, 2, 2, 5])
        assert series.table is series.table


def _mp_log_nb_coef(v, n):
    return mpmath.loggamma(v + n) - mpmath.loggamma(n) - mpmath.loggamma(v + 1)


ORACLE_COUNTS = np.array([0.0, 1.0, 2.0, 7.0, 63.0, 64.0, 65.0, 100.0, 1000.0, 12345.0, 1e6, 9999997.0, 1e7])


class TestSpecialFunctionOracle:
    """The log-gamma, digamma and trigamma replacements against mpmath at 40
    digits, for dispersions on both sides of 1 and counts up to 1e7."""

    @pytest.mark.parametrize("n", [1e-3, 0.02, 0.37, 0.999, 1.0, 1.001, 2.5, 37.3, 999.0, 1e3, 1e6, 1e12])
    def test_nb_coefficient(self, n):
        got = _log_nb_coef(ORACLE_COUNTS, n)
        assert got[0] == 0.0
        with mpmath.workdps(40):
            expected = [float(_mp_log_nb_coef(mpmath.mpf(v), mpmath.mpf(n))) for v in ORACLE_COUNTS[1:]]
        np.testing.assert_allclose(got[1:], expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [1e-20, 1e-300])
    def test_nb_coefficient_at_a_vanishing_dispersion(self, n):
        # log1p(n - 1) would round n away; the first term is log n itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_nb_coef(ORACLE_COUNTS, n)
        with mpmath.workdps(40):
            expected = [float(_mp_log_nb_coef(mpmath.mpf(v), mpmath.mpf(n))) for v in ORACLE_COUNTS[1:]]
        np.testing.assert_allclose(got[1:], expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [1e-3, 0.37, 1.0, 2.5, 37.3, 999.0, 1e3, 1e6, 1e12])
    def test_gamma_gaps(self, n):
        digamma_gap, trigamma_gap = _gamma_gaps(ORACLE_COUNTS, n)
        assert digamma_gap[0] == 0.0 and trigamma_gap[0] == 0.0
        with mpmath.workdps(40):
            nm = mpmath.mpf(n)
            expected = [(float(mpmath.digamma(nm + v) - mpmath.digamma(nm)),
                         float(mpmath.polygamma(1, nm + v) - mpmath.polygamma(1, nm))) for v in ORACLE_COUNTS[1:]]
        np.testing.assert_allclose(digamma_gap[1:], [e[0] for e in expected], rtol=1e-12, atol=0)
        np.testing.assert_allclose(trigamma_gap[1:], [e[1] for e in expected], rtol=1e-12, atol=0)

    def test_zero_count_stays_zero_beside_counts_past_the_sums(self):
        # the series part is added to every level once any level passes the
        # sums, and must add exactly 0 at v = 0
        v = np.array([0.0, 3.0, 5e6])
        for n in (0.3, 4.0, 999.0):
            assert _log_nb_coef(v, n)[0] == 0.0
            assert [gap[0] for gap in _gamma_gaps(v, n)] == [0.0, 0.0]


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

    def test_only_an_rng_stream_is_accepted(self):
        with pytest.raises(ParameterError, match="RngStream"):
            nb_sample(np.random.default_rng(9), 3.0, 6.0, size=10)


class TestRngStream:
    def test_replay_is_identical(self):
        a = nb_sample(RngStream(7, 3), 3.0, 6.0, size=100)
        b = nb_sample(RngStream(7, 3), 3.0, 6.0, size=100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = nb_sample(RngStream(7, 0), 3.0, 4.0, size=1000)
        b = nb_sample(RngStream(7, 1), 3.0, 4.0, size=1000)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
    def test_negative_seed_or_stream_rejected(self, seed, stream):
        # numpy's SeedSequence would refuse it only when a generator is drawn
        with pytest.raises(ParameterError):
            RngStream(seed, stream)
