"""Softplus family, logistic and ReLU primitives."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from spingarch import logistic, relu, softplus, softplus_deriv, softplus_inverse
from spingarch.exceptions import ParameterError
from spingarch.special import expit


class TestSoftplusValues:
    def test_at_zero(self):
        assert softplus(0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert softplus(0.0, 0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_large_argument_tracks_identity(self):
        # ln(1 + e^50) = 50 + log1p(e^-50); the correction is ~1.9e-22
        assert abs(softplus(50.0, 1.0) - 50.0) < 1e-12

    def test_no_overflow_at_extreme_ratio(self):
        # |x/c| up to 1e6 and beyond must not overflow
        assert softplus(1e6, 1.0) == pytest.approx(1e6)
        assert softplus(-1e6, 1.0) == 0.0
        assert softplus(100.0, 1e-4) == pytest.approx(100.0)

    def test_monotone(self):
        xs = np.linspace(-40, 40, 2001)
        vals = softplus(xs, 0.7)
        assert np.all(np.diff(vals) > 0)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            softplus(np.inf, 1.0)
        with pytest.raises(ParameterError):
            softplus(1.0, 0.0)
        with pytest.raises(ParameterError):
            softplus(1.0, -2.0)


class TestSoftplusDeriv:
    def test_at_zero(self):
        assert softplus_deriv(0.0, 1.0) == 0.5

    def test_saturation(self):
        assert abs(softplus_deriv(40.0, 1.0) - 1.0) < 1e-15

    def test_logistic_value(self):
        # high-precision logistic evaluations, frozen
        assert softplus_deriv(1.0, 1.0) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_open_interval(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-30, 30, 1000)
        d = softplus_deriv(x, 1.3)
        assert np.all(d > 0) and np.all(d < 1)


class TestLogistic:
    def test_values(self):
        assert logistic(0.0) == 0.5
        assert logistic(0.5) == pytest.approx(0.6224593312018546, abs=1e-15)

    def test_symmetry(self):
        assert logistic(-2.3) == pytest.approx(1.0 - logistic(2.3), abs=1e-15)

    def test_derivative_identity(self):
        # f0'(x) = f0(x) (1 - f0(x)) against central differences
        xs = np.linspace(-8, 8, 200)
        h = 1e-6
        fd = (logistic(xs + h) - logistic(xs - h)) / (2 * h)
        np.testing.assert_allclose(logistic(xs) * (1 - logistic(xs)), fd, atol=1e-9)


class TestExpit:
    def test_against_mpmath(self):
        x = np.array([-745.0, -700.0, -300.0, -40.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 40.0, 300.0, 700.0])
        with mpmath.workdps(40):
            expected = [float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in x]
        np.testing.assert_allclose(expit(x), expected, rtol=4.5e-16, atol=0)

    def test_tails_raise_no_warning(self):
        # exp(800) overflows; exp(-800) underflows to exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(expit(np.array([-800.0, 800.0])), [0.0, 1.0])
            assert expit(-800.0) == 0.0 and expit(800.0) == 1.0


class TestRelu:
    @pytest.mark.parametrize("x,expected", [(-3.0, 0.0), (3.0, 3.0), (0.0, 0.0)])
    def test_values(self, x, expected):
        assert relu(x) == expected


class TestSoftplusInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0.01, 50, 500)
        np.testing.assert_allclose(softplus(softplus_inverse(y, 0.8), 0.8), y, rtol=1e-12)

    @pytest.mark.parametrize("y", [5e-324, 1e-300, 1e-20, 50.0, 1e300])
    def test_extremes_raise_no_warning(self, y):
        # each branch runs only on its own entries: the large-y form at
        # y = 1e-20 took log1p(-1) and warned, though its value was discarded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = softplus_inverse(y)
            both = softplus_inverse(np.array([y, 1.0, 40.0]))
        assert x == both[0]
        assert x == (y if y >= 50.0 else pytest.approx(math.log(y), rel=1e-15))


class TestSoftplusProperties:
    """Randomized property suite over c in (0, 4], x in [-100, 100]."""

    N = 10_000

    def _draw(self, seed=12345):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-100, 100, self.N)
        c = rng.uniform(0, 4, self.N)
        c[c == 0] = 1e-3
        return x, c

    def test_relu_sandwich(self):
        x, c = self._draw()
        sp = np.array([softplus(xi, ci) for xi, ci in zip(x, c)])
        r = np.maximum(0.0, x)
        assert np.all(sp <= c * math.log(2.0) + r + 1e-12)
        assert np.all(sp >= r)
        # the left inequality is mathematically strict; float64 saturates once
        # the gap c*log1p(exp(-|x|/c)) falls below one ulp of x, so strictness
        # is only assertable away from saturation
        gap_representable = c * np.exp(-np.abs(x) / c) > 8 * np.spacing(np.maximum(np.abs(x), 1.0))
        assert np.all(sp[gap_representable] > r[gap_representable])
        assert gap_representable.sum() > self.N // 2

    def test_lipschitz(self):
        x, c = self._draw(777)
        x2 = np.random.default_rng(778).uniform(-100, 100, self.N)
        for xi, xj, ci in zip(x[:2000], x2[:2000], c[:2000]):
            lhs = abs(softplus(xi, ci) - softplus(xj, ci))
            assert lhs <= abs(xi - xj) * (1 + 1e-12) + 1e-12

    def test_deriv_matches_finite_difference(self):
        x, c = self._draw(999)
        for xi, ci in zip(x[:2000], c[:2000]):
            # step balances roundoff against truncation; dividing by the
            # realized spacing removes the x +/- h rounding error
            h = 1e-4 * ci + 1e-8 * abs(xi)
            xp, xm = xi + h, xi - h
            fd = (softplus(xp, ci) - softplus(xm, ci)) / (xp - xm)
            d = softplus_deriv(xi, ci)
            if d < 1e-300 and fd == 0.0:
                continue
            assert abs(fd - d) <= 1e-6 * max(d, 1e-300)

    def test_relu_limit_as_c_shrinks(self):
        x, _ = self._draw(555)
        for c in (1e-1, 1e-3, 1e-6, 1e-8):
            sp = np.array([softplus(xi, c) for xi in x[:2000]])
            assert np.all(np.abs(sp - np.maximum(0.0, x[:2000])) <= c * math.log(2.0) + 1e-15)
