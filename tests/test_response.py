"""The response contract: one table of cases for both links, `CASES`, and one test
per property of the interface that `LinearParams` and `NeuralWeights` share.  Each
row is (id, spec, params), drawn from a fixed seed, and runs on one series.  The
oracles share no code with the recursions: `oracle_means` evaluates each step's
input row (1, x_{t-1..t-p}, lambda_{t-1..t-q}) with `special` alone, and
`oracle_loglik` sums log pmfs term by term.  A new response type gets every check
by adding rows.  `COVERAGE` names the tests of each interface method, and a method
without one fails.  The derivative hand cases that need `central_differences` live here too."""

import ast
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from spingarch import (NEGBIN, NEURAL, POISSON, SOFTPLUS_LINEAR, LinearParams, ModelSpec, NeuralWeights, RngStream,
                       SimConfig, conditional_mean_path, negloglik, negloglik_and_grad, simulate_path, slfn_forward)
from spingarch.data import CountSeries
from spingarch.estimate import _Point
from spingarch.exceptions import ParameterError
from spingarch.special import expit, softplus
from test_layout import SRC, _public_methods

ORDERS = [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)]
FAMILIES = {POISSON: "pois", NEGBIN: "nb"}


def _linear(seed, family, p, q, c):
    """Coefficients below 0.8 / (p + q) in size: the first-order condition holds, and paths stay bounded."""
    rng, scale = np.random.default_rng(seed), 0.8 / (p + q)
    return (f"sp-{FAMILIES[family]}({p},{q})-c{c:g}", ModelSpec(family, SOFTPLUS_LINEAR, p, q, c),
            LinearParams(rng.uniform(-1.0, 2.0), tuple(rng.uniform(-scale, scale, p)),
                         tuple(rng.uniform(-scale, scale, q)), rng.uniform(1.0, 5.0) if family == NEGBIN else None))


def _network(seed, family, p, q, L):
    rng = np.random.default_rng(seed)
    return (f"neu-{FAMILIES[family]}({p},{q})-L{L}", ModelSpec(family, NEURAL, p, q, hidden=L),
            NeuralWeights(rng.uniform(-0.8, 0.8, (p + q + 1, L)), rng.uniform(-2.0, 2.0, L),
                          rng.uniform(1.0, 5.0) if family == NEGBIN else None))


def _saturated():
    """A network whose third unit saturates far past +-800, where an unsplit
    1 / (1 + exp(-a)) overflows."""
    rng = np.random.default_rng(5)
    u0 = np.column_stack([rng.normal(scale=0.5, size=(3, 2)), [-40.0, 300.0, -300.0]])
    return "saturated", ModelSpec(POISSON, NEURAL, 2, 0, hidden=3), NeuralWeights(u0, rng.normal(scale=1.5, size=3))


LINEAR = [*product(FAMILIES, ORDERS, (1.0, 0.8)), *product(FAMILIES, [(1, 1), (1, 2)], (0.7,))]
CASES = [_linear(seed, family, p, q, c) for seed, (family, (p, q), c) in enumerate(LINEAR)]
CASES += [_network(100 + seed, family, p, q, L)
          for seed, (family, (p, q), L) in enumerate(product(FAMILIES, ORDERS, (1, 2, 3)))]
CASES += [_saturated()]

SERIES = np.random.default_rng(0).integers(0, 10, 80)
GAMMAS = np.random.default_rng(1).gamma(2.0, 0.5, SERIES.size)

each_case = pytest.mark.parametrize("spec, params", [case[1:] for case in CASES], ids=[case[0] for case in CASES])


def oracle_means(spec, params, x, init):
    """lambda_1..lambda_s along the counts x, each from its input row
    (1, x_{t-1..t-p}, lambda_{t-1..t-q}) by `special` alone, with `init`
    standing in for counts and means before the first step."""
    counts, means = [init] * spec.p + list(x), [init] * spec.q
    linear = isinstance(params, LinearParams)
    theta = np.array([params.alpha0, *params.alpha, *params.beta]) if linear else None
    for t in range(len(x)):
        row = np.array([1.0, *counts[t : t + spec.p][::-1], *means[t : t + spec.q][::-1]])
        means.append(softplus(row @ theta, spec.c) if linear else softplus(expit(row @ params.u0) @ params.u1))
    return np.array(means[spec.q :])


def oracle_loglik(x, lam, n):
    """The log-likelihood as a sum of per-step log pmfs, the NB coefficient as
    its rising-factorial sum; n None for Poisson."""
    total = 0.0
    for xt, m in zip(x.tolist(), lam.tolist()):
        if n is None:
            total += xt * math.log(m) - m - math.lgamma(xt + 1.0)
        else:
            rising = sum(math.log(v + n - 1.0) for v in range(1, int(xt) + 1))
            total += xt * math.log(m / n) - (n + xt) * math.log(1.0 + m / n) + rising - math.lgamma(xt + 1.0)
    return total


def chain_means(spec, params, x):
    """The means of a chain from `chain_start` run along the counts x: the mean path from that
    presample, or for a linear q = 0 chain a scalar loop with math's exp and log1p, which
    numpy's vectorised ones may not match to the last bit."""
    start = params.chain_start(spec)
    if spec.q or isinstance(params, NeuralWeights):
        return conditional_mean_path(spec, params, x, presample=start)
    c, xs, lam = spec.c, [start] * spec.p + x.tolist(), []
    for t in range(x.size):
        e = params.alpha0
        for i, a in enumerate(params.alpha, 1):
            e += a * xs[t + spec.p - i]
        lam.append(e + c * math.log1p(math.exp(-e / c)) if e > 0.0 else c * math.log1p(math.exp(e / c)))
    return np.array(lam)


def recorded_draws(params, spec, series, mixing):
    """The arguments of `params.draw_path`'s draws when each draw returns the
    next count of `series`, so that the chain runs along the series."""
    means, counts = [], iter(series)
    assert params.draw_path(spec, lambda mean: means.append(mean) or next(counts), mixing) == list(series)
    return np.array(means)


def central_differences(f, theta, step):
    """(f(theta + h e_i) - f(theta - h e_i)) / 2h for each coordinate i, with
    h = step * max(1, |theta_i|): a vector for scalar f, rows for vector f."""
    steps = np.diag(step * np.maximum(1.0, np.abs(theta)))
    return np.array([(f(theta + e) - f(theta - e)) / (2 * e[i]) for i, e in enumerate(steps)])


def relative_error(exact, differences):
    return np.max(np.abs(exact - differences)) / max(1.0, np.max(np.abs(differences)))


def other_specs(spec):
    """Specs that differ from `spec` in link, in one order or in family, and
    for a network in its hidden units."""
    if spec.link == NEURAL:
        others = [ModelSpec(spec.family, SOFTPLUS_LINEAR, spec.p, spec.q), replace(spec, hidden=spec.hidden + 1)]
    else:
        others = [ModelSpec(spec.family, NEURAL, spec.p, spec.q, hidden=1)]
    family = POISSON if spec.family == NEGBIN else NEGBIN
    return others + [replace(spec, p=spec.p + 1), replace(spec, q=spec.q + 1), replace(spec, family=family)]


@each_case
@pytest.mark.parametrize("series, presample", [(SERIES, None), (SERIES, 2.5), (np.zeros(40, dtype=int), None)],
                         ids=["default", "explicit", "floored"])
def test_mean_path_matches_the_row_oracle(spec, params, series, presample):
    # the default presample is the sample mean floored at 1e-4
    init = max(series.mean(), 1e-4) if presample is None else presample
    lam = conditional_mean_path(spec, params, series, presample=presample)
    rtol = 1e-12 if spec.link == NEURAL and spec.q else 1e-14
    np.testing.assert_allclose(lam, oracle_means(spec, params, series, init), rtol=rtol, atol=0)
    assert np.all(lam > 0)


def test_the_saturated_row_saturates():
    pre = np.column_stack([np.ones(SERIES.size - 2), SERIES[1:-1], SERIES[:-2]]) @ CASES[-1][2].u0
    assert pre.min() <= -800 and pre.max() >= 800


@each_case
def test_draw_path_replays_the_series(spec, params):
    # each draw returns the next count, so the chain draws at the series' own means
    # from `chain_start`; Poisson parameters take n = 1 and every g = 1
    n, g = (1.0, np.ones(SERIES.size)) if params.n is None else (params.n, GAMMAS)
    means = recorded_draws(params, spec, SERIES, g.tolist())
    # exact but where the network's vectorised q = 0 path meets its scalar loop
    rtol = 1e-14 if spec.link == NEURAL and not spec.q else 0.0
    np.testing.assert_allclose(means, (chain_means(spec, params, SERIES) / n) * g, rtol=rtol, atol=0)


@each_case
def test_chain_start_follows_its_rule(spec, params):
    if spec.link == NEURAL:  # the network's output at the unit row
        unit = np.eye(spec.input_width)[0]
        assert params.chain_start(spec) == slfn_forward(params, unit)
        assert params.chain_start(spec) == pytest.approx(softplus(expit(unit @ params.u0) @ params.u1), 1e-14, 0)
        return
    # the softplus of alpha0 / (1 - cbar) when cbar < 1, else of alpha0, where
    # cbar sums the positive parts of the coefficients; alpha1 = 1 forces cbar >= 1
    for each in (params, replace(params, alpha=(1.0, *params.alpha[1:]))):
        cbar = sum(max(v, 0.0) for v in (*each.alpha, *each.beta))
        level = each.alpha0 / (1.0 - cbar) if cbar < 1.0 else each.alpha0
        assert each.chain_start(spec) == pytest.approx(softplus(level, spec.c), rel=1e-14, abs=0)


@each_case
def test_simulate_path_redraws_from_its_own_means(spec, params):
    # every NB gamma first, then one Poisson draw per step at (lambda_t / n) g_t
    path = simulate_path(SimConfig(spec=spec, params=params, length=200, burn_in=0, rng=RngStream(23)))
    lam = chain_means(spec, params, path)
    gen = RngStream(23).generator()
    if params.n is not None:
        lam = (lam / params.n) * gen.standard_gamma(params.n, size=path.size)
    np.testing.assert_array_equal(path, gen.poisson(lam))
    later = simulate_path(SimConfig(spec=spec, params=params, length=150, burn_in=50, rng=RngStream(23)))
    np.testing.assert_array_equal(later, path[50:])


@each_case
def test_flat_layouts_sizes_and_specs(spec, params):
    kind, nb = type(params), params.n is not None
    natural = [params.alpha0, *params.alpha, *params.beta] if kind is LinearParams else [*params.u0.ravel(), *params.u1]
    np.testing.assert_array_equal(params.to_flat(log_n=False), natural + [params.n] * nb)
    np.testing.assert_array_equal(params.to_flat(), natural + ([math.log(params.n)] if nb else []))
    assert params.k() == len(natural) + nb
    for log_n in (False, True):  # exp(ln n) may miss n by an ulp
        back = kind.from_flat(params.to_flat(log_n=log_n), spec, log_n=log_n)
        np.testing.assert_allclose(back.to_flat(log_n=False), params.to_flat(log_n=False),
                                   rtol=1e-15 if log_n else 0.0, atol=0)
    for flat in (params.to_flat()[:-1], np.append(params.to_flat(), 0.5)):
        with pytest.raises(ParameterError):
            kind.from_flat(flat, spec)
    for other in other_specs(spec):
        with pytest.raises(ParameterError):
            conditional_mean_path(other, params, SERIES)


@each_case
def test_negloglik_matches_the_term_by_term_oracle(spec, params):
    lam = oracle_means(spec, params, SERIES, max(SERIES.mean(), 1e-4))
    assert negloglik(spec, params, SERIES) == pytest.approx(-oracle_loglik(SERIES, lam, params.n), rel=1e-9)


@each_case
def test_exact_derivatives_match_central_differences(spec, params):
    # in ln n, from one set of steps: the gradient against differences of the
    # value, the Hessian against those of the gradient; the network's q >= 1 gradient at 1e-5
    kind, series = type(params), CountSeries(SERIES)
    value, grad = negloglik_and_grad(spec, params, series)
    assert value == negloglik(spec, params, series)
    differences = central_differences(lambda t: np.append(*negloglik_and_grad(spec, kind.from_flat(t, spec), series)),
                                      params.to_flat(), 1e-5)
    assert relative_error(grad, differences[:, 0]) < (1e-5 if spec.link == NEURAL and spec.q else 1e-6)
    H = _Point(spec, params, series).derivatives()[1]
    hessian = (differences[:, 1:] + differences[:, 1:].T) / 2
    assert np.max(np.abs(H - hessian)) / np.max(np.abs(hessian)) < 1e-6


def test_zero_point_hand_chain_rule():
    # at all-zero weights: hidden activations 0.5, f1'(0) = 0.5, so each u1
    # component is -sum(x/ln2 - 1) * 0.5 * 0.5
    spec = ModelSpec(POISSON, NEURAL, 1, 0, hidden=2)
    x = np.array([0, 1, 2, 3, 1])
    w = NeuralWeights(np.zeros((2, 2)), np.zeros(2))
    grad = negloglik_and_grad(spec, w, x)[1]
    np.testing.assert_allclose(grad[4:6], -np.sum(x / math.log(2.0) - 1.0) * 0.25, rtol=1e-12)
    differences = central_differences(lambda t: negloglik(spec, NeuralWeights.from_flat(t, spec), x),
                                      w.to_flat(), 1e-6)
    np.testing.assert_allclose(grad, differences, atol=1e-7)


def test_truncated_gradient_would_fail():
    # the q = 1 gate has teeth: ignoring the recursive dependence on the
    # lagged means gives a materially different gradient
    rng = np.random.default_rng(12)
    spec = ModelSpec(POISSON, NEURAL, 1, 1, hidden=1)
    series = rng.integers(0, 8, 40)
    flat = rng.uniform(-0.8, 0.8, 4)  # K*L + L with K=3, L=1
    w = NeuralWeights.from_flat(flat, spec)
    full = negloglik_and_grad(spec, w, series)[1]
    differences = central_differences(lambda t: negloglik(spec, NeuralWeights.from_flat(t, spec), series), flat, 1e-6)

    # truncated variant: differentiate treating lagged lambdas as data
    lam = conditional_mean_path(spec, w, series)
    xbar = max(series.mean(), 1e-4)
    B = np.column_stack([np.ones(40), np.r_[xbar, series[:-1]], np.r_[xbar, lam[:-1]]])
    H = expit(B @ w.u0)
    outer = (series / lam - 1.0) * expit(H @ w.u1)
    truncated = -np.concatenate([(B.T @ (H * (1 - H) * w.u1 * outer[:, None])).ravel(), H.T @ outer])
    assert relative_error(full, differences) < 1e-6
    assert relative_error(truncated, differences) > 1e-3


@pytest.mark.parametrize("size", [1, 2, 3])
def test_series_not_longer_than_q(size):
    # only pre-sample means feed back; the lag taps past the end are zero
    spec = ModelSpec(POISSON, SOFTPLUS_LINEAR, 1, 3)
    params = LinearParams(1.0, (0.2,), (0.3, -0.2, 0.1))
    series = np.array([4, 1, 6][:size])
    grad = negloglik_and_grad(spec, params, series)[1]
    differences = central_differences(lambda t: negloglik(spec, LinearParams.from_flat(t, spec), series),
                                      params.to_flat(), 1e-6)
    np.testing.assert_allclose(grad, differences, rtol=1e-6, atol=1e-9)


# The contract tests that exercise each method of the shared interface.
COVERAGE = {
    "check": [test_flat_layouts_sizes_and_specs],
    "mean_path": [test_mean_path_matches_the_row_oracle, test_negloglik_matches_the_term_by_term_oracle],
    "draw_path": [test_draw_path_replays_the_series, test_simulate_path_redraws_from_its_own_means],
    "hessian_parts": [test_exact_derivatives_match_central_differences],
    "chain_start": [test_chain_start_follows_its_rule, test_draw_path_replays_the_series],
    "to_flat": [test_flat_layouts_sizes_and_specs, test_exact_derivatives_match_central_differences],
    "from_flat": [test_flat_layouts_sizes_and_specs, test_exact_derivatives_match_central_differences],
    "k": [test_flat_layouts_sizes_and_specs],
}


def _coverage_gaps(tree, coverage):
    """The public methods that both response types of a parsed model define and
    `coverage` maps to no test, then the keys it maps that they do not both define."""
    shared = _public_methods(tree, "LinearParams") & _public_methods(tree, "NeuralWeights")
    return sorted(m for m in shared if not coverage.get(m)), sorted(coverage.keys() - shared)


def test_every_interface_method_has_contract_tests():
    path = SRC / "model.py"
    assert _coverage_gaps(ast.parse(path.read_text(encoding="utf-8"), str(path)), COVERAGE) == ([], [])


def test_coverage_check_has_teeth():
    shared = "".join(f"    def {name}(self):\n        pass\n" for name in ("k", "vjp", "chain_start"))
    source = f"class LinearParams:\n{shared}    def only_linear(self):\n        pass\nclass NeuralWeights:\n{shared}"
    coverage = {"k": [test_flat_layouts_sizes_and_specs], "chain_start": [], "gone": [test_zero_point_hand_chain_rule]}
    assert _coverage_gaps(ast.parse(source), coverage) == (["chain_start", "vjp"], ["gone"])
