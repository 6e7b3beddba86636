"""Replacing the linear predictor with a single-hidden-layer network.

The conditional mean becomes g(1, X_{t-1}..X_{t-p}, lambda_{t-1}..lambda_{t-q})
where g is a feedforward network with logistic hidden units and a softplus
output unit.  The network weights take the place of the linear coefficients
everywhere: `negloglik`, `conditional_mean_path`, `simulate_path` and the
fitter `fit_cml` serve both links.  The likelihood gradient is exact, from
the same pass as the Hessian the fit steps on; when q > 0 the lagged
conditional means depend on the weights too, so the gradient is carried
through the recursion (a truncated gradient would be wrong, and the
finite-difference gate below would catch it).
"""

import warnings

import numpy as np

from spingarch import (
    NEURAL,
    POISSON,
    ModelSpec,
    NeuralWeights,
    OptimizerOptions,
    RngStream,
    SimConfig,
    fit_cml,
    negloglik,
    negloglik_and_grad,
    select_hidden_units,
    simulate_path,
    slfn_forward,
)

warnings.filterwarnings("ignore")

print("forward pass sanity: all-zero weights give f1(0) = ln 2")
w0 = NeuralWeights(np.zeros((3, 2)), np.zeros(2))
print(f"  g(1, x, lam) = {slfn_forward(w0, np.array([1.0, 9.0, 2.0])):.7f}")

print("\ngradient gate: exact gradient vs central finite differences (q = 1)")
rng = np.random.default_rng(5)
spec = ModelSpec(POISSON, NEURAL, 1, 1, hidden=2)
series = rng.integers(0, 9, 60)
flat = rng.uniform(-0.7, 0.7, spec.input_width * 2 + 2)
w = NeuralWeights.from_flat(flat, spec)
analytic = negloglik_and_grad(spec, w, series)[1]
numeric = np.empty_like(flat)
for i in range(flat.size):
    e = np.zeros(flat.size); e[i] = 1e-6
    numeric[i] = (
        negloglik(spec, NeuralWeights.from_flat(flat + e, spec), series)
        - negloglik(spec, NeuralWeights.from_flat(flat - e, spec), series)
    ) / 2e-6
err = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
print(f"  max relative error: {err:.2e}  (the exact gradient; the tests hold it below 1e-5)")

print("\ntrain on data from a known one-unit network")
gen_spec = ModelSpec(POISSON, NEURAL, 1, 0, hidden=1)
truth = NeuralWeights(np.array([[1.0], [0.25]]), np.array([2.2]))
path = simulate_path(SimConfig(spec=gen_spec, params=truth, length=500, rng=RngStream(3)))
fit = fit_cml(gen_spec, path, OptimizerOptions(restarts=5, seed=1))
print(f"  fitted loglik {fit.loglik:.3f} vs generating weights "
      f"{-negloglik(gen_spec, truth, path):.3f}")

print("\nhow many hidden units? let the information criteria decide")
best, fits = select_hidden_units(gen_spec, path, [1, 2, 3],
                                 OptimizerOptions(restarts=3, seed=2), criterion="bic")
for L, f in sorted(fits.items()):
    marker = "  <- selected" if L == best else ""
    print(f"  L={L}: loglik {f.loglik:9.3f}  AIC {f.aic:9.2f}  BIC {f.bic:9.2f}{marker}")
print("  extra units buy almost no likelihood here, so BIC picks the truth (L=1).")
