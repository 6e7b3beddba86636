"""How well do linear INGARCH moment formulas approximate the softplus model?

Closed-form moments of the softplus model are intractable, but since softplus
hugs ReLU the classical linear-model formulas evaluated at the same
coefficients come very close -- including for negative coefficients, where
the linear model itself would not even be well-defined as a count process.

This reproduces the moment-comparison exercise at desk scale (1e5 samples
instead of 1e6): "sp" columns are empirical moments of a simulated softplus
path, "lin" columns the linear-model formulas.
"""

from spingarch import (
    NEGBIN,
    SOFTPLUS_LINEAR,
    LinearParams,
    ModelSpec,
    RngStream,
    SimConfig,
    linear_acvf_general,
    linear_moments_11,
    moment_study,
)

CONFIGS = [
    # alpha0, alpha1, beta1  (n = 3 throughout; means 2, 6, 12)
    (0.6, 0.3, 0.4),
    (1.8, 0.3, 0.4),
    (3.6, 0.3, 0.4),
    (5.4, -0.3, 0.4),   # negative observation coefficient: negative ACF
    (6.6, 0.3, -0.4),   # negative feedback coefficient
]

spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, c=1.0)
grid = [
    SimConfig(spec=spec, params=LinearParams(a0, (a1,), (b1,), 3.0),
              length=100_000, burn_in=500, rng=RngStream(2024, i))
    for i, (a0, a1, b1) in enumerate(CONFIGS)
]

rows = moment_study(grid, max_lag=3)

header = f"{'params':>18} | {'mu sp':>7} {'mu lin':>7} | {'disp sp':>8} {'disp lin':>8} | {'rho1 sp':>8} {'rho1 lin':>8}"
print(header)
print("-" * len(header))
for (a0, a1, b1), row in zip(CONFIGS, rows):
    emp, lin = row.empirical, row.linear
    print(f"({a0:4.1f},{a1:5.2f},{b1:5.2f}) | {emp.mean:7.3f} {lin.mean:7.3f} | "
          f"{emp.dispersion:8.3f} {lin.dispersion:8.3f} | {emp.acf[0]:8.3f} {lin.acf[0]:8.3f}")

print("""
Notes: at small intercepts (first row) softplus curvature matters and the
approximation drifts; shrinking c improves it.  With moderate means the
columns agree to two or three decimals, which is what justifies using the
linear formulas as initial values for maximum likelihood.
""")

params = LinearParams(1.8, (0.3,), (0.4,), 3.0)
m = linear_moments_11(params, max_lag=5)
gx, glam = linear_acvf_general(params, max_lag=5)
print("closed form vs general autocovariance solver, rho(1..5):")
print("  closed form :", [f"{v:.4f}" for v in m.acf])
print("  acvf system :", [f"{v:.4f}" for v in gx[1:] / gx[0]])
