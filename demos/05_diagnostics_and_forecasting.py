"""Residual diagnostics and one-step-ahead forecasting.

Under a correctly specified model the Pearson residuals are approximately
white with unit variance.  Three checks make departures visible: the residual
ACF/PACF, and the cumulative periodogram against its Kolmogorov-Smirnov band.
Forecasts are rolling one-step conditional means with observed feedback; a
residual CSV export lets an external seasonal toolchain (e.g. a SARIMAX
stage) model any structure the count model leaves behind.
"""

import warnings

import numpy as np

from spingarch import (
    NEGBIN,
    SOFTPLUS_LINEAR,
    LinearParams,
    ModelSpec,
    OptimizerOptions,
    RngStream,
    SimConfig,
    cumulative_periodogram,
    dispersion_ratio,
    fit_cml,
    one_step_forecasts,
    pearson_residuals,
    rmse,
    sample_acf,
    sample_pacf,
    simulate_path,
)

warnings.filterwarnings("ignore")

spec = ModelSpec(NEGBIN, SOFTPLUS_LINEAR, 1, 1, c=1.0)
truth = LinearParams(1.8, (0.3,), (0.4,), 3.0)
path = simulate_path(SimConfig(spec=spec, params=truth, length=5000, rng=RngStream(11)))
print(f"series: mean {path.mean():.2f}, dispersion ratio {dispersion_ratio(path):.2f} "
      "(overdispersed, so the NB family is the right call)")

train, test_len = path[:4500], 500
fit = fit_cml(spec, train, OptimizerOptions(restarts=1, seed=0))
print(f"fit converged={fit.converged}, AIC {fit.aic:.1f}")

z = pearson_residuals(fit, train)
print(f"\nPearson residuals: mean {z.mean():+.4f}, variance {z.var(ddof=1):.4f}")
acf = sample_acf(z, 8)
pacf = sample_pacf(z, 8)
band = 4.0 / np.sqrt(z.size)
print(f"  lag   ACF      PACF    (white-noise band +/- {band:.3f})")
for h in range(8):
    flag = " *" if abs(acf[h]) > band else ""
    print(f"  {h + 1:3d} {acf[h]:+.4f}  {pacf[h]:+.4f}{flag}")

freqs, frac, ks_band = cumulative_periodogram(z)
uniform = np.arange(1, frac.size + 1) / frac.size
print(f"\ncumulative periodogram: max deviation from diagonal "
      f"{np.max(np.abs(frac - uniform)):.4f}, 5% KS band {ks_band:.4f}")

preds = one_step_forecasts(fit, path, test_len)
actual = path[4500:]
print(f"\none-step forecasts over the {test_len}-point test set:")
print(f"  model RMSE    : {rmse(preds, actual):.3f}")
print(f"  constant-mean : {rmse(np.full(test_len, train.mean()), actual):.3f}")

# residual export for an external hybrid stage (CSV column 'z')
out = "residuals_export.csv"
with open(out, "w") as fh:
    fh.write("z\n")
    fh.writelines(f"{float(v)!r}\n" for v in z)
print(f"\nwrote {z.size} residuals to {out}; feed them to a seasonal model if the")
print("correlogram shows structure at seasonal lags (hourly data: lag 24).")
