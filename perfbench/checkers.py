"""Reference checkers for the benchmark, written apart from `spingarch`.

Everything here recomputes what the program should have produced with plain
numpy/scipy: the softplus recursion through `np.logaddexp`, the log-pmfs
through `scipy.stats`, the ACF/PACF through numpy and a Yule-Walker solve,
the closed-form linear (1,1) moments from the paper, and the network forward
pass.  Nothing imports `spingarch`, so a fault in the program cannot hide
itself by also breaking its own check.

The `check_*` functions return a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

# The conditional likelihood replaces pre-sample values by the sample mean,
# floored away from zero so an all-zeros series still gives lambda > 0.
MEAN_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# Reading the program's outputs


def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_doc(text: str) -> Dict[str, object]:
    """Parse the program's indented `key: value` documents into nested dicts."""
    root: Dict[str, object] = {}
    stack = [(-1, root)]
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        body = raw.lstrip(" ")
        depth = (len(raw) - len(body)) // 2
        while stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1]
        if body.endswith(":"):
            child: Dict[str, object] = {}
            parent[body[:-1]] = child
            stack.append((depth, child))
            continue
        key, _, value = body.partition(":")
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1]
            parent[key] = [_scalar(v) for v in inner.split(",")] if inner else []
        else:
            parent[key] = _scalar(value)
    return root


def read_csv_rows(text: str) -> List[Dict[str, str]]:
    """Rows of a CSV with `#` comment lines and a header, as dicts of strings."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_counts(text: str) -> np.ndarray:
    return np.asarray([float(row["count"]) for row in read_csv_rows(text)])


# ---------------------------------------------------------------------------
# Recomputation


def softplus(eta, c: float = 1.0):
    """c ln(1 + exp(eta / c)) through logaddexp, stable for any finite eta."""
    return c * np.logaddexp(0.0, np.asarray(eta, dtype=float) / c)


def presample(x: np.ndarray) -> float:
    return max(float(np.mean(x)), MEAN_FLOOR)


def linear_lambda(x, alpha0: float, alpha: Sequence[float], beta: Sequence[float], c: float = 1.0,
                  init_x: Optional[float] = None, init_lam: Optional[float] = None) -> np.ndarray:
    """lambda_t = sp(alpha0 + sum alpha_i x_{t-i} + sum beta_j lambda_{t-j})."""
    x = np.asarray(x, dtype=float)
    p, q = len(alpha), len(beta)
    ix = presample(x) if init_x is None else init_x
    il = ix if init_lam is None else init_lam
    xs = np.concatenate([np.full(p, ix), x])
    if q == 0:
        eta = np.full(x.size, float(alpha0))
        for i in range(1, p + 1):
            eta += alpha[i - 1] * xs[p - i : p - i + x.size]
        return softplus(eta, c)
    lam = np.concatenate([np.full(q, il), np.empty(x.size)])
    for t in range(x.size):
        eta = alpha0
        for i in range(1, p + 1):
            eta += alpha[i - 1] * xs[p + t - i]
        for j in range(1, q + 1):
            eta += beta[j - 1] * lam[q + t - j]
        lam[q + t] = softplus(eta, c)
    return lam[q:]


def network(u0: np.ndarray, u1: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Softplus output of a logistic hidden layer, for rows of inputs."""
    hidden = 1.0 / (1.0 + np.exp(-(inputs @ u0)))
    return softplus(hidden @ u1)


def neural_lambda(x, u0: np.ndarray, u1: np.ndarray, p: int, q: int,
                  init: Optional[float] = None) -> np.ndarray:
    """Network response fed (1, x lags, lambda lags); its own outputs when q > 0."""
    x = np.asarray(x, dtype=float)
    start = presample(x) if init is None else init
    xs = np.concatenate([np.full(p, start), x])
    if q == 0:
        cols = [np.ones(x.size)] + [xs[p - i : p - i + x.size] for i in range(1, p + 1)]
        return network(u0, u1, np.column_stack(cols))
    lam = np.concatenate([np.full(q, start), np.empty(x.size)])
    for t in range(x.size):
        inputs = np.concatenate([[1.0], xs[p + t - np.arange(1, p + 1)], lam[q + t - np.arange(1, q + 1)]])
        lam[q + t] = network(u0, u1, inputs[None, :])[0]
    return lam[q:]


def loglik(x, lam, family: str, n: Optional[float] = None) -> float:
    # imported here: scipy.stats takes most of a second to load, which would
    # otherwise land in the benchmark's set-up time
    from scipy import stats

    x = np.asarray(x, dtype=float)
    if family == "poisson":
        return float(np.sum(stats.poisson.logpmf(x, lam)))
    return float(np.sum(stats.nbinom.logpmf(x, n, n / (n + lam))))


def pearson(x, lam, family: str, n: Optional[float] = None) -> np.ndarray:
    var = lam if family == "poisson" else lam * (1.0 + lam / n)
    return (np.asarray(x, dtype=float) - lam) / np.sqrt(var)


def acf(z, max_lag: int) -> np.ndarray:
    """Sample autocorrelations with the divisor-N autocovariance."""
    d = np.asarray(z, dtype=float) - np.mean(z)
    full = np.correlate(d, d, mode="full")[d.size - 1 :]
    return full[1 : max_lag + 1] / full[0]


def pacf(z, max_lag: int) -> np.ndarray:
    """Partial autocorrelations: last coefficient of each Yule-Walker system."""
    rho = np.concatenate([[1.0], acf(z, max_lag)])
    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        toeplitz = rho[np.abs(np.subtract.outer(np.arange(k), np.arange(k)))]
        out[k - 1] = np.linalg.solve(toeplitz, rho[1 : k + 1])[-1]
    return out


def linear_moments_11(alpha0: float, a: float, b: float, n: Optional[float], family: str,
                      max_lag: int):
    """Mean, dispersion and ACF of the linear INGARCH(1,1) approximation.

    mu = alpha0/(1-a-b); Var = mu (1 + mu/n) (1-2ab-b^2)/(1-(1+1/n)a^2-2ab-b^2);
    rho(h) = a (a+b)^(h-1) (1-ab-b^2)/(1-2ab-b^2).  Poisson: 1/n = 0.
    """
    inv_n = 0.0 if family == "poisson" else 1.0 / n
    mu = alpha0 / (1.0 - a - b)
    var = mu * (1.0 + mu * inv_n) * (1.0 - 2 * a * b - b * b) / (1.0 - (1.0 + inv_n) * a * a - 2 * a * b - b * b)
    rho = np.array([a * (a + b) ** (h - 1) * (1.0 - a * b - b * b) / (1.0 - 2 * a * b - b * b)
                    for h in range(1, max_lag + 1)])
    return mu, var / mu, rho


# ---------------------------------------------------------------------------
# Checks


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))) if a.size else 0.0


def _close(name: str, got, want, rtol: float, problems: List[str], atol: float = 0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape} != {want.shape}")
    elif not np.all(np.abs(got - want) <= atol + rtol * np.abs(want)):
        problems.append(f"{name}: off by {_rel_err(got, want):.3g} relative (tolerance {rtol:g})")


class _Model:
    """A fitted model from a fit tree, with a reference log-likelihood."""

    def __init__(self, tree: Dict[str, object]):
        est = tree["estimates"]
        self.family = tree["family"]
        self.p, self.q, self.c = int(tree["p"]), int(tree["q"]), float(tree["c"])
        self.neural = est["kind"] == "neural"
        n = [float(est["n"])] if "n" in est else []
        if self.neural:
            self.K, self.L = int(est["K"]), int(est["L"])
            self.theta = np.asarray(list(est["weights"]) + n, dtype=float)
        else:
            self.theta = np.asarray([est["alpha0"], *est["alpha"], *est["beta"], *n], dtype=float)

    def n(self, theta) -> Optional[float]:
        return float(theta[-1]) if self.family == "negbin" else None

    def lam(self, theta, x, **init) -> np.ndarray:
        if self.neural:
            K, L = self.K, self.L
            return neural_lambda(x, theta[: K * L].reshape(K, L), theta[K * L : K * L + L],
                                 self.p, self.q, **init)
        p, q = self.p, self.q
        return linear_lambda(x, theta[0], theta[1 : 1 + p], theta[1 + p : 1 + p + q], self.c, **init)

    def loglik(self, theta, x) -> float:
        return loglik(x, self.lam(theta, x), self.family, self.n(theta))


def check_fit(tree: Dict[str, object], x) -> List[str]:
    """A fit tree against a recomputation on its series.

    The fit must have converged; its lambda path and log-likelihood must match
    the recomputation to 1e-9 relative; AIC and BIC must follow from the
    log-likelihood, k and s; and no single-coordinate perturbation of the
    estimates may raise the recomputed log-likelihood.
    """
    problems: List[str] = []
    x = np.asarray(x, dtype=float)
    model = _Model(tree)
    if tree["converged"] is not True:
        problems.append("fit did not converge")
    if int(tree["s"]) != x.size:
        problems.append(f"s = {tree['s']} but the series has {x.size} points")
        return problems
    lam = model.lam(model.theta, x)
    _close("lambda_path", tree["lambda_path"], lam, 1e-9, problems)
    ll = model.loglik(model.theta, x)
    _close("loglik", tree["loglik"], ll, 1e-9, problems)
    k = model.theta.size
    if int(tree["k"]) != k:
        problems.append(f"k = {tree['k']}, expected {k}")
    _close("aic", tree["aic"], -2.0 * ll + 2.0 * k, 1e-9, problems)
    _close("bic", tree["bic"], -2.0 * ll + k * math.log(x.size), 1e-9, problems)
    ll_fit = float(tree["loglik"])
    for i, value in enumerate(model.theta):
        step = 1e-3 * max(1.0, abs(value))
        for sign in (-1.0, 1.0):
            theta = model.theta.copy()
            theta[i] += sign * step
            if model.family == "negbin" and theta[-1] <= 0.0:
                continue
            moved = model.loglik(theta, x)
            if moved > ll_fit + 1e-9 * abs(ll_fit):
                problems.append(f"moving coordinate {i} by {sign * step:+.3g} raises the log-likelihood "
                                f"by {moved - ll_fit:.3g}")
    return problems


def check_recovery(tree: Dict[str, object], truth: Sequence[float], n_se: float = 5.0) -> List[str]:
    """Estimates of a correctly specified linear fit lie within n_se standard errors of the truth."""
    problems: List[str] = []
    theta = _Model(tree).theta
    se = np.asarray(tree["std_errors"], dtype=float)
    truth = np.asarray(truth, dtype=float)
    if se.shape != truth.shape or not np.all(np.isfinite(se)) or np.any(se <= 0):
        return [f"standard errors {se.tolist()} unusable for a recovery check"]
    for i, (est, true, err) in enumerate(zip(theta, truth, se)):
        if abs(est - true) > n_se * err:
            problems.append(f"parameter {i}: estimate {est:.4g} is {abs(est - true) / err:.1f} "
                            f"standard errors from the truth {true:.4g}")
    return problems


def check_selection(doc: Dict[str, object], x) -> List[str]:
    """A multi-model fit document: every fit checks, and `best` has the lowest AIC."""
    problems: List[str] = []
    fits = doc["fits"]
    for label, tree in fits.items():
        problems += [f"{label}: {p}" for p in check_fit(tree, x)]
    best = min(fits, key=lambda label: fits[label]["aic"])
    if doc["selection"]["best"] != best:
        problems.append(f"best is {doc['selection']['best']}, lowest AIC is {best}")
    return problems


def check_diagnostics(fit_tree: Dict[str, object], x, residuals_csv: str, correlogram_csv: str,
                      periodogram_csv: str) -> List[str]:
    """Residual, correlogram and periodogram files of `diagnose`."""
    x = np.asarray(x, dtype=float)
    problems = check_fit(fit_tree, x)
    model = _Model(fit_tree)
    z = pearson(x, model.lam(model.theta, x), model.family, model.n(model.theta))
    got = np.asarray([float(r["z"]) for r in read_csv_rows(residuals_csv)])
    _close("residuals", got, z, 1e-9, problems, atol=1e-9)
    rows = read_csv_rows(correlogram_csv)
    lags = len(rows)
    if [int(r["lag"]) for r in rows] != list(range(1, lags + 1)):
        problems.append("correlogram lags are not 1..H")
    _close("acf", [float(r["acf"]) for r in rows], acf(z, lags), 0.0, problems, atol=1e-9)
    _close("pacf", [float(r["pacf"]) for r in rows], pacf(z, lags), 0.0, problems, atol=1e-9)
    fractions = np.asarray([float(r["cumulative_fraction"]) for r in read_csv_rows(periodogram_csv)])
    if fractions.size != (x.size - 1) // 2:
        problems.append(f"periodogram has {fractions.size} ordinates, expected {(x.size - 1) // 2}")
    elif np.any(np.diff(fractions) < 0.0) or abs(fractions[-1] - 1.0) > 1e-12:
        problems.append("periodogram fractions are not non-decreasing up to 1")
    return problems


def check_forecast(doc: Dict[str, object], x) -> List[str]:
    """A forecast document: the training fit, the one-step forecasts and the RMSE."""
    x = np.asarray(x, dtype=float)
    fc = doc["forecast"]
    split = int(fc["split"])
    problems = check_fit(doc["fit"], x[:split])
    model = _Model(doc["fit"])
    start = presample(x[:split])
    lam = model.lam(model.theta, x, init=start) if model.neural else \
        model.lam(model.theta, x, init_x=start, init_lam=start)
    want = lam[split:]
    if int(fc["horizon"]) != x.size - split or list(fc["actuals"]) != [int(v) for v in x[split:]]:
        problems.append("forecast horizon or actuals do not match the held-out series")
        return problems
    _close("forecasts", fc["forecasts"], want, 1e-9, problems)
    _close("rmse", fc["rmse"], math.sqrt(float(np.mean((want - x[split:]) ** 2))), 1e-9, problems)
    return problems


def check_moments(rows: List[Dict[str, str]], family: str, near_identity: Sequence[bool],
                  length: int) -> List[str]:
    """The `moments` table: closed-form columns exact, simulated columns near them.

    On rows where softplus is close to the identity the simulated mean and
    lag-1 ACF must lie within 6 of their approximate standard errors of the
    closed form; on rows with alpha1 < 0 the simulated lag-1 ACF must be negative.
    """
    problems: List[str] = []
    for idx, (row, identity) in enumerate(zip(rows, near_identity), start=1):
        a0, a1, b1 = float(row["alpha0"]), float(row["alpha1"]), float(row["beta1"])
        n = float(row["n"]) if row["n"] else None
        lags = sum(1 for key in row if key.startswith("lin_acf"))
        mu, disp, rho = linear_moments_11(a0, a1, b1, n, family, lags)
        if row["flagged"] != "false":
            problems.append(f"row {idx}: flagged")
            continue
        got = [float(row["lin_mean"]), float(row["lin_dispersion"])] + \
            [float(row[f"lin_acf{h}"]) for h in range(1, lags + 1)]
        _close(f"row {idx} closed-form moments", got, [mu, disp, *rho], 1e-9, problems)
        sp_mean, sp_acf1 = float(row["sp_mean"]), float(row["sp_acf1"])
        if identity:
            # long-run variance of the mean and the Bartlett variance of rho(1)
            # of a geometric ACF, both over `length` points
            ratio = a1 + b1
            mean_se = math.sqrt(mu * disp * (1.0 + 2.0 * rho[0] / (1.0 - ratio)) / length)
            acf_se = math.sqrt((1.0 + 2.0 * rho[0] ** 2 / (1.0 - ratio ** 2)) / length)
            if abs(sp_mean - mu) > 6.0 * mean_se:
                problems.append(f"row {idx}: simulated mean {sp_mean:.4g} far from {mu:.4g}")
            if abs(sp_acf1 - rho[0]) > 6.0 * acf_se:
                problems.append(f"row {idx}: simulated lag-1 ACF {sp_acf1:.4g} far from {rho[0]:.4g}")
        if a1 < 0 and not sp_acf1 < 0:
            problems.append(f"row {idx}: alpha1 < 0 but the simulated lag-1 ACF is {sp_acf1:.4g}")
    return problems


def check_study(doc: Dict[str, object], truth: Dict[str, float], sizes: Sequence[int],
                replications: int) -> List[str]:
    """A `study` document: moment inequalities per cell, MSE falling with size."""
    problems: List[str] = []
    study = doc["study"]
    if list(study["sizes"]) != list(sizes) or int(study["replications"]) != replications:
        return ["study sizes or replications differ from the request"]
    totals = []
    for size in sizes:
        cells = study[f"size_{size}"]
        if not 0 <= int(cells["excluded"]) <= replications:
            problems.append(f"size {size}: excluded = {cells['excluded']}")
        if int(cells["excluded"]) == replications:
            problems.append(f"size {size}: every replication excluded")
            continue
        total = 0.0
        for name, value in truth.items():
            cell = cells[name]
            mean, abs_bias, mse = float(cell["mean"]), float(cell["abs_bias"]), float(cell["mse"])
            if mse < (mean - value) ** 2 * (1.0 - 1e-9):
                problems.append(f"size {size} {name}: mse {mse:.4g} < squared bias {(mean - value) ** 2:.4g}")
            if abs_bias > math.sqrt(mse) * (1.0 + 1e-9):
                problems.append(f"size {size} {name}: abs_bias {abs_bias:.4g} > sqrt(mse)")
            if name != "n":
                total += mse
        totals.append(total)
    if len(totals) == len(sizes) and any(b >= a for a, b in zip(totals, totals[1:])):
        problems.append(f"coefficient MSE does not fall with size: {totals}")
    return problems


def check_simulated(counts, length: int, u0: np.ndarray, u1: np.ndarray, n: float, p: int, q: int,
                    skip: int = 100) -> List[str]:
    """Simulated counts against the generating network's own forward pass.

    The recursion restarts from the sample mean, so the first `skip` steps are
    dropped; after them the Pearson residuals must have mean near 0 and
    variance near 1.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size != length or np.any(counts < 0) or np.any(counts != np.floor(counts)):
        return [f"expected {length} non-negative integer counts"]
    z = pearson(counts, neural_lambda(counts, u0, u1, p, q), "negbin", n)[skip:]
    problems = []
    if abs(float(np.mean(z))) > 8.0 / math.sqrt(z.size):
        problems.append(f"Pearson residual mean {np.mean(z):.4g} is not near 0")
    if abs(float(np.var(z)) - 1.0) > 0.15:
        problems.append(f"Pearson residual variance {np.var(z):.4g} is not near 1")
    return problems
