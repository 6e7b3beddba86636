"""Each reference checker accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench -q

The outputs come from one round of every workload at seed 1, run in-process
through `spingarch.cli.main` as the benchmark runs them.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checkers  # noqa: E402
import workloads  # noqa: E402
from spingarch import cli  # noqa: E402


def _run(name, tmp_path_factory):
    work = tmp_path_factory.mktemp(name)
    workload = workloads.WORKLOADS[name](1, work)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op in workload.ops:
            assert cli.main(op.argv) == 0, op.name
    return work, workload.checks


@pytest.fixture(scope="module")
def linear(tmp_path_factory):
    return _run("linear-analysis", tmp_path_factory)


@pytest.fixture(scope="module")
def simulate_refit(tmp_path_factory):
    return _run("simulate-refit", tmp_path_factory)


@pytest.fixture(scope="module")
def neural(tmp_path_factory):
    return _run("neural", tmp_path_factory)


@contextlib.contextmanager
def edited(path: Path, edit):
    original = path.read_text()
    path.write_text(edit(original))
    try:
        yield
    finally:
        path.write_text(original)


def scale_number(text: str, key: str, factor: float) -> str:
    """Multiply the first `key: <float>` value in a document by factor."""
    pattern = re.compile(rf"^(\s*{re.escape(key)}: )(\S+)$", re.M)
    match = pattern.search(text)
    assert match, key
    value = float(match.group(2)) * factor
    return text[: match.start(2)] + repr(value) + text[match.end(2):]


def scale_list_item(text: str, key: str, index: int, factor: float) -> str:
    pattern = re.compile(rf"^(\s*{re.escape(key)}: \[)([^\]]*)\]$", re.M)
    match = pattern.search(text)
    assert match, key
    items = match.group(2).split(",")
    items[index] = repr(float(items[index]) * factor)
    return text[: match.start(2)] + ",".join(items) + text[match.end(2):]


@pytest.mark.parametrize("fixture", ["linear", "simulate_refit", "neural"])
def test_real_outputs_pass(fixture, request):
    _, checks = request.getfixturevalue(fixture)
    for op_name, check in checks.items():
        assert check() == [], op_name


def test_loglik_off_by_1e_6_is_rejected(linear):
    work, checks = linear
    with edited(work / "selection.txt", lambda t: scale_number(t, "loglik", 1 + 1e-6)):
        assert any("loglik" in p for p in checks["fit"]())


def test_lambda_path_entry_off_is_rejected(linear):
    work, checks = linear
    with edited(work / "forecast.txt", lambda t: scale_list_item(t, "lambda_path", 700, 1 + 1e-7)):
        assert any("lambda_path" in p for p in checks["forecast"]())


def test_aic_off_is_rejected(linear):
    work, checks = linear
    with edited(work / "selection.txt", lambda t: scale_number(t, "aic", 1 + 1e-6)):
        assert any("aic" in p for p in checks["fit"]())


def test_wrong_best_label_is_rejected(linear):
    work, checks = linear
    with edited(work / "selection.txt", lambda t: re.sub(r"best: .*", "best: pois(1,0)", t)):
        assert any("lowest AIC" in p for p in checks["fit"]())


def test_estimate_off_the_optimum_is_rejected(linear):
    """A self-consistent document (loglik, path, AIC, BIC recomputed) whose
    estimates sit off the maximum fails only the perturbation check."""
    work, checks = linear
    doc = checkers.parse_doc((work / "forecast.txt").read_text())
    x = checkers.read_counts((work / "series.csv").read_text())[: doc["forecast"]["split"]]
    est = doc["fit"]["estimates"]
    alpha = [est["alpha"][0] + 0.02]
    lam = checkers.linear_lambda(x, est["alpha0"], alpha, est["beta"])
    ll = checkers.loglik(x, lam, "negbin", est["n"])
    k = doc["fit"]["k"]

    def move(text):
        text = scale_list_item(text, "alpha", 0, alpha[0] / est["alpha"][0])
        text = re.sub(r"lambda_path: \[.*\]", "lambda_path: [" + ",".join(repr(float(v)) for v in lam) + "]", text)
        text = re.sub(r"loglik: .*", f"loglik: {ll!r}", text)
        text = re.sub(r"aic: .*", f"aic: {-2 * ll + 2 * k!r}", text)
        return re.sub(r"bic: .*", f"bic: {-2 * ll + k * math.log(x.size)!r}", text)

    with edited(work / "forecast.txt", move):
        problems = checkers.check_fit(checkers.parse_doc((work / "forecast.txt").read_text())["fit"], x)
    assert problems and all("raises the log-likelihood" in p for p in problems)


def test_recovery_rejects_a_far_truth(linear):
    work, _ = linear
    tree = checkers.parse_doc((work / "selection.txt").read_text())["fits"]["nb(1,1)"]
    est = tree["estimates"]
    theta = [est["alpha0"], *est["alpha"], *est["beta"], est["n"]]
    assert checkers.check_recovery(tree, theta) == []
    far = list(theta)
    far[1] += 10 * tree["std_errors"][1]
    assert checkers.check_recovery(tree, far)


def test_changed_residual_is_rejected(linear):
    work, checks = linear
    residuals = work / "diag" / "residuals.csv"

    def change(text):
        lines = text.splitlines()
        lines[500] = repr(float(lines[500]) + 1e-6)
        return "\n".join(lines) + "\n"

    with edited(residuals, change):
        assert any("residuals" in p for p in checks["diagnose"]())


def test_changed_acf_and_pacf_are_rejected(linear):
    work, checks = linear
    correlogram = work / "diag" / "correlogram.csv"
    for column in (1, 2):
        def change(text, column=column):
            lines = text.splitlines()
            cells = lines[-1].split(",")
            cells[column] = repr(float(cells[column]) + 1e-6)
            lines[-1] = ",".join(cells)
            return "\n".join(lines) + "\n"

        with edited(correlogram, change):
            assert any(("acf", "pacf")[column - 1] + ":" in p for p in checks["diagnose"]())


def test_decreasing_periodogram_is_rejected(linear):
    work, checks = linear

    def change(text):
        lines = text.splitlines()
        freq, frac = lines[-5].split(",")
        lines[-5] = f"{freq},{float(frac) + 0.5}"
        return "\n".join(lines) + "\n"

    with edited(work / "diag" / "periodogram.csv", change):
        assert any("periodogram" in p for p in checks["diagnose"]())


def test_changed_forecast_and_rmse_are_rejected(linear):
    work, checks = linear
    with edited(work / "forecast.txt", lambda t: scale_list_item(t, "forecasts", 3, 1 + 1e-7)):
        assert any("forecasts" in p for p in checks["forecast"]())
    with edited(work / "forecast.txt", lambda t: scale_number(t, "rmse", 1 + 1e-7)):
        assert any("rmse" in p for p in checks["forecast"]())


def test_changed_closed_form_moment_is_rejected(simulate_refit):
    work, checks = simulate_refit

    def change(text):
        lines = text.splitlines()
        header = lines[2].split(",")
        cells = lines[3].split(",")
        col = header.index("lin_acf1")
        cells[col] = repr(float(cells[col]) * (1 + 1e-6))
        lines[3] = ",".join(cells)
        return "\n".join(lines) + "\n"

    with edited(work / "moments.csv", change):
        assert any("closed-form" in p for p in checks["moments"]())


def test_simulated_moments_far_from_closed_form_are_rejected(simulate_refit):
    work, checks = simulate_refit

    def change(text):
        lines = text.splitlines()
        header = lines[2].split(",")
        for row, col in ((3, "sp_mean"), (5, "sp_acf1")):
            cells = lines[row].split(",")
            i = header.index(col)
            cells[i] = repr(-float(cells[i]) if col == "sp_acf1" else float(cells[i]) * 1.2)
            lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    with edited(work / "moments.csv", change):
        problems = checks["moments"]()
    assert any("simulated mean" in p for p in problems)
    assert any("alpha1 < 0" in p for p in problems)


def test_study_inequalities_are_checked(simulate_refit):
    work, checks = simulate_refit
    with edited(work / "study.txt", lambda t: scale_number(t, "mse", 1e-6)):
        assert any("squared bias" in p or "sqrt(mse)" in p for p in checks["study"]())


def test_study_mse_must_fall_with_size(simulate_refit):
    work, _ = simulate_refit
    doc = checkers.parse_doc((work / "study.txt").read_text())
    study, sizes = doc["study"], doc["study"]["sizes"]
    truth = {"alpha0": doc["config"]["alpha0"], "alpha1": doc["config"]["alpha"][0], "n": doc["config"]["n"]}
    assert checkers.check_study(doc, truth, sizes, study["replications"]) == []
    small, large = (f"size_{size}" for size in sizes)
    study[small], study[large] = study[large], study[small]
    assert any("does not fall" in p for p in checkers.check_study(doc, truth, sizes, study["replications"]))


def test_neural_fit_off_is_rejected(neural):
    work, checks = neural
    with edited(work / "fit.txt", lambda t: scale_list_item(t, "weights", 1, 1 + 1e-6)):
        assert any("lambda_path" in p for p in checks["fit"]())
    with edited(work / "fit.txt", lambda t: scale_number(t, "loglik", 1 + 1e-6)):
        assert any("loglik" in p for p in checks["fit"]())


def test_neural_forecast_off_is_rejected(neural):
    work, checks = neural
    with edited(work / "forecast.txt", lambda t: scale_list_item(t, "forecasts", 0, 1 + 1e-7)):
        assert any("forecasts" in p for p in checks["forecast"]())


def test_counts_from_another_network_are_rejected(neural):
    work, checks = neural

    def inflate(text):
        lines = text.splitlines()
        first = lines.index("count") + 1
        lines[first:] = [str(round(1.3 * int(v))) for v in lines[first:]]
        return "\n".join(lines) + "\n"

    with edited(work / "simulated.csv", inflate):
        assert any("residual mean" in p for p in checks["simulate"]())
