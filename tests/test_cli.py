"""CSV ingestion, document round-trips, exit codes, and rerun determinism."""

import argparse
import shlex
from pathlib import Path

import numpy as np
import pytest

from spingarch import LinearParams, ModelSpec, NeuralWeights
from spingarch.cli import (
    _OPTIONS,
    RunConfig,
    _attach_negative_lists,
    _build_parser,
    _csv_provenance,
    _parse,
    fit_from_tree,
    fit_to_tree,
    main,
    parse_counts_csv,
)
from spingarch.estimate import FitResult
from spingarch.exceptions import DataError
from spingarch.textdoc import dumps, format_float, loads


class TestParseCountsCsv:
    def test_plain_counts(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("count\n2\n3\n0\n")
        series = parse_counts_csv(f)
        np.testing.assert_array_equal(series.values, [2, 3, 0])
        assert series.timestamps is None

    def test_negative_cites_line(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("count\n2\n-1\n3\n")
        with pytest.raises(DataError, match="line 3"):
            parse_counts_csv(f)

    def test_fractional_rejected(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("count\n2\n2.5\n")
        with pytest.raises(DataError, match="integers"):
            parse_counts_csv(f)

    def test_non_numeric_rejected(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("count\n2\nabc\n")
        with pytest.raises(DataError, match="non-numeric"):
            parse_counts_csv(f)

    def test_timestamps_kept_and_gap_warns(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("timestamp,count\n0,2\n1,3\n5,0\n")
        with pytest.warns(UserWarning, match="equally spaced"):
            series = parse_counts_csv(f)
        assert series.timestamps == ["0", "1", "5"]

    def test_comment_lines_skipped(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("# artifact: spingarch\n# config: x\ncount\n1\n2\n")
        series = parse_counts_csv(f)
        np.testing.assert_array_equal(series.values, [1, 2])

    def test_bad_header(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("value\n1\n")
        with pytest.raises(DataError, match="header"):
            parse_counts_csv(f)


class TestDocumentRoundTrip:
    def _assert_fits_equal(self, a: FitResult, b: FitResult):
        assert a.spec == b.spec
        assert a.loglik == b.loglik and a.aic == b.aic and a.bic == b.bic
        assert a.converged == b.converged
        assert a.iterations == b.iterations and a.restarts_used == b.restarts_used
        np.testing.assert_array_equal(a.lambda_path, b.lambda_path)
        np.testing.assert_array_equal(
            np.nan_to_num(a.std_errors, nan=-1.0), np.nan_to_num(b.std_errors, nan=-1.0)
        )
        if isinstance(a.estimates, LinearParams):
            assert a.estimates == b.estimates
        else:
            np.testing.assert_array_equal(a.estimates.u0, b.estimates.u0)
            np.testing.assert_array_equal(a.estimates.u1, b.estimates.u1)
            assert a.estimates.n == b.estimates.n

    def test_linear_fit(self):
        spec = ModelSpec("negbin", "softplus-linear", 1, 1, 1.0)
        fit = FitResult(
            spec=spec,
            estimates=LinearParams(1.2345678901234567, (0.1,), (-0.2,), 3.3),
            std_errors=np.array([0.1, 0.2, float("nan"), 0.4]),
            loglik=-123.45678901234567,
            aic=254.91357802469135,
            bic=270.0,
            lambda_path=np.array([1.1, 2.2, 3.3]),
            converged=True,
            iterations=42,
            restarts_used=1,
        )
        rebuilt = fit_from_tree(loads(dumps({"fit": fit_to_tree(fit)}))["fit"])
        self._assert_fits_equal(fit, rebuilt)

    def test_neural_fit(self):
        spec = ModelSpec("poisson", "neural", 1, 1, 1.0, hidden=2)
        fit = FitResult(
            spec=spec,
            estimates=NeuralWeights(np.arange(6.0).reshape(3, 2) / 7.0, np.array([0.5, -0.25])),
            std_errors=np.full(8, np.nan),
            loglik=-50.5,
            aic=117.0,
            bic=130.0,
            lambda_path=np.array([0.7, 0.9]),
            converged=False,
            iterations=10,
            restarts_used=3,
        )
        rebuilt = fit_from_tree(loads(dumps({"fit": fit_to_tree(fit)}))["fit"])
        self._assert_fits_equal(fit, rebuilt)

    def test_model_labels_round_trip(self):
        tree = {"models": ["nb(1,0)", "neu-pois(2,1)"], "vals": [1.5, -2.0]}
        assert loads(dumps(tree)) == tree

    def test_seventeen_digit_floats_round_trip(self):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(100) * 10.0 ** rng.integers(-8, 8, 100))
        tree = {"vals": values}
        back = loads(dumps(tree))["vals"]
        assert back == values

    @pytest.mark.parametrize("value, text", [
        (0.0, "0.0"), (-0.0, "-0.0"), (1e16, "10000000000000000.0"), (1e17, "1e+17"), (2.5, "2.5"),
        (5e-324, "4.9406564584124654e-324"), (float("nan"), "nan"), (float("inf"), "inf"),
        (float("-inf"), "-inf"),
    ])
    def test_float_text_is_pinned(self, value, text):
        assert format_float(value) == text


def write_series(tmp_path, seed=3, n=300):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(seed)
    counts = rng.poisson(5.0, n)
    path.write_text("count\n" + "\n".join(str(v) for v in counts) + "\n")
    return path


class TestCommands:
    def test_simulate_then_fit_round_trip(self, tmp_path):
        sim_csv = tmp_path / "sim.csv"
        code = main([
            "simulate", "--family", "negbin", "--p", "1", "--q", "1",
            "--alpha0", "1.8", "--alpha", "0.3", "--beta", "0.4", "--n", "3",
            "--length", "300", "--seed", "11", "--out", str(sim_csv),
        ])
        assert code == 0
        series = parse_counts_csv(sim_csv)
        assert len(series) == 300
        out = tmp_path / "fit.txt"
        code = main(["fit", str(sim_csv), "--p", "1", "--q", "1", "--out", str(out)])
        assert code == 0
        doc = loads(out.read_text())
        fit = fit_from_tree(doc["fit"])
        assert fit.converged
        assert doc["artifact"].startswith("spingarch")
        assert doc["config"]["command"] == "fit"
        assert doc["series"]["s"] == 300
        assert doc["series"]["mean"] == pytest.approx(float(series.values.mean()))
        assert doc["series"]["dispersion"] > 1.0  # NB-simulated: overdispersed

    def test_rerun_is_byte_identical(self, tmp_path):
        data = write_series(tmp_path)
        out = tmp_path / "fit.txt"
        argv = ["fit", str(data), "--p", "1", "--q", "0", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_model_selection_document(self, tmp_path):
        data = write_series(tmp_path, seed=4)
        out = tmp_path / "sel.txt"
        code = main([
            "fit", str(data), "--model", "nb(1,0)", "--model", "nb(2,0)",
            "--model", "pois(1,0)", "--out", str(out),
        ])
        assert code == 0
        doc = loads(out.read_text())
        fits = doc["fits"]
        assert set(fits) == {"nb(1,0)", "nb(2,0)", "pois(1,0)"}
        best = doc["selection"]["best"]
        best_aic = fits[best]["aic"]
        assert all(best_aic <= fits[m]["aic"] for m in fits)

    def test_neural_model_token(self, tmp_path):
        data = write_series(tmp_path, seed=5, n=200)
        out = tmp_path / "neu.txt"
        code = main(["fit", str(data), "--model", "neu-pois(1,0)", "--hidden", "1",
                     "--restarts", "2", "--out", str(out)])
        assert code == 0
        doc = loads(out.read_text())
        assert doc["fits"]["neu-pois(1,0)"]["estimates"]["kind"] == "neural"

    def test_diagnose_artifacts(self, tmp_path):
        data = write_series(tmp_path, seed=6)
        outdir = tmp_path / "diag"
        code = main(["diagnose", str(data), "--p", "1", "--q", "0", "--max-lag", "8",
                     "--out", str(outdir)])
        assert code == 0
        assert (outdir / "fit.txt").exists()
        z = [line for line in (outdir / "residuals.csv").read_text().splitlines()
             if line and not line.startswith("#")]
        assert z[0] == "z" and len(z) == 301
        corr = (outdir / "correlogram.csv").read_text().splitlines()
        assert "lag,acf,pacf" in corr
        assert any("band_half_width" in line
                   for line in (outdir / "periodogram.csv").read_text().splitlines())

    def test_forecast_document(self, tmp_path):
        data = write_series(tmp_path, seed=7)
        out = tmp_path / "fc.txt"
        code = main(["forecast", str(data), "--p", "1", "--q", "0", "--split", "250",
                     "--out", str(out)])
        assert code == 0
        doc = loads(out.read_text())
        assert doc["forecast"]["horizon"] == 50
        assert len(doc["forecast"]["forecasts"]) == 50
        assert doc["forecast"]["rmse"] > 0

    def test_neural_simulate(self, tmp_path):
        out = tmp_path / "nsim.csv"
        code = main([
            "simulate", "--family", "negbin", "--link", "neural", "--p", "1", "--q", "1",
            "--hidden", "1", "--weights", "1.0,0.2,0.1,2.0", "--n", "3",
            "--length", "40", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        assert len(parse_counts_csv(out)) == 40

    def test_neural_forecast(self, tmp_path):
        data = write_series(tmp_path, seed=10, n=220)
        out = tmp_path / "nfc.txt"
        code = main(["forecast", str(data), "--family", "poisson", "--link", "neural",
                     "--p", "1", "--q", "0", "--hidden", "1", "--restarts", "2",
                     "--split", "200", "--out", str(out)])
        assert code == 0
        doc = loads(out.read_text())
        assert len(doc["forecast"]["forecasts"]) == 20
        assert all(v > 0 for v in doc["forecast"]["forecasts"])

    def test_moments_grid(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n2.0,0.9,0.5,3\n")
        out = tmp_path / "mom.csv"
        code = main(["moments", "--grid", str(grid), "--length", "5000", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[0].startswith("model,alpha0")
        assert ",false," in rows[1]
        assert ",true," in rows[2]  # explosive entry flagged

    def test_moments_header_records_default_length(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")
        out = tmp_path / "mom.csv"
        assert main(["moments", "--grid", str(grid), "--out", str(out)]) == 0
        config_line = next(line for line in out.read_text().splitlines() if line.startswith("# config:"))
        assert " length=100000 " in config_line

    def test_study_document(self, tmp_path):
        out = tmp_path / "study.txt"
        code = main([
            "study", "--family", "negbin", "--p", "1", "--q", "1",
            "--alpha0", "0.75", "--alpha", "0.25", "--beta", "0.45", "--n", "3",
            "--sizes", "120", "--replications", "2", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        doc = loads(out.read_text())
        assert doc["study"]["replications"] == 2
        assert "size_120" in doc["study"]


class TestNegativeListOptions:
    def test_negative_first_value_as_separate_word(self, tmp_path):
        base = ["simulate", "--p", "2", "--q", "2", "--alpha0", "1.5", "--n", "3",
                "--length", "50", "--seed", "2"]
        out = tmp_path / "sim.csv"
        assert main(base + ["--alpha=-0.3,0.2", "--beta=-0.1,0.2", "--out", str(out)]) == 0
        joined = out.read_bytes()
        assert main(base + ["--alpha", "-0.3,0.2", "--beta", "-0.1,0.2", "--out", str(out)]) == 0
        assert out.read_bytes() == joined

    def test_negative_first_weight_as_separate_word(self, tmp_path):
        out = tmp_path / "nsim.csv"
        code = main([
            "simulate", "--family", "negbin", "--link", "neural", "--p", "1", "--q", "1",
            "--hidden", "1", "--weights", "-1.0,0.2,0.1,2.0", "--n", "3",
            "--length", "40", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        assert len(parse_counts_csv(out)) == 40


class TestExitCodes:
    def test_usage_errors(self, tmp_path):
        assert main([]) == 1
        assert main(["simulate", "--length", "0", "--alpha0", "1", "--p", "1", "--q", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["fit"]) == 1  # missing input
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--length", "20", "--burn-in", "-1"],
        ["moments", "--length", "200", "--burn-in", "-5"],
        ["study", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--sizes", "50",
         "--replications", "1", "--burn-in", "-1"],
        ["study", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--sizes", "0,50",
         "--replications", "1"],
        ["study", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--sizes=-5",
         "--replications", "1"],
        ["simulate", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--length", "20", "--seed", "-1"],
        ["moments", "--length", "200", "--seed", "-1"],
        ["study", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--sizes", "50",
         "--replications", "1", "--seed", "-1"],
        ["fit", "--p", "1", "--q", "0", "--seed", "-1"],
        ["fit", "--p", "1", "--q", "0", "--restarts", "-1"],
        ["fit", "--p", "1", "--q", "0", "--hidden", "-3"],
    ], ids=["simulate-burn-in", "moments-burn-in", "study-burn-in", "study-size-0", "study-size-negative",
            "simulate-seed", "moments-seed", "study-seed", "fit-seed", "fit-restarts", "fit-linear-hidden"])
    def test_bad_simulation_size_is_usage_error(self, tmp_path, capsys, argv):
        # each option's range is checked as the arguments are parsed
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")
        grid_args = ["--grid", str(grid)] if argv[0] == "moments" else []
        input_args = [str(write_series(tmp_path, n=120))] if argv[0] == "fit" else []
        out = tmp_path / "out"
        assert main([*argv, *grid_args, *input_args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --")
        assert not out.exists()

    def test_bad_max_lag_is_usage_error(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")
        for lag in ("0", "-2"):
            out = tmp_path / f"mom{lag}.csv"
            assert main(["moments", "--grid", str(grid), "--length", "200", "--max-lag", lag,
                         "--out", str(out)]) == 1
            assert not out.exists()
        # the series must be longer than --max-lag (3 by default); this used to exit 3
        for argv in (["--length", "3"], ["--length", "5", "--max-lag", "5"]):
            out = tmp_path / "short.csv"
            assert main(["moments", "--grid", str(grid), *argv, "--out", str(out)]) == 1
            assert not out.exists()
        data = write_series(tmp_path, seed=4, n=120)
        assert main(["diagnose", str(data), "--p", "1", "--q", "0", "--max-lag", "0",
                     "--out", str(tmp_path / "diag")]) == 1

    @pytest.mark.parametrize("argv", [
        ["--p", "2"], ["--link", "neural"], ["--hidden", "4"], ["--restarts", "9"],
    ], ids=["p", "link", "hidden", "restarts"])
    def test_moments_rejects_model_options(self, tmp_path, argv):
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")
        out = tmp_path / "mom.csv"
        assert main(["moments", "--grid", str(grid), "--length", "200", *argv, "--out", str(out)]) == 1
        assert not out.exists()

    def test_simulate_rejects_restarts(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--length", "20",
                     "--restarts", "3", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--link", "neural"], ["--hidden", "2"]], ids=["link", "hidden"])
    def test_study_rejects_neural_options(self, tmp_path, argv):
        out = tmp_path / "study.txt"
        assert main(["study", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3", "--n", "3",
                     "--sizes", "100", "--replications", "1", *argv, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, unread", [
        (["simulate", "--link", "neural", "--p", "1", "--q", "0", "--weights=0.1,0.2,1.0", "--n", "3",
          "--length", "20"], ["--alpha0", "5"]),
        (["simulate", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3", "--n", "3", "--length", "20"],
         ["--weights=1,2"]),
        (["simulate", "--family", "poisson", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3",
          "--length", "20"], ["--n", "3"]),
        (["study", "--family", "poisson", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3",
          "--sizes", "50", "--replications", "1"], ["--n", "3"]),
    ], ids=["simulate-neural-alpha0", "simulate-linear-weights", "simulate-poisson-n", "study-poisson-n"])
    def test_unread_parameter_option_is_usage_error(self, tmp_path, argv, unread):
        # these were accepted, ignored and written into the provenance
        out = tmp_path / "out"
        assert main([*argv, *unread, "--out", str(out)]) == 1
        assert not out.exists()
        assert main([*argv, "--out", str(out)]) == 0

    def test_criterion_without_model_list_is_usage_error(self, tmp_path):
        data = write_series(tmp_path, seed=4, n=120)
        out = tmp_path / "o.txt"
        assert main(["fit", str(data), "--criterion", "bic", "--out", str(out)]) == 1
        assert not out.exists()

    def test_c_with_neural_link_is_usage_error(self, tmp_path):
        # the network's output unit uses c = 1; a --c of 5 used to be written and ignored
        data = write_series(tmp_path, seed=4, n=120)
        out = tmp_path / "o.txt"
        assert main(["fit", str(data), "--link", "neural", "--family", "poisson", "--p", "1",
                     "--q", "0", "--c", "5", "--restarts", "0", "--out", str(out)]) == 1
        assert main(["fit", str(data), "--model", "nb(1,0)", "--model", "neu-pois(1,0)",
                     "--c", "5", "--out", str(out)]) == 1
        assert not out.exists()

    def test_moments_bad_c_is_usage_error(self, tmp_path):
        # a bad --c used to reach ModelSpec inside the grid loop and exit 3
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")
        out = tmp_path / "mom.csv"
        assert main(["moments", "--grid", str(grid), "--length", "100", "--c", "-1", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "poisson"], ["--link", "neural"], ["--p", "3"], ["--q", "2"],
    ], ids=["family", "link", "p", "q"])
    def test_model_list_rejects_single_model_options(self, tmp_path, argv):
        # each --model token names its own family, link and orders; these used
        # to be ignored by the fit and still written into the document's config
        data = write_series(tmp_path, seed=4, n=120)
        out = tmp_path / "o.txt"
        assert main(["fit", str(data), "--model", "nb(1,0)", *argv, "--out", str(out)]) == 1
        assert not out.exists()

    def test_model_list_keeps_c(self, tmp_path):
        data = write_series(tmp_path, seed=4, n=120)
        out = tmp_path / "o.txt"
        assert main(["fit", str(data), "--model", "nb(1,0)", "--c", "2", "--out", str(out)]) == 0
        assert loads(out.read_text())["fits"]["nb(1,0)"]["c"] == 2.0

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("count\n2\n-1\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "o.txt")]) == 2
        assert main(["fit", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.txt")]) == 2

    def test_numeric_error(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("count\n1\n2\n3\n")
        assert main(["fit", str(short), "--p", "1", "--q", "1",
                     "--out", str(tmp_path / "o.txt")]) == 3

    def test_non_convergence_exit(self, tmp_path, monkeypatch):
        import spingarch.cli as cli_mod

        data = write_series(tmp_path, seed=8, n=120)
        out = tmp_path / "nc.txt"

        real_fit = cli_mod.fit_cml

        def fake_fit(spec, series, opts):
            fit = real_fit(spec, series, opts)
            fit.converged = False
            return fit

        monkeypatch.setattr(cli_mod, "fit_cml", fake_fit)
        code = main(["fit", str(data), "--p", "1", "--q", "0", "--out", str(out)])
        assert code == 4
        assert out.exists()  # fit document still written
        doc = loads(out.read_text())
        assert doc["fit"]["converged"] is False


class TestOptionTable:
    def _subparsers(self):
        parser = _build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_option_slots(self):
        slots = {name: sorted(a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction))
                 for name, sp in self._subparsers().items()}
        assert sum(len(dests) for dests in slots.values()) == 71
        fields = set(RunConfig.__dataclass_fields__)
        assert all(set(dests) <= fields for dests in slots.values())
        assert "restarts" not in slots["simulate"]
        assert not {"link", "p", "q", "hidden", "restarts"} & set(slots["moments"])
        assert not {"link", "hidden"} & set(slots["study"])

    def test_defaults_come_from_run_config(self):
        # a left-out option stays out of the namespace, except moments' --max-lag 3 and --length 100000;
        # each command is given only the options it requires
        required = {"simulate": ["--out", "--length"], "fit": ["--out"], "moments": ["--out", "--grid"],
                    "study": ["--out", "--sizes"], "diagnose": ["--out"], "forecast": ["--out", "--split"]}
        values = {"--out": ("o", "o"), "--length": ("7", 7), "--grid": ("g.csv", "g.csv"),
                  "--sizes": ("7,8", (7, 8)), "--split": ("7", 7)}
        for name, sp in self._subparsers().items():
            assert sorted(a.option_strings[0] for a in sp._actions if a.required and a.option_strings) == \
                sorted(required[name])
            takes_input = any(a.dest == "input" for a in sp._actions)
            argv = ["in.csv"] if takes_input else []
            expected = {"input": "in.csv"} if takes_input else {}
            for flag in required[name]:
                argv += [flag, values[flag][0]]
                expected[flag[2:]] = values[flag][1]
            if name == "moments":
                expected.update(max_lag=3, length=100000)
            assert vars(sp.parse_args(argv)) == expected


class TestRunConfigProvenance:
    def test_every_document_embeds_config_and_version(self, tmp_path):
        data = write_series(tmp_path, seed=9)
        out = tmp_path / "fit.txt"
        main(["fit", str(data), "--p", "1", "--q", "0", "--seed", "3", "--out", str(out)])
        doc = loads(out.read_text())
        assert doc["config"]["seed"] == 3
        assert doc["config"]["input"] == str(data)
        from spingarch import __version__

        assert doc["artifact"] == f"spingarch {__version__}"

    @staticmethod
    def _argv(record):
        """The arguments a provenance record names: `input` as the positional, the rest `--flag=value`."""
        argv = [str(record["command"])]
        for name, value in record.items():
            if name == "input":
                argv.append(str(value))
            elif name == "models":
                argv += [f"--model={token}" for token in value]
            elif name != "command":
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv.append(f"{_OPTIONS[name][0]}={text}")
        return argv

    def _assert_csv_replays(self, path):
        line = next(line for line in path.read_text().splitlines() if line.startswith("# config: "))
        record = dict(word.split("=", 1) for word in line.split()[2:])
        assert _csv_provenance(_parse(self._argv(record)))[1] == line

    def _assert_document_replays(self, path):
        record = loads(path.read_text())["config"]
        assert _parse(self._argv(record)).provenance() == record

    def test_every_command_replays_from_its_record(self, tmp_path):
        data = write_series(tmp_path, seed=9, n=120)
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")
        sim, sel, mom = tmp_path / "sim.csv", tmp_path / "sel.txt", tmp_path / "mom.csv"
        study, diag, fc = tmp_path / "study.txt", tmp_path / "diag", tmp_path / "fc.txt"
        runs = [
            (["simulate", "--p", "2", "--q", "0", "--alpha0", "1.5", "--alpha", "-0.2,0.3", "--n", "3",
              "--length", "50", "--seed", "4", "--out", str(sim)], [sim], []),
            (["fit", str(data), "--model", "nb(1,0)", "--model", "pois(1,0)", "--criterion", "bic",
              "--hidden", "2", "--out", str(sel)], [], [sel]),
            (["moments", "--grid", str(grid), "--length", "300", "--out", str(mom)], [mom], []),
            (["study", "--family", "poisson", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3",
              "--sizes", "40,60", "--replications", "1", "--out", str(study)], [], [study]),
            (["diagnose", str(data), "--q", "1", "--max-lag", "5", "--out", str(diag)],
             [diag / "residuals.csv", diag / "correlogram.csv", diag / "periodogram.csv"], [diag / "fit.txt"]),
            (["forecast", str(data), "--family", "poisson", "--split", "100", "--out", str(fc)], [], [fc]),
        ]
        for argv, csvs, documents in runs:
            assert main(argv) == 0, argv
            for path in csvs:
                self._assert_csv_replays(path)
            for path in documents:
                self._assert_document_replays(path)


def _readme_commands():
    """Every `spingarch ...` line of README's command-line block, with `\\` continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("spingarch ")]


@pytest.mark.parametrize("line", _readme_commands(), ids=lambda line: " ".join(line.split()[:2]))
def test_readme_command_parses(line):
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = list(lexer)
    assert words[0] == "spingarch"
    _build_parser().parse_args(_attach_negative_lists(words[1:]))
