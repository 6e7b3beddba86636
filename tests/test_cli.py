"""CSV ingestion, document round-trips, exit codes, and rerun determinism."""

import argparse
import ast
import csv
import dataclasses
import math
import re
import shlex
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingarch import NEGBIN, POISSON, LinearParams, ModelSpec, NeuralWeights, cli, fit_cml, simulate
from spingarch.cli import (
    RunConfig,
    UsageError,
    _attach_negative_lists,
    _build_parser,
    _flag,
    _parse,
    _write_csv,
    fit_from_tree,
    fit_to_tree,
    main,
    parse_counts_csv,
)
from spingarch.estimate import FitResult
from spingarch.exceptions import ConvergenceWarning, DataError, NumericError
from spingarch.textdoc import dumps, format_float, loads


class TestParseCountsCsv:
    def test_plain_counts(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("count\n2\n3\n0\n")
        series = parse_counts_csv(f)
        np.testing.assert_array_equal(series.values, [2, 3, 0])

    def test_naive_timestamps_ignore_the_host_time_zone(self, tmp_path, monkeypatch):
        # hourly stamps across the night New York's clocks jump from 02:00 to
        # 03:00; read in host time they used to warn of a gap under that zone
        f = tmp_path / "c.csv"
        f.write_text("timestamp,count\n" + "".join(f"2024-03-10T{h:02d}:00,{h}\n" for h in range(5)))
        monkeypatch.setenv("TZ", "EST5EDT,M3.2.0,M11.1.0")
        time.tzset()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                series = parse_counts_csv(f)
        finally:
            monkeypatch.undo()
            time.tzset()
        np.testing.assert_array_equal(series.values, range(5))

    def test_timestamped_counts_and_gap_warns(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("timestamp,count\n0,2\n1,3\n5,0\n")
        with pytest.warns(UserWarning, match="equally spaced"):
            series = parse_counts_csv(f)
        np.testing.assert_array_equal(series.values, [2, 3, 0])

    def test_comment_lines_skipped(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("# artifact: spingarch\n# config: x\ncount\n1\n2\n")
        series = parse_counts_csv(f)
        np.testing.assert_array_equal(series.values, [1, 2])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("\ufefftimestamp,count\n0,2\n1,3\n", encoding="utf-8")  # as Excel's "CSV UTF-8" writes it
        np.testing.assert_array_equal(parse_counts_csv(f).values, [2, 3])


def _parse_row_by_row(path):
    """The counts of a counts CSV, or the message of its first refused line:
    the row-by-row reader that `parse_counts_csv`'s one numpy pass replaced,
    with the 2**53 bound."""
    header, counts = None, []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            cells = [cell.strip() for cell in row]
            if header is None:
                header = [c.lower() for c in cells]
                if header not in (["count"], ["timestamp", "count"]):
                    return f"line {lineno}: header must be 'count' or 'timestamp,count', got {row!r}"
                continue
            if len(cells) != len(header):
                return f"line {lineno}: expected {len(header)} columns, got {len(cells)}"
            raw = cells[-1]
            try:
                value = float(raw)
            except ValueError:
                return f"line {lineno}: non-numeric count {raw!r}"
            if not math.isfinite(value) or value != int(value):
                return f"line {lineno}: counts must be integers, got {raw!r}"
            if value < 0:
                return f"line {lineno}: counts must be non-negative, got {raw!r}"
            if value >= 2.0**53:
                return f"line {lineno}: counts must be below 2**53, got {raw!r}"
            counts.append(int(value))
    return counts if header is not None and counts else f"{path}: no count rows found"


def _parse_or_message(path):
    try:
        return parse_counts_csv(path).values.tolist()
    except DataError as exc:
        return str(exc)


_CELLS = ["0", "7", " 12 ", '"4"', "3.0", "-2", "-0", "2.5", "1e3", "inf", "-inf", "nan", "", "abc",
          "9007199254740991", "9007199254740992", "9007199254740993", "1e20", "1_000"]


# (id, counts file, message of its first offending record)
FIRST_OFFENCES = [
    ("negative-before-fraction", "count\n1\n-2\n4\n2.5\n", "line 3: counts must be non-negative, got '-2'"),
    ("fraction-before-negative", "count\n1\n2.5\n4\n-2\n", "line 3: counts must be integers, got '2.5'"),
    ("columns-before-non-numeric", "timestamp,count\n0,1\n1\n2,abc\n", "line 3: expected 2 columns, got 1"),
    ("non-numeric-before-columns", "timestamp,count\n0,1\n1,abc\n2\n", "line 3: non-numeric count 'abc'"),
    ("comments-and-blanks-counted", "# artifact\ncount\n1\n\n# note\n-1\n",
     "line 6: counts must be non-negative, got '-1'"),
    ("indented-comment", "count\n1\n  # note\n-1\n", "line 4: counts must be non-negative, got '-1'"),
    ("inf", "count\n1\ninf\n", "line 3: counts must be integers, got 'inf'"),
    ("nan", "count\n1\nnan\n", "line 3: counts must be integers, got 'nan'"),
    ("empty-cell", "timestamp,count\n0,1\n1,\n", "line 3: non-numeric count ''"),
    ("above-2**53", "count\n1\n9007199254740993\n", "line 3: counts must be below 2**53, got '9007199254740993'"),
    ("at-2**53", "count\n1\n9007199254740992\n", "line 3: counts must be below 2**53, got '9007199254740992'"),
    ("1e20", "count\n1\n1e20\n", "line 3: counts must be below 2**53, got '1e20'"),
    ("header", "value\n1\n", "line 1: header must be 'count' or 'timestamp,count', got ['value']"),
    ("header-without-rows", "value\n", "line 1: header must be 'count' or 'timestamp,count', got ['value']"),
    ("header-only", "count\n", "{path}: no count rows found"),
    ("comment-only", "# only a comment\n", "{path}: no count rows found"),
    ("cell-spanning-lines", 'count\n"1\n"\n-1\n', "line 4: counts must be non-negative, got '-1'"),
    ("offending-cell-spanning-lines", 'count\n1\n"-1\n"\n', "line 3: counts must be non-negative, got '-1'"),
    ("byte-order-mark", "\ufeffcount\n1\n-1\n", "line 3: counts must be non-negative, got '-1'"),
]


class TestParseCountsCsvRowOrder:
    """The one-pass reader refuses what the row-by-row reader refused, with the
    message of the first offending record in file order, read from the one
    reading of the file."""

    @pytest.mark.parametrize("text, message", [row[1:] for row in FIRST_OFFENCES],
                             ids=[row[0] for row in FIRST_OFFENCES])
    def test_first_offending_line(self, tmp_path, text, message):
        f = tmp_path / "c.csv"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as exc:
            parse_counts_csv(f)
        assert str(exc.value) == message.format(path=f)

    def test_a_refused_file_is_opened_once(self, tmp_path, monkeypatch):
        opened = []

        def counted_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counted_open, raising=False)  # shadows the builtin in cli
        files = [tmp_path / f"{name}.csv" for name, *_ in FIRST_OFFENCES]
        for f, (_, text, _) in zip(files, FIRST_OFFENCES):
            f.write_text(text, encoding="utf-8")
            with pytest.raises(DataError):
                parse_counts_csv(f)
        assert opened == files

    def test_quoted_cells_and_integral_floats_are_accepted(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text('count\n"4"\n3.0\n" 5 "\n-0\n9007199254740991\n')
        assert parse_counts_csv(f).values.tolist() == [4, 3, 5, 0, 2**53 - 1]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(header=st.sampled_from(["count", "Timestamp, Count", "timestamp,count", "value"]),
           rows=st.lists(st.one_of(
               st.tuples(st.sampled_from(["", "0", "x"]), st.sampled_from(_CELLS)).map(",".join),
               st.sampled_from(_CELLS),
               st.sampled_from(["", "# note", "1,2,3"])), max_size=8))
    def test_agrees_with_the_row_by_row_reader(self, tmp_path_factory, header, rows):
        f = tmp_path_factory.mktemp("csv") / "c.csv"
        f.write_text("\n".join(["# artifact", header, *rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # uneven timestamps
            assert _parse_or_message(f) == _parse_row_by_row(f)


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
        for family, n in [("poisson", None), ("negbin", 2.5)]:
            fit = FitResult(
                spec=ModelSpec(family, "neural", 1, 1, 1.0, hidden=2),
                estimates=NeuralWeights(np.arange(6.0).reshape(3, 2) / 7.0, np.array([0.5, -0.25]), n),
                std_errors=np.full(8 + (n is not None), np.nan),
                loglik=-50.5,
                aic=117.0,
                bic=130.0,
                lambda_path=np.array([0.7, 0.9]),
                converged=False,
                iterations=10,
                restarts_used=3,
            )
            tree = fit_to_tree(fit)
            # the family is written once, at the top of the fit tree
            assert tree["family"] == family
            assert set(tree["estimates"]) == {"kind", "K", "L", "weights"} | ({"n"} if n is not None else set())
            rebuilt = fit_from_tree(loads(dumps({"fit": tree}))["fit"])
            self._assert_fits_equal(fit, rebuilt)

    @pytest.mark.parametrize("text, message", [
        ("fit:\n   s: 3\n", "bad indentation at line 2"),
        ("fit:\n  s 3\n", "expected 'key: value' at line 2"),
    ], ids=["indentation", "no-colon"])
    def test_malformed_document_cites_the_line(self, text, message):
        with pytest.raises(DataError, match=message):
            loads(text)

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


def _moments(tmp_path, name, grid_text, *options):
    """The lines of the `moments` output for a grid, less its `# config:` line."""
    grid, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-moments.csv"
    grid.write_text(grid_text, encoding="utf-8")
    assert main(["moments", "--grid", str(grid), "--length", "2000", "--seed", "2", *options, "--out", str(out)]) == 0
    return [line for line in out.read_text().splitlines() if not line.startswith("# config:")]


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

    def test_model_list_keeps_c(self, tmp_path):
        data = write_series(tmp_path, seed=4, n=120)
        out = tmp_path / "o.txt"
        assert main(["fit", str(data), "--model", "nb(1,0)", "--c", "2", "--out", str(out)]) == 0
        assert loads(out.read_text())["fits"]["nb(1,0)"]["c"] == 2.0

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
        rows = _moments(tmp_path, "grid", "alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n2.0,0.9,0.5,3\n")[1:]
        assert rows[0].startswith("model,alpha0")
        assert ",false," in rows[1]
        assert ",true," in rows[2]  # explosive entry flagged

    @pytest.mark.parametrize("header", ["  # note\nalpha0,alpha1,beta1,n", "alpha0, alpha1, beta1, n",
                                        "Alpha0,alpha1,beta1,n", "\ufeffalpha0,alpha1,beta1,n"],
                             ids=["indented-comment", "spaced", "capitalised", "byte-order-mark"])
    def test_moments_grid_follows_the_counts_file_rules(self, tmp_path, header):
        # comments, header cells and a byte-order mark read as in a counts file; each of these grids was a parse error
        rows = "1.8,0.3,0.4,3\n2.0,0.9,0.5,3\n"
        assert _moments(tmp_path, "variant", f"{header}\n{rows}") == \
            _moments(tmp_path, "plain", f"alpha0,alpha1,beta1,n\n{rows}")

    def test_grid_columns_in_any_order(self, tmp_path):
        assert _moments(tmp_path, "reordered", "n,beta1,alpha0,alpha1\n3,0.4,1.8,0.3\n") == \
            _moments(tmp_path, "plain", "alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")

    def test_poisson_grid_reads_an_empty_n_cell(self, tmp_path):
        assert _moments(tmp_path, "empty-n", "alpha0,alpha1,beta1,n\n1.8,0.3,0.4,\n", "--family", "poisson") == \
            _moments(tmp_path, "no-n", "alpha0,alpha1,beta1\n1.8,0.3,0.4\n", "--family", "poisson")

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
        if doc["study"]["size_120"]["excluded"] == 0:
            assert "exclusions" not in doc["study"]["size_120"]  # written only when some occurred

    def test_study_document_counts_exclusions_by_reason(self, tmp_path, monkeypatch):
        # a stubbed fit: the first call raises, the second does not converge
        calls = []

        def fit(spec, path, opts):
            calls.append(path.size)
            if len(calls) == 1:
                raise NumericError("stub")
            return dataclasses.replace(fit_cml(spec, path, opts), converged=len(calls) > 2)

        monkeypatch.setattr(simulate, "fit_cml", fit)
        out = tmp_path / "study.txt"
        assert main(["study", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3", "--n", "3",
                     "--sizes", "120,150", "--replications", "2", "--seed", "5", "--out", str(out)]) == 0
        study = loads(out.read_text())["study"]
        assert study["size_120"]["excluded"] == 2
        assert study["size_120"]["exclusions"] == {"NumericError": 1, "not converged": 1}
        assert "alpha0" not in study["size_120"]
        assert study["size_150"]["excluded"] == 0 and "exclusions" not in study["size_150"]


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


_GRID = "alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n"
# the files of the refusal rows, each written as <name>.csv; `adir` names a directory
INPUTS = {
    "series": "count\n" + "".join(f"{v}\n" for v in np.random.default_rng(4).poisson(5.0, 120)),
    "short": "count\n1\n2\n3\n", "grid": _GRID, "grid_no_beta1": "alpha0,alpha1,n\n1.8,0.3,3\n",
    "grid_nan": f"{_GRID}nan,0.3,0.4,3\n", "grid_negative_n": f"{_GRID}1.8,0.3,0.4,-4\n",
    "grid_wide": "alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3,99\n", "grid_empty": "",
    "grid_header_only": "alpha0,alpha1,beta1,n\n", "grid_note": "alpha0,alpha1,beta1,n,note\n1.8,0.3,0.4,3,x\n",
    "grid_twice": "alpha0,alpha0,alpha1,beta1,n\n9,1.8,0.3,0.4,3\n",
    "grid_no_header": "1.8,0.3,0.4,3\n", "grid_no_n": "alpha0,alpha1,beta1\n1.8,0.3,0.4\n",
    "grid_text": "# a comment\nalpha0,alpha1,beta1,n\n1.8,abc,0.4,3\n",
    "negative": "count\n2\n-1\n", "bad_header": "value\n1\n",
    "ragged": "timestamp,count\n0,1\n1\n", "text": "count\n1\nabc\n", "fraction": "count\n2\n2.5\n",
    "huge": "count\n1\n9007199254740993\n", "header_only": "count\n",
    "cp1252": "count\n1\n# café\n2\n".encode("cp1252"),  # as bytes: not UTF-8
}
_SIM = "simulate --out {out} --length 10"
_SIM_NB = f"{_SIM} --p 1 --q 0 --alpha0 1 --alpha 0.3 --n 3"
_MOMENTS = "moments --out {out} --length 200 --grid"
_STUDY = "study --out {out} --p 1 --q 0 --alpha0 1 --alpha 0.3 --n 3 --replications 1 --sizes"
_FIT = "fit --out {out} {series}"
_COMMANDS_LIST = "'simulate', 'fit', 'moments', 'study', 'diagnose', 'forecast'"
_MODEL = "bad --model 'nb(1)'; expected e.g. 'nb(1,1)', 'pois(2,0)' or 'neu-nb(1,1)'"
_NEURAL_C = "c applies to the softplus-linear link only; the network uses c = 1"
_RANGE = "argument --{}: expected values >= {}, got '{}'"
_TWICE = "--model lists a value twice:"
_GRID_HEADER = "header must name alpha0, alpha1, beta1"

# Every refusal of the CLI: (id, argv, exit code, text, run).  Its stderr is the code's "usage error: ",
# "parse error: " or "numeric error: ", the text and a newline; `run` is None or the one work function it
# may follow.  argv words and text are formatted with the paths of INPUTS, `missing` and `out`.
REFUSALS = [
    ("no-command", "", 1, "a command is required (simulate, fit, moments, study, diagnose, forecast)", None),
    ("unknown-command", "frobnicate", 1,
     f"argument command: invalid choice: 'frobnicate' (choose from {_COMMANDS_LIST})", None),
    ("option-before-command", "--seed frobnicate fit", 1,
     f"argument command: invalid choice: 'frobnicate' (choose from {_COMMANDS_LIST})", None),
    ("fit-no-input", "fit", 1, "the following arguments are required: input, --out", None),
    # each option's range is checked as the arguments are parsed
    ("simulate-length-0", "simulate --out {out} --length 0 --alpha0 1", 1, _RANGE.format("length", 1, 0), None),
    ("simulate-burn-in", f"{_SIM_NB} --burn-in -1", 1, _RANGE.format("burn-in", 0, -1), None),
    ("moments-burn-in", f"{_MOMENTS} {{grid}} --burn-in -5", 1, _RANGE.format("burn-in", 0, -5), None),
    ("study-burn-in", f"{_STUDY} 50 --burn-in -1", 1, _RANGE.format("burn-in", 0, -1), None),
    ("study-size-0", f"{_STUDY} 0,50", 1, _RANGE.format("sizes", 1, "0,50"), None),
    ("study-size-negative", f"{_STUDY}=-5", 1, _RANGE.format("sizes", 1, -5), None),
    ("simulate-seed", f"{_SIM_NB} --seed -1", 1, _RANGE.format("seed", 0, -1), None),
    ("moments-seed", f"{_MOMENTS} {{grid}} --seed -1", 1, _RANGE.format("seed", 0, -1), None),
    ("study-seed", f"{_STUDY} 50 --seed -1", 1, _RANGE.format("seed", 0, -1), None),
    ("fit-seed", f"{_FIT} --seed -1", 1, _RANGE.format("seed", 0, -1), None),
    ("fit-restarts", f"{_FIT} --restarts -1", 1, _RANGE.format("restarts", 0, -1), None),
    ("fit-linear-hidden", f"{_FIT} --hidden -3", 1, _RANGE.format("hidden", 1, -3), None),
    ("moments-max-lag-0", f"{_MOMENTS} {{grid}} --max-lag 0", 1, _RANGE.format("max-lag", 1, 0), None),
    ("moments-max-lag-negative", f"{_MOMENTS} {{grid}} --max-lag -2", 1, _RANGE.format("max-lag", 1, -2), None),
    ("diagnose-max-lag-0", "diagnose --out {out} {series} --max-lag 0", 1, _RANGE.format("max-lag", 1, 0), None),
    ("simulate-seed-text", f"{_SIM_NB} --seed x", 1, "argument --seed: expected int values, got 'x'", None),
    ("simulate-alpha-text", f"{_SIM} --alpha 0.1,x", 1, "argument --alpha: expected float values, got '0.1,x'", None),
    # a command accepts only the options it reads
    ("moments-p", f"{_MOMENTS} {{grid}} --p 2", 1, "unrecognized arguments: --p 2", None),
    ("moments-link", f"{_MOMENTS} {{grid}} --link neural", 1, "unrecognized arguments: --link neural", None),
    ("moments-hidden", f"{_MOMENTS} {{grid}} --hidden 4", 1, "unrecognized arguments: --hidden 4", None),
    ("moments-restarts", f"{_MOMENTS} {{grid}} --restarts 9", 1, "unrecognized arguments: --restarts 9", None),
    ("simulate-restarts", f"{_SIM_NB} --restarts 3", 1, "unrecognized arguments: --restarts 3", None),
    ("study-link", f"{_STUDY} 100 --link neural", 1, "unrecognized arguments: --link neural", None),
    ("study-hidden", f"{_STUDY} 100 --hidden 2", 1, "unrecognized arguments: --hidden 2", None),
    ("fit-criterion", f"{_FIT} --criterion bic", 1, "--criterion needs --model", None),
    ("fit-model-list-family", f"{_FIT} --model nb(1,0) --family poisson", 1, "--family conflicts with --model", None),
    ("fit-model-list-link", f"{_FIT} --model nb(1,0) --link neural", 1, "--link conflicts with --model", None),
    ("fit-model-list-p", f"{_FIT} --model nb(1,0) --p 3", 1, "--p conflicts with --model", None),
    ("fit-model-list-q", f"{_FIT} --model nb(1,0) --q 2", 1, "--q conflicts with --model", None),
    ("fit-malformed-model", f"{_FIT} --model nb(1)", 1, _MODEL, None),
    ("fit-malformed-second-model", f"{_FIT} --model nb(1,0) --model nb(1)", 1, _MODEL, None),
    # each entry names one output section, so two spellings of one model name it twice
    ("fit-model-twice", f"{_FIT} --model nb(1,0) --model nb(1,0)", 1, f"{_TWICE} nb(1,0), nb(1,0)", None),
    ("fit-model-twice-negbin", f"{_FIT} --model nb(1,0) --model negbin(1,0)", 1, f"{_TWICE} nb(1,0), negbin(1,0)",
     None),
    ("fit-model-twice-poisson", f"{_FIT} --model pois(2,1) --model poisson(2,1)", 1,
     f"{_TWICE} pois(2,1), poisson(2,1)", None),
    ("fit-model-twice-neural", f"{_FIT} --model neu-nb(1,0) --model neu-negbin(1,0)", 1,
     f"{_TWICE} neu-nb(1,0), neu-negbin(1,0)", None),
    ("study-size-twice", f"{_STUDY} 100,100", 1, "--sizes lists a value twice: 100, 100", None),
    # each parameter option the model reads, and none it does not
    ("simulate-no-alpha0", _SIM, 1, "simulate/study with a linear link needs --alpha0", None),
    ("simulate-beta-count", f"{_SIM} --alpha0 1 --alpha 0.3 --q 1 --n 3", 1, "need 1 --alpha and 1 --beta coefficients",
     None),
    ("simulate-no-weights", f"{_SIM} --link neural", 1, "simulate with a neural link needs --weights", None),
    ("simulate-no-n", f"{_SIM} --alpha0 1 --alpha 0.1", 1, "negbin family needs --n", None),
    ("simulate-weight-count", f"{_SIM} --link neural --weights 0.1,0.2 --n 2", 1,
     "flat weight vector must have 4 entries, got 3", None),
    ("simulate-neural-alpha0", f"{_SIM} --link neural --weights=0.1,0.2,1.0 --alpha0 5", 1,
     "--alpha0, --alpha and --beta apply to the linear link only", None),
    ("simulate-linear-weights", f"{_SIM_NB} --weights=1,2", 1, "--weights applies to the neural link only", None),
    ("simulate-poisson-n", f"{_SIM_NB} --family poisson", 1, "--n applies to the negbin family only", None),
    ("study-poisson-n", f"{_STUDY} 50 --family poisson", 1, "--n applies to the negbin family only", None),
    ("simulate-linear-hidden", f"{_SIM_NB} --hidden 2", 1, "hidden applies to the neural link only", None),
    # the network's output unit uses c = 1; each --model token is checked before the first fit
    ("fit-neural-c", f"{_FIT} --link neural --c 5", 1, _NEURAL_C, None),
    ("fit-model-list-neural-c", f"{_FIT} --model nb(1,0) --model neu-pois(1,0) --c 5", 1, _NEURAL_C, None),
    ("fit-model-list-bad-orders", f"{_FIT} --model nb(1,0) --model nb(0,1)", 1, "q >= 1 requires p >= 1", None),
    ("moments-bad-c", f"{_MOMENTS} {{grid}} --c -1", 1, "c must be finite and > 0", None),
    # a series longer than --max-lag (3 by default for moments), and a split that leaves a test point
    ("moments-length-3", "moments --out {out} --grid {grid} --length 3", 1, "moments needs --length > --max-lag", None),
    ("moments-length-at-max-lag", "moments --out {out} --grid {grid} --length 5 --max-lag 5", 1,
     "moments needs --length > --max-lag", None),
    ("diagnose-max-lag-120", "diagnose --out {out} {series} --max-lag 120", 1, "--max-lag must lie in [1, 119]", None),
    ("diagnose-max-lag-400", "diagnose --out {out} {series} --max-lag 400", 1, "--max-lag must lie in [1, 119]", None),
    ("forecast-split-120", "forecast --out {out} {series} --split 120", 1, "--split must lie in [1, 119]", None),
    ("forecast-split-500", "forecast --out {out} {series} --split 500", 1, "--split must lie in [1, 119]", None),
    # an unusable --out is refused before the input is read or any work starts
    ("fit-out-directory", "fit --out {adir} {missing}", 1, "--out {adir}: {adir} is a directory", None),
    ("diagnose-out-file", "diagnose --out {short} {series}", 1, "--out {short}: {short} is not a directory", None),
    ("simulate-out-below-file", "simulate --out {short}/x.csv --length 10 --p 1 --q 0 --alpha0 1 --alpha 0.3 --n 3", 1,
     "--out {short}/x.csv: {short} is not a directory", None),
    # both files are read by one reader, which refuses a file it cannot read as UTF-8 text
    ("moments-missing-grid", f"{_MOMENTS} {{missing}}", 2, "grid file not found: {missing}", None),
    ("moments-grid-directory", f"{_MOMENTS} {{adir}}", 2, "{adir}: Is a directory", None),
    ("moments-grid-not-utf8", f"{_MOMENTS} {{cp1252}}", 2, "{cp1252}: not UTF-8 text", None),
    ("fit-missing-input", "fit --out {out} {missing}", 2, "input file not found: {missing}", None),
    ("fit-directory", "fit --out {out} {adir}", 2, "{adir}: Is a directory", None),
    ("fit-not-utf8", "fit --out {out} {cp1252}", 2, "{cp1252}: not UTF-8 text", None),
    # the grid's header names alpha0, alpha1, beta1 and n once each; refusals cite file lines, and a grid
    # value the parameters refuse is a parse error, not a numeric one
    ("moments-grid-no-beta1", f"{_MOMENTS} {{grid_no_beta1}}", 2,
     f"line 1: {_GRID_HEADER} and n once each, got ['alpha0', 'alpha1', 'n']", None),
    ("moments-poisson-grid-no-beta1", f"{_MOMENTS} {{grid_no_beta1}} --family poisson", 2,
     f"line 1: {_GRID_HEADER} and optionally n once each, got ['alpha0', 'alpha1', 'n']", None),
    ("moments-grid-no-n", f"{_MOMENTS} {{grid_no_n}}", 2,
     f"line 1: {_GRID_HEADER} and n once each, got ['alpha0', 'alpha1', 'beta1']", None),
    ("moments-grid-unknown-column", f"{_MOMENTS} {{grid_note}}", 2,
     f"line 1: {_GRID_HEADER} and n once each, got ['alpha0', 'alpha1', 'beta1', 'n', 'note']", None),
    ("moments-grid-column-twice", f"{_MOMENTS} {{grid_twice}}", 2,
     f"line 1: {_GRID_HEADER} and n once each, got ['alpha0', 'alpha0', 'alpha1', 'beta1', 'n']", None),
    ("moments-grid-no-header", f"{_MOMENTS} {{grid_no_header}}", 2,
     f"line 1: {_GRID_HEADER} and n once each, got ['1.8', '0.3', '0.4', '3']", None),
    ("moments-grid-empty", f"{_MOMENTS} {{grid_empty}}", 2, "{grid_empty}: no grid rows found", None),
    ("moments-grid-header-only", f"{_MOMENTS} {{grid_header_only}}", 2, "{grid_header_only}: no grid rows found", None),
    ("moments-grid-nan", f"{_MOMENTS} {{grid_nan}}", 2, "line 3: coefficients must be finite", None),
    ("moments-grid-negative-n", f"{_MOMENTS} {{grid_negative_n}}", 2, "line 3: dispersion n must be finite and > 0",
     None),
    ("moments-grid-text", f"{_MOMENTS} {{grid_text}}", 2, "line 3: could not convert string to float: 'abc'", None),
    ("moments-grid-wide", f"{_MOMENTS} {{grid_wide}}", 2, "line 2: expected 4 columns, got 5", None),
    ("moments-poisson-grid-n", f"{_MOMENTS} {{grid}} --family poisson", 2,
     "line 2: n applies to the negbin family only", None),
    ("fit-bad-header", "fit --out {out} {bad_header}", 2,
     "line 1: header must be 'count' or 'timestamp,count', got ['value']", None),
    ("fit-ragged", "fit --out {out} {ragged}", 2, "line 3: expected 2 columns, got 1", None),
    ("fit-text-count", "fit --out {out} {text}", 2, "line 3: non-numeric count 'abc'", None),
    ("fit-fraction", "fit --out {out} {fraction}", 2, "line 3: counts must be integers, got '2.5'", None),
    ("fit-negative-count", "fit --out {out} {negative}", 2, "line 3: counts must be non-negative, got '-1'", None),
    ("fit-huge-count", "fit --out {out} {huge}", 2, "line 3: counts must be below 2**53, got '9007199254740993'", None),
    ("fit-header-only", "fit --out {out} {header_only}", 2, "{header_only}: no count rows found", None),
    ("fit-short-feedback", "fit --out {out} {short} --q 1", 3, "series too short for initialization: need >= 40 points",
     "fit_cml"),
]
_PREFIX = {1: "usage error", 2: "parse error", 3: "numeric error"}
_WORK = ("fit_cml", "simulate_path", "moment_study", "simulation_study")  # each fit, simulation and study


@pytest.fixture
def inputs(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / f"{name}.csv").write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    (tmp_path / "adir").mkdir()
    return {name: tmp_path / f"{name}.csv" for name in [*INPUTS, "missing"]} | {"out": tmp_path / "out",
                                                                                "adir": tmp_path / "adir"}


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the refusal")


@pytest.mark.parametrize("argv, code, text, run", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal(inputs, monkeypatch, capsys, argv, code, text, run):
    for name in set(_WORK) - {run}:
        monkeypatch.setattr(cli, name, _must_not_run)
    assert main([word.format(**inputs) for word in argv.split()]) == code
    assert capsys.readouterr().err == f"{_PREFIX[code]}: {text.format(**inputs)}\n"
    assert not inputs["out"].exists()


# refusals of cli.py that `main` cannot reach, by message, with the reason
UNREACHABLE = {"unknown command {…}": "`main` gives `run` only a command its parser accepted"}


def _unlisted(source, texts):
    """Each call of UsageError, DataError or argparse.ArgumentTypeError in
    `source` whose message, a string or an f-string, ends none of `texts` and
    is not UNREACHABLE, as "cli.py:line: message" with each replacement field
    as {…}."""
    unlisted = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args
                and ast.unparse(node.func) in ("UsageError", "DataError", "argparse.ArgumentTypeError")):
            continue
        parts = node.args[0].values if isinstance(node.args[0], ast.JoinedStr) else [node.args[0]]
        if not all(isinstance(p, ast.FormattedValue) or isinstance(getattr(p, "value", None), str) for p in parts):
            continue  # a message made at run time: str(exc), or argparse's own
        message = "".join("{…}" if isinstance(p, ast.FormattedValue) else p.value for p in parts)
        pattern = "".join(".+?" if isinstance(p, ast.FormattedValue) else re.escape(p.value) for p in parts)
        if message not in UNREACHABLE and not any(re.search(rf"(^|: ){pattern}\Z", t) for t in texts):
            unlisted.append(f"cli.py:{node.lineno}: {message}")
    return unlisted


_CLI_SOURCE = Path(cli.__file__).read_text(encoding="utf-8")
_TEXTS = [row[3] for row in REFUSALS]


def test_every_refusal_has_a_row():
    assert _unlisted(_CLI_SOURCE, _TEXTS) == []


def test_refusal_check_has_teeth():
    end = _CLI_SOURCE.count("\n")
    planted = f'{_CLI_SOURCE}raise UsageError("planted")\nraise DataError(f"row {{i}}: planted")\n'
    assert _unlisted(planted, _TEXTS) == [f"cli.py:{end + 1}: planted", f"cli.py:{end + 2}: row {{…}}: planted"]


class TestExitCodes:
    def test_single_count_negbin_network_fits(self, tmp_path):
        # one count has no dispersion ratio; the network's NB start used to exit 2 on it
        one = tmp_path / "one.csv"
        one.write_text("count\n3\n")
        with pytest.warns(UserWarning, match="identifiability floor"):
            assert main(["fit", str(one), "--link", "neural", "--family", "negbin", "--p", "1", "--q", "0",
                         "--restarts", "0", "--out", str(tmp_path / "o.txt")]) == 0

    def test_diagnose_writes_nothing_when_a_diagnostic_fails(self, tmp_path, monkeypatch):
        # 12 points are too few for the cumulative periodogram; fit.txt,
        # residuals.csv and correlogram.csv used to be written before it failed
        data = tmp_path / "short.csv"
        data.write_text("count\n" + "\n".join("3 1 4 1 5 9 2 6 5 3 5 8".split()) + "\n")
        outdir = tmp_path / "diag"
        with pytest.warns(UserWarning, match="identifiability floor"):
            assert main(["diagnose", str(data), "--link", "neural", "--family", "poisson", "--p", "1", "--q", "0",
                         "--restarts", "0", "--out", str(outdir)]) == 2
        assert not outdir.exists()
        # the residuals of pois(1,0) on 100 zeros are constant up to rounding
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("count\n" + "0\n" * 100)
        assert main(["diagnose", str(zeros), "--family", "poisson", "--p", "1", "--q", "0",
                     "--out", str(outdir)]) == 2
        assert not outdir.exists()
        # a fit that did not converge still gets every file, and exit 4
        real_fit = cli.fit_cml
        monkeypatch.setattr(cli, "fit_cml", lambda *args: dataclasses.replace(real_fit(*args), converged=False))
        assert main(["diagnose", str(write_series(tmp_path, seed=8, n=120)), "--p", "1", "--q", "0",
                     "--out", str(outdir)]) == 4
        assert sorted(p.name for p in outdir.iterdir()) == \
            ["correlogram.csv", "fit.txt", "periodogram.csv", "residuals.csv"]

    def test_non_convergence_exit(self, tmp_path, monkeypatch):
        data = write_series(tmp_path, seed=8, n=120)
        out = tmp_path / "nc.txt"

        real_fit = cli.fit_cml
        monkeypatch.setattr(cli, "fit_cml", lambda *args: dataclasses.replace(real_fit(*args), converged=False))
        code = main(["fit", str(data), "--p", "1", "--q", "0", "--out", str(out)])
        assert code == 4
        assert out.exists()  # fit document still written
        doc = loads(out.read_text())
        assert doc["fit"]["converged"] is False

    def test_model_list_selects_among_converged_fits(self, tmp_path, monkeypatch):
        # the lowest AIC belongs to a candidate that did not converge: the best
        # converged one wins and the run exits 0; exit 4 means none converged
        data = write_series(tmp_path, seed=4)
        out = tmp_path / "sel.txt"
        argv = ["fit", str(data), "--model", "nb(1,0)", "--model", "nb(2,0)", "--model", "pois(1,0)",
                "--out", str(out)]
        real_fit = cli.fit_cml
        unconverged = {POISSON}

        def fake_fit(spec, series, opts):
            fit = real_fit(spec, series, opts)
            if spec.family in unconverged:
                fit.converged = False
                if spec.family == POISSON:
                    fit.aic -= 1e3  # now the lowest AIC of the list
            return fit

        monkeypatch.setattr(cli, "fit_cml", fake_fit)
        assert main(argv) == 0
        doc = loads(out.read_text())
        fits = doc["fits"]
        assert doc["selection"]["best"] == min(["nb(1,0)", "nb(2,0)"], key=lambda m: fits[m]["aic"])
        assert fits["pois(1,0)"]["aic"] < fits[doc["selection"]["best"]]["aic"]

        unconverged.add(NEGBIN)
        with pytest.warns(ConvergenceWarning, match="no candidate fit converged"):
            assert main(argv) == 4
        assert loads(out.read_text())["selection"]["best"] == "pois(1,0)"


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


_COMMANDS = ("simulate", "fit", "moments", "study", "diagnose", "forecast")
_REQUIRED = {"simulate": ["--out", "o", "--length", "7"], "fit": ["in.csv", "--out", "o"],
             "moments": ["--out", "o", "--grid", "g.csv"], "study": ["--out", "o", "--sizes", "7"],
             "diagnose": ["in.csv", "--out", "o"], "forecast": ["in.csv", "--out", "o", "--split", "7"]}


class TestOneCommandParser:
    """`_parse` builds only the invoked command's options; what it prints and
    refuses is what the parser of all six commands prints and refuses."""

    @staticmethod
    def _outcome(parser, argv, capsys):
        try:
            return "namespace", vars(parser.parse_args(argv))
        except UsageError as exc:
            return "usage error", str(exc)
        except SystemExit as exc:
            return "exit", exc.code, capsys.readouterr().out

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_only_the_command_is_built(self, command):
        subparsers = next(a for a in _build_parser(command)._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        built = {name for name, sp in subparsers.items() if sp._actions}
        assert built == {command}

    @pytest.mark.parametrize("command", _COMMANDS)
    @pytest.mark.parametrize("case", ["help", "top-level help", "unknown option", "missing required option",
                                      "out of range", "another command's option", "valid"])
    def test_same_output_as_the_full_parser(self, command, case, capsys):
        argv = {
            "help": [command, "--help"],
            "top-level help": ["--help", command],
            "unknown option": [command, *_REQUIRED[command], "--bogus", "1"],
            "missing required option": [command, *_REQUIRED[command][:-2]],
            "out of range": [command, *_REQUIRED[command], "--seed", "-1"],
            "another command's option": [command, *_REQUIRED[command],
                                         *(["--split", "5"] if command == "moments" else ["--grid", "g.csv"])],
            "valid": [command, *_REQUIRED[command]],
        }[case]
        full = self._outcome(_build_parser(), argv, capsys)
        assert full[0] == {"help": "exit", "top-level help": "exit", "valid": "namespace"}.get(case, "usage error")
        assert self._outcome(_build_parser(command), argv, capsys) == full
        if case in ("unknown option", "missing required option", "out of range", "another command's option"):
            with pytest.raises(UsageError) as exc:
                _parse(argv)
            assert str(exc.value) == full[1]
        elif case == "help":
            with pytest.raises(SystemExit):
                _parse(argv)
            assert capsys.readouterr().out == full[2]

    def test_no_command(self, capsys):
        assert self._outcome(_build_parser(), ["--help"], capsys) == \
            self._outcome(_build_parser(None), ["--help"], capsys)


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
                argv.append(f"{_flag(name)}={text}")
        return argv

    def _assert_csv_replays(self, path):
        line = next(line for line in path.read_text().splitlines() if line.startswith("# config: "))
        record = dict(word.split("=", 1) for word in shlex.split(line)[2:])
        replay = path.with_name(path.name + ".replay")
        _write_csv(replay, _parse(self._argv(record)), [])
        assert replay.read_text().splitlines()[1] == line

    def _assert_document_replays(self, path):
        record = loads(path.read_text())["config"]
        assert _parse(self._argv(record)).provenance() == record

    def test_every_command_replays_from_its_record(self, tmp_path):
        data = write_series(tmp_path, seed=9, n=120)
        grid = tmp_path / "grid.csv"
        grid.write_text("alpha0,alpha1,beta1,n\n1.8,0.3,0.4,3\n")
        sim, sel, mom = tmp_path / "sim.csv", tmp_path / "sel.txt", tmp_path / "mom.csv"
        spaced = tmp_path / "my dir" / "s.csv"
        study, diag, fc = tmp_path / "study.txt", tmp_path / "diag", tmp_path / "fc.txt"
        runs = [
            (["simulate", "--p", "2", "--q", "0", "--alpha0", "1.5", "--alpha", "-0.2,0.3", "--n", "3",
              "--length", "50", "--seed", "4", "--out", str(sim)], [sim], []),
            (["simulate", "--family", "poisson", "--p", "1", "--q", "0", "--alpha0", "1", "--alpha", "0.3",
              "--length", "20", "--out", str(spaced)], [spaced], []),
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

    def test_model_tokens_are_stripped(self, tmp_path):
        # a token with surrounding spaces once labelled its fit " nb(1,0)", which
        # textdoc could not read back and the replay, labelled "nb(1,0)", did not reproduce
        data = write_series(tmp_path, seed=9, n=120)
        out = tmp_path / "sel.txt"
        assert main(["fit", str(data), "--model", " nb(1,0)", "--model", "pois(1,0) ", "--out", str(out)]) == 0
        text = out.read_text()
        doc = loads(text)
        assert list(doc["fits"]) == ["nb(1,0)", "pois(1,0)"]
        assert doc["config"]["models"] == ["nb(1,0)", "pois(1,0)"]
        out.unlink()
        assert main(self._argv(doc["config"])) == 0
        assert out.read_text() == text


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


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
