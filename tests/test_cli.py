"""Tests for CSV ingestion, standardization, and the command surface."""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcreg import fixture_path
from pcreg.cli import (
    EXIT_ALERT,
    EXIT_DOF,
    EXIT_OK,
    EXIT_RANK,
    EXIT_USAGE,
    compare_payload,
    load_csv,
    load_simulation_config,
    main,
    render_compare_table,
    standardize,
)
from pcreg.errors import DataFormatError, DegreesOfFreedomError, ValidationError
from pcreg.model import Dataset, fit_ols
from pcreg.montecarlo import MAX_REPLICATES

TOY_CSV = "y,a,b\n1,1,0\n2,0,2\n3,0,0\n"


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return path


def write_sim_config(tmp_path, **overrides):
    rng = np.random.default_rng(3)
    cfg = {
        "x": rng.standard_normal((40, 3)).tolist(),
        "beta_true": [1.0, 0.0, 0.0],
        "sigma2_true": 1.0,
        "d": 2,
        "replicates": 150,
        "seed": 17,
    }
    cfg.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestLoadCsv:
    def test_toy_matches_hand_dataset(self, toy_csv):
        data = load_csv(toy_csv, "y", add_intercept=False)
        np.testing.assert_array_equal(data.y, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(data.x, [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert data.names == ("a", "b")
        assert not data.intercept_included

    def test_intercept_prepended_by_default(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y,a\n1,4\n2,5\n3,6\n4,9\n", encoding="utf-8")
        data = load_csv(path, "y")
        assert data.names == ("Intercept", "a")
        np.testing.assert_array_equal(data.x[:, 0], np.ones(4))
        assert data.intercept_included

    def test_fixture_shape(self):
        data = load_csv(fixture_path(), "cost")
        assert (data.n, data.p) == (158, 8)
        assert data.names[0] == "Intercept"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(path, "y")

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_csv(path, "y")

    def test_missing_response(self, toy_csv):
        with pytest.raises(DataFormatError, match="response"):
            load_csv(toy_csv, "nope")

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("y,a\n1,2\n3,oops\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"line 3, column 'a'.*'oops'"):
            load_csv(path, "y")

    def test_nonfinite_cell_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("y,a\n1,2\n3,inf\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("y,a\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path, "y")

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + TOY_CSV.encode("utf-8"))
        data = load_csv(path, "y", add_intercept=False)
        assert data.names == ("a", "b")
        np.testing.assert_array_equal(data.y, [1.0, 2.0, 3.0])

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(TOY_CSV + "\n\r\n\n", encoding="utf-8")
        data = load_csv(path, "y", add_intercept=False)
        np.testing.assert_array_equal(data.x, [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])

    def test_inner_blank_line_still_rejected(self, tmp_path):
        path = tmp_path / "inner.csv"
        path.write_text("y,a\n1,2\n\n3,5\n4,1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path, "y")

    def test_too_few_rows_is_dof_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("y,a,b\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        with pytest.raises(DegreesOfFreedomError):
            load_csv(path, "y")  # intercept makes p=3 with n=3


class TestStandardize:
    def test_none_is_identity(self, toy_csv):
        data = load_csv(toy_csv, "y", add_intercept=False)
        out, record = standardize(data, "none")
        assert out is data
        assert record.mode == "none"

    def test_center_subtracts_means_intercept_exempt(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("y,a\n1,4\n2,6\n3,8\n4,10\n", encoding="utf-8")
        data = load_csv(path, "y")
        out, record = standardize(data, "center")
        np.testing.assert_array_equal(out.x[:, 0], np.ones(4))
        np.testing.assert_allclose(out.x[:, 1], [-3.0, -1.0, 1.0, 3.0])
        assert record.means[1] == 7.0 and record.means[0] == 0.0

    def test_center_allows_constant_column(self):
        x = np.column_stack([np.ones(5), np.full(5, 3.0), np.arange(5.0)])
        data = Dataset(y=np.arange(5.0), x=x, intercept_included=True)
        out, _ = standardize(data, "center")
        np.testing.assert_array_equal(out.x[:, 1], np.zeros(5))

    def test_zscore_zero_variance_names_column(self):
        x = np.column_stack([np.ones(5), np.full(5, 3.0), np.arange(5.0)])
        data = Dataset(y=np.arange(5.0), x=x, names=("Intercept", "flat", "t"),
                       intercept_included=True)
        with pytest.raises(ValidationError, match="flat"):
            standardize(data, "zscore")

    def test_zscore_preserves_predictions(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = np.column_stack([np.ones(30), rng.standard_normal((30, 4)) * [1, 10, 0.1, 100]])
            y = rng.standard_normal(30)
            data = Dataset(y=y, x=x, intercept_included=True)
            ols_raw = fit_ols(data)
            scaled, _ = standardize(data, "zscore")
            ols_std = fit_ols(scaled)
            np.testing.assert_allclose(
                scaled.x @ ols_std.beta, data.x @ ols_raw.beta, atol=1e-8
            )


    def test_moments_are_each_columns_own_bits(self):
        # The scaled, row-wise moments equal numpy's mean and std of each
        # column alone, bit for bit, so rescaling moves no output.
        raw = load_csv(fixture_path(), "cost")
        rng = np.random.default_rng(21)
        wide = Dataset(y=rng.standard_normal(300), x=rng.standard_normal((300, 6)) * 1e3 + 7.0)
        for data in (raw, wide):
            start = 1 if data.intercept_included else 0
            out, record = standardize(data, "zscore")
            for j in range(start, data.p):
                centered = data.x[:, j] - data.x[:, j].mean()
                assert record.means[j] == data.x[:, j].mean()
                assert record.scales[j] == centered.std(ddof=1)
                assert out.x[:, j].tobytes() == (centered / centered.std(ddof=1)).tobytes()

    def test_zscore_of_a_column_whose_squares_underflow(self):
        # Squares of entries near 1e-170 underflow to zero; the column must
        # still z-score like the same column at unit scale.
        rng = np.random.default_rng(2)
        x = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
        data = Dataset(y=rng.standard_normal(20), x=x, intercept_included=True)
        tiny = Dataset(y=data.y, x=x * [1.0, 1e-170, 1.0], intercept_included=True)
        want, _ = standardize(data, "zscore")
        got, record = standardize(tiny, "zscore")
        np.testing.assert_allclose(got.x, want.x, rtol=1e-14, atol=1e-14)
        assert record.scales[1] == pytest.approx(1e-170 * x[:, 1].std(ddof=1), rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_columns_near_the_double_range(self, tmp_path):
        # The sums inside a column's mean and standard deviation overflow
        # near 1e308 unless they are taken on a power-of-two-scaled copy.
        big, small = tmp_path / "big.csv", tmp_path / "small.csv"
        big.write_text("y,a\n1,1e308\n2,1.5e308\n3,1.2e308\n4,1.7e308\n5,1.1e308\n",
                       encoding="utf-8")
        small.write_text(big.read_text(encoding="utf-8").replace("e308", "e8"), encoding="utf-8")
        argv = ["compare", "--response", "y", "--d", "1", "--format", "json"]
        code, out, err = run_main([*argv, "--input", str(big), "--standardize", "zscore"])
        assert code == EXIT_OK and err == ""
        got = json.loads(out)
        assert got["config"]["standardize"]["means"][1] == pytest.approx(1.3e308, rel=1e-15)
        want = json.loads(run_main([*argv, "--input", str(small), "--standardize", "zscore"])[1])
        # The z-scored columns agree to a few ulps: the 1e308 column is not
        # an exact power-of-two multiple of the 1e8 one.
        for key in ("ols", "pcr_d", "pcr_k", "beta_pc_d"):
            np.testing.assert_allclose(got["estimates"][key], want["estimates"][key],
                                       rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(got["estimates"]["sigma2"]["ols"],
                                   want["estimates"]["sigma2"]["ols"], rtol=1e-15)
        # Centered, the column dwarfs the intercept, whose singular value
        # sqrt(5) is reported below the rank cutoff.
        code, out, err = run_main([*argv, "--input", str(big), "--standardize", "center"])
        assert code == EXIT_RANK and out == ""
        assert err.strip().endswith("1: 2.236e+00") and err.count("\n") == 1


class TestComparePayload:
    def test_toy_full_precision_json_values(self, toy_csv):
        data = load_csv(toy_csv, "y", add_intercept=False)
        data, record = standardize(data, "none")
        payload = compare_payload(data, 1, record)
        np.testing.assert_allclose(payload["estimates"]["ols"], [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(payload["estimates"]["pcr_d"], [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(payload["estimates"]["pcr_k"], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(payload["standard_errors"]["ols"], [3.0, 1.5], atol=1e-12)
        np.testing.assert_allclose(
            payload["standard_errors"]["pcr_d"], [0.0, np.sqrt(1.25)], atol=1e-12
        )
        np.testing.assert_allclose(
            payload["standard_errors"]["pcr_k"], [np.sqrt(6.5), 0.0], atol=1e-12
        )
        assert payload["diagnostics"]["exceeds_ols_d"] == [False, False]
        for key, value in payload["residuals"].items():
            assert value is None or value <= 1e-10, key

    def test_table_rounds_to_two_significant_figures(self, toy_csv):
        data = load_csv(toy_csv, "y", add_intercept=False)
        data, record = standardize(data, "none")
        payload = compare_payload(data, 1, record)
        table = render_compare_table(payload)
        assert "1 (3)" in table       # ols slope for column a
        assert "1 (1.1)" in table     # pcr_d slope for column b, se sqrt(1.25)
        assert "1 (2.5)" in table     # pcr_k slope for column a, se sqrt(6.5)

    def test_full_d_collapses_to_ols(self, toy_csv):
        data = load_csv(toy_csv, "y", add_intercept=False)
        data, record = standardize(data, "none")
        payload = compare_payload(data, 2, record)
        assert payload["estimates"]["pcr_d"] == payload["estimates"]["ols"]
        assert payload["estimates"]["pcr_k"] == [0.0, 0.0]
        assert payload["covariances"]["pcr_difference"] is None
        assert payload["diagnostics"]["exceeds_ols_d"] == [False, False]
        # On the near-collinear fixture too, d = p reproduces OLS exactly,
        # so no coefficient is flagged by a rounding difference.
        for mode in ("none", "center", "zscore"):
            data, record = standardize(load_csv(fixture_path(), "cost"), mode)
            payload = compare_payload(data, data.p, record)
            assert payload["estimates"]["pcr_d"] == payload["estimates"]["ols"]
            assert payload["standard_errors"]["pcr_d"] == payload["standard_errors"]["ols"]
            assert not any(payload["diagnostics"]["exceeds_ols_d"]), mode


class TestMainExitCodes:
    def test_compare_ok(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "o.txt"
        code = main([
            "compare", "--input", str(toy_csv), "--response", "y",
            "--d", "1", "--no-intercept", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "coefficient" in out.read_text(encoding="utf-8")

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,a\n1,x\n", encoding="utf-8")
        code = main(["compare", "--input", str(path), "--response", "y", "--d", "1"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_rank_error_exit(self, tmp_path, capsys):
        path = tmp_path / "rank.csv"
        path.write_text("y,a,b\n1,1,2\n2,2,4\n3,3,6\n4,4,8\n5,5,10\n", encoding="utf-8")
        code = main(["compare", "--input", str(path), "--response", "y",
                     "--d", "1", "--no-intercept"])
        assert code == EXIT_RANK

    def test_dof_error_exit(self, tmp_path, capsys):
        path = tmp_path / "dof.csv"
        path.write_text("y,a,b\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        code = main(["compare", "--input", str(path), "--response", "y", "--d", "1"])
        assert code == EXIT_DOF

    def test_huge_entries_fit_matches_lstsq(self, tmp_path, capsys):
        # Gram products of entries near 1e80 overflow unless the SVD rescales.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3)) * 1e80
        y = rng.standard_normal(40)
        path = tmp_path / "huge.csv"
        rows = ["y,a,b,c"] + [",".join(repr(float(v)) for v in (y[i], *x[i])) for i in range(40)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["fit", "--input", str(path), "--response", "y",
                     "--no-intercept", "--format", "json"])
        assert code == EXIT_OK
        beta = json.loads(capsys.readouterr().out)["estimates"]["beta"]
        data = load_csv(path, "y", add_intercept=False)
        expected = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
        np.testing.assert_allclose(beta, expected, rtol=1e-10)

    def test_tiny_columns_are_a_rank_error(self, tmp_path, capsys):
        # Two columns near 1e-100 beside O(1) ones: their Gram product
        # underflows to zero, which must end as a rank error, not a crash.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4)) * np.array([1.0, 1e-100, 1e-100, 1.0])
        y = rng.standard_normal(30)
        path = tmp_path / "tiny.csv"
        rows = ["y,a,b,c,d"] + [",".join(repr(float(v)) for v in (y[i], *x[i]))
                                for i in range(30)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["fit", "--input", str(path), "--response", "y"])
        assert code == EXIT_RANK
        err = capsys.readouterr().err
        assert err.startswith("pcreg: rank error:") and err.count("\n") == 1
        # A column near 1e308 beside the intercept: the error must report
        # the intercept-like component's true singular value, about 1.9,
        # not a value flushed to zero by scaling the design.
        path.write_text("y,a\n1,1e308\n2,-1e308\n3,1e308\n4,0\n", encoding="utf-8")
        code = main(["compare", "--input", str(path), "--response", "y", "--d", "1"])
        assert code == EXIT_RANK
        err = capsys.readouterr().err
        assert re.search(r"1: 1\.9\d\de\+00$", err.strip()) and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_singular_value_exit(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text("y,a\n1,1e308\n2,-1e308\n3,1e308\n4,1e308\n5,0\n", encoding="utf-8")
        code = main(["fit", "--input", str(path), "--response", "y"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("pcreg: error: design too large") and err.count("\n") == 1

    def test_fit_ols_json(self, toy_csv, capsys):
        code = main(["fit", "--input", str(toy_csv), "--response", "y",
                     "--no-intercept", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["estimates"]["beta"], [1.0, 1.0], atol=1e-12)
        assert payload["estimates"]["dof"] == 1


class TestSimulate:
    def test_missing_field_reports_path_and_field(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"x": [[1.0]]}), encoding="utf-8")
        with pytest.raises(DataFormatError, match="beta_true"):
            load_simulation_config(path)

    def test_invalid_json_exit(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE

    def test_replicates_floor_exit(self, tmp_path, capsys):
        path = write_sim_config(tmp_path, replicates=50)
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        assert "replicates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "abc"),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", 2**128),
            ("seed", True),
            ("sigma2_true", [1]),
            ("d", None),
            ("d", 2.9),
            ("replicates", 100.7),
            ("replicates", MAX_REPLICATES + 1),
            ("replicates", 2**128),
        ],
    )
    def test_bad_field_value_exit(self, tmp_path, capsys, field, value):
        path = write_sim_config(tmp_path, **{field: value})
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert field in err and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sigma2_true_exit(self, tmp_path, capsys):
        path = write_sim_config(tmp_path, sigma2_true=1e308)
        code = main(["simulate", "--config", str(path), "--format", "json"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_mean_exit(self, tmp_path, capsys):
        # x @ beta_true overflows; the non-finite aggregate check reports it.
        x = np.random.default_rng(3).standard_normal((40, 3)) * 1e300
        path = write_sim_config(tmp_path, x=x.tolist(), beta_true=[1e10] * 3, replicates=100)
        code = main(["simulate", "--config", str(path), "--format", "json"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pcreg: error: simulation aggregate")
        assert "not finite" in captured.err and captured.err.count("\n") == 1

    def test_rank_deficient_design_exit(self, tmp_path, capsys):
        x = np.random.default_rng(3).standard_normal((40, 3))
        x[:, 2] = x[:, 1]
        path = write_sim_config(tmp_path, x=x.tolist(), replicates=100)
        code = main(["simulate", "--config", str(path), "--format", "json"])
        assert code == EXIT_RANK
        err = capsys.readouterr().err
        assert err.startswith("pcreg: rank error: design is rank deficient")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "beta_true, sigma2_true",
        [([0.0, 0.0, 1.32637956565435e14], 1.0), ([1.0, 0.0, 0.0], 1e-300)],
    )
    def test_rounding_in_a_large_mean_does_not_alert(self, tmp_path, capsys, beta_true,
                                                      sigma2_true):
        # Signal far above the noise: means differ from their predictions by
        # a few ulps (with a zero MCSE in the second case), which the z floor
        # keeps from reading as deviation.
        path = write_sim_config(tmp_path, beta_true=beta_true, sigma2_true=sigma2_true,
                                replicates=100)
        code = main(["simulate", "--config", str(path), "--format", "json"])
        assert code == EXIT_OK
        rows = [r for r in json.loads(capsys.readouterr().out)["rows"] if r["asserted"]]
        assert any(r["observed"] != r["predicted"] for r in rows)
        assert all(abs(r["z"]) < 1.0 for r in rows)

    def test_too_few_observations_exit(self, tmp_path, capsys):
        path = write_sim_config(tmp_path, x=[[1.0, 0.0], [0.0, 1.0]], beta_true=[1.0, 0.0], d=1)
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_DOF
        err = capsys.readouterr().err
        assert err.startswith("pcreg: dof error:") and err.count("\n") == 1

    def test_negative_seed_override_exit(self, tmp_path, capsys):
        path = write_sim_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "-1"]) == EXIT_USAGE
        assert "seed" in capsys.readouterr().err

    def test_run_and_byte_identical_rerun(self, tmp_path):
        path = write_sim_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", str(path), "--format", "json",
                     "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(path), "--format", "json",
                     "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text(encoding="utf-8"))
        assert payload["adjudication"]["winner"] in ("n-d", "n-p")

    def test_seed_override_changes_output(self, tmp_path):
        path = write_sim_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", str(path), "--format", "json", "--out", str(out1)])
        main(["simulate", "--config", str(path), "--format", "json", "--out", str(out2),
              "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_alert_threshold_exit(self, tmp_path):
        path = write_sim_config(tmp_path)
        code = main(["simulate", "--config", str(path), "--alert-threshold", "1e-9",
                     "--out", str(tmp_path / "x.txt")])
        assert code == EXIT_ALERT

    def test_recorded_dof_rows_do_not_alert(self, tmp_path):
        # signal on the omitted components makes the n-p dof rows deviate
        # by design; only asserted rows count toward the alert
        rng = np.random.default_rng(8)
        x = rng.standard_normal((80, 4))
        path = write_sim_config(
            tmp_path, x=x.tolist(), beta_true=[0.0, 0.0, 2.0, 2.0],
            replicates=4000, seed=5,
        )
        out = tmp_path / "r.json"
        code = main(["simulate", "--config", str(path), "--format", "json",
                     "--out", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        recorded = [r for r in payload["rows"] if not r["asserted"]]
        assert recorded and any(abs(r["z"]) > 4 for r in recorded)
        assert code == EXIT_OK


# Cells and field values for the malformed-input fuzz: the ends of the
# double range, subnormals, parse failures ("1,5" adds a cell) and wrong types.
NUMERIC_CELL = st.one_of(
    st.sampled_from(["0", "1", "-2.5", "1e308", "-1e308", "1e154", "1e-160", "1e-320",
                     "5e-324"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
BAD_CELL = st.sampled_from(["nan", "inf", "abc", "", " ", "1e309", "0x1p3", "1,5"])
JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(-3, 2**130), st.floats(), st.sampled_from([1e308, -1e308, 1e-320]),
    st.lists(st.floats(), max_size=3), st.lists(st.lists(st.floats(), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def run_main(argv):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    # A JSON result (success or a simulate z-alert), or a documented
    # failure code with exactly one stderr line.
    if code in (EXIT_OK, EXIT_ALERT):
        assert err == "" and json.loads(out)
    else:
        assert 2 <= code <= 5, (code, err)
        assert err.startswith("pcreg: ") and err.count("\n") == 1, err


class TestMalformedInputFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.lists(NUMERIC_CELL, min_size=3, max_size=3), max_size=8),
        defect=st.one_of(st.none(), st.tuples(st.integers(0, 23), BAD_CELL)),
        command=st.sampled_from(["fit", "compare"]),
        d=st.integers(0, 4),
        mode=st.sampled_from(["none", "center", "zscore"]),
        intercept=st.booleans(),
    )
    def test_csv_exits_cleanly(self, tmp_path_factory, rows, defect, command, d, mode,
                               intercept):
        if defect is not None and rows:
            cell, token = defect
            rows[cell // 3 % len(rows)][cell % 3] = token
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        path.write_text("\n".join(["y,a,b"] + [",".join(row) for row in rows]) + "\n",
                        encoding="utf-8")
        argv = [command, "--input", str(path), "--response", "y",
                "--standardize", mode, "--format", "json"]
        if command == "compare" or d > 0:  # fit without --d is the OLS fit
            argv += ["--d", str(d)]
        assert_clean_exit(*run_main(argv + ([] if intercept else ["--no-intercept"])))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        field=st.sampled_from(["x", "beta_true", "sigma2_true", "d", "replicates", "seed"]),
        value=JSON_VALUE,
        drop=st.booleans(),
        scale=st.sampled_from([1.0, 1e154, 1e307, 1e-160, 1e-320]),
    )
    def test_simulate_config_exits_cleanly(self, tmp_path_factory, field, value, drop, scale):
        # One field replaced or dropped, on a design scaled toward the ends
        # of the double range.  A valid but large replicate count is a long
        # run, not a malformed input, so it is clamped; counts above the cap
        # are malformed and reach the command line.
        if field == "replicates" and isinstance(value, int) and 200 < value <= MAX_REPLICATES:
            value = 100
        fields = {"x": (np.random.default_rng(3).standard_normal((40, 3)) * scale).tolist(),
                  "replicates": 100, field: value}
        path = write_sim_config(tmp_path_factory.mktemp("fuzz"), **fields)
        if drop:
            raw = json.loads(path.read_text(encoding="utf-8"))
            del raw[field]
            path.write_text(json.dumps(raw), encoding="utf-8")
        assert_clean_exit(*run_main(["simulate", "--config", str(path), "--format", "json"]))
