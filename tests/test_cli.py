"""Tests for CSV ingestion, standardization, and the command surface."""

import json

import numpy as np
import pytest

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
        ],
    )
    def test_bad_field_value_exit(self, tmp_path, capsys, field, value):
        path = write_sim_config(tmp_path, **{field: value})
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert field in err and err.count("\n") == 1

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
