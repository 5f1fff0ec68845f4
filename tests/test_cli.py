"""Tests for CSV ingestion, standardization, and the command surface."""

import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcreg
import pcreg.cli as cli
from pcreg import fixture_path
from pcreg.cli import (
    EXIT_ALERT,
    EXIT_CONVERGENCE,
    EXIT_DOF,
    EXIT_OK,
    EXIT_RANK,
    EXIT_USAGE,
    build_parser,
    compare_payload,
    fit_payload,
    load_csv,
    load_simulation_config,
    main,
    render_compare_table,
    render_json,
    simulate_payload,
    standardize,
    _lines,
)
from pcreg.diagnostics import (
    build_report,
    covariance_agreement,
    identity_residuals,
    pcr_covariance,
    variance_recomposition_check,
)
from pcreg.errors import DataFormatError, DegreesOfFreedomError, PcregError, ValidationError
from pcreg.model import Dataset, fit_ols, fit_pcr
from pcreg.montecarlo import MAX_REPLICATES, run_simulation, theory_comparison

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


def write_raw_sim_config(tmp_path, field, text):
    """A simulate config whose ``field`` holds the JSON ``text`` as written."""
    path = write_sim_config(tmp_path, **{field: "RAW"})
    path.write_text(path.read_text(encoding="utf-8").replace('"RAW"', text), encoding="utf-8")
    return path


def load_outcome(path, response="y"):
    """load_csv's names and array bytes, or its error type and text."""
    try:
        data = load_csv(path, response, add_intercept=False)
    except PcregError as exc:
        return type(exc).__name__, str(exc)
    return data.names, data.y.tobytes(), data.x.tobytes()


def reference_outcome(path, response="y"):
    """load_outcome with numpy's reader switched off: csv.reader and float()."""
    with mock.patch.object(cli, "_numeric_table", return_value=None):
        return load_outcome(path, response)


def assert_numpy_reader_loads(cases):
    """Each (path, response) loads, with the reference reader mocked to
    raise, to the names and bits of its reference outcome."""
    expected = [reference_outcome(path, response) for path, response in cases]
    with mock.patch.object(cli, "_cell_values", side_effect=AssertionError("reference ran")):
        got = [load_outcome(path, response) for path, response in cases]
    assert got == expected
    assert all(len(outcome) == 3 for outcome in got)  # loaded, not an error


def write_wide_csv(path, n=1000, m=50, seed=5):
    # Columns at graded scales, every value written as its shortest repr.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, m)) * np.logspace(-8, 8, m)
    lines = [",".join(["y"] + [f"x{j}" for j in range(1, m)])]
    lines += [",".join(map(repr, row.tolist())) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# What a numeric CSV is made of, and each character on which numpy's reader
# and csv.reader + float() part ways.
CSV_ALPHABET = '0123456789.eE+-_,"\n\r\t \x0c\x1c\x1d\x1e\x1f\x00\u0661\xa0nainf'
# Numbers as they are written, and as they are written to trip a parser:
# 17-digit reprs, 25-digit mantissas, up to 45 digits a side, exponents past
# the subnormal and overflow ends, spaces and tabs around the number.
CSV_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.25e}".format),
    st.from_regex(r"[ \t]?[+-]?[0-9]{0,45}\.?[0-9]{0,45}([eE][+-]?[0-9]{1,3})?[ \t]?",
                  fullmatch=True),
)
CSV_CELL = st.one_of(CSV_NUMBER, st.text(CSV_ALPHABET, max_size=5))
CSV_BODY = st.one_of(
    st.lists(st.lists(CSV_NUMBER, min_size=2, max_size=2).map(",".join), min_size=1,
             max_size=6).map(lambda rows: "\n".join(rows) + "\n"),
    st.lists(st.tuples(st.lists(CSV_CELL, min_size=1, max_size=3).map(",".join),
                       st.sampled_from(["\n", "\n", "\r\n", "\n\n", "\r", ""])),
             max_size=6).map(lambda rows: "".join(row + end for row, end in rows)),
    st.text(CSV_ALPHABET, max_size=30),
)


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

    def test_blank_header_name(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("y, ,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 1: blank column name in header"):
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

    @pytest.mark.parametrize(
        "text, error",
        [
            ("y,a\ninf,abc\n", "row at line 2, column 'y': non-finite value 'inf'"),
            ("y,a\n1,nan\n2,abc\n", "row at line 2, column 'a': non-finite value 'nan'"),
            ("y,a\n1,inf\n2\n", "row at line 2, column 'a': non-finite value 'inf'"),
            ("y,a\n1, abc \n2\n", "row at line 2, column 'a': cannot parse 'abc' as a number"),
            ("y,a\n-inf,1\n\n3,4\n", "row at line 2, column 'y': non-finite value '-inf'"),
            ("y,a\n1\n2,3,4\n", "line 2: expected 2 cells, got 1"),
        ],
        ids=["inf-then-abc-in-a-row", "nan-then-abc-below", "inf-then-ragged-below",
             "abc-then-ragged-below", "inf-then-blank-line", "short-row-then-long-row"],
    )
    def test_first_bad_cell_in_row_major_order(self, tmp_path, text, error):
        # The first failing check in reading order is reported, whether the
        # cell does not parse, is not finite, or its row is the wrong length.
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as excinfo:
            load_csv(path, "y")
        assert str(excinfo.value) == f"{path}: {error}"

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet='a1,"\n\x0c ', max_size=30))
    @example(text='a,"1\n1",a\n')  # a quoted newline stays in its cell
    @example(text='a,"1')  # an unterminated quote at the end of the text
    @example(text="a\x0c1\n\n")  # a form feed does not end a line
    def test_lines_give_the_rows_of_a_stringio(self, text):
        assert list(csv.reader(_lines(text))) == list(csv.reader(io.StringIO(text)))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None)
    @given(head=st.sampled_from(["y,a", "y,a\r", '"y",a', '"y\n",a', '"y', "a,y", "y", "y,a,b"]),
           body=CSV_BODY)
    @example(head='"y', body="1\n2\n")  # an open quote takes every line into the header
    @example(head="y,a", body="1,2\n\n3,5\n4,1\n")  # numpy skips an inner blank line
    @example(head="y,a", body="1,2\r3,4\n\n5,6\n")  # a bare "\r" ends numpy's row
    @example(head="y,a", body="\x1c1,2\n3,4\n")  # numpy strips "\x1c"; float() does not
    @example(head="y,a", body="1_0,2\n3,4\n")  # float() reads "_" separators; numpy does not
    @example(head="y,a", body="\u0661,2\n3,4\n")  # nor non-ASCII digits
    @example(head="y,a", body='"1",2\n3,"4"\n')  # numpy unquotes a cell as csv does
    @example(head="y,a", body="\n\n")  # on no data rows np.loadtxt would warn
    @example(head="y,a", body="1,2\n\n")
    @example(head="y,a", body=" \n")
    @example(head="y,a", body="1,0." + "0" * 140_000 + "1\n2,3\n")  # csv's field limit
    @example(head="y,a,b", body='1,"2\n3",4\n')  # numpy joins a quoted newline's lines
    @example(head="y,a", body='1,2\n3,"4\n')  # an open quote on the last line
    @example(head="y,a", body='"1"2,3\n')  # text after a closing quote joins the cell
    @example(head="y,a", body='"1" ,2\n3, "4"\n')  # a space after and before a quote
    @example(head="y,a", body='"",2\n')  # an empty quoted cell
    def test_numpy_reader_matches_csv_and_float(self, tmp_path_factory, head, body):
        # numpy's reader may only speed a load up: the names, the array bits
        # and every error text are those of csv.reader and float().
        text = head + "\n" + body
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(path) == reference_outcome(path)
        # The same holds of the text itself, before reading a file turns
        # every "\r" and "\r\n" into "\n".
        with mock.patch.object(Path, "read_text", return_value=text):
            assert load_outcome(path) == reference_outcome(path)

    def test_plain_numbers_take_the_numpy_reader(self, tmp_path):
        # The fixture and a wide design load without the reference reader,
        # to the same bits.
        cases = [(fixture_path(), "cost"), (write_wide_csv(tmp_path / "wide.csv"), "y")]
        assert_numpy_reader_loads(cases)

    @pytest.mark.parametrize("source, header", [
        ("fixture", '"cost","output","wage","labor_cs","capital_price","capital_cs",'
                    '"fuel_price","fuel_cs"'),
        ("fixture", 'cost,"out\nput",wage,labor_cs,capital_price,capital_cs,fuel_price,fuel_cs'),
        ("fixture", None),
        ("wide", None),
    ], ids=["r-write-csv", "name-over-two-lines", "all-quoted-fixture", "all-quoted-wide"])
    def test_quoted_header_takes_the_numpy_reader(self, tmp_path, source, header):
        # R's write.csv quotes every name, and a quoted name may hold a
        # newline.  With no header given, every name and every number is
        # quoted, as csv.writer(quoting=csv.QUOTE_ALL) writes them.
        source, response = ((fixture_path(), "cost") if source == "fixture"
                            else (write_wide_csv(tmp_path / "wide.csv"), "y"))
        text = source.read_text(encoding="utf-8")
        if header is None:
            quoted = io.StringIO()
            csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
                csv.reader(io.StringIO(text)))
            text = quoted.getvalue()
        else:
            text = header + "\n" + text.partition("\n")[2]
        path = tmp_path / "quoted.csv"
        path.write_text(text, encoding="utf-8")
        assert_numpy_reader_loads([(path, response)])

    def test_field_over_the_csv_limit_exit(self, tmp_path):
        for name, text, line in [
            ("cell.csv", "y,a\n1," + "1" * 140_000 + "\n2,3\n", 2),
            ("name.csv", "y," + "a" * 140_000 + "\n1,2\n", 1),
        ]:
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            code, out, err = run_main(["fit", "--input", str(path), "--response", "y"])
            assert (code, out) == (EXIT_USAGE, "")
            assert err == (f"pcreg: error: {path}: line {line}: "
                           "field larger than field limit (131072)\n")

    def test_error_after_a_quoted_newline_names_the_physical_line(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('y,a\n"1\n",2\n3,x\n4,5\n6,7\n', encoding="utf-8")
        with pytest.raises(DataFormatError) as excinfo:
            load_csv(path, "y")
        assert str(excinfo.value) == (
            f"{path}: row at line 4, column 'a': cannot parse 'x' as a number")

    def test_invalid_utf8_exit(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,a\n1,2\n3,\xff\n")
        code, out, err = run_main(["fit", "--input", str(path), "--response", "y"])
        assert code == EXIT_USAGE and out == ""
        assert "not valid UTF-8" in err and err.count("\n") == 1

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
        assert record["mode"] == "none"

    def test_unknown_mode_rejected(self, toy_csv):
        data = load_csv(toy_csv, "y", add_intercept=False)
        with pytest.raises(ValidationError, match="unknown standardize mode 'bogus'"):
            standardize(data, "bogus")

    def test_center_subtracts_means_intercept_exempt(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("y,a\n1,4\n2,6\n3,8\n4,10\n", encoding="utf-8")
        data = load_csv(path, "y")
        out, record = standardize(data, "center")
        np.testing.assert_array_equal(out.x[:, 0], np.ones(4))
        np.testing.assert_allclose(out.x[:, 1], [-3.0, -1.0, 1.0, 3.0])
        assert record["means"][1] == 7.0 and record["means"][0] == 0.0

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
                assert record["means"][j] == data.x[:, j].mean()
                assert record["scales"][j] == centered.std(ddof=1)
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
        assert record["scales"][1] == pytest.approx(1e-170 * x[:, 1].std(ddof=1), rel=1e-14)

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

    def test_an_equal_standard_error_is_not_flagged(self):
        # sigma2 = sigma2_d = sigma2_k = 1, so se_pcr[0] = se_ols[0] = 1/4 and
        # se_k[1] = se_ols[1] = 1/2 exactly: the strict > flags neither.
        x = np.array([[4.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        data = Dataset(y=np.ones(4), x=x, intercept_included=False)
        payload = compare_payload(data, 1, {})
        se, diag = payload["standard_errors"], payload["diagnostics"]
        assert se["pcr_d"][0] == se["ols"][0] == 0.25
        assert se["pcr_k"][1] == se["ols"][1] == 0.5
        assert diag["exceeds_ols_d"] == diag["exceeds_ols_k"] == [False, False]

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
        assert set(payload["covariances"]) == {"ols", "pcr_direct", "pcr_k"}
        assert payload["residuals"]["variance_recomposition"] is None
        assert payload["diagnostics"]["exceeds_ols_d"] == [False, False]
        # On the near-collinear fixture too, d = p reproduces OLS exactly,
        # so no coefficient is flagged by a rounding difference.
        for mode in ("none", "center", "zscore"):
            data, record = standardize(load_csv(fixture_path(), "cost"), mode)
            payload = compare_payload(data, data.p, record)
            assert payload["estimates"]["pcr_d"] == payload["estimates"]["ols"]
            assert payload["standard_errors"]["pcr_d"] == payload["standard_errors"]["ols"]
            assert payload["covariances"]["pcr_direct"] == payload["covariances"]["ols"]
            assert not any(payload["diagnostics"]["exceeds_ols_d"]), mode

    @pytest.mark.parametrize("mode", ["none", "center", "zscore"])
    def test_each_covariance_printed_once_and_every_form_checked(self, mode):
        # The scaled and difference forms equal pcr_direct by contract, so
        # only the residuals that compare them are printed; both forms are
        # still computed and feed those residuals.
        data, record = standardize(load_csv(fixture_path(), "cost"), mode)
        payload = compare_payload(data, 3, record)
        assert set(payload["covariances"]) == {"ols", "pcr_direct", "pcr_k"}
        ols, pcr = fit_ols(data), fit_pcr(data, 3)
        covs = pcr_covariance(data.factors, ols, pcr)
        assert covs.scaled is not None and covs.difference is not None
        assert payload["residuals"]["covariance_agreement"] == covariance_agreement(covs)
        assert payload["residuals"]["variance_recomposition"] == variance_recomposition_check(
            ols, pcr, covs)

    @pytest.mark.parametrize("mode", ["none", "center", "zscore"])
    def test_printed_residuals_are_identity_residuals(self, mode):
        # compare prints the library's residuals as they are: the CLI
        # computes none of them.
        data, _ = standardize(load_csv(fixture_path(), "cost"), mode)
        ols = fit_ols(data)
        for d in range(1, data.p + 1):
            code, out, err = run_main(["compare", "--input", str(fixture_path()), "--response",
                                       "cost", "--standardize", mode, "--format", "json",
                                       "--d", str(d)])
            assert (code, err) == (EXIT_OK, ""), d
            pcr = fit_pcr(data, d)
            want = identity_residuals(data, ols, pcr, build_report(data.factors, ols, pcr))
            printed = json.loads(out)["residuals"]
            assert {k: repr(v) for k, v in printed.items()} == {
                k: repr(v) for k, v in want.items()}, d

    def test_cli_imports_no_identity_check(self):
        for name in ("beta_additivity_check", "recover_ols_sigma2", "sigma2_d_three_forms",
                     "covariance_agreement", "variance_recomposition_check"):
            assert not hasattr(cli, name), name


class TestSymmetricCovariances:
    """Every covariance the CLI prints equals its transpose, entry for entry."""

    @pytest.mark.parametrize("mode", ["none", "center", "zscore"])
    def test_every_printed_covariance_is_exactly_symmetric(self, tmp_path, mode):
        base = ["--input", str(fixture_path()), "--response", "cost", "--standardize", mode,
                "--format", "json"]
        runs = [["fit", *base]]
        data, _ = standardize(load_csv(fixture_path(), "cost"), mode)
        for d in range(1, data.p + 1):
            runs += [["compare", *base, "--d", str(d)], ["fit", *base, "--d", str(d)]]
        sim = write_sim_config(tmp_path, x=data.x.tolist(), beta_true=[1.0] * data.p, d=3)
        runs.append(["simulate", "--config", str(sim), "--format", "json"])
        checked = 0
        for argv in runs:
            code, out, err = run_main(argv)
            assert (code, err) == (EXIT_OK, ""), argv
            payload = json.loads(out)
            covs = payload.get("covariances") or {
                key: payload["result"][key] for key in ("predicted_cov", "empirical_cov_beta_d")}
            for key, cov in covs.items():
                cov = np.array(cov)
                assert cov.shape == (data.p, data.p), (argv, key)
                assert np.array_equal(cov, cov.T), (argv, key)
                checked += 1
        assert checked == 1 + 4 * data.p + 2


def write_scaled_fixture(path, e):
    """The bundled fixture with ``cost`` scaled by 2**e, every value in ``repr``."""
    with open(fixture_path(), newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    j = header.index("cost")
    lines = [",".join(header)]
    for row in rows:
        values = [float(v) for v in row]
        values[j] = math.ldexp(values[j], e)
        lines.append(",".join(map(repr, values)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestResponseScale:
    def compare(self, tmp_path, e, mode):
        path = write_scaled_fixture(tmp_path / f"scaled_{e}.csv", e)
        code, out, err = run_main(["compare", "--input", str(path), "--response", "cost",
                                   "--d", "3", "--standardize", mode, "--format", "json"])
        assert (code, err) == (EXIT_OK, "")
        return json.loads(out)

    @pytest.mark.parametrize("mode", ["none", "center", "zscore"])
    @pytest.mark.parametrize("e", [-500, 400])
    def test_ratios_do_not_depend_on_the_response_scale(self, tmp_path, mode, e):
        # Scaling y by a power of two scales every fit exactly, so each ratio
        # is the unscaled one for as long as sigma2 stays a normal double.
        base, scaled = self.compare(tmp_path, 0, mode), self.compare(tmp_path, e, mode)
        if e < 0:
            assert scaled["estimates"]["sigma2"]["ols"] >= sys.float_info.min
        assert scaled["diagnostics"]["degenerate"] is False
        for key in ("inflation_ratio", "exceeds_ols_d", "exceeds_ols_k", "loading_diag"):
            assert scaled["diagnostics"][key] == base["diagnostics"][key], key
        assert scaled["estimates"]["ols"] == [math.ldexp(b, e) for b in base["estimates"]["ols"]]
        assert scaled["residuals"]["variance_recomposition"] is not None

    @pytest.mark.parametrize("mode", ["none", "center", "zscore"])
    def test_subnormal_residual_variance_is_degenerate(self, tmp_path, mode):
        payload = self.compare(tmp_path, -520, mode)
        assert 0.0 < payload["estimates"]["sigma2"]["ols"] < sys.float_info.min
        assert payload["diagnostics"]["degenerate"] is True
        assert payload["diagnostics"]["inflation_ratio"] is None


def json_reference(value):
    """The payload with every non-finite float as None, for ``json.dumps``."""
    if isinstance(value, dict):
        return {k: json_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_reference(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


JSON_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e16, 1e308, math.nan, math.inf, -math.inf]),
)
JSON_SCALAR = st.one_of(
    JSON_FLOAT, JSON_FLOAT.map(np.float64), st.integers(), st.booleans(), st.none(), st.text(),
)
JSON_TREE = st.recursive(
    JSON_SCALAR,
    lambda tree: st.one_of(
        st.lists(JSON_FLOAT),  # as numpy's tolist() gives
        st.lists(st.one_of(JSON_FLOAT, JSON_SCALAR)),
        st.lists(tree, max_size=4),
        st.dictionaries(st.text(), tree, max_size=4),
    ),
    max_leaves=30,
)



MATRIX_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e308]))


@st.composite
def mirrored_matrices(draw):
    """Square float matrices equal to their transpose, sometimes with one
    entry, or one entry and its mirror, changed."""
    n = draw(st.integers(1, 6))
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(MATRIX_FLOAT)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = rows[i][j]
        rows[i][j] = draw(st.sampled_from([
            -v, math.nextafter(v, math.inf), int(v), bool(v), np.float64(v), "s",
            math.nan, float("nan"), math.inf,
        ]))
        if draw(st.booleans()):
            rows[j][i] = rows[i][j]
    return rows


def mirror(upper):
    """The symmetric matrix whose rows left of the diagonal mirror ``upper``'s."""
    return [[upper[min(i, j)][abs(j - i)] for j in range(len(upper))] for i in range(len(upper))]


class TestRenderJson:
    @settings(max_examples=200, deadline=None)
    @given(payload=st.dictionaries(st.text(), JSON_TREE, max_size=5))
    @example(payload={
        "floats": [0.0, -0.0, 5e-324, 1e-5, 1e16, 1e308, math.nan, math.inf, -math.inf],
        "mixed": [1.5, 2, True, None, np.float64(math.nan), "s"],
        "numpy": np.float64(-2.5),
        "empty": [{}, []],
        "\u00e9\x01\U0001f600": "\"\\\n\u2028\x7f\u00ff",
    })
    def test_bytes_of_json_dumps(self, payload):
        want = json.dumps(json_reference(payload), sort_keys=True, indent=2, allow_nan=False)
        assert render_json(payload) == want + "\n"

    @pytest.mark.parametrize("matrix", [
        [[1.0, -0.0], [0.0, 2.0]],
        [[1.0, 0.0], [-0.0, 2.0]],
        [[-0.0, 0.5], [0.5, -0.0]],
        mirror([[2.0, 0.0, 0.0], [1.5, 0.25], [3.0]]),  # an intercept row under centering
        mirror([[math.nan, 1.0], [2.0]]),  # one nan object, so the rows equal the columns
        mirror([[1.0, math.nan, -0.5], [2.0, 0.0], [3.0]]),
        [[1.0, float("nan")], [float("nan"), 2.0]],
        mirror([[math.inf, 1.0], [-math.inf]]),
        mirror([[1.0, math.inf], [1.0]]),
        [[1.0, 1.0], [True, 1.0]],
        [[1.0, 0.0], [False, 1.0]],
        [[1.0, 2.0], [2, 1.0]],
        ((1.0, 0.5), (0.5, 2.0)),
        [(1.0, 0.5), [0.5, 2.0]],
        [[np.float64(1.0), np.float64(0.1)], [np.float64(0.1), 2.0]],
        [[1.0, 0.1], [np.float64(0.1), 2.0]],
        [[1.5]],
        [[-0.0]],
        [[1.0, 2.0], [2.0]],
        [[1.0], [1.0, 2.0]],
        [[], 0.0],
        [[], []],
        [[1.0, 0.1], [math.nextafter(0.1, 1.0), 1.0]],
        ["ab", "ba"],
        [[[1.0]]],
    ], ids=lambda matrix: repr(matrix).replace(" ", ""))
    def test_symmetric_paths_write_the_bytes_of_json_dumps(self, matrix):
        for payload in ({"m": matrix}, {"m": [matrix, {"n": matrix}]}):
            want = json.dumps(json_reference(payload), sort_keys=True, indent=2, allow_nan=False)
            assert render_json(payload) == want + "\n"

    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=2), mirrored_matrices(), max_size=3))
    @example(payload={"m": [[1.0, 0.0], [-0.0, 1.0]], "n": [[1.0, 2.0], [2, 1.0]]})
    def test_mirrored_matrices_write_the_bytes_of_json_dumps(self, payload):
        want = json.dumps(json_reference(payload), sort_keys=True, indent=2, allow_nan=False)
        assert render_json(payload) == want + "\n"

    @pytest.mark.parametrize("mode", ["none", "center", "zscore"])
    @pytest.mark.parametrize("command", [["compare", "--d", "3"], ["fit"], ["fit", "--d", "3"]],
                             ids=" ".join)
    def test_each_mirrored_covariance_entry_is_formatted_once(self, monkeypatch, command, mode):
        # Counts the reprs that return; one that raises (a list handed to
        # float.__repr__) formats nothing.  An exactly symmetric p x p
        # covariance costs p(p + 1)/2 of them, so this fails if a printed
        # covariance leaves the mirrored path.
        calls = 0

        def counted(value):
            nonlocal calls
            text = float.__repr__(value)
            calls += 1
            return text

        monkeypatch.setattr(cli, "_float_repr", counted)
        code, out, err = run_main([*command, "--input", str(fixture_path()),
                                   "--response", "cost", "--standardize", mode,
                                   "--format", "json"])
        assert (code, err) == (EXIT_OK, "")
        printed = []
        covariances = json.loads(out, parse_float=lambda s: printed.append(s) or float(s))[
            "covariances"].values()
        floats, sizes = len(printed), [len(cov) for cov in covariances]
        assert sizes == [8] * len(sizes)
        assert calls == floats - 28 * len(sizes)

    def test_unsupported_type_raises_as_json_dumps_does(self):
        payload = {"a": [1.5, {1, 2}]}
        with pytest.raises(TypeError) as want:
            json.dumps(payload)
        with pytest.raises(TypeError) as got:
            render_json(payload)
        assert str(got.value) == str(want.value)


PCREG_MODULES = (pcreg, pcreg.cli, pcreg.linalg, pcreg.model, pcreg.diagnostics,
                 pcreg.montecarlo)


class TestFactorOnce:
    """A fit or a compare factors the design, checks its rank and projects y once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"svd_thin": 0, "design rank check": 0, "covariance rank guard": 0,
                  "scores": 0, "gram_pseudo_inverse": 0}

        def count(name, key, namespaces, full_columns_only=False):
            original = getattr(pcreg.linalg, name)

            def counted(*args):
                if not full_columns_only or args[1] == np.s_[:]:
                    counts[key] += 1
                return original(*args)

            for module in namespaces:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

        count("svd_thin", "svd_thin", PCREG_MODULES)
        # The design's full-rank check runs in the model layer (checked_factors);
        # gram_pseudo_inverse keeps its own guard on the columns it inverts.
        count("check_rank", "design rank check",
              [m for m in PCREG_MODULES if m is not pcreg.linalg], full_columns_only=True)
        count("check_rank", "covariance rank guard", [pcreg.linalg], full_columns_only=True)
        count("gram_pseudo_inverse", "gram_pseudo_inverse", PCREG_MODULES)
        scores = Dataset.__dict__["scores"].func

        def counted_scores(data):
            counts["scores"] += 1
            return scores(data)

        prop = cached_property(counted_scores)
        prop.__set_name__(Dataset, "scores")
        monkeypatch.setattr(Dataset, "scores", prop)
        return counts

    @pytest.mark.parametrize("payload_fn, d, guards, covariances",
                             [(compare_payload, 2, 1, 3), (fit_payload, None, 1, 1),
                              (fit_payload, 2, 0, 1)],
                             ids=["compare", "fit-ols", "fit-pcr"])
    def test_one_svd_one_rank_check_one_projection(self, counts, payload_fn, d, guards,
                                                   covariances):
        data, record = standardize(load_csv(fixture_path(), "cost"), "zscore")
        payload_fn(data, d, record)
        # The guard is gram_pseudo_inverse's check of the OLS covariance,
        # which fit --d neither builds nor prints.  Each covariance is built
        # once: a compare builds the OLS, retained and omitted ones, a fit
        # only its own.
        assert counts == {"svd_thin": 1, "design rank check": 1, "covariance rank guard": guards,
                          "scores": 1, "gram_pseudo_inverse": covariances}


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

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_all_ones_column_is_a_rank_error(self, tmp_path, command):
        # As collinear with the added intercept as a column of 2s, so the same rank error.
        path = tmp_path / "ones.csv"
        path.write_text("y,a,b\n1,1,3\n4,1,1\n2,1,5\n8,1,2\n5,1,7\n", encoding="utf-8")
        code, out, err = run_main([command, "--input", str(path), "--response", "y",
                                   "--d", "1"])
        assert (code, out) == (EXIT_RANK, "")
        assert err.startswith("pcreg: rank error:") and err.count("\n") == 1, err

    def test_intercept_named_column_clashes_with_the_added_intercept(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("y,Intercept,b\n1,2,3\n4,1,1\n2,6,5\n8,3,2\n5,1,7\n",
                        encoding="utf-8")
        argv = ["compare", "--input", str(path), "--response", "y", "--d", "1",
                "--format", "json"]
        code, out, err = run_main(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("\n") == 1 and "'Intercept'" in err and "--no-intercept" in err, err
        code, out, err = run_main(argv + ["--no-intercept"])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["config"]["names"] == ["Intercept", "b"]

    def test_design_without_columns_exit(self, tmp_path, capsys):
        # Only the response, and no intercept: the design has no columns.
        path = tmp_path / "y.csv"
        path.write_text("y\n1\n2\n3\n", encoding="utf-8")
        code = main(["fit", "--input", str(path), "--response", "y", "--no-intercept"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "pcreg: error: design has no columns\n"

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_many_near_zero_components_are_counted_on_one_line(self, tmp_path, capsys,
                                                               command):
        # Twelve copies of one column: eleven near-zero components, past the
        # few a rank error names one by one.
        rows = [[i * i] + [float(i)] * 12 for i in range(20)]
        path = tmp_path / "copies.csv"
        path.write_text("\n".join(["y," + ",".join(f"c{j}" for j in range(12))]
                                  + [",".join(map(str, row)) for row in rows]) + "\n",
                        encoding="utf-8")
        code = main([command, "--input", str(path), "--response", "y", "--d", "1",
                     "--no-intercept"])
        assert code == EXIT_RANK
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300, err
        assert "; 11 near-zero singular values, the smallest at components 7: " in err

    def test_recomposition_with_variances_below_1e_300(self, tmp_path):
        # sigma2 = 1.21e-300 and sigma2_d = 9.41e-301 are tiny but normal doubles;
        # the recomposition is defined, since sigma2_d >= sigma2 (n-p)/(n-d).
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        e = rng.standard_normal(10)
        q, _ = np.linalg.qr(x)
        e -= q @ (q.T @ e)
        u1 = np.linalg.svd(x, full_matrices=False)[0][:, 0]
        y = 1e-140 * u1 + e / np.linalg.norm(e) * 1.1e-150 * math.sqrt(7)
        path = tmp_path / "tiny.csv"
        path.write_text("y,a,b,c\n" + "".join(
            ",".join(map(repr, (float(v) for v in (yi, *row)))) + "\n"
            for yi, row in zip(y, x)), encoding="utf-8")
        code, out, err = run_main(["compare", "--input", str(path), "--response", "y",
                                   "--d", "1", "--no-intercept", "--format", "json"])
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        sigma2 = payload["estimates"]["sigma2"]
        assert sigma2["ols"] >= 1e-300 > sigma2["pcr_d"]
        assert payload["diagnostics"]["degenerate"] is False
        ols_cov = np.array(payload["covariances"]["ols"])
        gap = payload["residuals"]["variance_recomposition"]
        assert gap is not None and gap <= 1e-8 * (1 + np.max(np.diag(ols_cov)))

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

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("d", [0, -1, 3])
    def test_d_outside_1_to_p_exit(self, toy_csv, command, d):
        code, out, err = run_main([command, "--input", str(toy_csv), "--response", "y",
                                   "--no-intercept", "--d", str(d)])
        assert code == EXIT_USAGE and out == ""
        assert err == ("pcreg: error: retained component count must satisfy 1 <= d <= p; "
                       f"got d={d} with p=2\n")

    @pytest.mark.parametrize(
        "case", ["fit-input-directory", "simulate-config-directory", "out-in-missing-directory",
                 "missing-input", "missing-config"],
    )
    def test_unreadable_path_exit(self, toy_csv, tmp_path, case):
        argv = {
            "fit-input-directory": ["fit", "--input", str(tmp_path), "--response", "y"],
            "simulate-config-directory": ["simulate", "--config", str(tmp_path)],
            "out-in-missing-directory": ["fit", "--input", str(toy_csv), "--response", "y",
                                         "--no-intercept",
                                         "--out", str(tmp_path / "missing" / "x.json")],
            "missing-input": ["fit", "--input", str(tmp_path / "missing.csv"),
                              "--response", "y"],
            "missing-config": ["simulate", "--config", str(tmp_path / "missing.json")],
        }[case]
        code, out, err = run_main(argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("pcreg: error: ") and err.count("\n") == 1
        if case.startswith("missing-"):
            assert err.endswith(f"{argv[2]}: file not found\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "x.csv", "--response", "y", "--d", "abc"],
            ["compare", "--input", "x.csv", "--response", "y"],
            ["fit", "--input", "x.csv", "--response", "y", "--standardize", "bogus"],
            ["simulate", "--config", "c.json", "--seed", "1.5"],
            ["simulate", "--config", "c.json", "--alert-threshold", "abc"],
            ["bogus"],
            [],
        ],
        ids=["d-abc", "compare-without-d", "standardize-bogus", "seed-1.5",
             "alert-threshold-abc", "unknown-command", "no-arguments"],
    )
    def test_usage_error_is_one_line(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pcreg: error:") and captured.err.count("\n") == 1

    def test_help_is_the_full_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == build_parser().format_help() and captured.err == ""

    def test_fit_ols_json(self, toy_csv, capsys):
        code = main(["fit", "--input", str(toy_csv), "--response", "y",
                     "--no-intercept", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["estimates"]["beta"], [1.0, 1.0], atol=1e-12)
        assert payload["estimates"]["dof"] == 1

    @pytest.mark.parametrize("d", [None, 3])
    def test_fit_table_matches_the_json_of_the_same_fit(self, capsys, d):
        # The table against the JSON of the same fit, cell by cell, for OLS
        # and for the component regression.
        argv = ["fit", "--input", str(fixture_path()), "--response", "cost",
                *([] if d is None else ["--d", str(d)])]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert main(argv) == EXIT_OK
        header, rule, *rows, blank, footer, end = capsys.readouterr().out.split("\n")
        est, se = payload["estimates"], payload["standard_errors"]
        if d is None:
            key, column = "beta", "ols"
            want = f"sigma2 = {est['sigma2']:.6g}, rss = {est['rss']:.6g}, dof = {est['dof']}"
        else:
            key, column = "beta_d", f"pcr_d (d={d})"
            want = (f"sigma2_d = {est['sigma2_d']:.6g}, rss_d = {est['rss_d']:.6g}, "
                    f"sigma2_k = {est['sigma2_k']:.6g}")
        assert header.split("  ")[0] == "coefficient" and header.endswith(column)
        spans = [m.span() for m in re.finditer("-+", rule)]
        assert [[line[a:b].strip() for a, b in spans] for line in rows] == [
            [name, f"{est[key][j]:.2g} ({se[key][j]:.2g})"]
            for j, name in enumerate(payload["config"]["names"])
        ]
        assert (blank, footer, end) == ("", want, "")

    def test_table_stdout_cannot_encode_exit(self, tmp_path, capsys):
        # A column name that stdout's encoding lacks ends in one error line
        # that points to --out, with nothing written to stdout.
        path = tmp_path / "b.csv"
        path.write_text("y,\u03b2x\n1,2\n2,1\n3,5\n", encoding="utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="cp1252")
        with contextlib.redirect_stdout(stdout):
            code = main(["compare", "--input", str(path), "--response", "y", "--d", "1"])
        stdout.flush()
        assert (code, stdout.buffer.getvalue()) == (EXIT_USAGE, b"")
        err = capsys.readouterr().err
        assert err.startswith("pcreg: error: stdout cannot encode ") and err.count("\n") == 1
        assert "--out" in err


class UnlistedError(PcregError):
    """A PcregError subclass that no exit code names."""


def raise_unlisted(*args, **kwargs):
    raise UnlistedError("a failure with no exit code of its own")


def fail_to_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


# One failing invocation per way a command can fail: (CSV text, extra
# arguments, a patched attribute), the exit code and the stderr label.
FAILURES = {
    "bad-cell": ("y,a\n1,x\n2,3\n", [], None, EXIT_USAGE, "pcreg: error: "),
    "unwritable-out": (TOY_CSV, ["--out", "{tmp}/missing/out.txt"], None, EXIT_USAGE,
                       "pcreg: error: "),
    "bad-option": (TOY_CSV, ["--bogus"], None, EXIT_USAGE, "pcreg: error: "),
    "double-range": ("y,a,b\n1,1e157,0\n2,0,1e157\n3,1e157,1e157\n4,0,-1e157\n", [], None,
                     EXIT_USAGE, "pcreg: error: the data exceed the double-precision range ("),
    "rank": ("y,a,b\n1,1,2\n2,2,4\n3,3,6\n4,4,8\n5,5,10\n", [], None, EXIT_RANK,
             "pcreg: rank error: "),
    "dof": ("y,a,b\n1,2,3\n4,5,6\n", [], None, EXIT_DOF, "pcreg: dof error: "),
    "convergence": (TOY_CSV, [], (np.linalg, "svd", fail_to_converge), EXIT_CONVERGENCE,
                    "pcreg: convergence error: "),
    "unlisted-pcreg-error": (TOY_CSV, [], (cli, "standardize", raise_unlisted), 1,
                             "pcreg: error: "),
}


class TestFailurePath:
    @pytest.mark.parametrize("case", FAILURES)
    def test_exit_code_and_stderr_label(self, tmp_path, monkeypatch, case):
        # A failure is one stderr line that starts with its label, nothing
        # on stdout, and its exit code; a PcregError that no code names
        # still exits 1 as an error.
        text, extra, patch, code, label = FAILURES[case]
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        if patch is not None:
            monkeypatch.setattr(*patch)
        argv = ["compare", "--input", str(path), "--response", "y", "--d", "1",
                "--no-intercept", *(arg.format(tmp=tmp_path) for arg in extra)]
        got, out, err = run_main(argv)
        assert (got, out) == (code, "")
        assert err.startswith(label) and err.count("\n") == 1, err

    def test_help_lists_every_exit_code(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out.endswith(
            "\n\nexit codes:\n"
            "  0  success\n"
            "  2  input parse or validation error, or a path that cannot be read or written\n"
            "  3  rank-deficient design\n"
            "  4  too few observations (degrees of freedom)\n"
            "  5  decomposition failed to converge\n"
            "  6  simulate: a |z| exceeded the alert threshold\n"
        )


def long_header_argv(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(",".join(f"c{j}" for j in range(50_000)) + "\n" + "1," * 49_999 + "1\n",
                    encoding="utf-8")
    return ["fit", "--input", str(path), "--response", "y"]


def long_cell_argv(tmp_path):
    path = tmp_path / "cell.csv"
    path.write_text("y,a\n1,2\n2," + "z" * 100_000 + "\n3,4\n", encoding="utf-8")
    return ["fit", "--input", str(path), "--response", "y"]


def long_config_argv(**fields):
    return lambda tmp_path: ["simulate", "--config", str(write_sim_config(tmp_path, **fields))]


class TestBoundedEcho:
    @pytest.mark.parametrize("argv", [
        long_config_argv(d="7" * 10**6),
        long_config_argv(seed=[1] * 200_000),
        long_config_argv(x=[["a" * 10**6, 0.0, 0.0]]),
        long_header_argv,
        long_cell_argv,
    ], ids=["d-string", "seed-list", "x-string", "header-without-response", "csv-cell"])
    def test_an_echoed_input_is_cut_short(self, tmp_path, argv):
        # A message quotes a bad value, a column name or a header in
        # reprlib's abbreviated form, whatever the input's length.
        code, out, err = run_main(argv(tmp_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("pcreg: error: ") and err.count("\n") == 1
        assert len(err) <= 200 + len(str(tmp_path)), err[:300]

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "x.csv", "--response", "y", "--d", "x" * 100_000],
        ["fit", "--input", "x.csv", "--response", "y", "--standardize", "q" * 100_000],
        ["compare", "--input", "x.csv", "--response", "y", "--d", "2", "e" * 100_000],
    ], ids=["invalid-int", "invalid-choice", "unrecognized"])
    def test_a_usage_error_is_cut_short(self, argv):
        # argparse quotes the bad argument whole; the line keeps its head,
        # which names the argument, and its tail.
        code, out, err = run_main(argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("pcreg: error: ") and err.count("\n") == 1
        assert len(err) <= 200 and "..." in err, err[:300]

    def test_a_usage_error_past_160_characters_is_cut_to_160(self):
        # A 300-character argument makes a message a little over the cut.
        code, out, err = run_main(["fit", "--input", "x.csv", "--response", "y",
                                   "--d", "x" * 300])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("pcreg: error: ") and err.count("\n") == 1
        message = err.removeprefix("pcreg: error: ").removesuffix("\n")
        assert "..." in message and len(message) <= 160, message


class TestParserReuse:
    def test_a_flag_does_not_outlive_its_call(self, tmp_path):
        # Each call with --no-intercept, --out or --seed is followed by the
        # same call without it; through the one shared parser, every call
        # prints the bytes a call through a new parser prints.
        sim = write_sim_config(tmp_path)
        out = tmp_path / "out.txt"
        data = ["--input", str(fixture_path()), "--response", "cost"]
        fit = ["fit", *data, "--format", "json"]
        compare = ["compare", *data, "--d", "3"]
        simulate = ["simulate", "--config", str(sim), "--format", "json"]
        calls = [fit + ["--no-intercept"], fit, compare + ["--out", str(out)], compare,
                 simulate + ["--seed", "5"], simulate]

        def outputs(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    cli._parser.cache_clear()
                seen.append(run_main(argv) + (out.read_bytes() if out.exists() else None,))
                out.unlink(missing_ok=True)
            return seen

        expected = outputs(fresh=True)
        cli._parser.cache_clear()
        assert outputs(fresh=False) == expected
        assert cli._parser.cache_info().misses == 1
        assert [code for code, *_ in expected] == [EXIT_OK] * 6
        assert expected[0] != expected[1] and expected[4] != expected[5]
        assert expected[2][1] == "" and expected[2][3] == expected[3][1].encode()

    def test_built_on_first_call_not_at_import(self):
        src = str(Path(pcreg.__file__).resolve().parents[1])
        probe = ("import pcreg.cli as cli\n"
                 "print(cli._parser.cache_info().currsize)\n"
                 "cli.main(['--version-that-does-not-exist'])\n"
                 "print(cli._parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.stdout.split() == ["0", "1"], done.stderr
        assert build_parser() is not build_parser()


class TestImportSurface:
    def test_cli_import_loads_no_importlib_resources(self):
        # -I -S: no site, so no .pth file imports anything first; the path
        # holds only pcreg's source and numpy's parent directory.
        paths = [str(Path(m.__file__).resolve().parents[1]) for m in (pcreg, np)]
        probe = (f"import sys; sys.path[:0] = {paths!r}\n"
                 "import pcreg.cli\n"
                 "print('importlib.resources' in sys.modules, pcreg.fixture_path().is_file())")
        done = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True,
                              text=True, timeout=120)
        assert done.stdout.split() == ["False", "True"], done.stderr

    def test_all_lists_every_public_import(self):
        # __all__ and the package's imports are two lists of one set of
        # names: editing one without the other fails here.
        tree = ast.parse(Path(pcreg.__file__).read_text(encoding="utf-8"))
        public = [alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
        public += [node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        assert "fixture_path" in public
        assert sorted(pcreg.__all__) == sorted(public)


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

    @pytest.mark.parametrize("depth", [990, 100_000])
    def test_deeply_nested_json_exit(self, tmp_path, capsys, depth):
        # json.loads raises RecursionError near Python's recursion limit,
        # which 990 levels reach from inside a test.
        path = tmp_path / "sim.json"
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"pcreg: error: {path}: invalid JSON: nested too deeply to read\n"

    @pytest.mark.parametrize("field", ["seed", "d"])
    def test_integer_literal_over_4300_digits_exit(self, tmp_path, capsys, field):
        # json.loads rejects it with a plain ValueError, not a JSONDecodeError.
        path = write_raw_sim_config(tmp_path, field, "7" * 5000)
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"pcreg: error: {path}: invalid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("sigma2_true", 10**400),
                                              ("beta_true", [10**400, 0, 0]),
                                              ("x", [[10**400, 0, 0]] * 40)])
    def test_integer_past_the_double_range_exit(self, tmp_path, capsys, field, value):
        # float() of such an integer raises OverflowError, not a float warning.
        path = write_sim_config(tmp_path, **{field: value})
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("pcreg: error: the data exceed the double-precision range")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["[NaN, 0.0, 0.0]", "[1.0, -Infinity, 0.0]"])
    def test_non_finite_literal_exit(self, tmp_path, capsys, text):
        # json.loads reads NaN and Infinity, which JSON itself does not allow.
        path = write_raw_sim_config(tmp_path, "beta_true", text)
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "pcreg: error: design or truth contains non-finite values\n")

    def test_replicates_floor_exit(self, tmp_path, capsys):
        path = write_sim_config(tmp_path, replicates=50)
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        assert "replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("x", [[str(v) for v in row] for row in np.random.default_rng(3).standard_normal((40, 3))]),
        ("x", [[1.5, True, 0.0]] + [[0.5, -1.0, 2.0 + i] for i in range(39)]),
        ("beta_true", ["1.0", 0.0, 0.0]),
        ("beta_true", [1.0, False, 0.0]),
        ("x", [[1.5, None, 0.0]] + [[0.5, -1.0, 2.0 + i] for i in range(39)]),
        ("beta_true", [None, 0.0, 0.0]),
    ], ids=["x-all-strings", "x-one-bool", "beta-string", "beta-bool", "x-one-null",
            "beta-null"])
    def test_numbers_written_otherwise_exit(self, tmp_path, capsys, field, value):
        # float() reads "1.5" as 1.5, True as 1.0 and None (JSON null) as nan;
        # a config must write numbers.
        path = write_sim_config(tmp_path, **{field: value})
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "pcreg: error: x and beta_true must be arrays of numbers\n"

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
            ("sigma2_true", math.inf),
        ],
    )
    def test_bad_field_value_exit(self, tmp_path, capsys, field, value):
        # Rejected when the config is read, with a message naming the field.
        path = write_sim_config(tmp_path, **{field: value})
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"pcreg: error: {field} must") and err.count("\n") == 1

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e250])
    def test_a_fit_out_of_double_range_exits_either_way(self, tmp_path, capsys, scale):
        # A huge design overflows the sums; a tiny one overflows the slopes,
        # which grow as 1/s.  Neither message may call the design too large.
        x = np.random.default_rng(3).standard_normal((30, 3)) * scale
        path = write_sim_config(tmp_path, x=x.tolist(), replicates=100)
        code = main(["simulate", "--config", str(path), "--format", "json"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "not finite" in captured.err and "too large" not in captured.err

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
        "beta_true, sigma2_true, d",
        [([0.0, 0.0, 1.32637956565435e14], 1.0, 2), ([1.0, 0.0, 0.0], 1e-300, 2),
         ([1.0, 0.0, 0.0], 1e-300, 3)],
        ids=["beta_true0-1.0", "beta_true1-1e-300", "beta_true1-1e-300-d_equals_p"],
    )
    def test_rounding_in_a_large_mean_does_not_alert(self, tmp_path, capsys, beta_true,
                                                      sigma2_true, d):
        # Signal far above the noise: means differ from their predictions by
        # a few ulps (with a zero MCSE in the last two cases), which the z
        # floor keeps from reading as deviation.  At d = p the residuals are
        # the fit's rounding alone, far above the noise of 1e-300.
        path = write_sim_config(tmp_path, beta_true=beta_true, sigma2_true=sigma2_true,
                                d=d, replicates=100)
        code = main(["simulate", "--config", str(path), "--format", "json"])
        assert code == EXIT_OK
        rows = [r for r in json.loads(capsys.readouterr().out)["rows"] if r["asserted"]]
        assert any(r["observed"] != r["predicted"] for r in rows)
        assert all(abs(r["z"]) < 1.0 for r in rows)

    def test_a_ten_mcse_shift_still_alerts(self, tmp_path):
        # The z floor stays below the MCSE of an ordinary run: moving each
        # asserted prediction by 10 MCSE moves its z by exactly 10.
        res = run_simulation(load_simulation_config(write_sim_config(tmp_path)))
        shifted = dataclasses.replace(
            res,
            predicted_mean_beta_d=res.predicted_mean_beta_d + 10 * res.mcse_beta_d,
            predicted_rss_nd_dof=res.predicted_rss_nd_dof + 10 * res.mcse_rss_d,
            predicted_bias_nd_dof=res.predicted_bias_nd_dof + 10 * res.mcse_sigma2_d,
        )
        before = {row["claim"]: row["z"] for row in theory_comparison(res) if row["asserted"]}
        after = {row["claim"]: row["z"] for row in theory_comparison(shifted) if row["asserted"]}
        assert len(after) == 5
        for claim, z in after.items():
            assert z == pytest.approx(before[claim] - 10, rel=1e-12), claim
            assert abs(z) > 4, claim

    def test_design_without_columns_exit(self, tmp_path, capsys):
        path = write_sim_config(tmp_path, x=[[], [], []], beta_true=[], d=1)
        assert main(["simulate", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "pcreg: error: design has no columns\n"

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

    def test_table_matches_the_json_of_the_same_run(self, tmp_path, capsys):
        # The table against the JSON of the same run, cell by cell; 1000
        # replicates add the Frobenius row, whose z is null ("n/a").
        path = write_sim_config(tmp_path, replicates=1000)
        argv = ["simulate", "--config", str(path)]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "table"]) == EXIT_OK
        table = capsys.readouterr().out
        out = tmp_path / "table.txt"
        assert main([*argv, "--format", "table", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == table.encode("utf-8")

        header, rule, *rest = table.split("\n")
        rows, footer = rest[:len(payload["rows"])], rest[len(payload["rows"]):]
        assert header.split() == ["claim", "predicted", "observed", "mcse", "z", "role"]
        spans = [m.span() for m in re.finditer("-+", rule)]

        def num(v, spec):  # JSON writes a non-finite float as null
            return format(math.nan if v is None else v, spec)

        for line, row in zip(rows, payload["rows"]):
            assert [line[a:b].strip() for a, b in spans] == [
                row["claim"],
                num(row["predicted"], ".6g"),
                num(row["observed"], ".6g"),
                num(row["mcse"], ".3g"),
                "n/a" if row["z"] is None else format(row["z"], "+.3f"),
                "asserted" if row["asserted"] else "recorded",
            ]
        assert any(row["z"] is None for row in payload["rows"])

        z = {row["claim"]: row["z"] for row in payload["rows"]}
        assert footer == [
            "",
            f"replicates = 1000, seed = 17, generator = {payload['config']['generator']}",
            f"rss dof adjudication: winner = {payload['adjudication']['winner']} "
            f"(z_nd = {z['mean_rss_d (n-d dof)']:+.3f}, z_np = {z['mean_rss_d (n-p dof)']:+.3f})",
            "alert = False",
            "",
        ]

    def test_result_holds_only_what_no_row_prints(self, tmp_path, capsys):
        # The mean RSS, the mean slopes and the MCSEs are printed once, as
        # the observed and mcse of their rows, bit for bit.
        path = write_sim_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["result"]) == {"mean_sigma2_d", "empirical_cov_beta_d",
                                          "predicted_cov"}
        res = run_simulation(load_simulation_config(path))
        rows = {row["claim"]: row for row in payload["rows"]}
        for dof in ("n-d", "n-p"):
            rss, bias = rows[f"mean_rss_d ({dof} dof)"], rows[f"bias_sigma2_d ({dof} dof)"]
            assert (rss["observed"], rss["mcse"]) == (res.mean_rss_d, res.mcse_rss_d)
            assert bias["mcse"] == res.mcse_sigma2_d
        for j in range(res.config.p):
            row = rows[f"mean_beta_d[{j}]"]
            assert (row["observed"], row["mcse"]) == (res.mean_beta_d[j], res.mcse_beta_d[j])

    def test_printed_rows_are_the_claim_table(self, tmp_path):
        # The payload prints theory_comparison's rows as they are, and its
        # alert and adjudication are read from those rows.  At d = 1 a
        # recorded n-p row has the largest |z|, so some threshold alerts on
        # it alone, which must not raise the alert.
        cfg = load_simulation_config(write_sim_config(tmp_path, d=1))
        rows = theory_comparison(run_simulation(cfg))
        top = {role: max(abs(row["z"]) for row in rows if row["asserted"] is role)
               for role in (True, False)}
        assert top[False] > top[True]
        z = sorted({abs(row["z"]) for row in rows})
        for threshold in [0.0, *((a + b) / 2 for a, b in zip(z, z[1:])), z[-1] + 1.0]:
            payload = simulate_payload(cfg, threshold)
            assert payload["rows"] == rows
            assert payload["alert"] == any(
                row["asserted"] and math.isfinite(row["z"]) and abs(row["z"]) > threshold
                for row in rows
            ), threshold
        rss = {row["claim"]: abs(row["z"]) for row in rows if row["claim"].startswith("mean_rss")}
        winner = payload["adjudication"]["winner"]
        assert rss[f"mean_rss_d ({winner} dof)"] == min(rss.values())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_and_result_come_from_one_reduction(self, tmp_path, capsys, seed):
        # One mean and one covariance of (RSS_d, beta_d) give every
        # aggregate, so these relations hold exactly, not to rounding.
        x = np.random.default_rng(9).standard_normal((50, 4))
        path = write_sim_config(tmp_path, x=x.tolist(), beta_true=[1.0, 0.5, 0.0, 0.0],
                                replicates=1000, seed=seed)
        assert main(["simulate", "--config", str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        result, dof = payload["result"], 50 - 2
        rows = {row["claim"]: row for row in payload["rows"]}
        for j in range(4):
            cov_jj = result["empirical_cov_beta_d"][j][j]
            assert rows[f"mean_beta_d[{j}]"]["mcse"] == math.sqrt(cov_jj) / math.sqrt(1000), j
        rss = rows["mean_rss_d (n-d dof)"]
        assert rows["mean_rss_d (n-p dof)"]["mcse"] == rss["mcse"]
        for bias in ("bias_sigma2_d (n-d dof)", "bias_sigma2_d (n-p dof)"):
            assert rows[bias]["mcse"] == rss["mcse"] / dof, bias
        assert result["mean_sigma2_d"] == rss["observed"] / dof

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

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1"])
    def test_bad_alert_threshold_exit(self, tmp_path, threshold):
        path = write_sim_config(tmp_path)
        code, out, err = run_main(["simulate", "--config", str(path),
                                   f"--alert-threshold={threshold}"])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("pcreg: error: --alert-threshold") and err.count("\n") == 1

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

    @settings(max_examples=100, deadline=None)
    @given(
        depth=st.one_of(st.integers(1, 80), st.integers(850, 1100), st.integers(1, 100_000)),
        container=st.sampled_from(["array", "object"]),
        field=st.sampled_from([None, "x", "beta_true", "sigma2_true", "d", "replicates",
                               "seed"]),
    )
    def test_nested_json_exits_with_one_short_line(self, tmp_path_factory, depth, container,
                                                   field):
        # depth levels of arrays or of objects, as the whole config (field
        # None) or as one field's value.  Depths near Python's recursion
        # limit parse, and the value must still not be echoed in full.
        opener, leaf, closer = ("[", "[]", "]") if container == "array" else ('{"k": ', "{}", "}")
        text = opener * (depth - 1) + leaf + closer * (depth - 1)
        tmp = tmp_path_factory.mktemp("nested")
        if field is None:
            path = tmp / "sim.json"
            path.write_text(text, encoding="utf-8")
        else:
            path = write_raw_sim_config(tmp, field, text)
        code, out, err = run_main(["simulate", "--config", str(path)])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("pcreg: error: ") and err.count("\n") == 1
        assert len(err) <= 200 + len(str(path)), err[:300]
