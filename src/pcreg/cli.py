"""Command-line surface: CSV ingestion, fits, comparisons, simulations.

Subcommands
-----------
fit        OLS fit (or the component regression when --d is given).
compare    Three-column coefficient table: OLS, retained-component, and
           omitted-component fits with standard errors and exceedance
           markers, plus the identity residuals in JSON mode.
simulate   Run a seeded simulation config and tabulate predictions
           against observations; alerts when a z-score is out of range.

``pcreg --help`` lists the exit codes.  Each failure's code and stderr
label come from one table, ``_FAILURES``, which also writes that list.
Tables round to 2 significant figures for display; JSON output carries
full precision and is byte-identical across reruns of the same inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import reprlib
import sys
from dataclasses import fields
from functools import cache, partial
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from .diagnostics import build_report, covariance_agreement, variance_recomposition_check
from .errors import (
    ConvergenceError,
    DataFormatError,
    DegreesOfFreedomError,
    PcregError,
    RankDeficiencyError,
    ValidationError,
)
from .model import (
    Dataset,
    beta_additivity_check,
    fit_ols,
    fit_pcr,
    recover_ols_sigma2,
    sigma2_d_three_forms,
)
from .montecarlo import (
    GENERATOR_NAME,
    SimulationConfig,
    adjudicate_rss_dof,
    run_simulation,
    theory_comparison,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RANK = 3
EXIT_DOF = 4
EXIT_CONVERGENCE = 5
EXIT_ALERT = 6

# Each failure's exit code, stderr label, the exceptions that end in it and
# its line of --help.  A PcregError of no listed type exits 1 as an error.
_FAILURES = (
    (EXIT_USAGE, "error", (DataFormatError, ValidationError, OSError),
     "input parse or validation error, or a path that cannot be read or written"),
    (EXIT_RANK, "rank error", RankDeficiencyError, "rank-deficient design"),
    (EXIT_DOF, "dof error", DegreesOfFreedomError, "too few observations (degrees of freedom)"),
    (EXIT_CONVERGENCE, "convergence error", ConvergenceError, "decomposition failed to converge"),
)
_EXIT_HELP = "".join([
    f"exit codes:\n  {EXIT_OK}  success\n",
    *(f"  {code}  {line}\n" for code, _, _, line in _FAILURES),
    f"  {EXIT_ALERT}  simulate: a |z| exceeded the alert threshold\n",
])

STANDARDIZE_MODES = ("none", "center", "zscore")


def load_csv(path: str | Path, response: str, add_intercept: bool = True) -> Dataset:
    """Read a header-row CSV into a Dataset.

    Cells must parse as finite numbers with Python's ``float()`` ('.'
    radix, ',' delimiter) and read bit for bit as ``float()`` reads them.
    A UTF-8 byte-order mark before the header and blank lines at the end
    of the file are ignored.  One ``csv.reader`` reads the header, quoted
    or not and on as many lines as its cells span.  The lines after it go
    to numpy's C reader when they are numbers, quoted or not
    (``_numeric_table``); otherwise the same reader carries on and
    ``float()`` reads each cell, the only path that reports errors: the
    first bad row or cell in row-major order, named by the physical line
    it ends on.
    The response column is excluded from the design; remaining columns
    keep file order, with an all-ones Intercept column prepended when
    ``add_intercept`` is set; a design column of that name is then an
    error.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataFormatError(f"{path}: file not found") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not valid UTF-8: {exc}") from None

    reader = csv.reader(_lines(text))
    try:
        header = next(reader, [])
        values = _numeric_table(text, reader.line_num, len(header))
        rows = [(reader.line_num, row) for row in reader] if values is None else []
    except csv.Error as exc:  # a field over csv's size limit, say
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    while rows and not rows[-1][1]:
        rows.pop()
    if not (header or rows):
        raise DataFormatError(f"{path}: empty file (line 1: header row required)")
    header = [cell.strip() for cell in header]
    if any(not name for name in header):
        raise DataFormatError(f"{path}: line 1: blank column name in header")
    if len(set(header)) != len(header):
        dupes = sorted({name for name in header if header.count(name) > 1})
        raise DataFormatError(f"{path}: line 1: duplicate column name(s) {reprlib.repr(dupes)}")
    if response not in header:
        raise DataFormatError(f"{path}: response column {reprlib.repr(response)} "
                              f"not in header {reprlib.repr(header)}")
    if values is None:
        values = _cell_values(path, header, rows)

    ncol = len(header)
    resp_idx = header.index(response)
    y = values[:, resp_idx]
    keep = [j for j in range(ncol) if j != resp_idx]
    x = values[:, keep]
    names = [header[j] for j in keep]
    if add_intercept:
        if "Intercept" in names:
            raise DataFormatError(f"{path}: line 1: column 'Intercept' clashes with the added "
                                  "intercept; rename it or pass --no-intercept")
        x = np.column_stack([np.ones(x.shape[0]), x])
        names = ["Intercept"] + names
    return Dataset(y=y, x=x, names=tuple(names), intercept_included=add_intercept)


# The bytes of a data block that numpy's reader may take: with these alone,
# every cell reads as csv.reader and float() read it, but a quoted newline
# joins two lines into one of numpy's rows, which the shape check catches.
_NUMBER_BYTES = b'0123456789.eE+-, \t\n"'


def _numeric_table(text: str, start: int, ncol: int) -> np.ndarray | None:
    r"""The values of the lines of ``text`` after the ``start`` lines of its
    header, when numpy's C reader reads them exactly as ``csv.reader`` and
    ``float()`` do; otherwise None.

    ``np.loadtxt`` converts each cell with the ``PyOS_string_to_double``
    that ``float()`` calls and unquotes a cell as ``csv.reader`` does, but
    it skips inner blank lines, ends a row at a bare "\r", strips
    "\x1c"-"\x1f" as whitespace, rejects "_" digit separators and
    non-ASCII digits, and joins the lines a quoted newline spans into one
    row without the newline.  So the data block is read here only if it
    holds nothing but ``_NUMBER_BYTES``, no line is longer than csv's field
    limit, and the result has one row per line, ``ncol`` columns and only
    finite values.  Every other text, malformed or not, is left to
    ``csv.reader`` and ``_cell_values``.
    """
    # The data block holds only _NUMBER_BYTES if the whole text holds no
    # more other bytes than its header lines.  They are counted before the
    # split, which copies the text.
    head = "".join(islice(_lines(text), start))
    if (len(text.encode().translate(None, _NUMBER_BYTES))
            != len(head.encode().translate(None, _NUMBER_BYTES))):
        return None
    lines = text.split("\n")[start:]
    while lines and not lines[-1]:
        lines.pop()
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    # The last line is not blank, so np.loadtxt reads a row from it or
    # fails; it cannot warn "input contained no data".
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), ncol) or not np.isfinite(values).all():
        return None
    return values


def _lines(text: str):
    """The lines of ``text`` as iterating ``io.StringIO(text)`` yields them,
    without a buffer or a list that holds a second copy of the whole text.

    A line ends only after a "\n", which it keeps, so ``csv.reader``
    leaves a quoted newline in its cell.
    """
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def _cell_values(path: Path, header: list[str], rows: list[tuple[int, list[str]]]) -> np.ndarray:
    """The rows' cells as an array; a bad row or cell raises the error of
    the first one in row-major order."""
    if not rows:
        raise DataFormatError(f"{path}: no data rows after the header")
    ncol = len(header)
    values = np.empty((len(rows), ncol))
    for i, (line_no, row) in enumerate(rows):
        if len(row) != ncol:
            raise DataFormatError(
                f"{path}: line {line_no}: expected {ncol} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row at line {line_no}, column {reprlib.repr(header[j])}: "
                    f"cannot parse {reprlib.repr(cell.strip())} as a number"
                ) from None
            if not math.isfinite(v):
                raise DataFormatError(
                    f"{path}: row at line {line_no}, column {reprlib.repr(header[j])}: "
                    f"non-finite value {reprlib.repr(cell.strip())}"
                )
            values[i, j] = v
    return values


def _column_moments(x: np.ndarray, moment) -> np.ndarray:
    """Each column's ``moment(rows, axis=1)``, safe from overflow near the double range.

    Each column becomes a contiguous row scaled by the power of two that
    puts its largest magnitude in [0.5, 1), which is exact for normal
    doubles, and the moments are scaled back.  A row reduces in the order
    a lone column does, so the bits match the moment of each column.
    """
    _, exps = np.frexp(np.max(np.abs(x), axis=0))
    rows = np.ldexp(x.T, -exps[:, None], order="C")
    return np.ldexp(moment(rows, axis=1), exps)


def standardize(data: Dataset, mode: str) -> tuple[Dataset, dict]:
    """Center or z-score the design columns, intercept exempt.

    ``center`` subtracts column means; ``zscore`` additionally divides by
    the sample standard deviation (n-1 divisor).  A zero-variance column
    under zscore is an error naming the column.  Both moments are taken
    on power-of-two-scaled columns (see ``_column_moments``), so a column
    anywhere in the double range is standardized without overflow.  The
    returned record, ``{"mode", "means", "scales"}`` with a mean and a
    scale per design column as lists (0 and 1 for the intercept and under
    ``none``), is the ``standardize`` block of a payload's config.
    """
    if mode not in STANDARDIZE_MODES:
        raise ValidationError(
            f"unknown standardize mode {reprlib.repr(mode)}; choose from {STANDARDIZE_MODES}"
        )
    p = data.p
    means = np.zeros(p)
    scales = np.ones(p)
    if mode != "none":
        x = data.x.copy()
        cols = slice(1 if data.intercept_included else 0, p)
        means[cols] = _column_moments(x[:, cols], np.mean)
        x[:, cols] -= means[cols]
        if mode == "zscore":
            scales[cols] = _column_moments(x[:, cols], partial(np.std, ddof=1))
            zero = np.flatnonzero(scales == 0.0)
            if zero.size:
                raise ValidationError(
                    f"column {reprlib.repr(data.names[zero[0]])} has zero variance; "
                    "zscore undefined"
                )
            x[:, cols] /= scales[cols]
        data = Dataset(y=data.y, x=x, names=data.names, intercept_included=data.intercept_included)
    return data, {"mode": mode, "means": means.tolist(), "scales": scales.tolist()}


# ---------------------------------------------------------------------------
# payload builders (shared by table and JSON rendering)


def _data_config(data: Dataset, d: int | None, record: dict) -> dict:
    """The ``config`` block of a fit or compare payload."""
    return {"n": data.n, "p": data.p, "d": d, "names": list(data.names), "standardize": record}


def fit_payload(data: Dataset, d: int | None, record: dict) -> dict:
    """Single-model fit: OLS when d is None, else the component regression.

    The slopes' standard errors and covariance are keyed ``beta`` for OLS
    and ``beta_d`` for the retained components.  Both covariances are the
    estimate's own, ``ols.cov`` or ``pcr.cov_d``: the CLI forms none.
    """
    if d is None:
        ols = fit_ols(data)
        key, cov = "beta", ols.cov
        estimates = {"beta": ols.beta.tolist(), "sigma2": ols.sigma2, "rss": ols.rss,
                     "dof": ols.dof}
    else:
        pcr = fit_pcr(data, d)
        key, cov = "beta_d", pcr.cov_d
        estimates = {
            "beta_pc_d": pcr.beta_pc_d.tolist(),
            "beta_d": pcr.beta_d.tolist(),
            "beta_k": pcr.beta_k.tolist(),
            "sigma2_d": pcr.sigma2_d,
            "sigma2_k": pcr.sigma2_k,
            "sigma2_q": pcr.sigma2_q.tolist(),
            "rss_d": pcr.rss_d,
        }
    return {
        "config": _data_config(data, d, record),
        "estimates": estimates,
        "standard_errors": {key: np.sqrt(np.diag(cov)).tolist()},
        "covariances": {key: cov.tolist()},
    }


def compare_payload(data: Dataset, d: int, record: dict) -> dict:
    """Full OLS / retained / omitted comparison with identity residuals.

    ``covariances`` prints each slope covariance once: ``ols``, the
    retained block's direct form ``pcr_direct`` and the omitted block
    ``pcr_k``.  The scaled and difference forms of the retained block
    equal ``pcr_direct`` by contract, so they are computed but not
    printed: ``residuals.covariance_agreement`` reports how closely the
    forms agree and ``residuals.variance_recomposition`` checks the
    identity behind the difference form.  The slope-bias estimate
    ``pcr.beta_k`` is printed once, as ``estimates.pcr_k``.
    """
    ols = fit_ols(data)
    pcr = fit_pcr(data, d)
    report = build_report(data.factors, ols, pcr)
    covs = report.covs

    forms = sigma2_d_three_forms(data, pcr, ols)
    spread = max(abs(v - pcr.sigma2_d) for v in forms)
    recovered = recover_ols_sigma2(data, pcr)
    residuals = {
        "beta_additivity": beta_additivity_check(ols, pcr),
        "sigma2_recovery": abs(recovered - ols.sigma2),
        "three_forms_spread": spread,
        "covariance_agreement": covariance_agreement(covs),
        "bias_identity": abs(report.bias_sigma2_plugin - (pcr.sigma2_d - ols.sigma2)),
        "variance_recomposition": variance_recomposition_check(ols, pcr, covs),
    }

    return {
        "config": _data_config(data, d, record),
        "estimates": {
            "ols": ols.beta.tolist(),
            "pcr_d": pcr.beta_d.tolist(),
            "pcr_k": pcr.beta_k.tolist(),
            "beta_pc_d": pcr.beta_pc_d.tolist(),
            "sigma2": {
                "ols": ols.sigma2,
                "pcr_d": pcr.sigma2_d,
                "pcr_k": pcr.sigma2_k,
                "per_component": pcr.sigma2_q.tolist(),
            },
            "rss": {"ols": ols.rss, "pcr_d": pcr.rss_d},
        },
        "standard_errors": {
            "ols": report.se_ols.tolist(),
            "pcr_d": report.se_pcr.tolist(),
            "pcr_k": report.se_k.tolist(),
        },
        "covariances": {
            "ols": ols.cov.tolist(),
            "pcr_direct": covs.direct.tolist(),
            "pcr_k": covs.omitted.tolist(),
        },
        "diagnostics": {
            "inflation_ratio": report.inflation_ratio,
            "loading_diag": report.loading_diag.tolist(),
            "exceeds_ols_d": report.exceeds_ols.tolist(),
            "exceeds_ols_k": report.exceeds_ols_k.tolist(),
            "bias_sigma2_plugin": report.bias_sigma2_plugin,
            "degenerate": report.degenerate,
        },
        "residuals": residuals,
    }


def simulate_payload(cfg: SimulationConfig, alert_threshold: float) -> dict:
    """Run a simulation and tabulate it; ``alert`` reports a z alert.

    ``result`` holds the aggregates that no row prints: the mean plug-in
    variance and both slope covariances.  The mean RSS, the mean slopes
    and their MCSEs, and the MCSE of the variance are the ``observed``
    and ``mcse`` of their rows.
    """
    res = run_simulation(cfg)
    rows = theory_comparison(res)
    return {
        "config": {
            "n": cfg.n,
            "p": cfg.p,
            "d": cfg.d,
            "replicates": cfg.replicates,
            "seed": cfg.seed,
            "sigma2_true": cfg.sigma2_true,
            "beta_true": cfg.beta_true.tolist(),
            "generator": GENERATOR_NAME,
            "alert_threshold": alert_threshold,
        },
        "result": {
            "mean_sigma2_d": res.mean_sigma2_d,
            "empirical_cov_beta_d": res.empirical_cov_beta_d.tolist(),
            "predicted_cov": res.predicted_cov.tolist(),
        },
        "rows": rows,
        "adjudication": adjudicate_rss_dof(res),
        "alert": any(
            row["asserted"] and math.isfinite(row["z"]) and abs(row["z"]) > alert_threshold
            for row in rows
        ),
    }


# ---------------------------------------------------------------------------
# rendering


def _sig2(v: float) -> str:
    """Two significant figures for table display; JSON stays unrounded."""
    if v == 0:
        return "0"
    return f"{v:.2g}"


def _render_table(headers: list[str], rows: list[list[str]], footer: list[str]) -> str:
    """Left-aligned columns under a ruled header, a blank line, then the footer lines."""
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = [
        "  ".join(h.ljust(widths[j]) for j, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[j] for j in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
    return "\n".join(lines + ["", *footer]) + "\n"


def _cell(estimate: float, se: float) -> str:
    return f"{_sig2(estimate)} ({_sig2(se)})"


def render_compare_table(payload: dict) -> str:
    est = payload["estimates"]
    se = payload["standard_errors"]
    diag = payload["diagnostics"]
    names = payload["config"]["names"]
    rows = []
    for j, name in enumerate(names):
        markers = ",".join(
            tag
            for tag, flag in (("d", diag["exceeds_ols_d"][j]), ("k", diag["exceeds_ols_k"][j]))
            if flag
        )
        rows.append(
            [
                name,
                _cell(est["ols"][j], se["ols"][j]),
                _cell(est["pcr_d"][j], se["pcr_d"][j]),
                _cell(est["pcr_k"][j], se["pcr_k"][j]),
                markers,
            ]
        )
    d = payload["config"]["d"]
    footer = [
        f"n = {payload['config']['n']}, p = {payload['config']['p']}, d = {d}",
        f"sigma2: ols {est['sigma2']['ols']:.6g}, pcr_d {est['sigma2']['pcr_d']:.6g}, "
        f"pcr_k {est['sigma2']['pcr_k']:.6g}",
        f"inflation ratio (sigma2_d / sigma2): {diag['inflation_ratio']:.6g}",
        f"standardize: {payload['config']['standardize']['mode']}",
        f"covariance agreement residual: {payload['residuals']['covariance_agreement']:.3e}",
    ]
    return _render_table(["coefficient", "ols", f"pcr_d (d={d})", "pcr_k", "se>ols"], rows, footer)


def render_fit_table(payload: dict) -> str:
    config, est, se = payload["config"], payload["estimates"], payload["standard_errors"]
    if config["d"] is None:
        key, column = "beta", "ols"
        footer = f"sigma2 = {est['sigma2']:.6g}, rss = {est['rss']:.6g}, dof = {est['dof']}"
    else:
        key, column = "beta_d", f"pcr_d (d={config['d']})"
        footer = (f"sigma2_d = {est['sigma2_d']:.6g}, rss_d = {est['rss_d']:.6g}, "
                  f"sigma2_k = {est['sigma2_k']:.6g}")
    rows = [[name, _cell(est[key][j], se[key][j])] for j, name in enumerate(config["names"])]
    return _render_table(["coefficient", column], rows, [footer])


def render_simulate_table(payload: dict) -> str:
    """One row per claim, in the payload's order: the claim as written,
    ``predicted`` and ``observed`` to 6 significant figures (``.6g``),
    ``mcse`` to 3 (``.3g``), ``z`` signed to 3 decimals (``+.3f``) or
    ``n/a`` when it is not finite, and the role ``asserted`` or
    ``recorded``.  The footer gives the replicates, seed and generator,
    the residual-dof winner with the z-scores of the two ``mean_rss_d``
    rows, and the alert flag."""
    rows = [
        [
            row["claim"],
            f"{row['predicted']:.6g}",
            f"{row['observed']:.6g}",
            f"{row['mcse']:.3g}",
            f"{row['z']:+.3f}" if math.isfinite(row["z"]) else "n/a",
            "asserted" if row["asserted"] else "recorded",
        ]
        for row in payload["rows"]
    ]
    z = {row["claim"]: row["z"] for row in payload["rows"]}
    footer = [
        f"replicates = {payload['config']['replicates']}, seed = {payload['config']['seed']}, "
        f"generator = {payload['config']['generator']}",
        f"rss dof adjudication: winner = {payload['adjudication']['winner']} "
        f"(z_nd = {z['mean_rss_d (n-d dof)']:+.3f}, z_np = {z['mean_rss_d (n-p dof)']:+.3f})",
        f"alert = {payload['alert']}",
    ]
    return _render_table(["claim", "predicted", "observed", "mcse", "z", "role"], rows, footer)


_float_repr = float.__repr__
_json_string = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    at the indentation ``pad``, with each non-finite float as ``null``.

    CPython's ``json`` runs its pure-Python encoder whenever ``indent`` is
    set; this writes the same bytes with one join per container.
    """
    if isinstance(value, float):
        return _float_repr(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # the common case, a list of floats: one join
            items = sep.join(map(_float_repr, value))
        except TypeError:  # an item that is not a float
            items = None
        if items is None or "n" in items:  # or a "nan"/"inf" that must read null
            items = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sep.join([_json_string(k) + ": " + _json_text(v, inner)
                          for k, v in sorted(value.items())])
        return "{\n" + inner + items + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(payload: dict) -> str:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
    newline, with non-finite floats as ``null``."""
    return _json_text(payload, "") + "\n"


def _emit(args: argparse.Namespace, payload: dict, render_table) -> None:
    """Write ``payload`` as JSON or as ``render_table`` draws it, to ``--out`` or stdout."""
    text = render_json(payload) if args.format == "json" else render_table(payload)
    if args.out is None:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # a column name; JSON escapes non-ASCII
            char = reprlib.repr(exc.object[exc.start:exc.end])
            raise ValidationError(f"stdout cannot encode {char}; pass --out to write the table "
                                  "as UTF-8") from None
    else:
        Path(args.out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def load_simulation_config(path: str | Path, seed_override: int | None = None) -> SimulationConfig:
    """Parse a simulation config JSON file into a validated SimulationConfig."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataFormatError(f"{path}: file not found") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an integer over 4300 digits
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DataFormatError(f"{path}: invalid JSON: nested too deeply to read") from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: expected a JSON object at top level")
    for field in fields(SimulationConfig):
        if field.name not in raw:
            raise DataFormatError(f"{path}: missing field {field.name!r}")
    if seed_override is not None:
        raw["seed"] = seed_override
    return SimulationConfig(**{field.name: raw[field.name] for field in fields(SimulationConfig)})


def _add_data_args(sub: argparse.ArgumentParser, d_required: bool) -> None:
    sub.add_argument("--input", required=True, help="CSV file (header row, comma separated)")
    sub.add_argument("--response", required=True, help="response column name")
    sub.add_argument(
        "--d",
        type=int,
        required=d_required,
        default=None,
        help="number of leading components to retain",
    )
    sub.add_argument(
        "--standardize",
        choices=STANDARDIZE_MODES,
        default="none",
        help="design preprocessing (intercept exempt); default none",
    )
    sub.add_argument(
        "--no-intercept",
        action="store_true",
        help="do not prepend an all-ones intercept column",
    )
    _add_output_args(sub)


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("table", "json"), default="table")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValidationError, which ``main`` reports like every
    other failure: one stderr line and exit 2.  argparse quotes the bad
    argument whole, so a long message keeps its head and tail around
    ``...``, as ``reprlib`` cuts every other echoed input."""

    def error(self, message: str) -> NoReturn:
        if len(message) > 160:
            message = f"{message[:100]}...{message[-57:]}"
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcreg",
        description="Principal component regression with variance and bias diagnostics.",
        epilog=_EXIT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit OLS, or the component regression with --d")
    _add_data_args(fit, d_required=False)

    compare = sub.add_parser("compare", help="OLS versus component regression, side by side")
    _add_data_args(compare, d_required=True)

    simulate = sub.add_parser("simulate", help="run a seeded simulation config")
    simulate.add_argument("--config", required=True, help="simulation config JSON file")
    simulate.add_argument("--seed", type=int, default=None, help="override the config seed")
    simulate.add_argument(
        "--alert-threshold",
        type=float,
        default=4.0,
        help="exit with code 6 when any finite |z| exceeds this (default 4)",
    )
    _add_output_args(simulate)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, not at import,
    and then reused, since parsing leaves no state in it."""
    return build_parser()


def _run_data(args: argparse.Namespace, payload_fn, render_fn) -> int:
    """fit and compare: CSV -> standardize -> payload -> JSON or table."""
    data = load_csv(args.input, args.response, add_intercept=not args.no_intercept)
    data, record = standardize(data, args.standardize)
    payload = payload_fn(data, args.d, record)
    payload["config"]["input"] = args.input
    payload["config"]["response"] = args.response
    _emit(args, payload, render_fn)
    return EXIT_OK


def _run_simulate(args: argparse.Namespace) -> int:
    threshold = args.alert_threshold
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValidationError(f"--alert-threshold must be finite and >= 0; got {threshold}")
    cfg = load_simulation_config(args.config, seed_override=args.seed)
    payload = simulate_payload(cfg, threshold)
    _emit(args, payload, render_simulate_table)
    return EXIT_ALERT if payload["alert"] else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Arithmetic that leaves the double range ends as one error line,
        # not as numpy warnings next to an output full of infinities.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "fit":
                return _run_data(args, fit_payload, render_fit_table)
            if args.command == "compare":
                return _run_data(args, compare_payload, render_compare_table)
            return _run_simulate(args)
    except (FloatingPointError, OverflowError) as exc:  # OverflowError: an int past 1.8e308
        print(f"pcreg: error: the data exceed the double-precision range ({exc})",
              file=sys.stderr)
        return EXIT_USAGE
    except (PcregError, OSError) as exc:  # OSError: an unreadable input, an unwritable --out
        code, label = next(((code, label) for code, label, types, _ in _FAILURES
                            if isinstance(exc, types)), (1, "error"))  # fail closed
        print(f"pcreg: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
