"""Correctness checks on every output the benchmark times.

An operation fails when it exits non-zero, prints JSON that does not
parse, reports an identity residual above its contract (1e-10 relative;
1e-8 for the covariance forms), gives OLS slopes more than 1e-8 relative
away from ``numpy.linalg.lstsq``, or, for ``simulate``, raises an alert or
backs the n-p degrees of freedom.  Table outputs are checked against the
same references at the six significant digits they print.

Singular values are no command's output, so ``sigma_problems`` compares
``pcreg.linalg.svd_thin`` with ``numpy.linalg.svd`` on each design a run
feeds the program (1e-10 relative to the largest singular value, LAPACK's
reference being accurate only normwise).

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-10
COVARIANCE_TOL = 1e-8
BETA_TOL = 1e-8
SIGMA_TOL = 1e-10
# Tables print sigma2 values with six significant digits.
TABLE_TOL = 1e-5


@dataclass(frozen=True)
class Reference:
    """Independent numpy results for one fit (design, standardize mode, d)."""

    n: int
    p: int
    d: int | None
    names: tuple[str, ...]
    beta: np.ndarray
    sigma2: float
    sigma2_d: float | None
    sigma2_k: float | None
    cov_direct_max: float | None


def standardized(x: np.ndarray, mode: str, intercept: bool) -> np.ndarray:
    """The design after ``--standardize mode`` (intercept column exempt)."""
    if mode == "none":
        return x
    out = x.copy()
    cols = slice(1 if intercept else 0, None)
    out[:, cols] -= out[:, cols].mean(axis=0)
    if mode == "zscore":
        out[:, cols] /= out[:, cols].std(axis=0, ddof=1)
    return out


def reference(design, mode: str, d: int | None) -> Reference:
    x = standardized(design.x, mode, design.intercept)
    y = design.y
    n, p = x.shape
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (n - p)
    sigma2_d = sigma2_k = cov_max = None
    if d is not None:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        scores = u.T @ y
        resid_d = y - u[:, :d] @ scores[:d]
        resid_k = y - u[:, d:] @ scores[d:]
        sigma2_d = float(resid_d @ resid_d) / (n - d)
        sigma2_k = float(resid_k @ resid_k) / (n - (p - d))
        cov_max = float(np.max(np.sum((vt[:d].T / s[:d]) ** 2, axis=1))) * sigma2_d
    return Reference(n, p, d, design.names, beta, sigma2, sigma2_d, sigma2_k, cov_max)


def sigma_problems(x: np.ndarray, svd_thin) -> list[str]:
    """Singular values of ``svd_thin`` against ``numpy.linalg.svd``."""
    got = np.asarray(svd_thin(x).sigma)
    want = np.linalg.svd(x, compute_uv=False)
    gap = float(np.max(np.abs(got - want)))
    if not gap <= SIGMA_TOL * float(want[0]):
        return [f"singular values differ from numpy.linalg.svd by {gap:.3e} (sigma_max {want[0]:.3e})"]
    return []


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _vector_problems(label: str, got, want: np.ndarray, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    gap = float(np.max(np.abs(got - want)))
    if not gap <= tol * float(np.max(np.abs(want))):
        return [f"{label}: differs from numpy.linalg.lstsq by {gap:.3e}"]
    return []


def _scalar_problems(label: str, got, want: float, tol: float) -> list[str]:
    if not isinstance(got, (int, float)) or not _rel_gap(float(got), want) <= tol:
        return [f"{label}: {got!r}, reference {want!r}"]
    return []


def _config_problems(config: dict, ref: Reference) -> list[str]:
    if (config.get("n"), config.get("p"), config.get("d")) != (ref.n, ref.p, ref.d):
        return [f"config n/p/d {config.get('n')}/{config.get('p')}/{config.get('d')}, "
                f"expected {ref.n}/{ref.p}/{ref.d}"]
    if tuple(config.get("names", ())) != ref.names:
        return ["config names differ from the input header"]
    return []


def residual_problems(payload: dict) -> list[str]:
    """Every ``residuals`` entry of a compare payload against its contract."""
    res = payload["residuals"]
    est = payload["estimates"]
    cov = payload["covariances"]
    s2 = est["sigma2"]
    scale_beta = 1.0 + max(abs(v) for v in est["ols"])
    scale_s2 = 1.0 + max(abs(s2["ols"]), abs(s2["pcr_d"]))
    direct_max = max(np.diag(np.asarray(cov["pcr_direct"], dtype=float)))
    ols_max = max(np.diag(np.asarray(cov["ols"], dtype=float)))
    contracts = {
        "beta_additivity": RESIDUAL_TOL * scale_beta,
        "sigma2_recovery": RESIDUAL_TOL * (1.0 + abs(s2["ols"])),
        "three_forms_spread": RESIDUAL_TOL * (1.0 + abs(s2["pcr_d"])),
        "bias_identity": RESIDUAL_TOL * scale_s2,
        "covariance_agreement": COVARIANCE_TOL * (1.0 + direct_max),
        "variance_recomposition": COVARIANCE_TOL * (1.0 + ols_max),
    }
    problems = [f"residual {key!r} has no known contract" for key in res if key not in contracts]
    for key, limit in contracts.items():
        value = res.get(key)
        if value is None and key == "variance_recomposition" and payload["config"]["d"] == payload["config"]["p"]:
            continue
        if not isinstance(value, (int, float)) or not value <= limit:
            problems.append(f"residual {key!r} = {value!r} exceeds {limit:.3e}")
    return problems


def _parse(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not valid JSON: {exc}"]


def check_compare_json(text: str, ref: Reference) -> list[str]:
    payload, problems = _parse(text)
    if problems:
        return problems
    try:
        problems = _config_problems(payload["config"], ref)
        problems += residual_problems(payload)
        est = payload["estimates"]
        problems += _vector_problems("ols beta", est["ols"], ref.beta, BETA_TOL)
        problems += _scalar_problems("sigma2 ols", est["sigma2"]["ols"], ref.sigma2, BETA_TOL)
        problems += _scalar_problems("sigma2 pcr_d", est["sigma2"]["pcr_d"], ref.sigma2_d, BETA_TOL)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"compare payload malformed: {exc!r}")
    return problems


def check_fit_json(text: str, ref: Reference) -> list[str]:
    payload, problems = _parse(text)
    if problems:
        return problems
    try:
        problems = _config_problems(payload["config"], ref)
        est = payload["estimates"]
        if ref.d is None:
            problems += _vector_problems("ols beta", est["beta"], ref.beta, BETA_TOL)
            problems += _scalar_problems("sigma2", est["sigma2"], ref.sigma2, BETA_TOL)
        else:
            beta = np.asarray(est["beta_d"], dtype=float) + np.asarray(est["beta_k"], dtype=float)
            problems += _vector_problems("beta_d + beta_k", beta, ref.beta, BETA_TOL)
            problems += _scalar_problems("sigma2_d", est["sigma2_d"], ref.sigma2_d, BETA_TOL)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"fit payload malformed: {exc!r}")
    return problems


_NUMBER = r"([-+0-9.eEinfa]+)"


def _table_values(text: str, pattern: str) -> list[float] | None:
    match = re.search(pattern, text)
    try:
        return None if match is None else [float(v) for v in match.groups()]
    except ValueError:
        return None


def _table_rows_problems(text: str, ref: Reference) -> list[str]:
    rows = [line.split()[0] for line in text.splitlines()[2 : 2 + ref.p] if line.strip()]
    if tuple(rows) != ref.names:
        return [f"table rows {rows}, expected {list(ref.names)}"]
    return []


def check_compare_table(text: str, ref: Reference) -> list[str]:
    problems = _table_rows_problems(text, ref)
    values = _table_values(text, rf"sigma2: ols {_NUMBER}, pcr_d {_NUMBER}, pcr_k {_NUMBER}")
    agreement = _table_values(text, rf"covariance agreement residual: {_NUMBER}")
    if values is None or agreement is None:
        return problems + ["compare table lacks its sigma2 or agreement footer"]
    for label, got, want in zip(("ols", "pcr_d", "pcr_k"), values, (ref.sigma2, ref.sigma2_d, ref.sigma2_k)):
        problems += _scalar_problems(f"table sigma2 {label}", got, want, TABLE_TOL)
    limit = COVARIANCE_TOL * (1.0 + ref.cov_direct_max)
    if not agreement[0] <= limit:
        problems.append(f"table covariance agreement {agreement[0]!r} exceeds {limit:.3e}")
    return problems


def check_fit_table(text: str, ref: Reference) -> list[str]:
    problems = _table_rows_problems(text, ref)
    if ref.d is None:
        values = _table_values(text, rf"sigma2 = {_NUMBER}, rss = {_NUMBER}, dof = (\d+)")
        if values is None:
            return problems + ["fit table lacks its sigma2 footer"]
        problems += _scalar_problems("table sigma2", values[0], ref.sigma2, TABLE_TOL)
        if values[2] != ref.n - ref.p:
            problems.append(f"table dof {values[2]:g}, expected {ref.n - ref.p}")
        return problems
    values = _table_values(text, rf"sigma2_d = {_NUMBER}, rss_d = {_NUMBER}, sigma2_k = {_NUMBER}")
    if values is None:
        return problems + ["fit table lacks its sigma2_d footer"]
    problems += _scalar_problems("table sigma2_d", values[0], ref.sigma2_d, TABLE_TOL)
    problems += _scalar_problems("table sigma2_k", values[2], ref.sigma2_k, TABLE_TOL)
    return problems


def check_simulate_json(text: str, replicates: int) -> list[str]:
    payload, problems = _parse(text)
    if problems:
        return problems
    try:
        if payload["alert"] is not False:
            problems.append(f"simulate raised an alert: {payload['alert']!r}")
        winner = payload["adjudication"]["winner"]
        if winner != "n-d":
            problems.append(f"adjudication winner {winner!r}, expected 'n-d'")
        if payload["config"]["replicates"] != replicates:
            problems.append(f"ran {payload['config']['replicates']} replicates, expected {replicates}")
    except (KeyError, TypeError) as exc:
        problems.append(f"simulate payload malformed: {exc!r}")
    return problems


def check(kind: str, text: str, ref: Reference | None, replicates: int = 0) -> list[str]:
    """Problems with one operation's output of the given kind."""
    if kind == "compare-json":
        return check_compare_json(text, ref)
    if kind == "compare-table":
        return check_compare_table(text, ref)
    if kind == "fit-json":
        return check_fit_json(text, ref)
    if kind == "fit-table":
        return check_fit_table(text, ref)
    if kind == "simulate-json":
        return check_simulate_json(text, replicates)
    raise ValueError(f"unknown output kind {kind!r}")
