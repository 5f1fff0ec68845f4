"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 3's primary assertion targets the real 1970 electricity
production-cost dataset, which could not be vendored in this build
environment (no network access to any source carrying it).  That test
skips itself with instructions when ``data/electricity.csv`` is absent
and runs the documented pattern check when the file is dropped in; the
bundled synthetic fixture covers the same phenomenon with a frozen
expected pattern.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pcreg import fixture_path
from pcreg.cli import compare_payload, load_csv, main, standardize
from pcreg.diagnostics import (
    build_report,
    covariance_agreement,
    pcr_covariance,
    variance_recomposition_check,
)
from pcreg.linalg import gram_pseudo_inverse, loading_projector, svd_thin
from pcreg.model import (
    Dataset,
    beta_additivity_check,
    fit_ols,
    fit_pcr,
    recover_ols_sigma2,
    sigma2_d_three_forms,
)
from pcreg.montecarlo import SimulationConfig, _rss_rows, adjudicate_rss_dof, run_simulation

REPO_ROOT = Path(__file__).resolve().parent.parent
REAL_FIXTURE = REPO_ROOT / "data" / "electricity.csv"

TOY_X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
TOY_Y = np.array([1.0, 2.0, 3.0])

# Reference results for the real dataset at d = 3: the coefficients whose
# d-retained standard errors exceed OLS, and the reference estimates this
# check reports itself against, in fixture column vocabulary.
REFERENCE_BOLD_D = {"output", "wage", "labor_cs", "capital_price", "fuel_price"}
REFERENCE_VALUES = {  # coefficient: (ols, se_ols, pcr_d, se_d, pcr_k, se_k)
    "Intercept": (0.52, 0.015, 0.0, 0.0, 0.52, 0.031),
    "output": (0.83, 0.015, 0.084, 0.022, 0.74, 0.03),
    "wage": (0.037, 0.016, -0.041, 0.047, 0.078, 0.028),
    "labor_cs": (0.04, 0.042, -0.17, 0.049, 0.21, 0.085),
    "capital_price": (0.03, 0.016, -0.005, 0.054, 0.035, 0.024),
    "capital_cs": (0.029, 0.045, -0.038, 0.035, 0.067, 0.093),
    "fuel_price": (0.11, 0.018, 0.015, 0.035, 0.094, 0.036),
    "fuel_cs": (-0.015, 0.061, 0.14, 0.033, -0.16, 0.13),
}

# Frozen pattern of the committed synthetic fixture at d = 3 (regression
# pin; recomputed values must keep matching the committed CSV).
SYNTHETIC_BOLD_D = {"output", "fuel_price"}


def _rel_ok(got, want, tol=1e-10):
    return abs(got - want) <= tol * (1 + abs(want))


def test_criterion_1_exact_identity_suite():
    """Every algebraic identity holds on 1000+ seeded random instances."""
    rng = np.random.default_rng(20260808)
    grid = list(itertools.product((20, 50, 100), (3, 5, 8)))
    per_cell = 112  # 9 * 112 = 1008 instances
    instances = 0
    start = time.perf_counter()
    for n, p in grid:
        for _ in range(per_cell):
            x = rng.standard_normal((n, p)) * rng.uniform(0.2, 5.0)
            y = x @ rng.standard_normal(p) + rng.standard_normal(n)
            data = Dataset(y=y, x=x)
            f = data.factors
            ols = fit_ols(data)
            gram = x.T @ x
            instances += 1
            for d in range(1, p + 1):
                pcr = fit_pcr(data, d)
                # additive slope decomposition
                gap = beta_additivity_check(ols, pcr)
                assert gap <= 1e-10 * (1 + np.max(np.abs(ols.beta)))
                # RSS ledger: y^T H_k y = |U_k^T y|^2 for the omitted block
                s_k = f.u[:, pcr.d :].T @ y
                ledger = ols.rss + float(s_k @ s_k)
                assert _rel_ok(pcr.rss_d, ledger)
                # OLS residual variance recovered from the PCR fit
                assert _rel_ok(recover_ols_sigma2(data, pcr), ols.sigma2)
                # per-dimension identity, three ways
                for form in sigma2_d_three_forms(data, pcr, ols):
                    assert _rel_ok(form, pcr.sigma2_d)
                # plug-in residual-variance ledger
                rhs = ols.sigma2 * (n - p) + float(pcr.beta_k @ gram @ pcr.beta_k)
                assert _rel_ok(pcr.sigma2_d * (n - d), rhs)
                # covariance forms agree
                covs = pcr_covariance(f, ols, pcr)
                ctol = 1e-8 * (1 + np.max(np.diag(covs.direct)))
                assert covariance_agreement(covs) <= ctol
                if d < p:
                    assert covs.difference is not None
                    rtol = 1e-8 * (1 + np.max(np.diag(ols.cov)))
                    assert variance_recomposition_check(ols, pcr, covs) <= rtol
    elapsed = time.perf_counter() - start
    assert instances >= 1000
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s for {instances} instances"
    print(f"\nACCEPTANCE 1 exact-identity suite: PASS "
          f"({instances} instances, all d, {elapsed:.1f}s)")


def test_criterion_2_hand_oracle_case():
    """The worked 3x2 example reproduces every stated number to 1e-12."""
    data = Dataset(y=TOY_Y, x=TOY_X)
    f = data.factors
    ols = fit_ols(data)
    pcr = fit_pcr(data, 1)

    np.testing.assert_allclose(ols.beta, [1.0, 1.0], atol=1e-12)
    assert abs(ols.sigma2 - 9.0) <= 1e-12
    np.testing.assert_allclose(ols.cov, np.diag([9.0, 2.25]), atol=1e-12)
    np.testing.assert_allclose(pcr.beta_pc_d, [2.0], atol=1e-12)
    np.testing.assert_allclose(pcr.beta_d, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(pcr.beta_k, [1.0, 0.0], atol=1e-12)
    assert abs(pcr.rss_d - 10.0) <= 1e-12
    assert abs(pcr.sigma2_d - 5.0) <= 1e-12
    assert abs(pcr.sigma2_k - 6.5) <= 1e-12
    np.testing.assert_allclose(pcr.sigma2_q, [5.0, 6.5], atol=1e-12)
    assert abs(recover_ols_sigma2(data, pcr) - 9.0) <= 1e-12
    np.testing.assert_allclose(
        sigma2_d_three_forms(data, pcr, ols), (5.0, 5.0, 5.0), atol=1e-12
    )
    covs = pcr_covariance(f, ols, pcr)
    for form in (covs.direct, covs.scaled, covs.difference):
        np.testing.assert_allclose(form, np.diag([0.0, 1.25]), atol=1e-12)
    var_k = gram_pseudo_inverse(f, np.s_[pcr.d :]) * pcr.sigma2_k
    np.testing.assert_allclose(var_k, np.diag([6.5, 0.0]), atol=1e-12)
    report = build_report(f, ols, pcr)
    assert abs(report.bias_sigma2_plugin - (-4.0)) <= 1e-12
    assert variance_recomposition_check(ols, pcr, covs) <= 1e-12
    print("\nACCEPTANCE 2 hand-oracle case: PASS (all values at 1e-12)")


def _exceedance_pattern(data, d):
    f = data.factors
    ols = fit_ols(data)
    pcr = fit_pcr(data, d)
    report = build_report(f, ols, pcr)
    se_k = np.sqrt(np.diag(gram_pseudo_inverse(f, np.s_[pcr.d :]) * pcr.sigma2_k))
    bold_d = {name for name, flag in zip(data.names, report.exceeds_ols) if flag}
    k_exceeds = se_k > report.se_ols
    return bold_d, k_exceeds, ols, pcr, report


@pytest.mark.skipif(
    not REAL_FIXTURE.exists(),
    reason=(
        "real electricity dataset not vendored (build environment had no "
        "network route to it); drop the 1970 production-cost CSV at "
        f"{REAL_FIXTURE} with columns cost,output,wage,labor_cs,"
        "capital_price,capital_cs,fuel_price,fuel_cs to run this check "
        "(see README, 'The electricity fixture')"
    ),
)
def test_criterion_3_reference_pattern_real_fixture():
    """On the real data at d=3, the exceedance pattern matches the reference."""
    raw = load_csv(REAL_FIXTURE, "cost")
    matched_modes = []
    for mode in ("none", "center", "zscore"):
        data, _ = standardize(raw, mode)
        bold_d, k_exceeds, ols, pcr, report = _exceedance_pattern(data, 3)
        if bold_d == REFERENCE_BOLD_D and bool(k_exceeds.all()):
            matched_modes.append(mode)
            # best-effort numeric comparison, reported not asserted
            print(f"\npreprocessing mode {mode!r} reproduces the exceedance pattern")
            se_k = np.sqrt(
                np.diag(
                    gram_pseudo_inverse(svd_thin(data.x), np.s_[pcr.d :])
                    * pcr.sigma2_k
                )
            )
            for j, name in enumerate(data.names):
                ref = REFERENCE_VALUES[name]
                print(
                    f"  {name:14s} ols {ols.beta[j]:+.3f} ({report.se_ols[j]:.3f}) "
                    f"vs {ref[0]} ({ref[1]}); pcr_d {pcr.beta_d[j]:+.3f} "
                    f"({report.se_pcr[j]:.3f}) vs {ref[2]} ({ref[3]}); "
                    f"pcr_k {pcr.beta_k[j]:+.3f} ({se_k[j]:.3f}) vs {ref[4]} ({ref[5]})"
                )
    assert matched_modes, (
        "no preprocessing mode (none/center/zscore) reproduced the reference "
        "exceedance pattern"
    )
    print(f"ACCEPTANCE 3 reference pattern: PASS (modes {matched_modes})")


def test_criterion_3_synthetic_fixture_demonstration():
    """The bundled synthetic fixture shows the same phenomenon (frozen pattern)."""
    data = load_csv(fixture_path(), "cost")
    bold_d, k_exceeds, ols, pcr, report = _exceedance_pattern(data, 3)
    # the phenomenon: truncation can inflate standard errors above OLS
    assert bold_d, "expected a nonempty set of inflated d-retained standard errors"
    assert bool(k_exceeds.all()), "every omitted-block SE should exceed OLS"
    # regression pin against the committed CSV
    assert bold_d == SYNTHETIC_BOLD_D
    assert report.inflation_ratio > 1.0
    print(f"\nACCEPTANCE 3 (synthetic stand-in) fixture demonstration: PASS "
          f"(bold d-set {sorted(bold_d)}, all 8 omitted-block SEs exceed OLS, "
          f"inflation {report.inflation_ratio:.3f})")


def test_criterion_4_monte_carlo():
    """5000-replicate runs: estimator mean, covariance, and dof adjudication."""
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    n, p, d = 100, 5, 2
    x = rng.standard_normal((n, p))
    f = svd_thin(x)

    # (a) + (b): truth entirely on the retained components
    beta_retained = f.v[:, :d] @ np.array([2.0, -1.0])
    res_a = run_simulation(
        SimulationConfig(x=x, beta_true=beta_retained, sigma2_true=1.0,
                         d=d, replicates=5000, seed=20260808)
    )
    gap = np.abs(res_a.mean_beta_d - beta_retained)
    assert np.all(gap <= 4.0 * res_a.mcse_beta_d), (
        f"mean beta_d off by {np.max(gap / res_a.mcse_beta_d):.2f} MCSE"
    )
    frob = np.linalg.norm(res_a.empirical_cov_beta_d - res_a.predicted_cov)
    frob /= np.linalg.norm(res_a.predicted_cov)
    assert frob <= 0.10, f"covariance relative Frobenius distance {frob:.3f}"
    # residual-variance mean under the trace-derived n-d dof; the n-p
    # variant's residual is reported alongside
    z_nd_sigma = (res_a.mean_sigma2_d - 1.0) / res_a.mcse_sigma2_d
    z_np_sigma = (res_a.mean_sigma2_d - (1.0 + res_a.predicted_bias_np_dof)) / res_a.mcse_sigma2_d
    assert abs(z_nd_sigma) <= 4.0

    # (c): truth on the omitted components separates the two predictions
    beta_omitted = f.v[:, d:] @ (np.sqrt(50.0 / 3.0) / f.sigma[d:])
    res_c = run_simulation(
        SimulationConfig(x=x, beta_true=beta_omitted, sigma2_true=1.0,
                         d=d, replicates=5000, seed=20260809)
    )
    adj = adjudicate_rss_dof(res_c)
    nd, np_dof = _rss_rows(res_c)  # the mean-RSS rows the adjudication compares
    winner_z = nd.z if adj["winner"] == "n-d" else np_dof.z
    assert abs(winner_z) <= 4.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"Monte Carlo runs took {elapsed:.1f}s"
    print("\nACCEPTANCE 4 Monte Carlo: PASS")
    print(f"  (a) mean beta_d within {np.max(gap / res_a.mcse_beta_d):.2f} MCSE of truth")
    print(f"  (b) covariance relative Frobenius distance {frob:.4f} (<= 0.10)")
    print(f"  (a, dof report) sigma2_d mean z: n-d {z_nd_sigma:+.2f}, "
          f"n-p residual z {z_np_sigma:+.2f}")
    print(f"  (c) adjudication: winner = {adj['winner']} dof "
          f"(z_nd {nd.z:+.2f}, z_np {np_dof.z:+.2f}, "
          f"observed mean RSS_d {nd.observed:.2f} vs n-d {nd.predicted:.2f} "
          f"/ n-p {np_dof.predicted:.2f})")
    print(f"  runtime {elapsed:.1f}s (< 60s)")


def test_criterion_5_determinism(tmp_path):
    """Identical inputs and seeds give byte-identical JSON from the CLI."""
    fixture = str(fixture_path())
    outs = [tmp_path / f"cmp{i}.json" for i in (1, 2)]
    for out in outs:
        code = main(["compare", "--input", fixture, "--response", "cost",
                     "--d", "3", "--format", "json", "--out", str(out)])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()

    rng = np.random.default_rng(9)
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "x": rng.standard_normal((50, 4)).tolist(),
        "beta_true": [1.0, 0.5, 0.0, 0.0],
        "sigma2_true": 1.0,
        "d": 2,
        "replicates": 400,
        "seed": 31,
    }), encoding="utf-8")
    sim_outs = [tmp_path / f"sim{i}.json" for i in (1, 2)]
    for out in sim_outs:
        main(["simulate", "--config", str(sim_cfg), "--format", "json",
              "--out", str(out), "--alert-threshold", "10"])
    assert sim_outs[0].read_bytes() == sim_outs[1].read_bytes()
    print("\nACCEPTANCE 5 determinism: PASS (compare and simulate byte-identical)")


def test_criterion_6_monotonicity_suite():
    """RSS_d falls and the loading diagonal grows as d increases."""
    rng = np.random.default_rng(1618)
    checked = 0
    for n, p in itertools.product((20, 50, 100), (3, 5, 8)):
        for _ in range(20):
            x = rng.standard_normal((n, p))
            y = x @ rng.standard_normal(p) + rng.standard_normal(n)
            data = Dataset(y=y, x=x)
            f = data.factors
            ols = fit_ols(data)
            prev_rss = np.inf
            prev_diag = np.zeros(p)
            for d in range(1, p + 1):
                pcr = fit_pcr(data, d)
                assert pcr.rss_d <= prev_rss + 1e-10 * (1 + prev_rss)
                assert pcr.rss_d >= ols.rss - 1e-10 * (1 + ols.rss)
                diag = np.diag(loading_projector(f, np.s_[: pcr.d]))
                assert np.all(diag >= prev_diag - 1e-12)
                prev_rss, prev_diag = pcr.rss_d, diag
            np.testing.assert_allclose(prev_diag, np.ones(p), atol=1e-10)
            checked += 1
    print(f"\nACCEPTANCE 6 monotonicity suite: PASS ({checked} instances)")
