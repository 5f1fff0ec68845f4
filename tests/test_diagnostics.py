"""Tests for the covariance formulations and the bias ledger.

Toy oracle at d = 1 (see test_model): direct covariance is
v1 sigma1^-2 v1^T * sigma2_d = diag(0, 5/4); the scaled and difference
routes reduce to the same diag(0, 1.25); plug-in bias is
(1/2 - 1) * 9 + 1/2 = -4 = sigma2_d - sigma2.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcreg.diagnostics import (
    CovarianceSet,
    build_report,
    covariance_agreement,
    pcr_covariance,
    plugin_bias,
    variance_recomposition_check,
)
from pcreg.linalg import svd_thin
from pcreg.model import Dataset, fit_ols, fit_pcr

TOY_X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
TOY_Y = np.array([1.0, 2.0, 3.0])


@pytest.fixture
def toy_fits():
    data = Dataset(y=TOY_Y, x=TOY_X)
    f = data.factors
    return f, fit_ols(data), fit_pcr(data, 1)


def random_fits(seed, n, p, d, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * scale
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    data = Dataset(y=y, x=x)
    f = data.factors
    return data, f, fit_ols(data), fit_pcr(data, d)


class TestPcrCovariance:
    def test_toy_all_three_forms(self, toy_fits):
        f, ols, pcr = toy_fits
        covs = pcr_covariance(f, ols, pcr)
        expected = np.diag([0.0, 1.25])
        np.testing.assert_allclose(covs.direct, expected, atol=1e-12)
        np.testing.assert_allclose(covs.scaled, expected, atol=1e-12)
        np.testing.assert_allclose(covs.difference, expected, atol=1e-12)
        np.testing.assert_allclose(covs.omitted, np.diag([6.5, 0.0]), atol=1e-12)

    def test_full_d_equals_ols_cov(self):
        _, f, ols, pcr = random_fits(0, 30, 5, d=5)
        covs = pcr_covariance(f, ols, pcr)
        np.testing.assert_allclose(covs.direct, ols.cov, atol=1e-10)
        np.testing.assert_allclose(covs.scaled, ols.cov, atol=1e-10)
        assert covs.difference is None
        np.testing.assert_array_equal(covs.omitted, np.zeros((5, 5)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
    def test_agreement_random(self, seed, d):
        _, f, ols, pcr = random_fits(seed, 40, 6, d=d)
        covs = pcr_covariance(f, ols, pcr)
        tol = 1e-8 * (1 + np.max(np.diag(covs.direct)))
        assert covariance_agreement(covs) <= tol
        for form in (covs.direct, covs.scaled, covs.difference):
            np.testing.assert_allclose(form, form.T, atol=tol)

    def test_degenerate_zero_residual_variance(self):
        # an all-zero response fits exactly, so sigma2 is exactly 0.0, which
        # is not a normal double: only the direct and omitted forms are built
        rng = np.random.default_rng(5)
        x = rng.standard_normal((15, 3))
        data = Dataset(y=np.zeros(15), x=x)
        f = data.factors
        ols, pcr = fit_ols(data), fit_pcr(data, 2)
        covs = pcr_covariance(f, ols, pcr)
        assert covs.scaled is None and covs.difference is None
        assert covariance_agreement(covs) == 0.0

    def test_agreement_is_the_largest_gap_over_all_pairs(self):
        # The widest gap is between scaled and difference, neither of them direct.
        e = np.ones((2, 2))
        covs = CovarianceSet(direct=0 * e, omitted=0 * e, scaled=e, difference=-2 * e)
        assert covariance_agreement(covs) == 3.0
        assert covariance_agreement(dataclasses.replace(covs, difference=None)) == 1.0
        assert covariance_agreement(dataclasses.replace(covs, scaled=None, difference=None)) == 0.0


class TestVarianceRecomposition:
    def test_toy_exact(self, toy_fits):
        f, ols, pcr = toy_fits
        assert variance_recomposition_check(ols, pcr, pcr_covariance(f, ols, pcr)) <= 1e-12

    def test_full_d_rejected(self):
        # At d = p there is no omitted set, so the check has no value.
        _, f, ols, pcr = random_fits(1, 25, 4, d=4)
        assert variance_recomposition_check(ols, pcr, pcr_covariance(f, ols, pcr)) is None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
    def test_random(self, seed, d):
        _, f, ols, pcr = random_fits(seed, 50, 7, d=d if d < 7 else 6)
        gap = variance_recomposition_check(ols, pcr, pcr_covariance(f, ols, pcr))
        assert gap <= 1e-8 * (1 + np.max(np.diag(ols.cov)))


class TestBiasReport:
    def test_toy_plugin(self, toy_fits):
        f, ols, pcr = toy_fits
        report = build_report(f, ols, pcr)
        np.testing.assert_allclose(pcr.beta_k, [1.0, 0.0], atol=1e-12)
        assert abs(report.bias_sigma2_plugin - (-4.0)) <= 1e-12

    def test_full_d_bias_vanishes(self):
        _, f, ols, pcr = random_fits(2, 30, 5, d=5)
        report = build_report(f, ols, pcr)
        np.testing.assert_allclose(pcr.beta_k, np.zeros(5), atol=1e-12)
        assert abs(report.bias_sigma2_plugin) <= 1e-10 * (1 + ols.sigma2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
    def test_plugin_identity_random(self, seed, d):
        _, f, ols, pcr = random_fits(seed, 40, 5, d=d)
        plugin = build_report(f, ols, pcr).bias_sigma2_plugin
        target = pcr.sigma2_d - ols.sigma2
        assert abs(plugin - target) <= 1e-10 * (1 + abs(target))


class TestPluginBias:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
    def test_is_the_report_bias_bit_for_bit(self, seed, d):
        _, f, ols, pcr = random_fits(seed, 40, 5, d=d)
        gram = (f.v * f.sigma**2) @ f.v.T
        delta = ols.beta - pcr.beta_d
        quad = float(delta @ gram @ delta)
        want = build_report(f, ols, pcr).bias_sigma2_plugin
        assert repr(plugin_bias(f.n, f.p, d, ols.sigma2, quad)) == repr(want)


class TestBuildReport:
    def test_toy_flags(self, toy_fits):
        f, ols, pcr = toy_fits
        report = build_report(f, ols, pcr)
        np.testing.assert_allclose(report.se_ols, [3.0, 1.5], atol=1e-12)
        np.testing.assert_allclose(report.se_pcr, [0.0, np.sqrt(1.25)], atol=1e-12)
        assert report.exceeds_ols.tolist() == [False, False]
        assert abs(report.inflation_ratio - 5.0 / 9.0) <= 1e-12
        np.testing.assert_allclose(report.loading_diag, [0.0, 1.0], atol=1e-12)
        assert abs(report.bias_sigma2_plugin - (-4.0)) <= 1e-12
        np.testing.assert_array_equal(report.covs.direct, pcr_covariance(f, ols, pcr).direct)

    def test_toy_omitted_block(self, toy_fits):
        # The omitted-slope standard errors and flags come from covs.omitted.
        f, ols, pcr = toy_fits
        report = build_report(f, ols, pcr)
        np.testing.assert_array_equal(report.se_k, np.sqrt(np.diag(report.covs.omitted)))
        np.testing.assert_allclose(report.se_k, [np.sqrt(6.5), 0.0], atol=1e-12)
        assert report.exceeds_ols_k.tolist() == [False, False]
        # At d = p the omitted block is zero, so no omitted slope is flagged.
        _, f, ols, pcr = random_fits(3, 30, 5, d=5)
        report = build_report(f, ols, pcr)
        assert not report.se_k.any() and not report.exceeds_ols_k.any()

    def test_full_d_all_flags_false(self):
        _, f, ols, pcr = random_fits(3, 30, 5, d=5)
        report = build_report(f, ols, pcr)
        assert not report.exceeds_ols.any()

    def test_loading_diag_monotone(self):
        data, f, ols, _ = random_fits(4, 40, 6, d=1)
        prev = np.zeros(6)
        for d in range(1, 7):
            report = build_report(f, ols, fit_pcr(data, d))
            assert np.all(report.loading_diag >= prev - 1e-12)
            prev = report.loading_diag
        np.testing.assert_allclose(prev, np.ones(6), atol=1e-10)

    def test_degenerate_inflation_nan(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 3))
        data = Dataset(y=np.zeros(12), x=x)
        f = data.factors
        report = build_report(f, fit_ols(data), fit_pcr(data, 2))
        assert report.degenerate
        assert np.isnan(report.inflation_ratio)

    def test_inflation_ratio_may_drop_below_one(self):
        # RSS_d >= RSS is guaranteed, the estimated ratio is not: with no
        # signal on the omitted components the d-fit can have the smaller
        # variance estimate because it spends fewer degrees of freedom.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 8))
        f = svd_thin(x)
        y = f.u[:, 0] * 50.0 + rng.standard_normal(200)
        data = Dataset(y=y, x=x)
        ols, pcr = fit_ols(data), fit_pcr(data, 1)
        report = build_report(f, ols, pcr)
        assert pcr.rss_d >= ols.rss
        assert report.inflation_ratio < 1.0
