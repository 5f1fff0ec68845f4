"""Tests for the OLS and component-regression estimators.

The hand oracle (X = [[1,0],[0,2],[0,0]], y = (1,2,3), d = 1) was worked
out from X^T X = diag(1, 4): beta = (1, 1), rss = 9, sigma2 = 9,
beta_pc = (2,), beta_d = (0, 1), beta_k = (1, 0), rss_d = 10 so
sigma2_d = 5, sigma2_k = 13/2 = 6.5, per-component variances (5, 6.5).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcreg.errors import (
    DegreesOfFreedomError,
    RankDeficiencyError,
    ValidationError,
)
from pcreg.model import (
    Dataset,
    beta_additivity_check,
    checked_factors,
    component_fit,
    fit_ols,
    fit_pcr,
    recover_ols_sigma2,
    sigma2_d_three_forms,
)
from pcreg.montecarlo import fit_block_rows

TOY_X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
TOY_Y = np.array([1.0, 2.0, 3.0])


@pytest.fixture
def toy():
    return Dataset(y=TOY_Y, x=TOY_X, names=("a", "b"))


def random_dataset(seed, n, p, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * scale
    beta = rng.standard_normal(p)
    y = x @ beta + rng.standard_normal(n)
    return Dataset(y=y, x=x)


class TestDataset:
    def test_default_names(self):
        data = random_dataset(0, 10, 3)
        assert data.names == ("x1", "x2", "x3")

    def test_rejects_n_le_p(self):
        with pytest.raises(DegreesOfFreedomError):
            Dataset(y=np.ones(3), x=np.eye(3))

    def test_rejects_nonfinite(self):
        x = np.ones((5, 2))
        x[0, 0] = np.inf
        with pytest.raises(ValidationError):
            Dataset(y=np.ones(5), x=x)

    @pytest.mark.parametrize("kwargs, message", [
        ({"y": np.ones(4)}, r"response must have shape \(5,\), got \(4,\)"),
        ({"y": np.ones((5, 1))}, r"response must have shape \(5,\), got \(5, 1\)"),
        ({"names": ("a",)}, "expected 2 column names, got 1"),
    ], ids=["short-response", "column-response", "one-name-for-two-columns"])
    def test_rejects_mismatched_shapes(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            Dataset(**{"y": np.ones(5), "x": np.eye(5, 2), **kwargs})

    def test_arrays_are_read_only(self):
        x, y = np.eye(4, 2), np.arange(4.0)
        data = Dataset(y=y, x=x)
        for array in (data.x, data.y, data.scores):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        x[0, 0] = y[0] = 5.0  # the caller's arrays stay theirs
        assert data.x[0, 0] == 1.0 and data.y[0] == 0.0

    def test_factors_and_scores_are_computed_once(self):
        data = random_dataset(1, 12, 3)
        assert data.factors is data.factors and data.scores is data.scores
        assert data.scores.tobytes() == (data.factors.u.T @ data.y).tobytes()

    def test_rank_deficiency_raised_on_every_fit(self):
        x = np.column_stack([np.ones(8), np.arange(8.0), 2 * np.arange(8.0)])
        data = Dataset(y=np.arange(8.0) ** 2, x=x)
        for fit in (lambda: fit_ols(data), lambda: fit_pcr(data, 1), lambda: fit_ols(data),
                    lambda: fit_pcr(data, 3)):
            with pytest.raises(RankDeficiencyError, match="near-zero"):
                fit()

    def test_intercept_validation(self):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        Dataset(y=np.ones(5), x=x, intercept_included=True)
        with pytest.raises(ValidationError):
            Dataset(y=np.ones(5), x=x[:, ::-1], intercept_included=True)
        # A second all-ones column is the rank check's to report.
        data = Dataset(y=np.ones(5), x=np.column_stack([np.ones(5), np.ones(5), np.arange(5.0)]),
                       intercept_included=True)
        with pytest.raises(RankDeficiencyError):
            fit_ols(data)


class TestFitOls:
    def test_hand_oracle(self, toy):
        ols = fit_ols(toy)
        np.testing.assert_allclose(ols.beta, [1.0, 1.0], atol=1e-12)
        assert abs(ols.rss - 9.0) <= 1e-12
        assert abs(ols.sigma2 - 9.0) <= 1e-12
        assert ols.dof == 1
        np.testing.assert_allclose(ols.cov, np.diag([9.0, 2.25]), atol=1e-12)

    def test_exact_fit_zero_rss(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 3))
        beta = np.array([2.0, -1.0, 0.5])
        data = Dataset(y=x @ beta, x=x)
        ols = fit_ols(data)
        np.testing.assert_allclose(ols.beta, beta, atol=1e-10)
        assert ols.rss <= 1e-18
        assert ols.sigma2 <= 1e-18

    def test_matches_normal_equations_oracle(self):
        for seed in range(10):
            data = random_dataset(seed, 40, 6)
            ols = fit_ols(data)
            # brute-force route, independent of the SVD path
            beta_ne = np.linalg.solve(data.x.T @ data.x, data.x.T @ data.y)
            np.testing.assert_allclose(ols.beta, beta_ne, atol=1e-9)
            cov_ne = np.linalg.inv(data.x.T @ data.x) * ols.sigma2
            np.testing.assert_allclose(ols.cov, cov_ne, atol=1e-8)

    def test_rank_deficiency_detected(self):
        x = np.column_stack([np.ones(8), np.arange(8.0), 2 * np.arange(8.0)])
        with pytest.raises(RankDeficiencyError, match="near-zero"):
            fit_ols(Dataset(y=np.ones(8), x=x))

    def test_rank_cutoff(self):
        # The cutoff is 1e-12 * max(n, p) * max(sigma) = 4e-12 on this 4 x 2 design.
        def design(t):
            x = np.array([[1.0, 0.0], [0.0, t], [0.0, 0.0], [0.0, 0.0]])
            return Dataset(y=np.array([1.0, 2.0, 3.0, 4.0]), x=x)

        fit_ols(design(5e-12))
        with pytest.raises(RankDeficiencyError, match=r"tolerance 4\.000e-12"):
            fit_ols(design(3e-12))

    def test_cov_symmetric_psd(self):
        data = random_dataset(7, 30, 5)
        ols = fit_ols(data)
        np.testing.assert_allclose(ols.cov, ols.cov.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(ols.cov)) >= -1e-10

    @pytest.mark.parametrize("exponent", range(-300, 301, 50))
    def test_scale_invariance_across_double_range(self, exponent):
        # c X has singular values c sigma, slopes beta / c and the same
        # residual variance wherever c puts the design in the double range.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 4)) * np.logspace(0.0, -3.0, 4)
        data = Dataset(y=x @ rng.standard_normal(4) + rng.standard_normal(30), x=x)
        c = 10.0**exponent
        scaled = Dataset(y=data.y, x=data.x * c)
        f0, f = data.factors, scaled.factors
        np.testing.assert_allclose(f.sigma, f0.sigma * c, rtol=1e-14)
        # The covariance (X^T X)^-1 sigma2 scales as c^-2 and leaves the
        # double range at the ends; only the slopes and sigma2 are compared.
        with np.errstate(all="ignore"):
            ols0, ols = fit_ols(data), fit_ols(scaled)
        np.testing.assert_allclose(ols.beta * c, ols0.beta, rtol=1e-12)
        assert abs(ols.sigma2 - ols0.sigma2) <= 1e-12 * ols0.sigma2


class TestFitPcr:
    def test_hand_oracle(self, toy):
        pcr = fit_pcr(toy, 1)
        np.testing.assert_allclose(pcr.beta_pc_d, [2.0], atol=1e-12)
        np.testing.assert_allclose(pcr.beta_d, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(pcr.beta_k, [1.0, 0.0], atol=1e-12)
        assert abs(pcr.rss_d - 10.0) <= 1e-12
        assert abs(pcr.sigma2_d - 5.0) <= 1e-12
        assert abs(pcr.sigma2_k - 6.5) <= 1e-12
        np.testing.assert_allclose(pcr.sigma2_q, [5.0, 6.5], atol=1e-12)
        # v1 sigma1^-2 v1^T * sigma2_d = diag(0, 1/4) * 5
        np.testing.assert_allclose(pcr.cov_d, np.diag([0.0, 1.25]), atol=1e-12)

    def test_d_equals_p_reproduces_ols(self):
        data = random_dataset(3, 25, 4)
        ols = fit_ols(data)
        pcr = fit_pcr(data, 4)
        np.testing.assert_allclose(pcr.beta_d, ols.beta, atol=1e-10)
        assert abs(pcr.sigma2_d - ols.sigma2) <= 1e-10 * (1 + ols.sigma2)
        np.testing.assert_array_equal(pcr.beta_k, np.zeros(4))
        assert pcr.cov_d.tobytes() == ols.cov.tobytes()

    def test_scores_split_the_projection(self):
        data = random_dataset(8, 30, 5)
        f = data.factors
        scores = f.u.T @ data.y
        for d in range(1, 6):
            pcr = fit_pcr(data, d)
            split = np.concatenate([pcr.beta_pc_d, pcr.beta_pc_k])
            assert split.tobytes() == scores.tobytes()
        assert pcr.beta_pc_k.shape == (0,)

    def test_d_and_k_are_the_block_sizes(self):
        data = random_dataset(2, 20, 8)
        for d, k in ((3, 5), (8, 0)):
            pcr = fit_pcr(data, d)
            assert (pcr.d, pcr.k) == (d, k)

    def test_d_bounds(self, toy):
        # A negative d must not reach the slices, where it would count from the end.
        for d in (0, -1, 3):
            with pytest.raises(ValidationError, match=rf"^retained component count must "
                               rf"satisfy 1 <= d <= p; got d={d} with p=2$"):
                fit_pcr(toy, d)

    def test_beta_d_lies_in_retained_span(self):
        data = random_dataset(4, 30, 6)
        f = data.factors
        for d in range(1, 6):
            pcr = fit_pcr(data, d)
            assert np.max(np.abs(f.v[:, d:].T @ pcr.beta_d)) <= 1e-10
            assert np.max(np.abs(f.v[:, :d].T @ pcr.beta_k)) <= 1e-10

    def test_orthogonal_split_prediction(self):
        data = random_dataset(5, 30, 5)
        f = data.factors
        for d in range(1, 5):
            pcr = fit_pcr(data, d)
            x_d = f.u[:, :d] @ np.diag(f.sigma[:d]) @ f.v[:, :d].T
            np.testing.assert_allclose(data.x @ pcr.beta_d, x_d @ pcr.beta_d, atol=1e-10)

    def test_rss_ledger_and_monotonicity(self):
        data = random_dataset(6, 50, 8)
        f = data.factors
        ols = fit_ols(data)
        y = data.y
        prev_rss = np.inf
        for d in range(1, 9):
            pcr = fit_pcr(data, d)
            assert pcr.rss_d >= ols.rss - 1e-10 * (1 + ols.rss)
            assert pcr.rss_d <= prev_rss + 1e-10 * (1 + prev_rss)
            s_k = f.u[:, pcr.d :].T @ y  # y^T H_k y = |U_k^T y|^2
            ledger = ols.rss + float(s_k @ s_k)
            assert abs(pcr.rss_d - ledger) <= 1e-10 * (1 + ledger)
            prev_rss = pcr.rss_d

    def test_plugin_residual_variance_ledger(self):
        data = random_dataset(9, 40, 6)
        f = data.factors
        ols = fit_ols(data)
        gram = data.x.T @ data.x
        n, p = data.x.shape
        for d in range(1, 7):
            pcr = fit_pcr(data, d)
            lhs = pcr.sigma2_d * (n - d)
            rhs = ols.sigma2 * (n - p) + float(pcr.beta_k @ gram @ pcr.beta_k)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_per_component_quadratic_forms_sum(self):
        data = random_dataset(11, 35, 5)
        f = data.factors
        y = data.y
        # y^T H_s y = |U_s^T y|^2 for one component and for all of them
        total = sum(float(np.sum((f.u[:, q : q + 1].T @ y) ** 2)) for q in range(5))
        full = float(np.sum((f.u.T @ y) ** 2))
        assert abs(total - full) <= 1e-10 * (1 + full)


# (n, p, d) shapes on which the stacked kernel is pinned to the
# single-response products: tiny, wide-ish, d = p, p = 1 and n - p = 1.
KERNEL_SHAPES = [(40, 3, 1), (40, 3, 3), (20, 1, 1), (150, 5, 2), (1000, 50, 10),
                 (300, 8, 7), (7, 6, 3)]


def single_response_fit(f, y, cols):
    """The block fit on one response, written with the 1-d ``@`` products."""
    s = (f.u.T @ y)[cols]
    resid = y - f.u[:, cols] @ s
    return f.v[:, cols] @ (s / f.sigma[cols]), resid @ resid


class TestComponentFit:
    @pytest.mark.parametrize("n, p, d", KERNEL_SHAPES)
    def test_stack_matches_the_single_response_products(self, n, p, d):
        # Bit equality of a stacked matmul item and the 1-d product is a
        # numpy/BLAS property that simulate's blocks rely on; a release
        # that breaks it fails here.  Stacks one row under and one over
        # run_simulation's fit block at this n (a power of two, at most
        # STREAM_BLOCK rows), on columns scaled over 6 decades.
        rng = np.random.default_rng(n * 100 + p * 10 + d)
        f = checked_factors(rng.standard_normal((n, p)) * np.logspace(0.0, -6.0, p))
        block = fit_block_rows(n)
        for reps in (block - 1, block + 1):
            y = rng.standard_normal((reps, n)) * 3.0 + 1.0
            scores = np.matvec(f.u.T, y)
            for cols in (np.s_[:d], np.s_[d:], np.s_[:]):
                beta, rss = component_fit(f, y, scores, cols)
                assert beta.shape == (reps, p) and rss.shape == (reps,)
                for r in range(reps):
                    assert scores[r].tobytes() == (f.u.T @ y[r]).tobytes()
                    beta_r, rss_r = single_response_fit(f, y[r], cols)
                    assert beta[r].tobytes() == beta_r.tobytes(), (reps, cols, r)
                    assert rss[r] == rss_r, (reps, cols, r)

    @pytest.mark.parametrize("n, p, d", KERNEL_SHAPES)
    def test_fits_are_the_single_response_products(self, n, p, d):
        data = random_dataset(n + p + d, n, p)
        f, y = data.factors, data.y
        ols, pcr = fit_ols(data), fit_pcr(data, d)
        beta, rss = single_response_fit(f, y, np.s_[:])
        assert ols.beta.tobytes() == beta.tobytes() and ols.rss == rss
        beta, rss = single_response_fit(f, y, np.s_[:d])
        assert pcr.beta_d.tobytes() == beta.tobytes() and pcr.rss_d == rss
        beta, rss = single_response_fit(f, y, np.s_[d:])
        assert pcr.beta_k.tobytes() == beta.tobytes() and pcr.sigma2_k == rss / (n - p + d)
        assert all(type(v) is float for v in (ols.rss, ols.sigma2, pcr.rss_d, pcr.sigma2_k))

    def test_empty_block(self, toy):
        f = toy.factors
        beta, rss = component_fit(f, toy.y, toy.scores, np.s_[2:])
        np.testing.assert_array_equal(beta, np.zeros(2))
        assert rss == float(toy.y @ toy.y)


def test_component_fit_keeps_its_bits_on_the_sse_kernel():
    # OpenBLAS picks a kernel per CPU.  Its SSE one (Prescott) sums a row
    # that is not 16-byte aligned in another order, so at odd n a stack's
    # rows carry the single-response bits only through component_fit's
    # padded residual rows.  The variable is set for the child only; an
    # OpenBLAS build that ignores it runs its default kernel and passes.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::TestComponentFit"],
        cwd=root, env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-1000:]


class TestIdentities:
    def test_additivity_hand_oracle(self, toy):
        ols, pcr = fit_ols(toy), fit_pcr(toy, 1)
        assert beta_additivity_check(ols, pcr) == 0.0

    def test_additivity_at_full_d(self):
        data = random_dataset(13, 20, 4)
        assert beta_additivity_check(fit_ols(data), fit_pcr(data, 4)) <= 1e-12

    def test_additivity_dimension_mismatch(self, toy):
        other = random_dataset(0, 30, 5)
        with pytest.raises(ValidationError):
            beta_additivity_check(fit_ols(other), fit_pcr(toy, 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
    def test_additivity_random(self, seed, d):
        data = random_dataset(seed, 50, 8)
        ols = fit_ols(data)
        gap = beta_additivity_check(ols, fit_pcr(data, d))
        assert gap <= 1e-10 * (1 + np.max(np.abs(ols.beta)))

    def test_recover_hand_oracle(self, toy):
        pcr = fit_pcr(toy, 1)
        assert abs(recover_ols_sigma2(toy, pcr) - 9.0) <= 1e-12

    def test_recover_at_full_d(self):
        data = random_dataset(15, 25, 5)
        ols = fit_ols(data)
        got = recover_ols_sigma2(data, fit_pcr(data, 5))
        assert abs(got - ols.sigma2) <= 1e-10 * ols.sigma2

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
    def test_recover_random(self, seed, d):
        data = random_dataset(seed, 30, 6)
        ols = fit_ols(data)
        got = recover_ols_sigma2(data, fit_pcr(data, d))
        assert abs(got - ols.sigma2) <= 1e-10 * (1 + ols.sigma2)

    def test_three_forms_hand_oracle(self, toy):
        pcr = fit_pcr(toy, 1)
        forms = sigma2_d_three_forms(toy, pcr, fit_ols(toy))
        np.testing.assert_allclose(forms, (5.0, 5.0, 5.0), atol=1e-12)

    def test_three_forms_edges(self):
        data = random_dataset(17, 30, 5)
        ols = fit_ols(data)
        pcr1 = fit_pcr(data, 1)
        f1 = sigma2_d_three_forms(data, pcr1, ols)
        # with one retained component form3 collapses to that component's variance
        assert abs(f1[2] - pcr1.sigma2_q[0]) <= 1e-10 * (1 + pcr1.sigma2_q[0])
        pcr5 = fit_pcr(data, 5)
        f5 = sigma2_d_three_forms(data, pcr5, ols)
        assert abs(f5[2] - ols.sigma2) <= 1e-10 * (1 + ols.sigma2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 7))
    def test_three_forms_random(self, seed, d):
        data = random_dataset(seed, 40, 7)
        pcr = fit_pcr(data, d)
        for form in sigma2_d_three_forms(data, pcr, fit_ols(data)):
            assert abs(form - pcr.sigma2_d) <= 1e-10 * (1 + pcr.sigma2_d)
