"""Tests for the SVD and the component-subset operators.

Hand-derived oracle: X = [[1,0],[0,2],[0,0]] has X^T X = diag(1, 4), so
sigma = (2, 1), v1 = (0,1), v2 = (1,0), u1 = (0,1,0), u2 = (1,0,0).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcreg import fixture_path, linalg
from pcreg.cli import EXIT_CONVERGENCE, load_csv, main, standardize
from pcreg.errors import ConvergenceError, RankDeficiencyError, ValidationError
from pcreg.linalg import (
    ComponentSplit,
    gram_pseudo_inverse,
    hat_matrix,
    loading_projector,
    svd_thin,
)

TOY = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])


def random_matrix(seed, n, p, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, p)) * scale


class TestSvdThin:
    def test_identity(self):
        f = svd_thin(np.eye(3))
        np.testing.assert_array_equal(f.sigma, np.ones(3))
        np.testing.assert_array_equal(f.u, np.eye(3))
        np.testing.assert_array_equal(f.v, np.eye(3))

    def test_hand_oracle(self):
        f = svd_thin(TOY)
        np.testing.assert_allclose(f.sigma, [2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(f.v, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(f.u, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(f.u @ np.diag(f.sigma) @ f.v.T, TOY, atol=1e-12)

    def test_rank_deficient_diagonal(self):
        x = np.array([[3.0, 0.0], [0.0, 0.0]])
        f = svd_thin(x)
        np.testing.assert_array_equal(f.sigma, [3.0, 0.0])
        np.testing.assert_array_equal(f.u @ np.diag(f.sigma) @ f.v.T, x)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(2), atol=1e-12)

    def test_zero_matrix_keeps_orthonormal_u(self):
        f = svd_thin(np.zeros((4, 3)))
        np.testing.assert_array_equal(f.sigma, np.zeros(3))
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(3), atol=1e-12)

    def test_deterministic_bit_identical(self):
        x = random_matrix(3, 40, 6)
        f1, f2 = svd_thin(x), svd_thin(x)
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.sigma.tobytes() == f2.sigma.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()

    def test_sign_convention(self):
        for seed in range(10):
            f = svd_thin(random_matrix(seed, 25, 6))
            for j in range(6):
                col = f.v[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_wide_and_nonfinite(self):
        with pytest.raises(ValidationError):
            svd_thin(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            svd_thin(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_lapack_failure_is_convergence_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(linalg.np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            svd_thin(random_matrix(0, 30, 8))
        code = main(["fit", "--input", str(fixture_path()), "--response", "cost"])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("pcreg: convergence error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "design", ["fixture-none", "fixture-center", "fixture-zscore", "graded-9-decades"]
    )
    def test_singular_values_match_mpmath(self, design):
        # Independent 40-digit reference: the numpy-based checks elsewhere
        # compare the implementation with itself.
        mpmath = pytest.importorskip("mpmath")
        if design == "graded-9-decades":
            x = random_matrix(0, 40, 6) * np.logspace(0.0, -9.0, 6)
        else:
            data = load_csv(fixture_path(), "cost")
            x = standardize(data, design.split("-")[1])[0].x
        with mpmath.workdps(40):
            ref = mpmath.svd_r(mpmath.matrix(x.tolist()), compute_uv=False)
            ref = np.array(sorted((float(s) for s in ref), reverse=True))
        np.testing.assert_allclose(svd_thin(x).sigma, ref, rtol=1e-14, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 60),
        p=st.integers(2, 10),
    )
    def test_factor_properties_random(self, seed, n, p):
        p = min(p, n)
        x = random_matrix(seed, n, p, scale=3.0)
        f = svd_thin(x)
        recon = np.linalg.norm(x - f.u @ np.diag(f.sigma) @ f.v.T) / np.linalg.norm(x)
        assert recon <= 1e-10
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(p), atol=1e-10)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(p), atol=1e-10)
        np.testing.assert_allclose(f.v @ f.v.T, np.eye(p), atol=1e-10)
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
        # the same LAPACK routine; test_singular_values_match_mpmath is the
        # independent oracle
        np.testing.assert_allclose(
            f.sigma, np.linalg.svd(x, compute_uv=False), rtol=1e-9, atol=1e-12
        )


class TestComponentSplit:
    def test_partition(self):
        split = ComponentSplit(d=3, p=8)
        assert split.k == 5
        assert list(split.retained) == [0, 1, 2]
        assert list(split.omitted) == [3, 4, 5, 6, 7]

    def test_bounds(self):
        with pytest.raises(ValidationError):
            ComponentSplit(d=0, p=4)
        with pytest.raises(ValidationError):
            ComponentSplit(d=5, p=4)


class TestHatMatrix:
    def test_hand_oracle_leading_one(self):
        f = svd_thin(TOY)
        np.testing.assert_allclose(hat_matrix(f, [0]), np.diag([0.0, 1.0, 0.0]), atol=1e-12)

    def test_all_is_sum_of_blocks(self):
        f = svd_thin(random_matrix(5, 30, 6))
        full = hat_matrix(f, "all")
        assert abs(np.trace(full) - 6) <= 1e-10
        for d in range(1, 6):
            split = ComponentSplit(d=d, p=6)
            h_d = hat_matrix(f, split.retained)
            h_k = hat_matrix(f, split.omitted)
            np.testing.assert_allclose(h_d + h_k, full, atol=1e-10)

    def test_sum_of_singles(self):
        f = svd_thin(random_matrix(8, 25, 5))
        total = sum(hat_matrix(f, [q]) for q in range(5))
        np.testing.assert_allclose(total, hat_matrix(f, "all"), atol=1e-10)

    def test_symmetric_idempotent_trace(self):
        f = svd_thin(random_matrix(2, 20, 6))
        h = hat_matrix(f, [0, 1, 2])
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        np.testing.assert_allclose(h @ h, h, atol=1e-10)
        assert abs(np.trace(h) - 3) <= 1e-10

    def test_single_on_identity(self):
        f = svd_thin(np.eye(3))
        e2 = np.zeros((3, 3))
        e2[1, 1] = 1.0
        np.testing.assert_array_equal(hat_matrix(f, [1]), e2)

    def test_empty_subset_is_zero(self):
        f = svd_thin(TOY)
        np.testing.assert_array_equal(hat_matrix(f, []), np.zeros((3, 3)))

    def test_index_bounds(self):
        f = svd_thin(TOY)
        with pytest.raises(ValidationError):
            hat_matrix(f, [2])
        with pytest.raises(ValidationError):
            hat_matrix(f, [0, 0])


class TestGramPseudoInverse:
    def test_hand_oracle(self):
        f = svd_thin(TOY)
        np.testing.assert_allclose(
            gram_pseudo_inverse(f, [0]), np.diag([0.0, 0.25]), atol=1e-12
        )
        np.testing.assert_allclose(
            gram_pseudo_inverse(f, "all"), np.diag([1.0, 0.25]), atol=1e-12
        )

    def test_identity_design_gives_projector(self):
        f = svd_thin(np.eye(4))
        got = gram_pseudo_inverse(f, [1, 3])
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_inverse_of_gram_full_rank(self):
        for seed in range(8):
            x = random_matrix(seed, 30, 5)
            f = svd_thin(x)
            prod = gram_pseudo_inverse(f, "all") @ (x.T @ x)
            np.testing.assert_allclose(prod, np.eye(5), atol=1e-8)

    def test_rank_deficiency_names_component(self):
        x = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0)])
        f = svd_thin(x)
        with pytest.raises(RankDeficiencyError, match="component"):
            gram_pseudo_inverse(f, "all")


class TestLoadingProjector:
    def test_hand_oracle(self):
        f = svd_thin(TOY)
        np.testing.assert_allclose(loading_projector(f, [0]), np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(loading_projector(f, "all"), np.eye(2), atol=1e-12)

    def test_diag_monotone_in_d(self):
        f = svd_thin(random_matrix(4, 40, 7))
        prev = np.zeros(7)
        for d in range(1, 8):
            diag = np.diag(loading_projector(f, range(d)))
            assert np.all(diag >= prev - 1e-12)
            assert np.all(diag >= -1e-12) and np.all(diag <= 1 + 1e-12)
            prev = diag
        np.testing.assert_allclose(prev, np.ones(7), atol=1e-10)
