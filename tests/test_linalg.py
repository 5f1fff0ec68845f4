"""Tests for the SVD, the rank rule and the component operators.

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
    NAMED_COMPONENTS,
    SvdFactors,
    check_rank,
    gram_pseudo_inverse,
    loading_projector,
    svd_thin,
)
from pcreg.model import Dataset, fit_pcr

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

    def test_u_has_orthonormal_columns(self):
        # U_s U_s^T, the projection on the fitted space of the components s,
        # is then symmetric idempotent with trace |U_s|_F^2 = |s|.
        f = svd_thin(random_matrix(2, 20, 6))
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(6), atol=1e-12)
        for d in range(7):
            assert abs(np.sum(f.u[:, :d] ** 2) - d) <= 1e-10
            assert abs(np.sum(f.u[:, d:] ** 2) - (6 - d)) <= 1e-10

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
        with pytest.raises(ValidationError, match="expected a 2-d array, got ndim=1"):
            svd_thin(np.ones(3))
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


def block_projection(f, cols):
    """Projection ``U_s U_s^T`` on the fitted space of the components ``cols``."""
    us = f.u[:, cols]
    return us @ us.T


class TestHatMatrix:
    def test_all_is_sum_of_blocks(self):
        f = svd_thin(random_matrix(5, 30, 6))
        full = block_projection(f, np.s_[:])
        assert abs(np.trace(full) - 6) <= 1e-10
        for d in range(1, 6):
            h_d = block_projection(f, np.s_[:d])
            h_k = block_projection(f, np.s_[d:])
            np.testing.assert_allclose(h_d + h_k, full, atol=1e-10)

    def test_symmetric_idempotent_trace(self):
        f = svd_thin(random_matrix(2, 20, 6))
        h = block_projection(f, np.s_[:3])
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        np.testing.assert_allclose(h @ h, h, atol=1e-10)
        assert abs(np.trace(h) - 3) <= 1e-10


class TestComponentSplit:
    # The d-split is the slice pair np.s_[:d], np.s_[d:]; fit_pcr checks d before slicing.
    def test_bounds(self):
        x = random_matrix(1, 10, 4)
        data = Dataset(y=x @ np.ones(4), x=x)
        with pytest.raises(ValidationError):
            fit_pcr(data, 0)
        with pytest.raises(ValidationError):
            fit_pcr(data, 5)


class TestCheckRank:
    @staticmethod
    def factors(p, zeros):
        # check_rank reads sigma and the shape of u only; n = p + 1.
        sigma = np.concatenate([np.ones(p - zeros), np.zeros(zeros)])
        return SvdFactors(u=np.broadcast_to(0.0, (p + 1, p)), sigma=sigma,
                          v=np.broadcast_to(0.0, (p, p)))

    def test_a_few_components_are_each_named(self):
        with pytest.raises(RankDeficiencyError) as info:
            check_rank(self.factors(8, NAMED_COMPONENTS), np.s_[:])
        assert str(info.value) == (
            "design is rank deficient at tolerance 9.000e-12; near-zero singular value(s) "
            "at component(s) 3: 0.000e+00, 4: 0.000e+00, 5: 0.000e+00, 6: 0.000e+00, "
            "7: 0.000e+00"
        )

    def test_many_components_give_the_count_and_the_smallest_few(self):
        # Naming each of 3000 components would make a line of about 50,000 characters.
        with pytest.raises(RankDeficiencyError) as info:
            check_rank(self.factors(3001, 3000), np.s_[:])
        assert str(info.value) == (
            "design is rank deficient at tolerance 3.002e-09; 3000 near-zero singular values, "
            "the smallest at components 2996: 0.000e+00, 2997: 0.000e+00, 2998: 0.000e+00, "
            "2999: 0.000e+00, 3000: 0.000e+00"
        )

    def test_a_singular_value_at_the_cutoff_is_near_zero(self):
        # The rule is sigma <= cutoff: equal bits are rank deficient, the
        # next double up is not.
        f = self.factors(2, 0)
        cutoff = f.rank_cutoff
        for sigma, deficient in ((cutoff, True), (np.nextafter(cutoff, 1.0), False)):
            f = SvdFactors(u=f.u, sigma=np.array([1.0, sigma]), v=f.v)
            assert f.rank_cutoff == cutoff
            if deficient:
                with pytest.raises(RankDeficiencyError, match=r"component\(s\) 1: "):
                    check_rank(f, np.s_[:])
            else:
                check_rank(f, np.s_[:])

    def test_only_the_columns_asked_for(self):
        f = self.factors(4, 2)
        check_rank(f, np.s_[:2])
        with pytest.raises(RankDeficiencyError, match=r"component\(s\) 3: "):
            check_rank(f, np.s_[3:])


class TestGramPseudoInverse:
    def test_hand_oracle(self):
        f = svd_thin(TOY)
        np.testing.assert_allclose(
            gram_pseudo_inverse(f, np.s_[:1]), np.diag([0.0, 0.25]), atol=1e-12
        )
        np.testing.assert_allclose(
            gram_pseudo_inverse(f, np.s_[:]), np.diag([1.0, 0.25]), atol=1e-12
        )

    def test_identity_design_gives_projector(self):
        f = svd_thin(np.eye(4))
        got = gram_pseudo_inverse(f, np.s_[1:3])
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 1.0
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_inverse_of_gram_full_rank(self):
        for seed in range(8):
            x = random_matrix(seed, 30, 5)
            f = svd_thin(x)
            prod = gram_pseudo_inverse(f, np.s_[:]) @ (x.T @ x)
            np.testing.assert_allclose(prod, np.eye(5), atol=1e-8)

    def test_rank_deficiency_names_component(self):
        x = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0)])
        f = svd_thin(x)
        with pytest.raises(RankDeficiencyError, match="component"):
            gram_pseudo_inverse(f, np.s_[:])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), p=st.integers(1, 12),
           decades=st.integers(0, 6), data=st.data())
    def test_exactly_symmetric(self, seed, n, p, decades, data):
        # Columns scaled over up to 6 decades, two rows to spare so none is
        # near the rank cutoff; every block a fit inverts.
        p = min(p, n - 2)
        f = svd_thin(random_matrix(seed, n, p) * np.logspace(0.0, -decades, p))
        d = data.draw(st.integers(0, p))
        for cols in (np.s_[:d], np.s_[d:], np.s_[:]):
            g = gram_pseudo_inverse(f, cols)
            assert g.shape == (p, p) and np.array_equal(g, g.T), cols


class TestLoadingProjector:
    def test_hand_oracle(self):
        f = svd_thin(TOY)
        np.testing.assert_allclose(loading_projector(f, np.s_[:1]), np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(loading_projector(f, np.s_[:]), np.eye(2), atol=1e-12)

    def test_diag_monotone_in_d(self):
        f = svd_thin(random_matrix(4, 40, 7))
        prev = np.zeros(7)
        for d in range(1, 8):
            diag = np.diag(loading_projector(f, np.s_[:d]))
            assert np.all(diag >= prev - 1e-12)
            assert np.all(diag >= -1e-12) and np.all(diag <= 1 + 1e-12)
            prev = diag
        np.testing.assert_allclose(prev, np.ones(7), atol=1e-10)
