"""Dense linear algebra for component regressions.

Thin SVD through LAPACK (numpy's ``gesdd``) with a fixed sign rule, the
rank rule, and the component operators (Gram pseudo-inverses, loading
projectors) that the estimator and diagnostics layers consume.
Everything here is a pure function of its inputs: identical input yields
bit-identical output, values are never mutated after construction, and
no global state exists, so all operations are safe to share across
threads.

Components are named by a ``slice`` of the factor columns: ``np.s_[:d]``
for the d leading (largest singular value) components, ``np.s_[d:]`` for
the k = p - d trailing ones, and ``np.s_[:]`` for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError, ValidationError

# Relative rank tolerance per row or column; the cutoff is
# RANK_TOL_FACTOR * max(n, p) * max(sigma).
RANK_TOL_FACTOR = 1e-12
# A rank error names at most this many near-zero components.
NAMED_COMPONENTS = 5


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``X = U diag(sigma) V^T`` with a fixed sign convention.

    ``u`` is n x p with orthonormal columns, ``sigma`` holds the p singular
    values in descending order, ``v`` is p x p orthogonal.  In every column
    of ``v`` the entry of largest magnitude is positive (ties resolved to
    the lowest row index), which makes the factorization reproducible
    across runs.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def p(self) -> int:
        return self.u.shape[1]

    @property
    def rank_cutoff(self) -> float:
        """Absolute threshold separating usable from near-zero singular values."""
        return (RANK_TOL_FACTOR * max(self.n, self.p)) * float(self.sigma[0])


def svd_thin(x: np.ndarray) -> SvdFactors:
    """Thin SVD of a tall dense matrix by LAPACK's divide-and-conquer ``gesdd``.

    Parameters
    ----------
    x : ndarray, shape (n, p) with n >= p
        Matrix to factor.  All entries must be finite.

    Returns
    -------
    SvdFactors
        Singular values in descending order, ``u`` with orthonormal
        columns even where a singular value is zero, and the sign rule
        applied, so repeated calls on the same input are bit-identical.
        LAPACK scales the matrix internally, so the result holds at any
        scale whose largest singular value is a finite double.

    Raises
    ------
    ValidationError
        Non-finite entries, n < p, or a largest singular value that
        overflows the double range.
    ConvergenceError
        LAPACK did not converge.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-d array, got ndim={a.ndim}")
    n, p = a.shape
    if n < p or p < 1:
        raise ValidationError(f"need n >= p >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")

    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK gesdd failed on a {n} x {p} matrix: {exc}") from None
    if not np.isfinite(sigma[0]):
        raise ValidationError(
            f"design too large: its largest singular value exceeds the double range "
            f"(max |entry| {float(np.max(np.abs(a))):.3e})"
        )

    # Sign rule: the largest-magnitude entry of each V column is positive.
    # np.argmax resolves magnitude ties to the lowest row index.
    v = vt.T
    signs = np.where(v[np.argmax(np.abs(v), axis=0), np.arange(p)] < 0.0, -1.0, 1.0)
    return SvdFactors(u=u * signs, sigma=sigma, v=v * signs)


def check_rank(f: SvdFactors, cols: slice) -> None:
    """Raise RankDeficiencyError naming the components in ``cols`` whose
    singular value is at or below the rank cutoff: every one of them, or
    past ``NAMED_COMPONENTS`` their count and the smallest few."""
    cutoff = f.rank_cutoff
    near_zero = np.arange(f.p)[cols][f.sigma[cols] <= cutoff]
    if near_zero.size:
        named = near_zero[-NAMED_COMPONENTS:]  # sigma descends: the smallest come last
        which = ("near-zero singular value(s) at component(s)" if named.size == near_zero.size
                 else f"{near_zero.size} near-zero singular values, the smallest at components")
        pairs = ", ".join(f"{q}: {f.sigma[q]:.3e}" for q in named.tolist())
        raise RankDeficiencyError(
            f"design is rank deficient at tolerance {cutoff:.3e}; {which} {pairs}"
        )


def gram_pseudo_inverse(f: SvdFactors, cols: slice) -> np.ndarray:
    """Moore-Penrose pseudo-inverse ``V_s Sigma_s^-2 V_s^T`` of ``X_s^T X_s``.

    Formed as ``G G^T`` with ``G = V_s Sigma_s^-1``: numpy hands the product
    of an array with its own transpose to BLAS ``syrk``, which computes one
    triangle and mirrors it, so the result is exactly symmetric.  Raises
    RankDeficiencyError (see ``check_rank``) when ``cols`` touches a
    singular value at or below the rank cutoff.
    """
    check_rank(f, cols)
    g = f.v[:, cols] / f.sigma[cols]
    return g @ g.T


def loading_projector(f: SvdFactors, cols: slice) -> np.ndarray:
    """Outer product ``V_s V_s^T`` of the right singular vectors ``cols``.

    Symmetric idempotent with every diagonal entry in [0, 1]; all
    components give the identity.
    """
    vs = f.v[:, cols]
    return vs @ vs.T
