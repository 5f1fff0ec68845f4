"""Dense linear algebra for component regressions.

Thin SVD through LAPACK (numpy's ``gesdd``) with a fixed sign rule, plus
the component-subset operators (hat matrices, Gram pseudo-inverses,
loading projectors) that the estimator and diagnostics layers consume.
Everything here is a pure function of its inputs: identical input yields
bit-identical output, values are never mutated after construction, and
no global state exists, so all operations are safe to share across
threads.

Component subsets are given either as the string ``"all"`` or as an
iterable of 0-based component indices.  ``ComponentSplit`` provides the
two subsets used throughout: the ``d`` leading (largest singular value)
components and the ``k = p - d`` trailing ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError, ValidationError

# Relative rank tolerance per row or column; the cutoff is
# RANK_TOL_FACTOR * max(n, p) * max(sigma).
RANK_TOL_FACTOR = 1e-12

SubsetLike = Union[str, Iterable[int]]


@dataclass(frozen=True)
class ComponentSplit:
    """Partition of ``p`` components into ``d`` retained and ``k = p - d`` omitted.

    The retained set is always the first ``d`` components (largest singular
    values), the omitted set the trailing ``k``.
    """

    d: int
    p: int

    def __post_init__(self) -> None:
        if not 1 <= self.d <= self.p:
            raise ValidationError(
                f"retained component count must satisfy 1 <= d <= p; "
                f"got d={self.d} with p={self.p}"
            )

    @property
    def k(self) -> int:
        return self.p - self.d

    @property
    def retained(self) -> range:
        """0-based indices of the d leading components."""
        return range(self.d)

    @property
    def omitted(self) -> range:
        """0-based indices of the k trailing components."""
        return range(self.d, self.p)


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


def _subset_indices(p: int, subset: SubsetLike) -> np.ndarray:
    """Normalize a subset argument to a validated array of 0-based indices."""
    if isinstance(subset, str):
        if subset == "all":
            return np.arange(p)
        raise ValidationError(f"unknown subset {subset!r}; expected 'all' or indices")
    idx = np.fromiter(subset, dtype=np.intp)
    if idx.size:
        if idx.min() < 0 or idx.max() >= p:
            raise ValidationError(
                f"component indices must lie in 0..{p - 1}; got {idx.tolist()}"
            )
        if np.unique(idx).size != idx.size:
            raise ValidationError(f"component indices must be distinct; got {idx.tolist()}")
    return idx


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


def hat_matrix(f: SvdFactors, subset: SubsetLike) -> np.ndarray:
    """Projection ``U_s U_s^T`` onto the fitted space of a component subset.

    Symmetric, idempotent, with trace equal to the subset size.  An empty
    subset returns the n x n zero matrix (projection onto nothing), which
    is the documented behavior rather than an error.
    """
    us = f.u[:, _subset_indices(f.p, subset)]
    return us @ us.T


def gram_pseudo_inverse(f: SvdFactors, subset: SubsetLike) -> np.ndarray:
    """Moore-Penrose pseudo-inverse ``V_s Sigma_s^-2 V_s^T`` of ``X_s^T X_s``.

    Raises RankDeficiencyError naming the offending components when the
    subset touches a singular value at or below the rank cutoff.
    """
    idx = _subset_indices(f.p, subset)
    cutoff = f.rank_cutoff
    bad = idx[f.sigma[idx] <= cutoff]
    if bad.size:
        pairs = ", ".join(f"{q}: {f.sigma[q]:.3e}" for q in bad.tolist())
        raise RankDeficiencyError(
            f"singular value(s) at or below the rank cutoff {cutoff:.3e} "
            f"for component(s) {pairs}"
        )
    vs = f.v[:, idx]
    return (vs / f.sigma[idx] ** 2) @ vs.T


def loading_projector(f: SvdFactors, subset: SubsetLike) -> np.ndarray:
    """Outer product ``V_s V_s^T`` of the selected right singular vectors.

    Symmetric idempotent with every diagonal entry in [0, 1]; the full
    subset gives the identity.
    """
    idx = _subset_indices(f.p, subset)
    vs = f.v[:, idx]
    return vs @ vs.T
