"""Dense linear algebra for component regressions.

Thin SVD via one-sided Jacobi rotations, plus the component-subset
operators (hat matrices, Gram pseudo-inverses, loading projectors) that
the estimator and diagnostics layers consume.  Everything here is a pure
function of its inputs: identical input yields bit-identical output,
values are never mutated after construction, and no global state exists,
so all operations are safe to share across threads.

Component subsets are given either as the string ``"all"`` or as an
iterable of 0-based component indices.  ``ComponentSplit`` provides the
two subsets used throughout: the ``d`` leading (largest singular value)
components and the ``k = p - d`` trailing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError, ValidationError

# One-sided Jacobi stops once a full sweep leaves every column pair with a
# relative inner product below the tolerance; it gives up after the cap.
# The tolerance sits close to the dot-product noise floor because the
# orthogonality defect of U leaks into downstream variance identities
# scaled by y^T y / RSS; 1e-14 keeps those identities at 1e-10 at desk
# scale while costing about one extra sweep over a looser setting.
JACOBI_REL_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60

# Default relative rank tolerance; the effective cutoff is
# rank_tol * max(sigma).
DEFAULT_RANK_TOL_FACTOR = 1e-12

# Smallest positive normal double: a Gram product below it has lost digits.
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

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
    across runs.  ``rank_tol`` is the relative tolerance below which a
    singular value is treated as zero (cutoff ``rank_tol * max(sigma)``).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank_tol: float

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def p(self) -> int:
        return self.u.shape[1]

    @property
    def rank_cutoff(self) -> float:
        """Absolute threshold separating usable from near-zero singular values."""
        return self.rank_tol * float(self.sigma[0]) if self.sigma.size else 0.0


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


def svd_thin(x: np.ndarray, rank_tol: float | None = None) -> SvdFactors:
    """Thin SVD of a tall dense matrix by cyclic one-sided Jacobi rotations.

    Parameters
    ----------
    x : ndarray, shape (n, p) with n >= p
        Matrix to factor.  All entries must be finite.
    rank_tol : float, optional
        Relative rank tolerance stored on the result.  Defaults to
        ``1e-12 * max(n, p)``.

    Returns
    -------
    SvdFactors
        Deterministic factors: the pair ordering, the stable descending
        sort, and the sign rule are all fixed, so repeated calls on the
        same input are bit-identical.  The sweeps run on the matrix scaled
        by the power of two that brings its largest entry into [0.5, 1), so
        whatever the scale of the input no Gram entry overflows and those
        of the leading columns do not underflow; the scaling is exact and
        changes no rounding.

    Raises
    ------
    ValidationError
        Non-finite entries or n < p.
    ConvergenceError
        The sweep cap was hit before the off-diagonal tolerance; the
        message reports the residual relative off-diagonal norm.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-d array, got ndim={a.ndim}")
    n, p = a.shape
    if n < p or p < 1:
        raise ValidationError(f"need n >= p >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")

    shift = math.frexp(float(np.max(np.abs(a))))[1]
    # C order keeps the column dot products' summation order independent
    # of the caller's memory layout.
    w = np.ldexp(np.ascontiguousarray(a), -shift)
    v = np.eye(p)
    worst = math.inf
    for _ in range(JACOBI_MAX_SWEEPS):
        worst = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                wi = w[:, i]
                wj = w[:, j]
                alpha = float(wi @ wi)
                beta = float(wj @ wj)
                gamma = float(wi @ wj)
                if alpha == 0.0 or beta == 0.0:
                    continue
                ab = alpha * beta
                if ab >= _SMALLEST_NORMAL:
                    rel = abs(gamma) / math.sqrt(ab)
                else:  # columns far below the peak: take the roots apart
                    rel = abs(gamma) / (math.sqrt(alpha) * math.sqrt(beta))
                if rel > worst:
                    worst = rel
                if rel <= JACOBI_REL_TOL:
                    continue
                # Rotation angle zeroing the (i, j) Gram entry; the smaller
                # root keeps |theta| <= 45 degrees.
                tau = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                new_i = c * wi - s * wj
                w[:, j] = s * wi + c * wj
                w[:, i] = new_i
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
        if worst <= JACOBI_REL_TOL:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi did not converge within {JACOBI_MAX_SWEEPS} sweeps; "
            f"max relative off-diagonal entry is {worst:.3e}"
        )

    norms = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-norms, kind="stable")  # descending, ties keep pair order
    sigma = norms[order]
    w = w[:, order]
    v = v[:, order]

    u = np.zeros_like(w)
    nonzero = sigma > 0.0
    u[:, nonzero] = w[:, nonzero] / sigma[nonzero]
    for j in np.flatnonzero(~nonzero):
        u[:, j] = _orthonormal_fill(u, int(j))

    # Sign rule: the largest-magnitude entry of each V column is positive.
    # np.argmax resolves magnitude ties to the lowest row index.
    for j in range(p):
        imax = int(np.argmax(np.abs(v[:, j])))
        if v[imax, j] < 0.0:
            v[:, j] = -v[:, j]
            u[:, j] = -u[:, j]

    if rank_tol is None:
        rank_tol = DEFAULT_RANK_TOL_FACTOR * max(n, p)
    return SvdFactors(u=u, sigma=np.ldexp(sigma, shift), v=v, rank_tol=float(rank_tol))


def _orthonormal_fill(u: np.ndarray, col: int) -> np.ndarray:
    """Deterministic unit vector orthogonal to every already-set column of u.

    Columns at indices != col with nonzero content count as set.  The
    canonical basis vector with the largest residual against their span is
    orthogonalized twice and normalized, so exact zero singular values
    still leave U with orthonormal columns.
    """
    set_cols = [j for j in range(u.shape[1]) if j != col and np.any(u[:, j])]
    basis = u[:, set_cols]
    # Residual norm of e_i against span(basis) is 1 - ||row i of basis||^2.
    scores = 1.0 - np.sum(basis * basis, axis=1)
    i = int(np.argmax(scores))
    r = -basis @ basis[i, :]
    r[i] += 1.0
    r -= basis @ (basis.T @ r)
    nr = float(np.linalg.norm(r))
    return r / nr


def hat_matrix(f: SvdFactors, subset: SubsetLike) -> np.ndarray:
    """Projection ``U_s U_s^T`` onto the fitted space of a component subset.

    Symmetric, idempotent, with trace equal to the subset size.  An empty
    subset returns the n x n zero matrix (projection onto nothing), which
    is the documented behavior rather than an error.
    """
    idx = _subset_indices(f.p, subset)
    if idx.size == 0:
        return np.zeros((f.n, f.n))
    us = f.u[:, idx]
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
