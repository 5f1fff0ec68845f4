"""OLS and principal component regression estimators.

Slope vectors, residual variances, and the exact algebraic identities
tying the two fits together.  All fitting goes through the SVD route of
:mod:`pcreg.linalg`.  A ``Dataset`` factors itself once: its rank-checked
thin SVD and the scores ``U^T y`` are computed on first use and cached on
the dataset, whose arrays are read-only, so every fit on it reads the same
factors and scores and the cache cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegreesOfFreedomError, ValidationError
from .linalg import SvdFactors, check_rank, gram_pseudo_inverse, svd_thin


@dataclass(frozen=True)
class Dataset:
    """Response vector and design matrix, with column labels.

    The design matrix contains the intercept column when one is used; set
    ``intercept_included`` accordingly so downstream standardization can
    exempt it.  Construction validates that all values are finite, that
    1 <= p < n, and (when flagged) that exactly one all-ones column exists
    and sits first.  ``x`` and ``y`` are read-only copies of the inputs, so
    ``factors`` and ``scores``, computed on first use, stay theirs.
    """

    y: np.ndarray
    x: np.ndarray
    names: tuple[str, ...] | None = None
    intercept_included: bool = False

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        n, p = design_shape(x)
        if y.shape != (n,):
            raise ValidationError(f"response must have shape ({n},), got {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("dataset contains non-finite values")
        if self.names is None:
            names = default_names(p)
        else:
            names = tuple(str(c) for c in self.names)
            if len(names) != p:
                raise ValidationError(f"expected {p} column names, got {len(names)}")
        if self.intercept_included:
            ones = np.all(x == 1.0, axis=0)
            if ones.sum() != 1 or not ones[0]:
                raise ValidationError(
                    "intercept_included requires exactly one all-ones column, in position 0"
                )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @cached_property
    def factors(self) -> SvdFactors:
        """Thin SVD of ``x``; RankDeficiencyError, on every access, unless it
        has full column rank."""
        return checked_factors(self.x)

    @cached_property
    def scores(self) -> np.ndarray:
        """``U^T y``, the projection of y on every component (read-only)."""
        scores = self.factors.u.T @ self.y
        scores.setflags(write=False)
        return scores


@dataclass(frozen=True)
class OlsEstimate:
    """Ordinary least squares fit: slopes, residual variance, covariance."""

    beta: np.ndarray
    sigma2: float
    cov: np.ndarray
    rss: float
    dof: int


@dataclass(frozen=True)
class PcrEstimate:
    """Principal component regression fit for a given retained count d.

    ``beta_pc_d`` are the d score-space coefficients, ``beta_d`` their
    rotation back to predictor space (in span of the retained loadings),
    ``beta_pc_k`` the k omitted-component scores and ``beta_k`` the
    complementary omitted-space slopes.  ``sigma2_q`` holds
    the residual variance of the single-component regression for every
    component, omitted ones included.
    """

    beta_pc_d: np.ndarray
    beta_pc_k: np.ndarray
    beta_d: np.ndarray
    beta_k: np.ndarray
    sigma2_d: float
    sigma2_k: float
    sigma2_q: np.ndarray
    rss_d: float

    @property
    def d(self) -> int:
        """Number of retained (leading) components."""
        return self.beta_pc_d.size

    @property
    def k(self) -> int:
        """Number of omitted (trailing) components, ``p - d``."""
        return self.beta_pc_k.size


def design_shape(x: np.ndarray) -> tuple[int, int]:
    """``(n, p)`` of the design ``x``, which must be 2-d with 1 <= p < n."""
    if x.ndim != 2:
        raise ValidationError(f"design matrix must be 2-d, got ndim={x.ndim}")
    n, p = x.shape
    if p == 0:
        raise ValidationError("design has no columns")
    if n <= p:
        raise DegreesOfFreedomError(f"need more observations than design columns: n={n}, p={p}")
    return n, p


def checked_factors(x: np.ndarray) -> SvdFactors:
    """Thin SVD of the design ``x``, which must have full column rank."""
    f = svd_thin(x)
    check_rank(f, np.s_[:])
    return f


def component_fit(
    f: SvdFactors, y: np.ndarray, scores: np.ndarray, cols: slice
) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and residual sum of squares of the fit on the components ``cols``.

    ``beta = V_s Sigma_s^-1 U_s^T y`` and ``rss = |y - U_s U_s^T y|^2``, from
    ``scores = U^T y``.  ``y`` is one response (shape (n,)) or a stack of
    them (shape (..., n), with scores (..., p)); every item of a stack gets
    the bits of the single-response call, since ``matvec`` and ``vecdot``
    run the same kernel per item.  An empty ``cols`` gives zero slopes and
    ``rss = |y|^2``.
    """
    s = scores[..., cols]
    beta = np.matvec(f.v[:, cols], s / f.sigma[cols])
    resid = y - np.matvec(f.u[:, cols], s)
    return beta, np.vecdot(resid, resid)


def fit_ols(data: Dataset) -> OlsEstimate:
    """Fit ordinary least squares through the SVD route.

    ``beta = V Sigma^-1 U^T y``, residual variance ``rss / (n - p)``, and
    covariance ``(X^T X)^-1 sigma2`` via the Gram pseudo-inverse, from the
    dataset's factors and scores.  Requires full column rank.  The fit is
    ``component_fit`` on every component, the kernel ``fit_pcr`` uses, so
    at d = p the two fits agree bit for bit.
    """
    n, p = data.x.shape
    beta, rss = component_fit(data.factors, data.y, data.scores, np.s_[:])
    rss = float(rss)
    dof = n - p
    sigma2 = rss / dof
    cov = gram_pseudo_inverse(data.factors, np.s_[:]) * sigma2
    return OlsEstimate(beta=beta, sigma2=sigma2, cov=cov, rss=rss, dof=dof)


def fit_pcr(data: Dataset, d: int) -> PcrEstimate:
    """Fit the principal component regression that retains the d leading components.

    Returns the scores ``U_d^T y`` and ``U_k^T y``, both slope blocks, the
    residual variances of the d-, k-, and every single-component
    regression (divisors n-d, n-k, and n-1).  ``d = p`` is allowed and
    reproduces the OLS fit; a d outside 1..p is a ValidationError.
    """
    n, p = data.x.shape
    if not 1 <= d <= p:
        raise ValidationError(
            f"retained component count must satisfy 1 <= d <= p; got d={d} with p={p}"
        )
    f, scores, y = data.factors, data.scores, data.y
    beta_d, rss_d = component_fit(f, y, scores, np.s_[:d])
    beta_k, rss_k = component_fit(f, y, scores, np.s_[d:])
    rss_d, rss_k = float(rss_d), float(rss_k)

    # Residuals of the p single-component regressions, one column each.
    resid_q = y[:, None] - f.u * scores
    rss_q = np.sum(resid_q * resid_q, axis=0)

    return PcrEstimate(
        beta_pc_d=scores[:d],
        beta_pc_k=scores[d:],
        beta_d=beta_d,
        beta_k=beta_k,
        sigma2_d=rss_d / (n - d),
        sigma2_k=rss_k / (n - (p - d)),
        sigma2_q=rss_q / (n - 1),
        rss_d=rss_d,
    )


def beta_additivity_check(ols: OlsEstimate, pcr: PcrEstimate) -> float:
    """Max absolute gap in the decomposition ``beta = beta_d + beta_k``.

    Both fits must come from the same dataset; the gap is zero up to
    rounding (contract: <= 1e-10 * (1 + max |beta|)).
    """
    if ols.beta.shape != pcr.beta_d.shape:
        raise ValidationError(
            f"slope length mismatch: OLS has {ols.beta.shape[0]}, "
            f"PCR has {pcr.beta_d.shape[0]}"
        )
    return float(np.max(np.abs(ols.beta - (pcr.beta_d + pcr.beta_k))))


def recover_ols_sigma2(data: Dataset, pcr: PcrEstimate) -> float:
    """Recover the OLS residual variance from PCR quantities alone.

    Evaluates ``(sigma2_d * (n - d) - y^T H_k y) / (n - p)`` with
    ``y^T H_k y = beta_pc_k^T beta_pc_k``, the fit's own omitted scores; it
    equals the OLS estimate exactly because ``RSS_d = RSS + y^T H_k y``.
    """
    n, p = data.x.shape
    y_hk_y = float(pcr.beta_pc_k @ pcr.beta_pc_k)
    return (pcr.sigma2_d * (n - pcr.d) - y_hk_y) / (n - p)


def sigma2_d_three_forms(
    data: Dataset, pcr: PcrEstimate, ols: OlsEstimate
) -> tuple[float, float, float]:
    """The PCR residual variance written three equivalent ways.

    form1 rebuilds it from the OLS and omitted-set variances, form2 from
    the omitted single-component variances, form3 from the retained ones.
    All three equal ``sigma2_d`` up to rounding (contract: 1e-10 relative).
    Both fits must come from ``data``.
    """
    n, p = data.x.shape
    d, k = pcr.d, pcr.k
    yty = float(data.y @ data.y)
    omitted_sum = float(np.sum(pcr.sigma2_q[d:]))
    retained_sum = float(np.sum(pcr.sigma2_q[:d]))
    form1 = (ols.sigma2 * (n - p) + yty - pcr.sigma2_k * (n - p + d)) / (n - d)
    form2 = (ols.sigma2 * (n - p) + yty * k - (n - 1) * omitted_sum) / (n - d)
    form3 = ((n - 1) * retained_sum - yty * (d - 1)) / (n - d)
    return form1, form2, form3


def default_names(p: int) -> tuple[str, ...]:
    """Generated column labels x1..xp for synthetic designs."""
    return tuple(f"x{j + 1}" for j in range(p))


__all__ = [
    "Dataset",
    "OlsEstimate",
    "PcrEstimate",
    "component_fit",
    "fit_ols",
    "fit_pcr",
    "beta_additivity_check",
    "recover_ols_sigma2",
    "sigma2_d_three_forms",
    "default_names",
]
