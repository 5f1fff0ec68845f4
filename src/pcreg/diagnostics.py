"""Variance and bias diagnostics for component regressions.

Three equivalent covariance formulations for the retained-component slope
estimator, the recomposition identity splitting the OLS covariance into
retained and omitted contributions, and the bias ledger comparing the two
residual variance estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import SvdFactors, gram_pseudo_inverse, loading_projector
from .model import OlsEstimate, PcrEstimate

# Residual variances below this trip the degenerate path instead of
# producing infinite ratios.
RATIO_GUARD = 1e-300


@dataclass(frozen=True)
class CovarianceSet:
    """Every slope covariance of one component-regression fit, computed once.

    ``direct`` is the canonical pseudo-inverse form of the retained-slope
    covariance and is always present, as is ``omitted``, the covariance of
    the omitted-component slopes (the p x p zero matrix at d = p).
    ``scaled`` rescales the OLS covariance through the loading projector;
    ``difference`` subtracts the omitted-component contribution.  These
    two are verification artifacts and are dropped (None) on the
    degenerate paths: ``scaled`` requires a nonzero OLS residual variance,
    ``difference`` additionally requires d < p and a nonzero omitted-set
    variance.  The variance recomposition is defined exactly where
    ``difference`` is.
    """

    direct: np.ndarray
    omitted: np.ndarray
    scaled: np.ndarray | None
    difference: np.ndarray | None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-fit comparison of PCR against OLS.

    ``exceeds_ols[j]`` is the strict comparison se_pcr[j] > se_ols[j] and
    mirrors the bolding convention of tabulated comparisons.  A degenerate
    report (zero OLS residual variance) carries ``inflation_ratio = nan``.
    ``covs`` holds the covariances the report was built from.
    """

    inflation_ratio: float
    loading_diag: np.ndarray
    se_ols: np.ndarray
    se_pcr: np.ndarray
    exceeds_ols: np.ndarray
    bias_sigma2_plugin: float
    covs: CovarianceSet
    degenerate: bool = False


def covariance_agreement(covs: CovarianceSet) -> float:
    """Max absolute entrywise gap between the available covariance forms.

    Zero when only the direct form is present.  Contract for full-rank
    fits: <= 1e-8 * (1 + max diagonal of the direct form).
    """
    forms = [covs.direct]
    if covs.scaled is not None:
        forms.append(covs.scaled)
    if covs.difference is not None:
        forms.append(covs.difference)
    worst = 0.0
    for a in range(len(forms)):
        for b in range(a + 1, len(forms)):
            worst = max(worst, float(np.max(np.abs(forms[a] - forms[b]))))
    return worst


def pcr_covariance(f: SvdFactors, ols: OlsEstimate, pcr: PcrEstimate) -> CovarianceSet:
    """Slope covariances: the retained block in all applicable forms, and the omitted block.

    direct     = V_d Sigma_d^-2 V_d^T * sigma2_d
    omitted    = V_k Sigma_k^-2 V_k^T * sigma2_k
    scaled     = cov_ols V_d V_d^T * (sigma2_d / sigma2)
    difference = {cov_ols - (sigma2 / sigma2_k) omitted} * (sigma2_d / sigma2)

    A zero OLS residual variance makes the ratios undefined, so only the
    direct and omitted forms are returned.  At d = p the difference form
    is omitted (there is no omitted set), the omitted block is zero and
    direct = scaled = the OLS covariance.
    """
    direct = gram_pseudo_inverse(f, np.s_[: pcr.d]) * pcr.sigma2_d
    omitted = gram_pseudo_inverse(f, np.s_[pcr.d :]) * pcr.sigma2_k
    if ols.sigma2 < RATIO_GUARD:
        return CovarianceSet(direct, omitted, scaled=None, difference=None)
    ratio = pcr.sigma2_d / ols.sigma2
    scaled = ols.cov @ loading_projector(f, np.s_[: pcr.d]) * ratio
    if pcr.k == 0:
        return CovarianceSet(direct, omitted, scaled=scaled, difference=None)
    if pcr.sigma2_k < RATIO_GUARD:
        return CovarianceSet(direct, omitted, scaled=scaled, difference=None)
    difference = (ols.cov - (ols.sigma2 / pcr.sigma2_k) * omitted) * ratio
    return CovarianceSet(direct, omitted, scaled=scaled, difference=difference)


def variance_recomposition_check(
    ols: OlsEstimate, pcr: PcrEstimate, covs: CovarianceSet
) -> float:
    """Max absolute gap in rebuilding the OLS covariance from both blocks.

    Checks cov_ols = var(beta_d) sigma2/sigma2_d + var(beta_k) sigma2/sigma2_k
    with both variances in their direct forms, ``covs.direct`` and
    ``covs.omitted``.  Defined exactly where ``covs.difference`` is: d < p
    and nonzero OLS and omitted-set residual variances, which bound
    sigma2_d >= sigma2 (n - p)/(n - d) away from zero; ValidationError
    otherwise.  Contract: <= 1e-8 * (1 + max diagonal).
    """
    if covs.difference is None:
        raise ValidationError(
            "recomposition needs d < p and nonzero OLS and omitted-set residual variances"
        )
    rebuilt = covs.direct * (ols.sigma2 / pcr.sigma2_d) + covs.omitted * (ols.sigma2 / pcr.sigma2_k)
    return float(np.max(np.abs(ols.cov - rebuilt)))


def build_report(f: SvdFactors, ols: OlsEstimate, pcr: PcrEstimate) -> DiagnosticsReport:
    """Assemble the per-coefficient comparison report.

    Standard errors come from the covariance diagonals (direct form for
    PCR); the exceedance flags use the strict inequality.  The plug-in
    residual-variance bias,

        ((n - p)/(n - d) - 1) sigma2 + (beta - beta_d)^T X^T X (beta - beta_d) / (n - d),

    collapses to ``sigma2_d - sigma2`` exactly (1e-10 relative); the
    omitted-space slopes ``pcr.beta_k`` are the slope-bias estimate.
    """
    covs = pcr_covariance(f, ols, pcr)
    se_ols = np.sqrt(np.diag(ols.cov))
    se_pcr = np.sqrt(np.diag(covs.direct))
    degenerate = covs.scaled is None  # pcr_covariance's guard on the OLS residual variance
    inflation = float("nan") if degenerate else pcr.sigma2_d / ols.sigma2
    # X^T X reconstructed from the factors for the plug-in bias.
    gram = (f.v * f.sigma**2) @ f.v.T
    delta = ols.beta - pcr.beta_d
    quad = float(delta @ gram @ delta)
    n, p, d = f.n, f.p, pcr.d
    plugin = ((n - p) / (n - d) - 1.0) * ols.sigma2 + quad / (n - d)
    return DiagnosticsReport(
        inflation_ratio=inflation,
        loading_diag=np.sum(f.v[:, :d] ** 2, axis=1),
        se_ols=se_ols,
        se_pcr=se_pcr,
        exceeds_ols=se_pcr > se_ols,
        bias_sigma2_plugin=plugin,
        covs=covs,
        degenerate=degenerate,
    )
