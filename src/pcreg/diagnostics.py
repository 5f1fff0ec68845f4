"""Variance and bias diagnostics for component regressions.

Three equivalent covariance formulations for the retained-component slope
estimator, the recomposition identity splitting the OLS covariance into
retained and omitted contributions, the bias ledger comparing the two
residual variance estimates, and the identity residuals ``compare``
prints.  A residual variance is divided by only when it is a normal
double: a subnormal one has lost relative precision, so a ratio built on
it would be silently wrong, and the forms and ratios that need it are
left out instead.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import SvdFactors, gram_pseudo_inverse, loading_projector
from .model import (Dataset, OlsEstimate, PcrEstimate, beta_additivity_check, recover_ols_sigma2,
                    sigma2_d_three_forms)


@dataclass(frozen=True)
class CovarianceSet:
    """Every slope covariance of one component-regression fit, computed once.

    ``direct`` is the canonical pseudo-inverse form of the retained-slope
    covariance and is always present, as is ``omitted``, the covariance of
    the omitted-component slopes (the p x p zero matrix at d = p).
    ``scaled`` rescales the OLS covariance through the loading projector;
    ``difference`` subtracts the omitted-component contribution.  These
    two are verification artifacts and are dropped (None) on the
    degenerate paths: ``scaled`` requires an OLS residual variance that is
    a normal double, ``difference`` additionally requires d < p and an
    omitted-set variance that is a normal double.  The variance
    recomposition is defined exactly where ``difference`` is.
    """

    direct: np.ndarray
    omitted: np.ndarray
    scaled: np.ndarray | None
    difference: np.ndarray | None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-fit comparison of PCR against OLS.

    ``se_pcr`` and ``se_k`` are the standard errors of the retained and
    omitted slopes.  ``exceeds_ols[j]`` is the strict comparison
    se_pcr[j] > se_ols[j], and ``exceeds_ols_k[j]`` is se_k[j] > se_ols[j];
    both mirror the bolding convention of tabulated comparisons.  A
    degenerate report (an OLS residual variance that is not a normal
    double) carries ``inflation_ratio = nan``.  ``covs`` holds the covariances the report
    was built from.
    """

    inflation_ratio: float
    loading_diag: np.ndarray
    se_ols: np.ndarray
    se_pcr: np.ndarray
    se_k: np.ndarray
    exceeds_ols: np.ndarray
    exceeds_ols_k: np.ndarray
    bias_sigma2_plugin: float
    covs: CovarianceSet
    degenerate: bool


def covariance_agreement(covs: CovarianceSet) -> float:
    """Max absolute entrywise gap between the available covariance forms.

    Zero when only the direct form is present.  Contract for full-rank
    fits: <= 1e-8 * (1 + max diagonal of the direct form).
    """
    forms = [c for c in (covs.direct, covs.scaled, covs.difference) if c is not None]
    return max((float(np.max(np.abs(a - b))) for a, b in combinations(forms, 2)), default=0.0)


def pcr_covariance(f: SvdFactors, ols: OlsEstimate, pcr: PcrEstimate) -> CovarianceSet:
    """Slope covariances: the retained block in all applicable forms, and the omitted block.

    direct     = V_d Sigma_d^-2 V_d^T * sigma2_d
    omitted    = V_k Sigma_k^-2 V_k^T * sigma2_k
    scaled     = cov_ols V_d V_d^T * (sigma2_d / sigma2)
    difference = {cov_ols - (sigma2 / sigma2_k) omitted} * (sigma2_d / sigma2)

    ``direct`` is ``pcr.cov_d``, the same object: the fit built it once.
    ``direct`` and ``omitted`` are exactly symmetric (see
    ``gram_pseudo_inverse``); the two check forms need not be.  An OLS
    residual variance that is not a normal double makes the ratios
    unreliable, so only the direct and omitted forms are returned.  At
    d = p the difference form is omitted (there is no omitted set), the
    omitted block is zero and direct = scaled = the OLS covariance.  Once
    sigma2_k is normal, sigma2 / sigma2_k <= (n - k)/(n - p) cannot
    overflow.
    """
    omitted = gram_pseudo_inverse(f, np.s_[pcr.d :]) * pcr.sigma2_k
    scaled = difference = None
    if ols.sigma2 >= sys.float_info.min:
        ratio = pcr.sigma2_d / ols.sigma2
        scaled = ols.cov @ loading_projector(f, np.s_[: pcr.d]) * ratio
        if pcr.k and pcr.sigma2_k >= sys.float_info.min:
            difference = (ols.cov - (ols.sigma2 / pcr.sigma2_k) * omitted) * ratio
    return CovarianceSet(pcr.cov_d, omitted, scaled=scaled, difference=difference)


def variance_recomposition_check(
    ols: OlsEstimate, pcr: PcrEstimate, covs: CovarianceSet
) -> float | None:
    """Max absolute gap in rebuilding the OLS covariance from both blocks.

    Checks cov_ols = var(beta_d) sigma2/sigma2_d + var(beta_k) sigma2/sigma2_k
    with both variances in their direct forms, ``covs.direct`` and
    ``covs.omitted``.  Defined exactly where ``covs.difference`` is: d < p
    and OLS and omitted-set residual variances that are normal doubles,
    which bound sigma2_d >= sigma2 (n - p)/(n - d) away from zero;
    None elsewhere.  Contract: <= 1e-8 * (1 + max diagonal).
    """
    if covs.difference is None:
        return None
    rebuilt = covs.direct * (ols.sigma2 / pcr.sigma2_d) + covs.omitted * (ols.sigma2 / pcr.sigma2_k)
    return float(np.max(np.abs(ols.cov - rebuilt)))


def plugin_bias(n: int, p: int, d: int, sigma2: float, quad: float) -> float:
    """The plug-in residual-variance bias ``((n - p)/(n - d) - 1) sigma2 + quad / (n - d)``.

    ``quad`` is the quadratic form ``(beta - beta_d)^T X^T X (beta - beta_d)``
    of the omitted slopes.  ``build_report`` evaluates it on the sample
    (sigma2 hat and the fitted slopes) and ``run_simulation`` on the truth
    (``sigma2_true`` and the omitted part of ``beta_true``), as the bias
    predicted under the n - p dof constant.
    """
    return ((n - p) / (n - d) - 1.0) * sigma2 + quad / (n - d)


def build_report(f: SvdFactors, ols: OlsEstimate, pcr: PcrEstimate) -> DiagnosticsReport:
    """Assemble the per-coefficient comparison report.

    Standard errors come from the covariance diagonals (direct form for
    the retained slopes); the exceedance flags of both blocks use the
    strict inequality.  The plug-in residual-variance bias is
    ``plugin_bias`` at the sample sigma2 and the quadratic form
    ``(beta - beta_d)^T X^T X (beta - beta_d)``; it collapses to
    ``sigma2_d - sigma2`` exactly (1e-10 relative).  The omitted-space
    slopes ``pcr.beta_k`` are the slope-bias estimate.
    """
    covs = pcr_covariance(f, ols, pcr)
    se_ols = np.sqrt(np.diag(ols.cov))
    se_pcr = np.sqrt(np.diag(covs.direct))
    se_k = np.sqrt(np.diag(covs.omitted))
    degenerate = covs.scaled is None  # the OLS residual variance is not a normal double
    inflation = float("nan") if degenerate else pcr.sigma2_d / ols.sigma2
    # X^T X reconstructed from the factors for the plug-in bias.
    gram = (f.v * f.sigma**2) @ f.v.T
    delta = ols.beta - pcr.beta_d
    quad = float(delta @ gram @ delta)
    return DiagnosticsReport(
        inflation_ratio=inflation,
        loading_diag=np.sum(f.v[:, : pcr.d] ** 2, axis=1),
        se_ols=se_ols,
        se_pcr=se_pcr,
        se_k=se_k,
        exceeds_ols=se_pcr > se_ols,
        exceeds_ols_k=se_k > se_ols,
        bias_sigma2_plugin=plugin_bias(f.n, f.p, pcr.d, ols.sigma2, quad),
        covs=covs,
        degenerate=degenerate,
    )


def identity_residuals(
    data: Dataset, ols: OlsEstimate, pcr: PcrEstimate, report: DiagnosticsReport
) -> dict:
    """The six identity residuals of one fit, as ``compare`` prints them.

    Each is the absolute gap in one exact identity, zero up to rounding:
    the slope decomposition ``beta = beta_d + beta_k``, the OLS variance
    recovered from PCR quantities, the widest of the three forms of
    ``sigma2_d``, the agreement of the covariance forms, the plug-in bias
    against ``sigma2_d - sigma2``, and the variance recomposition (None
    where it is undefined).  Both fits and ``report`` must come from
    ``data``.
    """
    forms = sigma2_d_three_forms(data, pcr, ols)
    spread = max(abs(v - pcr.sigma2_d) for v in forms)
    recovered = recover_ols_sigma2(data, pcr)
    covs = report.covs
    return {
        "beta_additivity": beta_additivity_check(ols, pcr),
        "sigma2_recovery": abs(recovered - ols.sigma2),
        "three_forms_spread": spread,
        "covariance_agreement": covariance_agreement(covs),
        "bias_identity": abs(report.bias_sigma2_plugin - (pcr.sigma2_d - ols.sigma2)),
        "variance_recomposition": variance_recomposition_check(ols, pcr, covs),
    }
