"""Principal component regression with a complete variance and bias ledger.

Estimators for the retained- and omitted-component slopes and residual
variances, the equivalent covariance formulations with their agreement
checks, a seeded Monte Carlo harness for the expectation-level claims,
and a CSV-driven command line (``pcreg``).
"""

from pathlib import Path

from .diagnostics import (
    CovarianceSet,
    DiagnosticsReport,
    build_report,
    covariance_agreement,
    pcr_covariance,
    variance_recomposition_check,
)
from .errors import (
    ConvergenceError,
    DataFormatError,
    DegreesOfFreedomError,
    PcregError,
    RankDeficiencyError,
    ValidationError,
)
from .linalg import (
    SvdFactors,
    gram_pseudo_inverse,
    loading_projector,
    svd_thin,
)
from .model import (
    Dataset,
    OlsEstimate,
    PcrEstimate,
    beta_additivity_check,
    component_fit,
    fit_ols,
    fit_pcr,
    recover_ols_sigma2,
    sigma2_d_three_forms,
)
from .montecarlo import (
    SimulationConfig,
    SimulationResult,
    adjudicate_rss_dof,
    run_simulation,
    theory_comparison,
)

__version__ = "0.1.0"


def fixture_path() -> Path:
    """Path of the bundled synthetic electricity-style CSV fixture."""
    return Path(__file__).parent / "data" / "electricity_synthetic.csv"


__all__ = [
    "ConvergenceError",
    "CovarianceSet",
    "DataFormatError",
    "Dataset",
    "DegreesOfFreedomError",
    "DiagnosticsReport",
    "OlsEstimate",
    "PcrEstimate",
    "PcregError",
    "RankDeficiencyError",
    "SimulationConfig",
    "SimulationResult",
    "SvdFactors",
    "ValidationError",
    "adjudicate_rss_dof",
    "beta_additivity_check",
    "build_report",
    "component_fit",
    "covariance_agreement",
    "fit_ols",
    "fit_pcr",
    "fixture_path",
    "gram_pseudo_inverse",
    "loading_projector",
    "pcr_covariance",
    "recover_ols_sigma2",
    "run_simulation",
    "sigma2_d_three_forms",
    "svd_thin",
    "theory_comparison",
    "variance_recomposition_check",
]
