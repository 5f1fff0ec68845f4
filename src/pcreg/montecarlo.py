"""Seeded simulation harness for the component-regression estimators.

Generates ``y = X beta + eps`` with known ground truth, fits the
component regression per replicate, and compares the aggregates against
the closed-form predictions for the estimator mean, covariance, and the
residual-variance bias.  Two bias predictions are tracked side by side,
differing in the degrees-of-freedom constant booked for the error term:
the trace-derived ``E(RSS_d) = sigma2 (n - d) + omitted quad form`` and
the alternative with ``n - p`` in place of ``n - d``; the adjudication
between them is part of the output.  The slopes' covariance is predicted
as ``sigma2 V_d S_d^-2 V_d^T``, the sampling covariance of
``beta_d = V_d S_d^-1 U_d^T y`` in a fixed design whatever the truth puts
on the omitted components; the expected plug-in variance
``sigma2 + omitted quad form / (n - d)`` is what the RSS and bias rows
check, not the slopes' spread.  Every claim is one row of the table
:func:`theory_comparison` returns, each row the dict ``simulate`` prints.

Replicate streams come from a counter-based generator (numpy Philox),
keyed per block of ``STREAM_BLOCK`` = 64 replicates: stream block b uses
the key ``seed`` with the counter set to ``[0, 0, b, 0]``, the state that
``Philox(key=seed).jumped(b)`` reaches, and replicate r's errors are row
r mod 64 of the 64 x n standard normals drawn from block r // 64.  One
generator is built per run and seeked once per stream block.
Results depend only on ``(seed, replicate)`` and the constant 64, never on
execution order or block sizes; aggregation reduces one replicate-indexed
array, keeping output bits independent of any parallel scheduling of the
stream blocks themselves.
The design is factored and checked for full column rank once per run.
Replicates are drawn and fitted in blocks, each block of responses in one
call of :func:`pcreg.model.component_fit`, the kernel of ``fit_pcr``; a
block holds at most ``BLOCK_VALUES`` doubles (one row where n is larger),
so memory per block is bounded at any replicate count.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .linalg import gram_pseudo_inverse
from .model import checked_factors, component_fit, design_shape

# Replicate r is row r % STREAM_BLOCK of stream block r // STREAM_BLOCK.
STREAM_BLOCK = 64
GENERATOR_NAME = "numpy-philox-jumped-per-{}-replicates".format(STREAM_BLOCK)

MIN_REPLICATES = 100
# Bounds the run time and the draw arrays; keeps the counter word r // 64 below 2**64.
MAX_REPLICATES = 10**6
# Philox keys are 128-bit.
SEED_LIMIT = 2**128
# Covariance rows need enough replicates for a meaningful matrix estimate.
COVARIANCE_MIN_REPLICATES = 1000
# A fit block (see fit_block_rows) holds at most this many doubles per array
# wherever n <= BLOCK_VALUES.
BLOCK_VALUES = 2**14


def fit_block_rows(n: int) -> int:
    """Replicates per fit block at n observations.

    The largest power of two up to ``max(1, BLOCK_VALUES // n)``, at most
    ``STREAM_BLOCK``, so each fit block lies inside one stream block.
    ``BLOCK_VALUES`` is read at each call.
    """
    return min(STREAM_BLOCK, 1 << (max(1, BLOCK_VALUES // n).bit_length() - 1))


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed-design simulation setup with known truth.

    The design is held fixed across replicates (inference conditional on
    X); errors are drawn iid normal with variance ``sigma2_true``, which
    is the assumption under which the stated sampling distributions hold.
    ``d``, ``replicates`` and ``seed`` must be integers (a bool or a float
    is rejected, not truncated), ``sigma2_true`` a finite positive number,
    and ``x`` and ``beta_true`` arrays of numbers (a string, a bool or a
    null in them is rejected, though ``float`` would read it), with a
    design of 1 <= p < n columns.  A rejected value is quoted in its
    ``reprlib`` abbreviation, so a message stays one short line at any
    input size.
    """

    x: np.ndarray
    beta_true: np.ndarray
    sigma2_true: float
    d: int
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("d", "replicates", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {reprlib.repr(value)}")
            object.__setattr__(self, name, int(value))
        if isinstance(self.sigma2_true, bool) or not isinstance(self.sigma2_true, numbers.Real):
            raise ValidationError(
                f"sigma2_true must be a number, got {reprlib.repr(self.sigma2_true)}"
            )
        object.__setattr__(self, "sigma2_true", float(self.sigma2_true))
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValidationError(
                f"seed must satisfy 0 <= seed < 2**128, got {reprlib.repr(self.seed)}"
            )
        try:
            x, beta = (np.array(a, dtype=object) for a in (self.x, self.beta_true))
            types = {*map(type, x.ravel()), *map(type, beta.ravel())}
            if types & {str, np.str_, bool, np.bool_, type(None)}:
                raise TypeError  # float() would read "1.5" and True as numbers, None as nan
            x, beta = x.astype(float), beta.astype(float)
        except (TypeError, ValueError):  # numpy's message echoes the value, at any length
            raise ValidationError("x and beta_true must be arrays of numbers") from None
        _, p = design_shape(x)
        if beta.shape != (p,):
            raise ValidationError(f"beta_true must have shape ({p},), got {beta.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(beta))):
            raise ValidationError("design or truth contains non-finite values")
        if not math.isfinite(self.sigma2_true):
            raise ValidationError(f"sigma2_true must be finite, got {self.sigma2_true}")
        if not self.sigma2_true > 0:
            raise ValidationError(f"sigma2_true must be positive, got {self.sigma2_true}")
        if not 1 <= self.d <= p:
            raise ValidationError(f"d must lie in 1..{p}, got {reprlib.repr(self.d)}")
        if not MIN_REPLICATES <= self.replicates <= MAX_REPLICATES:
            raise ValidationError(
                f"replicates must lie in {MIN_REPLICATES}..{MAX_REPLICATES}, "
                f"got {reprlib.repr(self.replicates)}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "beta_true", beta)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates over replicates next to their closed-form predictions.

    ``z_floor_rss`` (the RSS and bias rows) and ``z_floor_beta_d`` (per
    slope) bound the rounding of the fit; each z-score divides by its
    MCSE or its floor, whichever is larger.  ``z_floor_rss`` is infinite,
    and the z-scores of those rows zero, where (n + R) eps |x beta_true|^2
    overflows.
    """

    config: SimulationConfig
    mean_sigma2_d: float
    mean_rss_d: float
    mean_beta_d: np.ndarray
    empirical_cov_beta_d: np.ndarray
    predicted_mean_beta_d: np.ndarray
    predicted_cov: np.ndarray
    predicted_bias_nd_dof: float
    predicted_bias_np_dof: float
    predicted_rss_nd_dof: float
    predicted_rss_np_dof: float
    mcse_sigma2_d: float
    mcse_rss_d: float
    mcse_beta_d: np.ndarray
    z_floor_rss: float
    z_floor_beta_d: np.ndarray


def _replicate_seeker(seed: int) -> Callable[[int], np.random.Generator]:
    """One Philox(key=seed) generator and the function that seeks it to a stream.

    ``seek(b)`` sets the counter to ``[0, 0, b, 0]`` with an emptied buffer
    and returns the generator, now at the start of stream b, which
    ``run_simulation`` draws block b of ``STREAM_BLOCK`` replicates from.
    The streams are non-overlapping, 2**128 counter steps apart.
    The state is built once with plain lists, not the uint64 arrays the
    getter returns: the setter stores the same words either way, and reads
    lists without a numpy scalar per word, which is most of a seek's cost.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    counter = [0, 0, 0, 0]
    key = rng.bit_generator.state["state"]["key"].tolist()
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def seek(index: int) -> np.random.Generator:
        counter[2] = index
        rng.bit_generator.state = state
        return rng

    return seek


@np.errstate(all="ignore")
def run_simulation(cfg: SimulationConfig) -> SimulationResult:
    """Run the configured replicates and aggregate.

    The design is factored and checked for full column rank once
    (RankDeficiencyError otherwise), and one generator is built.  Replicate
    r's errors are row r mod ``STREAM_BLOCK`` of stream block
    r // ``STREAM_BLOCK``: the generator is seeked to the counter-addressed
    (seed, r // 64) stream once per stream block, and each fit block, a
    power of two rows that lies inside one stream block, is one
    ``standard_normal`` call continuing it, so the draws are the same at
    any fit-block size.  Each block of responses is fitted
    with one ``component_fit`` call, the kernel ``fit_pcr`` uses, so every
    replicate's retained slopes and residual sum of squares carry the bits
    of its ``fit_pcr`` fit; only these are computed.  They are kept as the
    rows of one (1 + p) x R array, RSS_d first, and reduced once: its row
    means and its covariance give every aggregate, the plug-in variance's
    mean and MCSE being the RSS_d ones over n - d.  The predictions
    come from the truth and the design alone: the retained part of
    ``beta_true`` as the slopes' mean, ``sigma2_true V_d S_d^-2 V_d^T`` as
    their covariance, and the RSS and bias expectations under both dof
    constants.  Floating-point warnings are silenced; a non-finite
    aggregate (a fit that leaves the double-precision range, as the sums
    of a huge design or ``beta_true`` and the slopes of a tiny design do)
    raises ValidationError instead.
    """
    f = checked_factors(cfg.x)
    n, p, d = cfg.n, cfg.p, cfg.d
    mu = cfg.x @ cfg.beta_true
    sd = math.sqrt(cfg.sigma2_true)

    reps = cfg.replicates
    # Row 0 holds each replicate's RSS_d, rows 1..p its retained slopes.
    draws = np.empty((1 + p, reps))
    seek = _replicate_seeker(cfg.seed)
    z = np.empty((fit_block_rows(n), n))
    for start in range(0, reps, len(z)):
        if start % STREAM_BLOCK == 0:
            rng = seek(start // STREAM_BLOCK)
        y = z[: reps - start]
        rng.standard_normal(out=y)  # the next len(y) rows of the current stream block
        y *= sd  # in place: the bits of mu + sd * y, without its two temporaries
        y += mu
        block = np.s_[start : start + len(y)]
        beta, draws[0, block] = component_fit(f, y, np.matvec(f.u.T, y), np.s_[:d])
        draws[1:, block] = beta.T
    mean = np.mean(draws, axis=1)
    cov = np.cov(draws, ddof=1)

    # Ground-truth decomposition of beta over retained/omitted loadings.
    omitted = f.v[:, d:].T @ cfg.beta_true
    beta_d_true = cfg.beta_true - f.v[:, d:] @ omitted
    omitted_quad = float(np.sum((f.sigma[d:] * omitted) ** 2))

    # The rounding of an n-term fit followed by an R-term mean scales with
    # |y|, which is |mu| when the signal dwarfs the noise: (n + R) eps |mu|^2
    # for a sum of squares, and (n + R) eps |mu| / s_d for a retained score,
    # which reaches slope j through at most max_q |v_jq|.
    norm_mu = math.hypot(*mu)  # no overflow in the squares
    rounding = (n + reps) * np.finfo(float).eps * norm_mu
    mcse = np.sqrt(np.diag(cov)) / math.sqrt(reps)
    res = SimulationResult(
        config=cfg,
        mean_sigma2_d=float(mean[0]) / (n - d),
        mean_rss_d=float(mean[0]),
        mean_beta_d=mean[1:],
        empirical_cov_beta_d=cov[1:, 1:],
        predicted_mean_beta_d=beta_d_true,
        predicted_cov=gram_pseudo_inverse(f, np.s_[:d]) * cfg.sigma2_true,
        predicted_bias_nd_dof=omitted_quad / (n - d),
        predicted_bias_np_dof=((n - p) / (n - d) - 1.0) * cfg.sigma2_true
        + omitted_quad / (n - d),
        predicted_rss_nd_dof=cfg.sigma2_true * (n - d) + omitted_quad,
        predicted_rss_np_dof=cfg.sigma2_true * (n - p) + omitted_quad,
        mcse_sigma2_d=float(mcse[0]) / (n - d),
        mcse_rss_d=float(mcse[0]),
        mcse_beta_d=mcse[1:],
        z_floor_rss=rounding * norm_mu,
        z_floor_beta_d=rounding / f.sigma[d - 1] * np.max(np.abs(f.v[:, :d]), axis=1),
    )
    for field in fields(res):
        if field.name in ("config", "z_floor_rss", "z_floor_beta_d"):
            continue
        if not np.all(np.isfinite(getattr(res, field.name))):
            raise ValidationError(
                f"simulation aggregate {field.name} is not finite: sigma2_true "
                f"{cfg.sigma2_true:.3e}, the fit leaves the double-precision range"
            )
    return res


def _row(claim: str, predicted: float, observed: float, mcse: float, floor: float,
         asserted: bool = True) -> dict:
    # Rounding in the fit never reads as deviation: the MCSE is floored at its bound.
    scale = max(mcse, floor)
    z = (observed - predicted) / scale if scale > 0.0 else 0.0
    return {"claim": claim, "predicted": float(predicted), "observed": float(observed),
            "mcse": float(mcse), "z": z, "asserted": asserted}


def _rss_rows(res: SimulationResult) -> tuple[dict, dict]:
    """The mean-RSS claim under the n-d dof constant (asserted) and the n-p one."""
    return (
        _row("mean_rss_d (n-d dof)", res.predicted_rss_nd_dof, res.mean_rss_d, res.mcse_rss_d,
             res.z_floor_rss),
        _row("mean_rss_d (n-p dof)", res.predicted_rss_np_dof, res.mean_rss_d, res.mcse_rss_d,
             res.z_floor_rss, False),
    )


def theory_comparison(res: SimulationResult) -> list[dict]:
    """Tabulate every tracked claim as (predicted, observed, MCSE, z).

    Each row is the dict ``simulate`` prints, with the keys ``claim``,
    ``predicted``, ``observed``, ``mcse``, ``z`` and ``asserted`` in that
    order, and each z-scored claim is one ``_row(claim, predicted,
    observed, MCSE, z floor, asserted)`` entry of the table.  Asserted
    rows are claims the theory says must match (alerting material);
    recorded rows exist for side-by-side comparison.  The n-p dof variants
    are recorded, because they deviate by design whenever signal sits on
    the omitted components, and the adjudication stays visible without
    flagging that expected deviation.  The covariance claim is summarized
    by its relative Frobenius distance, a recorded row (z is not
    applicable there and is reported as nan); it is included only when
    the run had at least 1000 replicates.
    """
    cfg = res.config
    observed_bias = res.mean_sigma2_d - cfg.sigma2_true
    rows = [
        *(_row(f"mean_beta_d[{j}]", res.predicted_mean_beta_d[j], res.mean_beta_d[j],
               res.mcse_beta_d[j], res.z_floor_beta_d[j]) for j in range(cfg.p)),
        *_rss_rows(res),
        _row("bias_sigma2_d (n-d dof)", res.predicted_bias_nd_dof, observed_bias,
             res.mcse_sigma2_d, res.z_floor_rss),
        _row("bias_sigma2_d (n-p dof)", res.predicted_bias_np_dof, observed_bias,
             res.mcse_sigma2_d, res.z_floor_rss, False),
    ]
    if cfg.replicates >= COVARIANCE_MIN_REPLICATES:
        dist = float(
            np.linalg.norm(res.empirical_cov_beta_d - res.predicted_cov)
            / np.linalg.norm(res.predicted_cov)
        )
        rows.append({"claim": "cov_beta_d relative Frobenius distance", "predicted": 0.0,
                     "observed": dist, "mcse": math.nan, "z": math.nan, "asserted": False})
    return rows


def adjudicate_rss_dof(res: SimulationResult) -> dict:
    """Which degrees-of-freedom variant does the simulated mean RSS back?

    Compares the observed mean against both predictions (the two mean-RSS
    rows of :func:`theory_comparison`) and names the one with the smaller
    absolute z-score.  Those rows carry the predictions, the observed mean
    and both z-scores; only the verdict is returned here.
    """
    nd, np_dof = _rss_rows(res)
    return {"winner": "n-d" if abs(nd["z"]) <= abs(np_dof["z"]) else "n-p"}
