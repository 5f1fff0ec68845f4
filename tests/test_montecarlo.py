"""Tests for the simulation harness.

These use small replicate counts; the full-scale runs specified for
acceptance live in test_acceptance.py.
"""

import math

import numpy as np
import pytest

from pcreg.errors import ValidationError
from pcreg.linalg import svd_thin
from pcreg.model import Dataset, fit_pcr
from pcreg.montecarlo import (
    BLOCK_VALUES,
    COVARIANCE_MIN_REPLICATES,
    MAX_REPLICATES,
    SimulationConfig,
    _replicate_seeker,
    adjudicate_rss_dof,
    run_simulation,
    theory_comparison,
)


def design(seed=101, n=60, p=4):
    return np.random.default_rng(seed).standard_normal((n, p))


def config(**kw):
    x = kw.pop("x", design())
    defaults = dict(
        x=x,
        beta_true=np.zeros(x.shape[1]),
        sigma2_true=1.0,
        d=2,
        replicates=200,
        seed=7,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestSimulationConfig:
    def test_replicate_floor(self):
        with pytest.raises(ValidationError, match="replicates"):
            config(replicates=99)

    def test_replicate_cap(self):
        assert config(replicates=MAX_REPLICATES).replicates == MAX_REPLICATES
        for count in (MAX_REPLICATES + 1, 2**128):
            with pytest.raises(ValidationError, match="replicates"):
                config(replicates=count)

    def test_sigma2_positive(self):
        with pytest.raises(ValidationError, match="sigma2"):
            config(sigma2_true=0.0)

    def test_d_bounds(self):
        with pytest.raises(ValidationError, match="d must"):
            config(d=5)

    def test_beta_shape(self):
        with pytest.raises(ValidationError, match="beta_true"):
            config(beta_true=np.zeros(3))


def jumped_rng(seed, r):
    return np.random.Generator(np.random.Philox(key=seed).jumped(r))


def reference_aggregates(cfg):
    """The replicate loop through Dataset and fit_pcr, on jumped Philox streams."""
    mu = cfg.x @ cfg.beta_true
    sd = math.sqrt(cfg.sigma2_true)
    fits = [
        fit_pcr(Dataset(y=mu + sd * jumped_rng(cfg.seed, r).standard_normal(cfg.n), x=cfg.x),
                cfg.d)
        for r in range(cfg.replicates)
    ]
    sigma2 = np.array([fit.sigma2_d for fit in fits])
    rss = np.array([fit.rss_d for fit in fits])
    beta = np.array([fit.beta_d for fit in fits])
    root = math.sqrt(cfg.replicates)
    return {
        "mean_beta_d": np.mean(beta, axis=0),
        "empirical_cov_beta_d": np.cov(beta, rowvar=False, ddof=1),
        "mean_sigma2_d": float(np.mean(sigma2)),
        "mean_rss_d": float(np.mean(rss)),
        "mcse_sigma2_d": float(np.std(sigma2, ddof=1)) / root,
        "mcse_rss_d": float(np.std(rss, ddof=1)) / root,
        "mcse_beta_d": np.std(beta, axis=0, ddof=1) / root,
    }


class TestReplicateStreams:
    # Seed 2**64 has key words [0, 1], so a swapped or truncated key is caught;
    # MAX_REPLICATES - 1 is the last counter a run can seek to.
    @pytest.mark.parametrize("seed", [7, 2**128 - 1, 2**64])
    @pytest.mark.parametrize("r", [0, 1, 4999, MAX_REPLICATES - 1])
    def test_counter_stream_is_the_jumped_stream(self, seed, r):
        a, b = _replicate_seeker(seed)(r), jumped_rng(seed, r)
        assert a.standard_normal(257).tobytes() == b.standard_normal(257).tobytes()
        assert a.integers(0, 2**63, 9).tobytes() == b.integers(0, 2**63, 9).tobytes()

    @pytest.mark.parametrize("seed", [7, 2**128 - 1])
    def test_seek_from_a_used_generator(self, seed):
        # A spare 32-bit half and a part-used block of 64-bit words must not
        # lead the stream the seek lands on.
        seek = _replicate_seeker(seed)
        rng = seek(0)
        for r in (0, 1, 4999):
            rng.integers(0, 2**32, 3, dtype=np.uint32)
            rng.random(5)
            while rng.bit_generator.state["buffer_pos"] == 4:  # stop mid-block
                rng.random()
            state = rng.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] != 4
            a, b = seek(r), jumped_rng(seed, r)
            assert a.standard_normal(257).tobytes() == b.standard_normal(257).tobytes()
            assert a.integers(0, 2**63, 9).tobytes() == b.integers(0, 2**63, 9).tobytes()

    def test_one_philox_per_run(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        run_simulation(config(replicates=200))
        assert len(built) == 1

    @pytest.mark.parametrize(
        "cfg",
        [
            config(beta_true=np.array([1.0, -0.5, 0.25, 2.0]), d=2, replicates=150, seed=3),
            config(x=design(6, 50, 3), beta_true=np.array([1.0, 0.5, -0.25]), d=3,
                   replicates=120, seed=2**128 - 1),
        ],
        ids=["d<p", "d=p"],
    )
    def test_aggregates_match_the_dataset_fit_pcr_loop(self, cfg):
        res, ref = run_simulation(cfg), reference_aggregates(cfg)
        for name, expected in ref.items():
            got = np.asarray(getattr(res, name), dtype=float)
            assert got.tobytes() == np.asarray(expected, dtype=float).tobytes(), name


    @pytest.mark.parametrize(
        "cfg",
        [
            config(x=design(8, 150, 5), beta_true=np.array([1.0, -2.0, 0.5, 0.0, 3.0]), d=2,
                   replicates=300, seed=5),
            config(x=design(9, 1000, 50) * np.logspace(0.0, -6.0, 50),
                   beta_true=np.linspace(-1.0, 1.0, 50), d=10, replicates=100, seed=6),
        ],
        ids=["150x5-d2-R300", "1000x50-d10-R100"],
    )
    def test_blocks_match_the_dataset_fit_pcr_loop(self, cfg):
        # Full blocks and a partial last one; R = 300 at n = 150 is blocks of
        # 109, 109 and 82 replicates.
        rows = max(1, BLOCK_VALUES // cfg.n)
        assert rows < cfg.replicates and cfg.replicates % rows
        res, ref = run_simulation(cfg), reference_aggregates(cfg)
        for name, expected in ref.items():
            got = np.asarray(getattr(res, name), dtype=float)
            assert got.tobytes() == np.asarray(expected, dtype=float).tobytes(), name


class TestRunSimulation:
    def test_reproducible_bit_identical(self):
        cfg = config()
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert a.mean_beta_d.tobytes() == b.mean_beta_d.tobytes()
        assert a.empirical_cov_beta_d.tobytes() == b.empirical_cov_beta_d.tobytes()
        assert a.mean_sigma2_d == b.mean_sigma2_d
        assert a.mean_rss_d == b.mean_rss_d

    def test_seed_changes_output(self):
        a = run_simulation(config(seed=1))
        b = run_simulation(config(seed=2))
        assert a.mean_sigma2_d != b.mean_sigma2_d

    def test_no_omitted_signal_recovers_truth(self):
        x = design(5, 80, 4)
        f = svd_thin(x)
        beta = f.v[:, :2] @ np.array([3.0, -2.0])  # truth entirely retained
        res = run_simulation(config(x=x, beta_true=beta, d=2, replicates=400, seed=11))
        np.testing.assert_allclose(res.predicted_mean_beta_d, beta, atol=1e-10)
        gap = np.abs(res.mean_beta_d - beta)
        assert np.all(gap <= 4.0 * res.mcse_beta_d)
        assert abs(res.predicted_bias_nd_dof) <= 1e-12
        assert abs(res.mean_sigma2_d - 1.0) <= 4.0 * res.mcse_sigma2_d

    def test_full_d_unbiased_for_sigma2(self):
        x = design(6, 50, 3)
        beta = np.array([1.0, 0.5, -0.25])
        res = run_simulation(config(x=x, beta_true=beta, d=3, replicates=400, seed=21))
        assert abs(res.mean_sigma2_d - 1.0) <= 4.0 * res.mcse_sigma2_d
        assert res.predicted_rss_nd_dof == res.predicted_rss_np_dof  # n-d == n-p at d=p

    def test_empirical_cov_symmetric_psd(self):
        res = run_simulation(config(replicates=150))
        emp = res.empirical_cov_beta_d
        np.testing.assert_allclose(emp, emp.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(emp)) >= -1e-12


class TestTheoryComparison:
    def test_row_set_small_run(self):
        res = run_simulation(config(replicates=200))
        rows = theory_comparison(res)
        claims = [row.claim for row in rows]
        assert claims.count("mean_rss_d (n-d dof)") == 1
        assert claims.count("mean_rss_d (n-p dof)") == 1
        assert sum(c.startswith("mean_beta_d[") for c in claims) == 4
        # covariance row needs >= 1000 replicates
        assert not any("Frobenius" in c for c in claims)

    def test_covariance_row_at_scale(self):
        res = run_simulation(config(replicates=1000))
        rows = theory_comparison(res)
        frob = [row for row in rows if "Frobenius" in row.claim]
        assert len(frob) == 1
        assert frob[0].predicted == 0.0 and np.isnan(frob[0].z)

    def test_dof_variant_rows_are_recorded_not_asserted(self):
        res = run_simulation(config(replicates=200))
        roles = {row.claim: row.asserted for row in theory_comparison(res)}
        assert roles["mean_rss_d (n-d dof)"] is True
        assert roles["mean_rss_d (n-p dof)"] is False
        assert roles["bias_sigma2_d (n-p dof)"] is False
        # The covariance summary has no z, so it can never alert: it is recorded.
        res = run_simulation(config(replicates=COVARIANCE_MIN_REPLICATES))
        roles = {row.claim: row.asserted for row in theory_comparison(res)}
        assert roles["cov_beta_d relative Frobenius distance"] is False

    def test_adjudication_prefers_nd_dof(self):
        # truth placed on the omitted components so the two predictions
        # separate by sigma2 * (p - d); the trace-derived n-d form should win
        adj = adjudicate_rss_dof(run_simulation(omitted_truth_config()))
        assert adj["winner"] == "n-d"
        assert abs(adj["z_nd"]) <= 4.0
        assert abs(adj["z_np"]) > 4.0

    def test_slope_covariance_with_truth_on_the_omitted_components(self):
        # beta_d = V_d S_d^-1 U_d^T y has covariance sigma2 V_d S_d^-2 V_d^T in a
        # fixed design, whatever the truth puts on the omitted components; the
        # expected plug-in variance sigma2_d,pop (here 1.5 sigma2) is not it.
        res = run_simulation(omitted_truth_config())
        frob = [row for row in theory_comparison(res) if "Frobenius" in row.claim]
        assert len(frob) == 1 and frob[0].observed <= 0.10


def omitted_truth_config():
    """A run whose truth lies on the omitted components: sigma2_d,pop = 1.5 sigma2."""
    x = design(9, 100, 5)
    f = svd_thin(x)
    coeff = np.sqrt(50.0 / 3.0) / f.sigma[2:]
    return config(x=x, beta_true=f.v[:, 2:] @ coeff, d=2, replicates=2000, seed=33)
