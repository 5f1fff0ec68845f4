"""Tests for the simulation harness.

These use small replicate counts; the full-scale runs specified for
acceptance live in test_acceptance.py.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from pcreg.errors import ValidationError
from pcreg.linalg import svd_thin
from pcreg.model import Dataset, fit_pcr
from pcreg import montecarlo
from pcreg.montecarlo import (
    COVARIANCE_MIN_REPLICATES,
    MAX_REPLICATES,
    SimulationConfig,
    _replicate_seeker,
    _rss_rows,
    adjudicate_rss_dof,
    fit_block_rows,
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
    """The replicate loop through Dataset and fit_pcr, on jumped Philox streams.

    Replicate r's errors are row r mod 64 of the 64 x n block drawn from the
    stream ``Philox(key=seed).jumped(r // 64)``.
    """
    mu = cfg.x @ cfg.beta_true
    sd = math.sqrt(cfg.sigma2_true)
    errors = [jumped_rng(cfg.seed, r // 64).standard_normal((64, cfg.n))[r % 64]
              for r in range(cfg.replicates)]
    fits = [fit_pcr(Dataset(y=mu + sd * e, x=cfg.x), cfg.d) for e in errors]
    # One row per quantity, each row contiguous: numpy sums a strided view
    # in another order.
    draws = np.array([[fit.rss_d for fit in fits], *zip(*(fit.beta_d for fit in fits))])
    mean, cov = np.mean(draws, axis=1), np.cov(draws, ddof=1)
    mcse = np.sqrt(np.diag(cov)) / math.sqrt(cfg.replicates)
    dof = cfg.n - cfg.d
    return {
        "mean_beta_d": mean[1:],
        "empirical_cov_beta_d": cov[1:, 1:],
        "mean_sigma2_d": float(mean[0]) / dof,
        "mean_rss_d": float(mean[0]),
        "mcse_sigma2_d": float(mcse[0]) / dof,
        "mcse_rss_d": float(mcse[0]),
        "mcse_beta_d": mcse[1:],
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
        # Full blocks and a partial last one.  R = 300 at n = 150 is 64-row
        # blocks, one per stream block, and a last one of 44 replicates; at
        # n = 1000 the fit blocks hold 16 rows, four to a stream block, so the
        # second stream block is drawn in pieces and ends in a 4-row block.
        rows = fit_block_rows(cfg.n)
        assert rows < cfg.replicates and cfg.replicates % rows
        res, ref = run_simulation(cfg), reference_aggregates(cfg)
        for name, expected in ref.items():
            got = np.asarray(getattr(res, name), dtype=float)
            assert got.tobytes() == np.asarray(expected, dtype=float).tobytes(), name

    @pytest.mark.parametrize("n", [20, 150, 1000])
    def test_replicate_drawn_alone_is_its_row_in_a_full_run(self, n, monkeypatch):
        cfg = config(x=design(n, n, 3), beta_true=np.array([1.0, -0.5, 2.0]), sigma2_true=2.0,
                     replicates=150, seed=2**64 + n)
        responses = []
        fit = montecarlo.component_fit

        def recording_fit(f, y, *args):
            responses.append(y.copy())
            return fit(f, y, *args)

        monkeypatch.setattr(montecarlo, "component_fit", recording_fit)
        run_simulation(cfg)
        responses = np.concatenate(responses)
        assert responses.shape == (cfg.replicates, n)
        mu, sd = cfg.x @ cfg.beta_true, math.sqrt(cfg.sigma2_true)
        for r in (0, 63, 64, cfg.replicates - 1):
            rng = _replicate_seeker(cfg.seed)(r // 64)
            rng.standard_normal((r % 64, n))  # the rows before r in its stream block
            alone = mu + sd * rng.standard_normal(n)
            assert alone.tobytes() == responses[r].tobytes(), r

    @pytest.mark.parametrize("n", [150, 1000])
    def test_aggregates_do_not_depend_on_the_fit_block_size(self, n, monkeypatch):
        cfg = config(x=design(n, n, 3), beta_true=np.array([1.0, -0.5, 2.0]), replicates=150,
                     seed=n)
        results = []
        for values in (2**10, 2**14, 2**20):
            monkeypatch.setattr(montecarlo, "BLOCK_VALUES", values)
            results.append(run_simulation(cfg))
        for field in fields(results[0]):
            if field.name == "config":
                continue
            first, *rest = (np.asarray(getattr(res, field.name)).tobytes() for res in results)
            assert all(other == first for other in rest), field.name


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
        claims = [row["claim"] for row in rows]
        assert claims.count("mean_rss_d (n-d dof)") == 1
        assert claims.count("mean_rss_d (n-p dof)") == 1
        assert sum(c.startswith("mean_beta_d[") for c in claims) == 4
        # covariance row needs >= 1000 replicates
        assert not any("Frobenius" in c for c in claims)

    def test_covariance_row_at_scale(self):
        res = run_simulation(config(replicates=1000))
        rows = theory_comparison(res)
        frob = [row for row in rows if "Frobenius" in row["claim"]]
        assert len(frob) == 1
        assert frob[0]["predicted"] == 0.0 and np.isnan(frob[0]["z"])

    def test_dof_variant_rows_are_recorded_not_asserted(self):
        res = run_simulation(config(replicates=200))
        roles = {row["claim"]: row["asserted"] for row in theory_comparison(res)}
        assert roles["mean_rss_d (n-d dof)"] is True
        assert roles["mean_rss_d (n-p dof)"] is False
        assert roles["bias_sigma2_d (n-p dof)"] is False
        # The covariance summary has no z, so it can never alert: it is recorded.
        res = run_simulation(config(replicates=COVARIANCE_MIN_REPLICATES))
        roles = {row["claim"]: row["asserted"] for row in theory_comparison(res)}
        assert roles["cov_beta_d relative Frobenius distance"] is False

    def test_adjudication_prefers_nd_dof(self):
        # truth placed on the omitted components so the two predictions
        # separate by sigma2 * (p - d); the trace-derived n-d form should win
        res = run_simulation(omitted_truth_config())
        nd, np_dof = _rss_rows(res)
        assert adjudicate_rss_dof(res) == {"winner": "n-d"}
        assert abs(nd["z"]) <= 4.0
        assert abs(np_dof["z"]) > 4.0

    def test_slope_covariance_with_truth_on_the_omitted_components(self):
        # beta_d = V_d S_d^-1 U_d^T y has covariance sigma2 V_d S_d^-2 V_d^T in a
        # fixed design, whatever the truth puts on the omitted components; the
        # expected plug-in variance sigma2_d,pop (here 1.5 sigma2) is not it.
        res = run_simulation(omitted_truth_config())
        frob = [row for row in theory_comparison(res) if "Frobenius" in row["claim"]]
        assert len(frob) == 1 and frob[0]["observed"] <= 0.10


def omitted_truth_config():
    """A run whose truth lies on the omitted components: sigma2_d,pop = 1.5 sigma2."""
    x = design(9, 100, 5)
    f = svd_thin(x)
    coeff = np.sqrt(50.0 / 3.0) / f.sigma[2:]
    return config(x=x, beta_true=f.v[:, 2:] @ coeff, d=2, replicates=2000, seed=33)


class TestZFloor:
    """Signal far above the noise: every asserted z stays within the alert
    threshold because each z floor bounds its own rounding."""

    @staticmethod
    def worst_z(col0, scale):
        x = np.random.default_rng(0).standard_normal((40, 3))
        x[:, 0] *= col0
        beta = np.array([1.0, -0.5, 2.0]) * scale
        res = run_simulation(config(x=x, beta_true=beta, sigma2_true=1e-18, d=2,
                                    replicates=200, seed=1))
        return max(abs(row["z"]) for row in theory_comparison(res) if row["asserted"])

    def test_rss_floor_scales_with_the_squared_mean(self):
        # (n + R) eps |mu|^2: a floor of (n + R) eps |mu| reads |z| in the thousands.
        assert self.worst_z(1.0, 1e8) <= 4.0

    def test_slope_floor_divides_by_the_last_retained_singular_value(self):
        # With column 0 at 1e4, s_1 / s_d is about 1e4; dividing by s_1
        # makes the mean_beta_d floors too small by that factor.
        assert self.worst_z(1e4, 1e4) <= 4.0
