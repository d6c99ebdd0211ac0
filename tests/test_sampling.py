import numpy as np
import pytest

from pnpkit import (
    DiagonalOp,
    DivergenceError,
    GmmPrior,
    Rng,
    UlaConfig,
    effective_sample_size,
    gaussian_posterior_oracle,
    identity_op,
    load_signal,
    mmse_gmm_denoiser,
    run_pnp_ula,
    run_red_gd,
    sample_stats,
    write_samples,
    write_stats_csv,
    zero_op,
)
from pnpkit.solvers import SolverConfig


def standard_prior(n, gamma=1.0):
    return GmmPrior([1.0], [np.zeros(n)], [gamma**2])


class TestUlaConfig:
    def test_burn_in_defaults_to_kept(self):
        cfg = UlaConfig(delta=1e-3, sigma=0.5, sigma_w=1.0, kept=123)
        assert cfg.burn_in == 123

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            UlaConfig(delta=0.0, sigma=0.5, sigma_w=1.0)
        with pytest.raises(ValueError):
            UlaConfig(delta=1e-3, sigma=-1.0, sigma_w=1.0)
        with pytest.raises(ValueError):
            UlaConfig(delta=1e-3, sigma=0.5, sigma_w=1.0, kept=0)

    def test_rejects_a_single_kept_sample(self):
        # the sample statistics need two samples, so the chain could never finish
        with pytest.raises(ValueError, match="kept must be >= 2"):
            UlaConfig(delta=1e-3, sigma=0.5, sigma_w=1.0, kept=1)


class TestRunPnpUla:
    def test_deterministic_given_seed(self):
        prior = standard_prior(3)
        den = mmse_gmm_denoiser(prior)
        op = identity_op((3,))
        y = np.array([0.5, -0.2, 0.1])
        cfg = UlaConfig(delta=1e-2, sigma=0.5, sigma_w=1.0, kept=200, seed=42)
        _, s1 = run_pnp_ula(op, y, den, cfg)
        _, s2 = run_pnp_ula(op, y, den, cfg)
        np.testing.assert_array_equal(s1, s2)

    def test_prior_only_stationary_law(self):
        # K = 0: the chain targets the smoothed prior N(0, gamma^2 + sigma^2)
        gamma, sigma = 1.0, 0.5
        prior = standard_prior(4, gamma)
        den = mmse_gmm_denoiser(prior)
        op = zero_op((4,))
        cfg = UlaConfig(delta=2e-2, sigma=sigma, sigma_w=1.0, kept=60000,
                        burn_in=5000, seed=3)
        stats, _ = run_pnp_ula(op, np.zeros(4), den, cfg)
        target = gamma**2 + sigma**2
        assert np.all(np.abs(stats.variance / target - 1.0) <= 0.10)
        se = np.sqrt(stats.variance / stats.ess)
        assert np.all(np.abs(stats.mean) <= 4.0 * se)

    def test_zero_noise_drift_matches_red_gd_recursion(self):
        # noise_scale = 0, sigma_w = 1, lam = 1: the ULA drift is exactly the
        # gradient-descent RED update with eta = delta
        rng = Rng(11)
        n = 6
        op = DiagonalOp(rng.uniform(0.5, 1.5, n))
        y = rng.standard_normal(n)
        prior = standard_prior(n, gamma=0.8)
        den = mmse_gmm_denoiser(prior)
        sigma, delta = 0.4, 0.05
        cfg = UlaConfig(delta=delta, sigma=sigma, sigma_w=1.0, kept=2,
                        burn_in=30, thin=1, seed=0, noise_scale=0.0)
        _, samples = run_pnp_ula(op, y, den, cfg, x0=np.zeros(n))

        for row, iters in zip(samples, (31, 32)):
            red_cfg = SolverConfig(max_iter=iters, tol=0.0)
            x_red, _ = run_red_gd(op, y, den, lam=1.0, sigma=sigma, eta=delta,
                                  cfg=red_cfg, x0=np.zeros(n))
            np.testing.assert_allclose(row, x_red.to_array(), atol=1e-12)

    def test_divergence_raises_with_step(self):
        # an expansive "denoiser" plus a huge step blows the chain up
        from pnpkit.denoisers import Denoiser

        bad = Denoiser(lambda arr, s: 3.0 * arr, tag="expander")
        op = zero_op((3,))
        cfg = UlaConfig(delta=5.0, sigma=0.1, sigma_w=1.0, kept=10, burn_in=10, seed=0)
        with pytest.raises(DivergenceError) as exc:
            run_pnp_ula(op, np.zeros(3), bad, cfg, x0=np.ones(3))
        assert exc.value.step is not None and exc.value.step >= 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_operator_norm_diverges(self):
        den = mmse_gmm_denoiser(standard_prior(3))
        cfg = UlaConfig(delta=1e-2, sigma=0.5, sigma_w=1.0, kept=10, seed=0)
        with pytest.raises(DivergenceError):
            run_pnp_ula(DiagonalOp([1e200, 1.0, 1.0]), np.ones(3), den, cfg, x0=np.zeros(3))

    def test_stability_heuristic_recorded(self):
        prior = standard_prior(2)
        den = mmse_gmm_denoiser(prior)
        op = identity_op((2,))
        cfg = UlaConfig(delta=1e-2, sigma=0.5, sigma_w=2.0, kept=50, burn_in=10, seed=0)
        stats, _ = run_pnp_ula(op, np.zeros(2), den, cfg)
        expected = 1e-2 * (1.0 / 0.25 + 1.0 / 4.0)
        assert stats.stability == pytest.approx(expected, rel=1e-12)


class TestGaussianPosteriorOracle:
    def test_scalar_example(self):
        # K = I, gamma = sigma = sigma_w = 1, y = 1: precision 1.5, mean 2/3
        oracle = gaussian_posterior_oracle(identity_op((1,)), np.array([1.0]),
                                           1.0, 1.0, 1.0)
        assert oracle.covariance[0, 0] == pytest.approx(1.0 / 1.5, abs=1e-14)
        assert oracle.mean[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_zero_operator_returns_smoothed_prior(self):
        oracle = gaussian_posterior_oracle(zero_op((3,)), np.zeros(3), 1.0, 0.5, 1.0)
        np.testing.assert_allclose(oracle.mean, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(oracle.covariance, 1.25 * np.eye(3), atol=1e-12)

    def test_small_noise_limit_returns_measurement(self):
        y = np.array([0.3, -0.7])
        oracle = gaussian_posterior_oracle(identity_op((2,)), y, 1.0, 0.2, 1e-6)
        np.testing.assert_allclose(oracle.mean, y, atol=1e-9)

    def test_condition_number_reported(self):
        oracle = gaussian_posterior_oracle(DiagonalOp(np.array([3.0, 0.5])),
                                           np.zeros(2), 1.0, 0.0, 1.0)
        assert oracle.condition_number > 1.0


class TestSampleStats:
    def test_constant_stream_zero_variance(self):
        samples = np.ones((50, 3))
        stats = sample_stats(samples)
        np.testing.assert_allclose(stats.variance, np.zeros(3), atol=1e-15)
        assert stats.count == 50

    def test_two_points_mean(self):
        stats = sample_stats(np.array([[1.0, 4.0], [3.0, 0.0]]))
        np.testing.assert_allclose(stats.mean, [2.0, 2.0], atol=1e-15)

    def test_welford_matches_numpy(self, rng):
        samples = rng.standard_normal((500, 4))
        stats = sample_stats(samples)
        np.testing.assert_allclose(stats.mean, samples.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(stats.variance, samples.var(axis=0, ddof=1),
                                   atol=1e-12)

    def test_iid_ess_near_count(self, rng):
        samples = rng.standard_normal((4000, 2))
        stats = sample_stats(samples)
        assert abs(stats.ess - 4000) / 4000 <= 0.20

    def test_ess_detects_correlation(self, rng):
        noise = rng.standard_normal(4000)
        chain = np.empty(4000)
        chain[0] = 0.0
        for i in range(1, 4000):
            chain[i] = 0.95 * chain[i - 1] + noise[i]
        assert effective_sample_size(chain) < 800

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sample_stats(np.ones((1, 2)))


class TestSampleIo:
    def test_samples_roundtrip(self, tmp_path, rng):
        samples = rng.standard_normal((10, 4))
        path = tmp_path / "samples.raw"
        write_samples(samples, path)
        back = load_signal(path)
        assert back.shape == (10, 4)
        np.testing.assert_array_equal(back.to_array(), samples)

    def test_stats_csv_format(self, tmp_path, rng):
        stats = sample_stats(rng.standard_normal((20, 3)))
        path = tmp_path / "stats.csv"
        write_stats_csv(stats, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "coordinate,mean,variance"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(stats.mean[0])
