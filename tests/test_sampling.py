import math
import re

import numpy as np
import pytest

from pnpkit import (
    DenseOp,
    DiagonalOp,
    DivergenceError,
    GmmPrior,
    Rng,
    UlaConfig,
    effective_sample_size,
    gaussian_posterior_oracle,
    identity_op,
    load_signal,
    make_blur,
    mmse_gmm_denoiser,
    run_pnp_ula,
    run_red_gd,
    sample_stats,
    save_signal,
    tikhonov_solve,
    write_stats_csv,
)
from pnpkit.core import as_array, diverged
from pnpkit.sampling import NOISE_BLOCK_BYTES, SampleStats
from pnpkit.solvers import SolverConfig


def standard_prior(n, gamma=1.0):
    return GmmPrior([1.0], [np.zeros(n)], [gamma**2])


def frozen_effective_sample_size(x):
    """effective_sample_size with its initial-positive-sequence cut as a loop."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    if n < 2:
        return float(n)
    centered = x - x.mean()
    if not np.any(centered):
        return float(n)
    m = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, m)
    acov = np.fft.irfft(spec * np.conj(spec), m)[:n].real
    acov /= acov[0]
    tau = 1.0
    for t in range(1, n):
        if acov[t] < 0.0:
            break
        tau += 2.0 * acov[t]
    return float(n / max(tau, 1.0))


def frozen_run_pnp_ula(op, y, denoiser, cfg, x0=None):
    """run_pnp_ula with a fresh array for every term of every step, and its stats."""
    y_arr = op._data(y)
    rng = Rng(cfg.seed)
    kty = op._adjoint(y_arr)
    x = kty.copy() if x0 is None else as_array(x0).copy()
    n = x.size
    shape = x.shape
    inv_s2 = 1.0 / (cfg.sigma * cfg.sigma)
    inv_w2 = 1.0 / (cfg.sigma_w * cfg.sigma_w)
    noise_std = math.sqrt(2.0 * cfg.delta) * cfg.noise_scale
    total_steps = cfg.burn_in + cfg.kept * cfg.thin
    samples = np.empty((cfg.kept, n))
    block = max(1, NOISE_BLOCK_BYTES // (8 * n))
    noise = None
    with np.errstate(over="ignore"):
        stability = cfg.delta * (inv_s2 + float(np.float64(op.spectral_norm) ** 2) * inv_w2)
        for k in range(1, total_steps + 1):
            drift = inv_s2 * (denoiser.apply(x, cfg.sigma) - x)
            drift += inv_w2 * (kty - op.normal(x))
            x = x + cfg.delta * drift
            if noise_std != 0.0:
                i = (k - 1) % block
                if i == 0:
                    draws = min(block, total_steps - k + 1)
                    noise = noise_std * rng.standard_normal((draws, *shape))
                x = x + noise[i]
            assert not diverged(x)
            if k > cfg.burn_in and (k - cfg.burn_in) % cfg.thin == 0:
                samples[(k - cfg.burn_in) // cfg.thin - 1] = x.reshape(-1)
    ess = np.array([frozen_effective_sample_size(samples[:, j]) for j in range(n)])
    stats = SampleStats(mean=samples.mean(axis=0), variance=samples.var(axis=0, ddof=1),
                        coordinate_ess=ess, count=cfg.kept, stability=stability)
    return stats, samples


def criterion_9_model():
    """The diagonal n = 16 model of acceptance criterion 9 and its J = 1 prior."""
    n = 16
    diag = np.linspace(1.0, 2.0, n)
    rng = Rng(900)
    y = diag * rng.child(1).standard_normal(n) + 0.5 * rng.child(2).standard_normal(n)
    return DiagonalOp(diag), y, standard_prior(n)


def three_component_model():
    op, y, _ = criterion_9_model()
    means = [np.zeros(16), np.linspace(-1.0, 1.0, 16), np.full(16, 0.5)]
    return op, y, GmmPrior([0.2, 0.5, 0.3], means, [0.5, 1.0, 0.3])


def circulant_blur_model():
    op = make_blur(np.full((3, 3), 1.0 / 9.0), (8, 8))
    y = op.apply(Rng(4).standard_normal((8, 8))) + 0.5 * Rng(5).standard_normal((8, 8))
    return op, y, standard_prior(64)


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

    @pytest.mark.parametrize("key,value", [("delta", np.nan), ("sigma", np.nan),
                                           ("noise_scale", np.nan), ("sigma_w", np.inf)])
    def test_rejects_non_finite_numbers(self, key, value):
        params = {"delta": 1e-3, "sigma": 0.5, "sigma_w": 1.0, key: value}
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            UlaConfig(**params)

    @pytest.mark.parametrize("key,value,square", [("sigma", 1e-300, "0.0"),
                                                  ("sigma_w", 1e-300, "0.0"),
                                                  ("sigma", 1e200, "inf"),
                                                  ("sigma_w", 1e200, "inf")])
    def test_rejects_a_square_that_is_zero_or_not_finite(self, key, value, square):
        # the chain divides by sigma^2 and sigma_w^2: rejected before the first step
        params = {"delta": 1e-3, "sigma": 0.5, "sigma_w": 1.0, key: value}
        message = f"{key}*{key} must be finite and positive; {key} = {value!r} gives {square}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            UlaConfig(**params)

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
        op = DiagonalOp(np.zeros(4))
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
            red_cfg = SolverConfig(step=delta, max_iter=iters, tol=0.0)
            x_red, _ = run_red_gd(op, y, den, lam=1.0, sigma=sigma, cfg=red_cfg,
                                  x0=np.zeros(n))
            np.testing.assert_allclose(row, x_red, atol=1e-12)

    def test_matches_a_per_step_draw_loop(self):
        # n = 64 gives noise blocks of 128 steps; 150 + 50*3 = 300 steps is no multiple
        n = 64
        rng = Rng(8)
        op = DenseOp(np.eye(n) + 0.1 * rng.standard_normal((n, n)))
        y = rng.standard_normal(n)
        den = mmse_gmm_denoiser(GmmPrior([0.3, 0.7], [np.zeros(n), np.ones(n)], [0.5, 1.0]))
        cfg = UlaConfig(delta=2e-3, sigma=0.4, sigma_w=0.8, kept=50, burn_in=150, thin=3,
                        seed=9)
        stats, samples = run_pnp_ula(op, y, den, cfg)

        draws = Rng(cfg.seed)
        x = op.adjoint(y)
        expected = []
        for k in range(1, cfg.burn_in + cfg.kept * cfg.thin + 1):
            drift = (den.apply(x, cfg.sigma) - x) / cfg.sigma**2
            drift += op.adjoint(y - op.apply(x)) / cfg.sigma_w**2
            x = x + cfg.delta * drift + np.sqrt(2 * cfg.delta) * draws.standard_normal(n)
            if k > cfg.burn_in and (k - cfg.burn_in) % cfg.thin == 0:
                expected.append(x)
        np.testing.assert_allclose(samples, np.array(expected), rtol=0, atol=1e-12)
        assert stats.count == cfg.kept

    def test_non_finite_denoiser_output_reports_its_step(self):
        from pnpkit.denoisers import Denoiser

        calls = []

        def fn(arr, sigma):
            calls.append(1)
            return np.full_like(arr, np.nan) if len(calls) == 7 else 0.5 * arr

        cfg = UlaConfig(delta=1e-2, sigma=0.5, sigma_w=1.0, kept=10, burn_in=10, seed=0)
        with pytest.raises(DivergenceError) as exc:
            run_pnp_ula(identity_op((3,)), np.ones(3), Denoiser(fn, tag="nan@7"), cfg)
        assert exc.value.step == 7

    def test_divergence_raises_with_step(self):
        # an expansive "denoiser" plus a huge step blows the chain up
        from pnpkit.denoisers import Denoiser

        bad = Denoiser(lambda arr, s: 3.0 * arr, tag="expander")
        op = DiagonalOp(np.zeros(3))
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


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestChainBitForBit:
    """run_pnp_ula's in-place step against the loop of fresh arrays it replaced."""

    @pytest.mark.parametrize("model,ula,x0", [
        (criterion_9_model, dict(delta=1e-3, sigma=0.3, sigma_w=0.5, kept=2000,
                                 burn_in=1000, thin=3, seed=17), None),
        (three_component_model, dict(delta=2e-3, sigma=0.4, sigma_w=0.5, kept=300,
                                     burn_in=200, thin=2, seed=5), None),
        (circulant_blur_model, dict(delta=1e-3, sigma=0.3, sigma_w=0.5, kept=200,
                                    burn_in=100, thin=4, seed=2), np.full((8, 8), 0.3)),
        (criterion_9_model, dict(delta=1e-2, sigma=0.3, sigma_w=0.5, kept=50,
                                 burn_in=10, thin=2, seed=2, noise_scale=0.0), np.ones(16)),
    ], ids=["criterion-9-diagonal", "gmm-3-components", "circulant-8x8-x0",
            "noise-scale-0-x0"])
    def test_samples_and_stats_match_the_fresh_array_loop(self, model, ula, x0):
        op, y, prior = model()
        den = mmse_gmm_denoiser(prior)
        cfg = UlaConfig(**ula)
        stats, samples = run_pnp_ula(op, y, den, cfg, x0=x0)
        expected_stats, expected = frozen_run_pnp_ula(op, y, den, cfg, x0=x0)
        assert samples.shape == (cfg.kept, op.in_size)
        assert same_bits(samples, expected)
        for field in ("mean", "variance", "coordinate_ess", "stability"):
            assert same_bits(getattr(stats, field), getattr(expected_stats, field)), field
        assert stats.count == expected_stats.count

    def test_unallocatable_samples_raise_value_error_before_a_step(self):
        from pnpkit.denoisers import Denoiser

        def refuse(arr, sigma):
            raise AssertionError("the chain took a step")

        # 10^15 x 3 float64 entries are more than a 64-bit address space holds
        cfg = UlaConfig(delta=1e-3, sigma=0.5, sigma_w=1.0, kept=10**15)
        with pytest.raises(ValueError, match="kept = 1000000000000000 samples"):
            run_pnp_ula(identity_op((3,)), np.zeros(3), Denoiser(refuse, tag="refuse"), cfg)


def ar1_chain(rho, n, seed):
    noise = Rng(seed).standard_normal(n)
    chain = np.empty(n)
    chain[0] = noise[0]
    for i in range(1, n):
        chain[i] = rho * chain[i - 1] + noise[i]
    return chain


class TestEffectiveSampleSizeCut:
    """The vectorised initial-positive-sequence cut against the loop it replaced."""

    @pytest.mark.parametrize("chain", [np.zeros(0), np.array([2.5]), np.full(40, 0.7)],
                             ids=["empty", "one-sample", "constant"])
    def test_short_and_constant_chains(self, chain):
        assert same_bits(effective_sample_size(chain), frozen_effective_sample_size(chain))
        assert effective_sample_size(chain) == float(chain.size)

    def test_a_chain_with_no_negative_lag(self):
        # a centred chain's lags sum to -acov[0]/2, so only a NaN keeps every lag
        # from being negative; the sum then runs to the last lag
        chain = ar1_chain(0.5, 64, 1)
        chain[10] = np.nan
        assert np.isnan(effective_sample_size(chain))
        assert same_bits(effective_sample_size(chain), frozen_effective_sample_size(chain))

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.6, 0.9, 0.99, 0.999])
    def test_ar1_chains(self, rho):
        for n in (2, 17, 2000):
            chain = ar1_chain(rho, n, seed=n)
            assert same_bits(effective_sample_size(chain), frozen_effective_sample_size(chain))


class TestGaussianPosteriorOracle:
    def test_scalar_example(self):
        # K = I, gamma = sigma = sigma_w = 1, y = 1: precision 1.5, mean 2/3
        oracle = gaussian_posterior_oracle(identity_op((1,)), np.array([1.0]),
                                           1.0, 1.0, 1.0)
        assert oracle.variance[0] == pytest.approx(1.0 / 1.5, abs=1e-14)
        assert oracle.mean[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_zero_operator_returns_smoothed_prior(self):
        oracle = gaussian_posterior_oracle(DiagonalOp(np.zeros(3)), np.zeros(3), 1.0, 0.5, 1.0)
        np.testing.assert_allclose(oracle.mean, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(oracle.variance, np.full(3, 1.25), atol=1e-12)

    def test_small_noise_limit_returns_measurement(self):
        y = np.array([0.3, -0.7])
        oracle = gaussian_posterior_oracle(identity_op((2,)), y, 1.0, 0.2, 1e-6)
        np.testing.assert_allclose(oracle.mean, y, atol=1e-9)

    def test_circulant_blur_past_the_old_n_256_cap(self, rng):
        # 64^2 = 4096 unknowns: the mean is the ridge solution at sigma_w^2/(gamma^2 + sigma^2)
        gamma, sigma, sigma_w = 1.0, 0.3, 0.5
        op = make_blur(np.full((9, 9), 1.0 / 81.0), (64, 64))
        y = rng.standard_normal((64, 64))
        oracle = gaussian_posterior_oracle(op, y, gamma, sigma, sigma_w)
        ridge = tikhonov_solve(op, y, sigma_w**2 / (gamma**2 + sigma**2)).reshape(-1)
        assert np.max(np.abs(oracle.mean - ridge)) <= 1e-12 * np.max(np.abs(ridge))
        # every marginal variance is the mean of g over the full FFT grid
        kernel = np.zeros((64, 64))
        kernel[:9, :9] = 1.0 / 81.0
        gram = np.abs(np.fft.fft2(kernel)) ** 2
        expected = np.mean(1.0 / (gram / sigma_w**2 + 1.0 / (gamma**2 + sigma**2)))
        np.testing.assert_allclose(oracle.variance, np.full(4096, expected), rtol=1e-12)

    def test_one_dense_svd_per_call(self, rng, monkeypatch):
        matrix = rng.standard_normal((20, 20))
        y = rng.standard_normal(20)
        svd, calls = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        oracle = gaussian_posterior_oracle(DenseOp(matrix), y, 1.0, 0.3, 0.5)
        assert calls == [(20, 20)]
        precision = matrix.T @ matrix / 0.25 + np.eye(20) / 1.09
        cov = np.linalg.inv(precision)
        np.testing.assert_allclose(oracle.mean, cov @ matrix.T @ y / 0.25, rtol=1e-10)
        np.testing.assert_allclose(oracle.variance, np.diag(cov), rtol=1e-12)
        assert oracle.condition_number == pytest.approx(np.linalg.cond(precision), rel=1e-12)

    def test_condition_number_reported(self):
        oracle = gaussian_posterior_oracle(DiagonalOp(np.array([3.0, 0.5])),
                                           np.zeros(2), 1.0, 0.0, 1.0)
        assert oracle.condition_number > 1.0


class TestSampleStats:
    def test_keeps_the_per_coordinate_ess(self, rng):
        samples = rng.standard_normal((300, 3))
        stats = sample_stats(samples)
        expected = [effective_sample_size(samples[:, j]) for j in range(3)]
        np.testing.assert_array_equal(stats.coordinate_ess, expected)
        assert stats.ess == float(np.mean(expected))

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
        save_signal(samples, path)
        back = load_signal(path)
        assert back.shape == (10, 4)
        np.testing.assert_array_equal(back, samples)

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
