"""Langevin posterior sampling with a denoiser-supplied prior score.

The sampler discretizes the overdamped Langevin diffusion targeting the
posterior of a linear-Gaussian measurement model, with the prior score
replaced by the denoiser residual (D(x) - x) / sigma^2.  When the prior is
a single zero-mean Gaussian the smoothed posterior is Gaussian too, and
:func:`gaussian_posterior_oracle` provides its exact mean and covariance
for end-to-end verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, Rng, Signal, as_array, diverged, save_signal
from .denoisers import Denoiser
from .operators import LinearOp, as_dense


@dataclass
class UlaConfig:
    """Unadjusted Langevin configuration.

    ``delta`` is the time step of the Euler-Maruyama discretization,
    ``sigma`` the denoiser noise level, ``sigma_w`` the measurement noise
    level.  Burn-in defaults to the kept-sample count.  ``noise_scale``
    rescales the stochastic term and exists so the deterministic drift can
    be tested in isolation (noise_scale = 0).
    """

    delta: float
    sigma: float
    sigma_w: float
    kept: int = 1000
    burn_in: int | None = None
    thin: int = 1
    seed: int = 0
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.sigma_w <= 0:
            raise ValueError("sigma_w must be positive")
        if self.kept < 2:
            raise ValueError("kept must be >= 2: the sample statistics need two samples")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.burn_in is None:
            self.burn_in = self.kept
        if self.burn_in < 1:
            raise ValueError("burn_in must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")


@dataclass
class SampleStats:
    """Per-coordinate posterior summaries plus a pooled ESS estimate.

    ``stability`` records the linearized step-size heuristic
    delta * (1/sigma^2 + ||K||^2/sigma_w^2), which should stay below 2.
    """

    mean: np.ndarray
    variance: np.ndarray
    ess: float
    count: int
    stability: float | None = None


def run_pnp_ula(op: LinearOp, y, denoiser: Denoiser, cfg: UlaConfig, x0=None):
    """Plug-and-play unadjusted Langevin sampler.

        x_{k+1} = x_k + delta * [ (D_sigma(x_k) - x_k)/sigma^2
                                  + K^T(y - K x_k)/sigma_w^2 ]
                  + sqrt(2*delta) * eps_k,     eps_k ~ N(0, I)

    The sqrt(2*delta) noise scale is the standard overdamped-Langevin
    discretization, which makes the chain's stationary law match the
    smoothed posterior up to O(delta) bias.  Deterministic given the seed.
    Returns (SampleStats, samples) where samples is a (kept, n) array of
    the thinned kept states; raises DivergenceError (with the step index)
    if the chain blows up.
    """
    y_arr = as_array(y)
    rng = Rng(cfg.seed)
    x = as_array(op._adjoint(y_arr)).copy() if x0 is None else as_array(x0).copy()
    n = x.size
    shape = x.shape
    inv_s2 = 1.0 / (cfg.sigma * cfg.sigma)
    inv_w2 = 1.0 / (cfg.sigma_w * cfg.sigma_w)
    noise_std = math.sqrt(2.0 * cfg.delta)

    total_steps = cfg.burn_in + cfg.kept * cfg.thin
    samples = np.empty((cfg.kept, n))
    kept = 0
    apply_d = denoiser.apply
    # an overflowing ||K||^2 or state norm is inf, and the chain then diverges
    with np.errstate(over="ignore"):
        stability = cfg.delta * (inv_s2 + float(np.float64(op.spectral_norm) ** 2) * inv_w2)
        for k in range(1, total_steps + 1):
            drift = inv_s2 * (as_array(apply_d(x, cfg.sigma)) - x)
            drift += inv_w2 * op._adjoint(y_arr - op._apply(x))
            x = x + cfg.delta * drift
            if cfg.noise_scale != 0.0:
                x = x + noise_std * cfg.noise_scale * rng.standard_normal(shape)
            if diverged(x):
                raise DivergenceError(f"PnP-ULA chain diverged at step {k}", step=k)
            if k > cfg.burn_in and (k - cfg.burn_in) % cfg.thin == 0:
                samples[kept] = x.reshape(-1)
                kept += 1
                if kept == cfg.kept:
                    break
    stats = sample_stats(samples, stability=stability)
    return stats, samples


@dataclass(frozen=True)
class PosteriorOracle:
    mean: np.ndarray
    covariance: np.ndarray
    condition_number: float


def gaussian_posterior_oracle(op: LinearOp, y, gamma: float, sigma: float,
                              sigma_w: float) -> PosteriorOracle:
    """Exact posterior for a Gaussian likelihood and smoothed Gaussian prior.

    Prior N(0, (gamma^2 + sigma^2) I), likelihood exp(-||y - Kx||^2 /
    (2 sigma_w^2)): the posterior is Gaussian with covariance
    C = (K^T K / sigma_w^2 + I/(gamma^2 + sigma^2))^{-1} and mean
    C K^T y / sigma_w^2.  Dense algebra, capped at n = 256.
    """
    if gamma <= 0 or sigma < 0 or sigma_w <= 0:
        raise ValueError("gamma and sigma_w must be positive, sigma nonnegative")
    n = op.in_size
    if n > 256:
        raise ValueError("gaussian_posterior_oracle capped at n = 256")
    k_mat = as_dense(op).matrix
    y_flat = as_array(y).reshape(-1)
    prior_var = gamma * gamma + sigma * sigma
    precision = k_mat.T @ k_mat / (sigma_w * sigma_w) + np.eye(n) / prior_var
    cov = np.linalg.inv(precision)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (k_mat.T @ y_flat) / (sigma_w * sigma_w)
    cond = float(np.linalg.cond(precision))
    return PosteriorOracle(mean=mean, covariance=cov, condition_number=cond)


def effective_sample_size(x: np.ndarray) -> float:
    """Autocorrelation-based ESS of a scalar chain.

    Uses the FFT autocovariance and truncates the sum of autocorrelations
    at the first negative lag (initial positive sequence).
    """
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


def sample_stats(samples: np.ndarray, stability: float | None = None) -> SampleStats:
    """One-pass (Welford) per-coordinate mean/variance plus a pooled ESS.

    The ESS is the mean of per-coordinate autocorrelation ESS estimates.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    count, n = samples.shape
    if count < 2:
        raise ValueError("need at least 2 samples")
    mean = np.zeros(n)
    m2 = np.zeros(n)
    for i in range(count):
        delta = samples[i] - mean
        mean += delta / (i + 1)
        m2 += delta * (samples[i] - mean)
    variance = m2 / (count - 1)
    ess = float(np.mean([effective_sample_size(samples[:, j]) for j in range(n)]))
    return SampleStats(mean=mean, variance=variance, ess=ess, count=count,
                       stability=stability)


def write_samples(samples: np.ndarray, path) -> None:
    """Stream kept samples to the raw float64 container, one row per sample."""
    samples = np.asarray(samples, dtype=np.float64)
    save_signal(Signal.from_array(samples), path)


def write_stats_csv(stats: SampleStats, path) -> None:
    """Write per-coordinate stats as CSV with columns coordinate,mean,variance."""
    lines = ["coordinate,mean,variance"]
    for j in range(stats.mean.size):
        lines.append(f"{j},{float(stats.mean[j])!r},{float(stats.variance[j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
