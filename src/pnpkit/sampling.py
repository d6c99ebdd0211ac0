"""Langevin posterior sampling with a denoiser-supplied prior score.

The sampler discretizes the overdamped Langevin diffusion targeting the
posterior of a linear-Gaussian measurement model, with the prior score
replaced by the denoiser residual (D(x) - x) / sigma^2.  When the prior is
a single zero-mean Gaussian the smoothed posterior is Gaussian too, and
:func:`gaussian_posterior_oracle` provides its exact mean and marginal
variances for end-to-end verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, Rng, as_array, diverged
from .denoisers import Denoiser
from .operators import LinearOp

NOISE_BLOCK_BYTES = 1 << 16


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
        for name in ("delta", "sigma", "sigma_w", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.sigma_w <= 0:
            raise ValueError("sigma_w must be positive")
        for name in ("sigma", "sigma_w"):  # the chain divides by their squares
            value = getattr(self, name)
            if not 0.0 < value * value < math.inf:
                raise ValueError(f"{name}*{name} must be finite and positive; {name} = "
                                 f"{value!r} gives {value * value!r}")
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
    """Per-coordinate posterior summaries and autocorrelation ESS.

    ``ess`` pools ``coordinate_ess`` by its mean.  ``stability`` records the
    linearized step-size heuristic delta * (1/sigma^2 + ||K||^2/sigma_w^2),
    which should stay below 2.
    """

    mean: np.ndarray
    variance: np.ndarray
    coordinate_ess: np.ndarray
    count: int
    stability: float | None = None

    @property
    def ess(self) -> float:
        return float(np.mean(self.coordinate_ess))


def run_pnp_ula(op: LinearOp, y, denoiser: Denoiser, cfg: UlaConfig, x0=None):
    """Plug-and-play unadjusted Langevin sampler.

        x_{k+1} = x_k + delta * [ (D_sigma(x_k) - x_k)/sigma^2
                                  + K^T(y - K x_k)/sigma_w^2 ]
                  + sqrt(2*delta) * eps_k,     eps_k ~ N(0, I)

    The sqrt(2*delta) noise scale is the standard overdamped-Langevin
    discretization, which makes the chain's stationary law match the
    smoothed posterior up to O(delta) bias.  Deterministic given the seed.
    K^T y is computed once, so the data drift is K^T y - K^T K x_k.  The
    increments eps_k are drawn in blocks of at most NOISE_BLOCK_BYTES from
    the one seeded stream, which gives the same eps_k as one draw per step.
    The state, the drift and the data term are allocated once and updated
    in place, so the denoiser must not keep its input from one call to the
    next.  Returns (SampleStats, samples) where samples is a (kept, n) array
    of the thinned kept states; raises DivergenceError (with the step index)
    if the chain blows up or the denoiser output is non-finite, and
    ValueError if the samples cannot be allocated.
    """
    y_arr = op._data(y)
    rng = Rng(cfg.seed)
    kty = op._adjoint(y_arr)
    x = kty.copy() if x0 is None else as_array(x0).copy()
    shape = x.shape
    samples = _sample_buffer(cfg.kept, x.size)
    drift = np.empty_like(x)
    data = np.empty_like(x)
    sigma, delta = cfg.sigma, cfg.delta
    inv_s2 = 1.0 / (sigma * sigma)
    inv_w2 = 1.0 / (cfg.sigma_w * cfg.sigma_w)
    noise_std = math.sqrt(2.0 * delta) * cfg.noise_scale

    total_steps = cfg.burn_in + cfg.kept * cfg.thin
    # a (B, n) draw is the same stream as B successive (n,) draws
    block = max(1, NOISE_BLOCK_BYTES // (8 * x.size))
    noise = None
    apply_d, normal = denoiser.apply, op.normal
    # an overflowing ||K||^2 or state norm is inf, and the chain then diverges
    with np.errstate(over="ignore"):
        stability = delta * (inv_s2 + float(np.float64(op.spectral_norm) ** 2) * inv_w2)
        for k in range(1, total_steps + 1):
            try:
                np.subtract(apply_d(x, sigma), x, out=drift)
            except DivergenceError as exc:
                exc.step = k
                raise
            drift *= inv_s2
            np.subtract(kty, normal(x), out=data)
            data *= inv_w2
            drift += data
            drift *= delta
            x += drift
            if noise_std != 0.0:
                i = (k - 1) % block
                if i == 0:
                    noise = rng.standard_normal((min(block, total_steps - k + 1), *shape))
                    noise *= noise_std
                x += noise[i]
            if diverged(x):
                raise DivergenceError(f"PnP-ULA chain diverged at step {k}", step=k)
            if k > cfg.burn_in and (k - cfg.burn_in) % cfg.thin == 0:
                samples[(k - cfg.burn_in) // cfg.thin - 1] = x.reshape(-1)
    stats = sample_stats(samples, stability=stability)
    return stats, samples


def _sample_buffer(kept: int, n: int) -> np.ndarray:
    """An empty (kept, n) float64 array; ValueError naming ``kept`` if it cannot be had."""
    try:
        return np.empty((kept, n))
    except (MemoryError, ValueError):
        raise ValueError(f"kept = {kept} samples of {n} entries cannot be allocated "
                         f"({8 * kept * n:.3g} bytes)") from None


@dataclass(frozen=True)
class PosteriorOracle:
    mean: np.ndarray
    variance: np.ndarray
    condition_number: float


def gaussian_posterior_oracle(op: LinearOp, y, gamma: float, sigma: float,
                              sigma_w: float) -> PosteriorOracle:
    """Exact posterior for a Gaussian likelihood and smoothed Gaussian prior.

    Prior N(0, (gamma^2 + sigma^2) I), likelihood exp(-||y - Kx||^2 / (2 sigma_w^2)):
    the posterior is Gaussian with covariance g(K^T K), g(t) = 1/(t/sigma_w^2 + 1/(gamma^2
    + sigma^2)), and mean g(K^T K) K^T y / sigma_w^2; the precision is 1/g.
    """
    if gamma <= 0 or sigma < 0 or sigma_w <= 0:
        raise ValueError("gamma and sigma_w must be positive, sigma nonnegative")
    w2, prior_var = sigma_w * sigma_w, gamma * gamma + sigma * sigma

    def precision(t):
        return t / w2 + 1.0 / prior_var

    def g(t):
        return 1.0 / precision(t)

    mean = op.adjoint_filter(g, op._data(y)).reshape(-1) / w2
    spectrum, _ = op.gram_spectrum(precision)
    _, variance = op.gram_spectrum(g)
    return PosteriorOracle(mean, variance.reshape(-1), float(np.max(spectrum) / np.min(spectrum)))


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
    # the sum runs up to the first negative lag; cumsum adds left to right, like a loop
    negative = acov[1:] < 0.0
    stop = int(np.argmax(negative)) + 1 if negative.any() else n
    tau = np.cumsum(np.concatenate(([1.0], 2.0 * acov[1:stop])))[-1]
    return float(n / max(tau, 1.0))


def sample_stats(samples: np.ndarray, stability: float | None = None) -> SampleStats:
    """Per-coordinate mean, unbiased variance and autocorrelation ESS.

    The mean and variance are numpy reductions over the sample axis (the
    variance with ddof=1).  The pooled ``ess`` is the mean of the
    per-coordinate estimates.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    count, n = samples.shape
    if count < 2:
        raise ValueError("need at least 2 samples")
    coordinate_ess = np.array([effective_sample_size(samples[:, j]) for j in range(n)])
    return SampleStats(mean=samples.mean(axis=0), variance=samples.var(axis=0, ddof=1),
                       coordinate_ess=coordinate_ess, count=count, stability=stability)


def write_stats_csv(stats: SampleStats, path) -> None:
    """Write per-coordinate stats as CSV with columns coordinate,mean,variance."""
    lines = ["coordinate,mean,variance"]
    for j in range(stats.mean.size):
        lines.append(f"{j},{float(stats.mean[j])!r},{float(stats.variance[j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
