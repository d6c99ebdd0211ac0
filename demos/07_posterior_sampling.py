"""Posterior sampling with a denoiser in the drift.

The unadjusted Langevin chain

    x_{k+1} = x_k + delta * [ (D_sigma(x_k) - x_k)/sigma^2
                              + K^T(y - K x_k)/sigma_w^2 ]
              + sqrt(2 delta) * eps_k

targets the posterior whose prior score the denoiser supplies via
Tweedie's identity.  With a single-Gaussian prior the smoothed posterior
is exactly Gaussian, so the chain can be held against the true mean and
marginal variances; credible intervals then come for free from the samples.
"""

import numpy as np

from pnpkit import (
    DiagonalOp,
    GmmPrior,
    Rng,
    UlaConfig,
    effective_sample_size,
    gaussian_posterior_oracle,
    mmse_gmm_denoiser,
    run_pnp_ula,
)

n = 8
gamma, sigma, sigma_w, delta = 1.0, 0.3, 0.5, 2e-3
diag = np.linspace(1.0, 2.0, n)
op = DiagonalOp(diag)

rng = Rng(7)
x_true = gamma * rng.child(1).standard_normal(n)
y = diag * x_true + sigma_w * rng.child(2).standard_normal(n)

prior = GmmPrior([1.0], [np.zeros(n)], [gamma**2])
den = mmse_gmm_denoiser(prior)

cfg = UlaConfig(delta=delta, sigma=sigma, sigma_w=sigma_w, kept=50000,
                burn_in=10000, thin=4, seed=11)
stats, samples = run_pnp_ula(op, y, den, cfg)
oracle = gaussian_posterior_oracle(op, y, gamma, sigma, sigma_w)
oracle_var = oracle.variance

print(f"chain: {cfg.burn_in} burn-in + {cfg.kept * cfg.thin} steps, thinning {cfg.thin}, "
      f"stability heuristic {stats.stability:.3f} (< 2 required)")
print(f"pooled effective sample size: {stats.ess:.0f} of {stats.count} kept\n")

print(f"{'coord':>5} | {'oracle mean':>11} | {'chain mean':>10} | "
      f"{'oracle var':>10} | {'chain var':>9} | 90% interval")
for j in range(n):
    lo, hi = np.percentile(samples[:, j], [5.0, 95.0])
    print(f"{j:5d} | {oracle.mean[j]:11.4f} | {stats.mean[j]:10.4f} | "
          f"{oracle_var[j]:10.4f} | {stats.variance[j]:9.4f} | [{lo:+.3f}, {hi:+.3f}]")

gaps = np.abs(stats.mean - oracle.mean)
ess = np.array([effective_sample_size(samples[:, j]) for j in range(n)])
se = np.sqrt(oracle_var / ess)
print(f"\nmax |mean gap| = {gaps.max():.4f} vs 3*SE = {(3 * se).max():.4f}")
print(f"max variance relative error = {np.max(np.abs(stats.variance / oracle_var - 1)):.2%}")
print("\nwith a multimodal mixture prior the same chain explores both modes;")
print("only the exact-oracle comparison is specific to the Gaussian case.")
