"""Denoisers and the diagnostics that gate convergence theorems.

Plugging a denoiser into a splitting scheme is only safe when the denoiser
has the right contraction/structure properties.  Three measurable
quantities decide which theorems apply:

* the Lipschitz constant of the residual map x - D(x), which gates the
  fidelity-first DRS fixed-point theorem through
  tau > eps / ((1 + eps - 2 eps^2) mu);
* Jacobian symmetry, without which no explicit regularizer can have
  gradient x - D(x) (so "the denoiser is a prox of something" fails);
* local homogeneity, the other hypothesis of that explicit-regularizer view.
"""

from pnpkit import (
    Rng,
    estimate_residual_lipschitz,
    gaussian_filter_denoiser,
    homogeneity_defect,
    jacobian_asymmetry,
    linear_spectral_denoiser,
    nlm_denoiser,
    tv_denoiser,
)

rng = Rng(1)
shape = (8, 8)
probe = rng.uniform(0.0, 1.0, shape)
sigma = 0.1

denoisers = [
    ("gaussian filter", gaussian_filter_denoiser(1.0, radius=2)),
    ("NLM", nlm_denoiser(patch_radius=1, window_radius=2, h=0.4)),
    ("TV", tv_denoiser(c=1.0, tol=1e-12)),
    ("spectral shrinkage", linear_spectral_denoiser(shape, 0.25)),
]

print(f"{'denoiser':>20} | {'eps_hat':>9} | {'asymmetry':>9} | {'homogeneity':>11}")
print("-" * 60)
for name, den in denoisers:
    eps = estimate_residual_lipschitz(den, sigma, shape, probes=1, rng=rng.child(1))
    asym = jacobian_asymmetry(den, probe, sigma)
    hom = homogeneity_defect(den, probe, sigma)
    print(f"{name:>20} | {eps:9.4f} | {asym:9.2e} | {hom:11.2e}")

print("""
Reading the table: the linear denoisers have symmetric Jacobians and zero
homogeneity defect (linearity implies homogeneity), so they admit an exact
variational interpretation.  NLM's normalization makes its Jacobian visibly
asymmetric: its residual is NOT the gradient of any regularizer.
""")

eps = linear_spectral_denoiser(shape, 0.25).residual_norm
mu = 1.0
tau_min = eps / ((1.0 + eps - 2.0 * eps * eps) * mu)
print(f"theorem gate for the spectral denoiser (exact eps = {eps:.4f}, mu = {mu}):")
print(f"  fidelity-first DRS is provably contractive for tau > {tau_min:.4f}")
print("the same numbers come from `pnpkit diagnose --config ...` as JSON.")
