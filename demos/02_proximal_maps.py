"""A tour of the proximal toolbox.

prox_{lam*f}(v) = argmin_x f(x) + ||x - v||^2/(2*lam) generalizes both
gradient steps and projections.  Every convex prox here is non-expansive,
its fixed points minimize f, and a prox pairs with the prox of the convex
conjugate through Moreau's identity prox_f + prox_{f*} = id.
"""

import numpy as np

from pnpkit import (
    Rng,
    box_prox,
    l1_prox,
    moreau_check,
    prox_tv,
    quadratic_prox,
    tv_conj_prox,
    tv_prox,
    tv_value,
    wavelet_l1_prox,
)

rng = Rng(3)

print("soft thresholding (prox of the l1 norm) shrinks toward zero:")
v = np.array([1.5, -0.3, 0.8, -2.0])
print(f"  v          = {v}")
print(f"  shrink 0.5 = {l1_prox(0.5).evaluate(v, 1.0)}\n")

print("projection onto a box is the prox of its indicator:")
print(f"  clip({v}, 0, 1) = {box_prox(0.0, 1.0).evaluate(v, 1.0)}\n")

print("the wavelet-l1 prox shrinks Haar coefficients (exact, by orthonormality):")
sig = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
print(f"  piecewise-constant input : {sig}")
shrunk = wavelet_l1_prox(0.2, levels=2).evaluate(sig, 1.0)
print(f"  prox at tau=0.2          : {np.round(shrunk, 4)}\n")

print("the TV prox flattens small oscillations while keeping the jump:")
noisy = sig + 0.15 * rng.standard_normal(8)
denoised = prox_tv(noisy, 0.2)
print(f"  noisy   : {np.round(noisy, 3)} (TV {tv_value(noisy):.3f})")
print(f"  prox    : {np.round(denoised, 3)} (TV {tv_value(denoised):.3f})\n")

print("Moreau identities (defect = ||prox_f(v) + prox_f*(v) - v||_inf):")
v = 2.0 * rng.standard_normal(16)
print(f"  l1 vs l-inf ball projection : {moreau_check(l1_prox(1.0), box_prox(-1.0, 1.0), v):.2e}")
half_sq = quadratic_prox(0.0, 1.0)  # 0.5*||x||^2
print(f"  0.5*||.||^2 (self-conjugate): {moreau_check(half_sq, half_sq, v):.2e}")
tv_defect = moreau_check(tv_prox(0.3, tol=1e-13), tv_conj_prox(0.3, tol=1e-13), v)
print(f"  TV via two iterative solves : {tv_defect:.2e}  (certified by duality gaps)")

print("\nnon-expansiveness spot check on 200 random pairs (l1 prox):")
worst = 0.0
shrink = l1_prox(0.7)
for _ in range(200):
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    pa, pb = shrink.evaluate(a, 1.0), shrink.evaluate(b, 1.0)
    worst = max(worst, np.linalg.norm(pa - pb) / np.linalg.norm(a - b))
print(f"  max ||prox(a)-prox(b)|| / ||a-b|| = {worst:.6f} <= 1")
