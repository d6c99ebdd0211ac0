"""Plug-and-play as a convergent regularization method.

Classical regularization theory asks more than convergence of the iterates:
as the noise level delta -> 0 with a coupled parameter rule lam(delta) -> 0,
the reconstructions must converge to the pseudoinverse solution of the
noiseless problem.  With a linear spectral denoiser whose strength is the
tuneable lam, the plug-and-play fixed points have closed form, and the rule
lam = 0.5 * sqrt(delta) empirically drives the error to zero monotonically.
"""

import math

import numpy as np

from pnpkit import (
    DiagonalOp,
    RegSlot,
    Rng,
    SmoothFn,
    SolverConfig,
    linear_spectral_denoiser,
    naive_svd_solve,
    run_pgd,
)

diag = np.array([2.0, 1.7, 1.4, 1.1])
x_dagger_true = np.array([0.15, 0.15, 0.15, 0.15])
op = DiagonalOp(diag)
y0 = op._apply(x_dagger_true)
x_dagger = naive_svd_solve(op, y0)
print(f"pseudoinverse of the noiseless data: {x_dagger}")

direction = Rng(0).standard_normal(4)
direction /= np.linalg.norm(direction)
eta, c = 0.45, 0.5
cfg = SolverConfig(step=eta, max_iter=100000, tol=1e-14)

print(f"\nrule lam = {c} * sqrt(delta), gradient step eta = {eta}")
print(f"{'delta':>10} | {'lambda':>8} | {'error to x-dagger':>17}")
previous = math.inf
for k in range(1, 9):
    delta = 2.0 ** (-k)
    lam = c * math.sqrt(delta)
    y_delta = y0 + delta * direction
    den = linear_spectral_denoiser((4,), lam, transform="identity")
    x_hat, _ = run_pgd(SmoothFn.least_squares(op, y_delta), RegSlot(denoiser=den),
                       cfg, op._adjoint(y_delta))
    err = float(np.linalg.norm(np.asarray(x_hat) - np.asarray(x_dagger)))
    marker = "  (decreasing)" if err < previous else "  (NOT decreasing!)"
    print(f"{delta:10.5f} | {lam:8.5f} | {err:17.6f}{marker}")
    previous = err

print("\nthe same ladder is scripted as `pnpkit sweep --config ... --assert`,")
print("which exits nonzero if the error column ever fails to decrease.")
