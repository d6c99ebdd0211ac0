"""Regularization by denoising: fixed points instead of objectives.

Most denoisers have asymmetric Jacobians, so no explicit regularizer has
gradient x - D(x); what the RED family can promise instead is convergence
to the stationarity condition

    K^T (K x* - y) + lam (x* - D(x*)) = 0.

With a linear denoiser that condition is a linear system, so the schemes
can be checked against its exact solution: gradient-descent RED and
proximal-gradient RED land on the same fixed point, and the momentum
variant is run trace-only (its convergence is an open question).
"""

from dataclasses import replace

import numpy as np

from pnpkit import (
    DenseOp,
    Rng,
    SolverConfig,
    linear_spectral_denoiser,
    run_red_apg,
    run_red_gd,
    run_red_pg,
)

rng = Rng(31)
n = 8
k_mat = rng.standard_normal((n, n)) / 2.0
op = DenseOp(k_mat)
y = rng.standard_normal(n)
lam = 0.8

den = linear_spectral_denoiser((n,), 0.5, "dct")
a_mat = np.column_stack([den.apply(col) for col in np.eye(n)])
x_star = np.linalg.solve(k_mat.T @ k_mat + lam * (np.eye(n) - a_mat), k_mat.T @ y)
print("closed-form fixed point computed from the linear denoiser\n")

lip = np.linalg.norm(k_mat, 2) ** 2 + lam
cfg = SolverConfig(max_iter=50000, tol=1e-14)

x_gd, tr_gd = run_red_gd(op, y, den, lam=lam, sigma=1.0, cfg=replace(cfg, step=1.0 / lip))
print(f"gradient-descent RED : gap to closed form {np.max(np.abs(x_gd - x_star)):.2e}, "
      f"stationarity norm {tr_gd.column('fp_residual')[-1]:.2e} "
      f"({tr_gd.last().iter} iterations)")

x_pg, tr_pg = run_red_pg(op, y, den, lam=lam, L=2.0, cfg=cfg)
print(f"proximal-gradient RED: gap to closed form {np.max(np.abs(x_pg - x_star)):.2e}, "
      f"stationarity norm {tr_pg.column('fp_residual')[-1]:.2e} "
      f"({tr_pg.last().iter} iterations)")

x_apg, tr_apg = run_red_apg(op, y, den, lam=lam, L=2.0, cfg=cfg)
print(f"momentum RED (trace only): gap {np.max(np.abs(x_apg - x_star)):.2e}, "
      f"stop reason '{tr_apg.stop_reason}'")

print("\nstep-residual decay of the provable proximal-gradient variant:")
r = tr_pg.column("step_residual")
for k in (1, 5, 20, 80, min(320, len(r) - 1)):
    print(f"  iteration {k:4d}: ||x_k - x_(k-1)|| = {r[k]:.3e}")
