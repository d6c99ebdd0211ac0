"""Why inverse problems need regularization.

A mildly ill-conditioned forward operator turns tiny measurement noise into
a useless naive reconstruction: the pseudoinverse divides each measurement
component by its singular value, so components attached to small singular
values explode.  Ridge-penalized (Tikhonov) inversion damps exactly those
components, at the price of a bias that must be tuned to the noise level.
"""

import numpy as np

from pnpkit import DenseOp, Rng, naive_svd_solve, tikhonov_solve

rng = Rng(0)

# a diagonal-ish operator with rapidly decaying singular values
n = 12
u, _ = np.linalg.qr(rng.standard_normal((n, n)))
v, _ = np.linalg.qr(rng.standard_normal((n, n)))
singular_values = 3.0 ** -np.arange(n)
op = DenseOp(u @ np.diag(singular_values) @ v.T)

x_true = rng.standard_normal(n)
y_clean = op.apply(x_true)
noise = 1e-3 * rng.standard_normal(n)
y_noisy = y_clean + noise

print("singular values:", np.array2string(np.linalg.svd(op.matrix, compute_uv=False), precision=4))
print(f"noise level: {np.linalg.norm(noise):.2e}\n")

x_naive_clean = naive_svd_solve(op, y_clean)
x_naive_noisy = naive_svd_solve(op, y_noisy)
print("pseudoinverse on clean data  -> error "
      f"{np.linalg.norm(x_naive_clean - x_true):.2e}  (recovers x exactly)")
print("pseudoinverse on noisy data  -> error "
      f"{np.linalg.norm(x_naive_noisy - x_true):.2e}  (noise amplified by 1/sigma_min)")

print("\nridge regularization trades instability for bias; the error is")
print("U-shaped in alpha (over-smoothing on the left, noise blowup on the right):")
for alpha in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
    x_alpha = tikhonov_solve(op, y_noisy, alpha)
    print(f"  alpha = {alpha:8.0e}: error {np.linalg.norm(x_alpha - x_true):.4f}")

print("\ntruncating small singular values is the blunter classical fix:")
for tol in (1e-2, 1e-4):
    x_trunc = naive_svd_solve(op, y_noisy, tol=tol)
    print(f"  keep sigma > {tol:6.0e}: error {np.linalg.norm(x_trunc - x_true):.4f}")
