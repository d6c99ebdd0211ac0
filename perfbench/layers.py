"""Per-layer microbenchmarks, each timing one public function from outside.

Every timing is the median over ``REPEAT`` batches of the per-call time in
a batch.  Inputs come from the run's seed.  ``measure`` returns the metric
values and the list of checks that failed.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

REPEAT = 5
TV_SMALL_LAM = 0.0025  # criterion-11 PnP-PGD: c * sigma^2 = 1 * 0.05^2
TV_LARGE_LAM = 0.04  # first HQS step: 1 * 0.2^2
TV_FIXED_ITERS = 100


def per_call(fn, number: int, repeat: int = REPEAT) -> float:
    """Median over ``repeat`` batches of seconds per call in a batch."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def paired_per_call(fn_a, fn_b, number: int, repeat: int = 2 * REPEAT) -> tuple[float, float]:
    """:func:`per_call` for two functions, batches interleaved so drift hits both."""
    a, b = [], []
    for _ in range(repeat):
        a.append(per_call(fn_a, number, repeat=1))
        b.append(per_call(fn_b, number, repeat=1))
    return statistics.median(a), statistics.median(b)


def _counting_op(pk, inner):
    """A LinearOp that counts its forward applications."""

    class CountingOp(pk.LinearOp):
        kind = "counting"

        def __init__(self):
            super().__init__(inner.in_shape, inner.out_shape)
            self.calls = 0

        def _apply(self, x):
            self.calls += 1
            return inner._apply(x)

        def _adjoint(self, y):
            return inner._adjoint(y)

    return CountingOp()


def _proximal(pk, rng, out: dict, failures: list) -> None:
    # the deblurring measurement: what the first prox of a TV solve sees
    x = pk.cli.builtin_image("shapes", 64)
    v = pk.make_blur(np.full((9, 9), 1.0 / 81.0), x.shape).apply(x)
    v = v + 0.03 * rng.standard_normal(x.shape)

    def fixed_iters():
        # tol=0 is never met, so exactly TV_FIXED_ITERS iterations run
        try:
            pk.prox_tv(v, TV_LARGE_LAM, tol=0.0, max_iter=TV_FIXED_ITERS)
        except pk.SolveError:
            return
        failures.append("prox_tv with tol=0 returned instead of raising SolveError")

    out["proximal.tv_iter_us"] = 1e6 * per_call(fixed_iters, 2) / TV_FIXED_ITERS
    out["proximal.prox_tv_small_ms"] = 1e3 * per_call(lambda: pk.prox_tv(v, TV_SMALL_LAM), 2)
    out["proximal.prox_tv_large_ms"] = 1e3 * per_call(lambda: pk.prox_tv(v, TV_LARGE_LAM), 1,
                                                      repeat=3)


def _operators(pk, rng, out: dict, failures: list) -> None:
    kernel = np.full((9, 9), 1.0 / 81.0)
    for size in (64, 128):
        op = pk.make_blur(kernel, (size, size))
        x = rng.standard_normal((size, size))
        number = 200 if size == 64 else 50
        out[f"operators.circulant_apply_{size}_us"] = 1e6 * per_call(lambda: op.apply(x), number)
        out[f"operators.circulant_adjoint_{size}_us"] = 1e6 * per_call(lambda: op.adjoint(x),
                                                                       number)
        out[f"operators.shifted_solve_circulant_{size}_us"] = 1e6 * per_call(
            lambda: pk.solve_shifted_normal(op, 1.0, x), number)

    b = rng.standard_normal((64, 64))
    mask = pk.make_mask(rng.uniform(0.0, 1.0, (64, 64)) < 0.5)
    out["operators.shifted_solve_mask_us"] = 1e6 * per_call(
        lambda: pk.solve_shifted_normal(mask, 1.0, b), 200)

    # mask o blur has no exact solve, so it takes the conjugate-gradient path
    counted = _counting_op(pk, mask)
    composite = pk.compose(counted, pk.make_blur(kernel, (64, 64)))
    out["operators.shifted_solve_cg_us"] = 1e6 * per_call(
        lambda: pk.solve_shifted_normal(composite, 1.0, b), 5)
    counted.calls = 0
    pk.solve_shifted_normal(composite, 1.0, b)
    out["operators.cg_matvecs"] = counted.calls
    if counted.calls < 1:
        failures.append("the CG solve applied the operator no times")


def _solvers(pk, rng, out: dict, failures: list) -> None:
    # identity operator and zero prox: what is left is the driver's own work
    # per iteration (step, divergence check, residual, objective, PSNR, Trace)
    x_true = pk.cli.builtin_image("shapes", 64)
    y = x_true + 0.03 * rng.standard_normal(x_true.shape)
    op = pk.identity_op((64, 64))
    fid = pk.SmoothFn.least_squares(op, y)
    slot = pk.RegSlot(prox=pk.zero_prox())
    iters = 200
    # a tiny step keeps the step residual far above tol for every iteration
    cfg = pk.SolverConfig(step=1e-3, max_iter=iters, tol=1e-9, record_time=False)

    def run():
        _, trace = pk.run_pgd(fid, slot, cfg, np.zeros_like(y), reference=x_true)
        if trace.stop_reason != "max_iter":
            failures.append(f"identity run_pgd stopped early ({trace.stop_reason})")

    out["solvers.iter_overhead_us"] = 1e6 * per_call(run, 1) / iters


def _denoisers_gmm(pk, rng, out: dict, failures: list) -> None:
    gs = pk.gs_denoiser(pk.gaussian_smoother((128, 128), 1.5, floor=0.15), weight=0.7)
    x128 = rng.uniform(0.0, 1.0, (128, 128))
    out["denoisers.gs_apply_us"] = 1e6 * per_call(lambda: gs.apply(x128, 0.0), 50)

    n = 16
    prior = pk.GmmPrior([1.0], [np.zeros(n)], [1.0])
    gmm = pk.mmse_gmm_denoiser(prior)
    x16 = rng.standard_normal(n)
    bare, wrapped = paired_per_call(lambda: pk.posterior_mean(prior, x16, 0.3),
                                    lambda: gmm.apply(x16, 0.3), 1000)
    out["gmm.posterior_mean_us"] = 1e6 * bare
    out["denoisers.gmm_apply_us"] = 1e6 * wrapped
    out["denoisers.apply_overhead_us"] = 1e6 * (wrapped - bare)

    nlm = pk.nlm_denoiser(1, 3, 0.3)
    x64 = rng.uniform(0.0, 1.0, (64, 64))
    out["denoisers.nlm_apply_ms"] = 1e3 * per_call(lambda: nlm.apply(x64, 0.05), 1, repeat=3)


def _sampling(pk, rng, out: dict, failures: list) -> None:
    n = 16
    op = pk.DiagonalOp(np.linspace(1.0, 2.0, n))
    y = op.apply(rng.standard_normal(n)) + 0.5 * rng.standard_normal(n)
    den = pk.mmse_gmm_denoiser(pk.GmmPrior([1.0], [np.zeros(n)], [1.0]))
    steps = 3000
    cfg = pk.UlaConfig(delta=1e-3, sigma=0.3, sigma_w=0.5, kept=2, burn_in=steps - 2,
                       thin=1, seed=int(rng.integers(0, 2**32)))
    out["sampling.ula_step_us"] = 1e6 * per_call(lambda: pk.run_pnp_ula(op, y, den, cfg), 1,
                                                  repeat=3) / steps
    samples = rng.standard_normal((20000, n))
    out["sampling.sample_stats_ms"] = 1e3 * per_call(lambda: pk.sample_stats(samples), 1,
                                                      repeat=3)


def _core(pk, rng, out: dict, failures: list, work: Path) -> None:
    a = rng.uniform(0.0, 1.0, (64, 64))
    b = a + 0.01 * rng.standard_normal((64, 64))
    out["core.psnr_us"] = 1e6 * per_call(lambda: pk.psnr(a, b), 1000)
    trace = pk.Trace()
    for k in range(400):
        trace.append(k, float(rng.uniform()), float(rng.uniform()), float(rng.uniform()),
                     float(rng.uniform()))
    path = work / "layer_trace.csv"
    out["core.write_trace_ms"] = 1e3 * per_call(lambda: pk.write_trace(trace, path), 5)


def measure(pk, seed: int, work: Path) -> tuple[dict, list]:
    rng = pk.Rng(seed).child(4242)
    out: dict = {}
    failures: list = []
    for part in (_proximal, _operators, _solvers, _denoisers_gmm, _sampling):
        part(pk, rng, out, failures)
    _core(pk, rng, out, failures, work)
    return out, failures
