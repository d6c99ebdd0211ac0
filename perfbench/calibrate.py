"""Host-speed calibration kernels, one per kind of work the workloads do.

Each kernel is a frozen, self-contained copy of a workload's hot loop,
written here with numpy alone: it never imports pnpkit, so a change to the
program cannot change its time, while a change in the host's speed (a
neighbour on the same core, cache pressure, clock changes) moves it the way
it moves the workload, because it runs the same kind of instructions.

``make(kind, threads)`` returns a function that runs the kernel once, on as
many threads as the workload's command uses, and returns its wall-clock
seconds.  ``REF_S[kind, threads]`` is its median time on the reference host
(a 2-vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6): a time ``t`` measured
next to a kernel run of ``k`` seconds is reported as ``t * REF_S / k``, the
time at the reference host's speed.

Set-up time is mostly imports, which these kernels do not track; it is
scaled instead by the import kernel, which setup_probe.py runs in a fresh
process (numpy, scipy.fft and a few standard modules), with the reference
time ``IMPORT_REF_S``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REF_S = {("tv", 1): 0.035, ("ula", 1): 0.032, ("fft", 2): 0.052}
IMPORT_REF_S = 0.27

TV_SIZE = 64
TV_ITERS = 200
ULA_N = 16
ULA_STEPS = 1000
FFT_SIZE = 128
FFT_ROUNDS = 32


def _tv_kernel():
    """FISTA iterations on the anisotropic TV dual at 64^2, as in a TV prox."""
    rng = np.random.default_rng(0)
    v = rng.uniform(0.0, 1.0, (TV_SIZE, TV_SIZE))
    lam, step = 0.04, 0.125

    def grad(x):
        gx = np.zeros_like(x)
        gy = np.zeros_like(x)
        gx[:-1] = x[1:] - x[:-1]
        gy[:, :-1] = x[:, 1:] - x[:, :-1]
        return gx, gy

    def grad_adjoint(px, py):
        d = np.zeros_like(px)
        d[:-1] -= px[:-1]
        d[1:] += px[:-1]
        d[:, :-1] -= py[:, :-1]
        d[:, 1:] += py[:, :-1]
        return d

    def run():
        p = [np.zeros_like(v), np.zeros_like(v)]
        q = [a.copy() for a in p]
        t = 1.0
        for _ in range(TV_ITERS):
            g = grad(grad_adjoint(*q) - v)
            p_new = [np.clip(qa - step * ga, -lam, lam) for qa, ga in zip(q, g)]
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            q = [pn + beta * (pn - po) for pn, po in zip(p_new, p)]
            p, t = p_new, t_new
            d = grad_adjoint(*p)
            x = v - d
            gx, gy = grad(x)
            primal = 0.5 * float(np.sum(d**2)) + lam * float(np.abs(gx).sum() + np.abs(gy).sum())
            dual = float(np.sum(v * d)) - 0.5 * float(np.sum(d**2))
            if primal - dual < 0.0:
                break
        return p

    return run


def _ula_kernel():
    """Langevin steps with a Gaussian-prior posterior mean on 16 entries."""
    rng = np.random.default_rng(0)
    diag = np.linspace(1.0, 2.0, ULA_N)
    y = diag * rng.standard_normal(ULA_N)
    means = np.zeros((1, ULA_N))
    variances = np.ones(1)
    sigma, sigma_w, delta = 0.3, 0.5, 1e-3
    inv_s2, inv_w2 = 1.0 / sigma**2, 1.0 / sigma_w**2
    noise_std = math.sqrt(2.0 * delta)

    def posterior_mean(x):
        s = variances + sigma * sigma
        logs = -0.5 * np.sum((x[None, :] - means) ** 2, axis=1) / s - 0.5 * ULA_N * np.log(s)
        w = np.exp(logs - logs.max())
        r = w / w.sum()
        comp = (variances[:, None] * x[None, :] + sigma * sigma * means) / s[:, None]
        return r @ comp

    def run():
        noise = np.random.default_rng(1)
        x = diag * y
        samples = np.empty((ULA_STEPS // 3 + 1, ULA_N))
        for k in range(ULA_STEPS):
            drift = inv_s2 * (posterior_mean(x) - x)
            drift += inv_w2 * diag * (y - diag * x)
            x = x + delta * drift
            x = x + noise_std * noise.standard_normal(ULA_N)
            if not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > 1e8:
                break
            if k % 3 == 0:
                samples[k // 3] = x
        return samples

    return run


def _fft_kernel():
    """Circulant blur, adjoint and shifted solve by FFT at 128^2, with a
    smoothing denoiser and per-iteration PSNR, as in a compare row."""
    rng = np.random.default_rng(0)
    shape = (FFT_SIZE, FFT_SIZE)
    h = np.zeros(shape)
    h[:9, :9] = 1.0 / 81.0
    h = np.roll(h, (-4, -4), axis=(0, 1))
    otf = np.fft.rfft2(h)
    smooth = np.exp(-0.5 * (1.5 * np.fft.fftfreq(FFT_SIZE)[:, None] * 2 * np.pi) ** 2
                    - 0.5 * (1.5 * np.fft.rfftfreq(FFT_SIZE)[None, :] * 2 * np.pi) ** 2)
    truth = rng.uniform(0.0, 1.0, shape)
    y = np.fft.irfft2(otf * np.fft.rfft2(truth), s=shape) + 0.03 * rng.standard_normal(shape)

    def run():
        x = y.copy()
        for _ in range(FFT_ROUNDS):
            fx = np.fft.rfft2(x)
            r = np.fft.irfft2(otf * fx, s=shape) - y
            g = np.fft.irfft2(np.conj(otf) * np.fft.rfft2(r), s=shape)
            z = x - g
            z = 0.7 * np.fft.irfft2(smooth * np.fft.rfft2(z), s=shape) + 0.3 * z
            x = np.fft.irfft2(np.fft.rfft2(z + 0.5 * x) / (np.abs(otf) ** 2 + 1.5), s=shape)
            err = float(np.mean((x - truth) ** 2))
            if not math.isfinite(10.0 * math.log10(1.0 / max(err, 1e-300))):
                break
        return x

    return run


KERNELS = {"tv": _tv_kernel, "ula": _ula_kernel, "fft": _fft_kernel}


def make(kind: str, threads: int):
    """A function that runs kernel ``kind`` once and returns its seconds.

    With ``threads`` > 1 it runs that many copies at once in a thread pool
    (numpy releases the GIL in its array and FFT loops), so the kernel sees
    the speed of as many CPUs as a multi-threaded command does."""
    bodies = [KERNELS[kind]() for _ in range(threads)]
    for body in bodies:
        body()  # warm-up: FFT plans and allocator
    if threads == 1:
        run = bodies[0]
    else:
        pool = ThreadPoolExecutor(threads)

        def run():
            for future in [pool.submit(body) for body in bodies]:
                future.result()

    def timed() -> float:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    return timed
