"""The four CLI workloads: config from seed, correctness checks, set-up.

Each workload is one ``pnpkit`` command run over a small pool of configs.
Config ``i`` of a run carries the seed ``derive_seed(seed, i)``, so the
benchmark seed fixes every input and the program sees only the config.

Per config, ``inspect`` reads the command's outputs and returns the outer
iteration count, the quality figures and the checks that failed.  Quality
is reported as ``psnr_db`` and ``oracle_gap_ratio``: the measured defect of
the workload's check over the defect it allows, so <= 1 passes.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MIN_PSNR_GAIN_DB = 2.0  # criterion 11: TV deblurring gains at least 2 dB
MAX_RESIDUAL_SLOPE = -0.35  # criterion 11: -0.5 + 0.15
ULA_N = 16
ULA_KEPT = 2000
ULA_BURN_IN = 1000
ULA_THIN = 3


def derive_seed(seed: int, index: int) -> int:
    return (int(seed) * 1000 + index) % 2**63


BLUR_PROBLEM = {
    "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 9}},
    "noise": {"percent": 3.0},
}


def deblur_config(seed: int) -> dict:
    return {
        "task": "deblur",
        "image": {"builtin": "shapes", "size": 64},
        **BLUR_PROBLEM,
        "denoiser": {"kind": "tv", "c": 1.0},
        "solver": {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.05, "max_iter": 25,
                   "tol": 1e-9},
        "seed": seed,
    }


HQS_ITERS = 8


def hqs_config(seed: int) -> dict:
    return {
        "task": "deblur",
        "image": {"builtin": "shapes", "size": 64},
        **BLUR_PROBLEM,
        "denoiser": {"kind": "tv", "c": 1.0},
        "solver": {"algo": "hqs", "rho": 1.0, "sigma": 0.2, "max_iter": HQS_ITERS,
                   "tol": 0.0,
                   "sigma_schedule": [float(s) for s in np.geomspace(0.2, 0.02, HQS_ITERS)]},
        "seed": seed,
    }


PROVABLE = (
    {"algo": "pnp-pgd", "step": 1.0, "max_iter": 400, "tol": 1e-9},
    {"algo": "pnp-drs", "step": 1.0, "max_iter": 400, "tol": 1e-9},
    {"algo": "pnp-drsdiff", "step": 1.0, "max_iter": 400, "tol": 1e-9},
    {"algo": "gs-pnp", "lam": 0.7, "tau": 1.0, "step": 1.0, "max_iter": 400, "tol": 1e-9},
    {"algo": "apgd", "step": 1.0, "alpha": 0.5, "max_iter": 400, "tol": 1e-9},
)
COMPARE_SIZE = 128


def compare_config(seed: int) -> dict:
    images = [{"builtin": "shapes", "size": COMPARE_SIZE},
              {"builtin": "ramp", "size": COMPARE_SIZE}]
    return {
        "task": "compare",
        "images": images,
        **BLUR_PROBLEM,
        "denoiser": {"kind": "gs", "kernel_sigma": 1.5, "floor": 0.15, "weight": 0.7},
        "solvers": [dict(s) for s in PROVABLE],
        "seed": seed,
    }


def ula_config(seed: int) -> dict:
    return {
        "task": "sample",
        "operator": {"kind": "diagonal",
                     "entries": [float(d) for d in np.linspace(1.0, 2.0, ULA_N)]},
        "prior": {"weights": [1.0], "means": [[0.0] * ULA_N], "variances": [1.0]},
        "sampler": {"delta": 1e-3, "sigma": 0.3, "sigma_w": 0.5, "kept": ULA_KEPT,
                    "burn_in": ULA_BURN_IN, "thin": ULA_THIN},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def _json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _last_iter(trace_csv: Path) -> int:
    with open(trace_csv, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return int(float(rows[-1][0]))


def inspect_solve(pk, doc: dict, out: Path) -> dict:
    summary = _json(out / "summary.json")
    gain = summary["final_psnr"] - summary["input_psnr"]
    failures = []
    pk.load_signal(out / "recon.raw")  # raises on a non-finite reconstruction
    if not gain >= MIN_PSNR_GAIN_DB:
        failures.append(f"PSNR gain {gain:.3f} dB < {MIN_PSNR_GAIN_DB} dB")
    if summary["iters"] != doc["solver"]["max_iter"]:
        failures.append(f"ran {summary['iters']} of {doc['solver']['max_iter']} iterations")
    return {
        "iters": int(summary["iters"]),
        "psnr_db": float(summary["final_psnr"]),
        "oracle_gap_ratio": MIN_PSNR_GAIN_DB / gain if gain > 0 else math.inf,
        "failures": failures,
    }


def inspect_compare(pk, doc: dict, out: Path) -> dict:
    with open(out / "compare.csv", "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    failures = []
    expected = len(doc["images"]) * len(doc["solvers"])
    if len(rows) != expected:
        failures.append(f"{len(rows)} compare rows, expected {expected}")
    ratios = []
    for row in rows:
        slope = float(row["residual_slope"])
        tag = f"{row['solver']}/{row['image']}"
        if row["converged"] != "true":
            failures.append(f"{tag} did not converge")
        if not slope <= MAX_RESIDUAL_SLOPE:
            failures.append(f"{tag} residual slope {slope} > {MAX_RESIDUAL_SLOPE}")
        ratios.append(MAX_RESIDUAL_SLOPE / slope if slope < 0 else math.inf)
    traces = sorted(out.glob("trace_*.csv"))
    if len(traces) != expected:
        failures.append(f"{len(traces)} trace files, expected {expected}")
    return {
        "iters": sum(_last_iter(t) for t in traces),
        "psnr_db": float(np.mean([float(r["final_psnr"]) for r in rows])) if rows else 0.0,
        "oracle_gap_ratio": max(ratios) if ratios else math.inf,
        "failures": failures,
    }


def inspect_sample(pk, doc: dict, out: Path) -> dict:
    summary = _json(out / "summary.json")
    gap = _json(out / "oracle_gap.json")
    sampler = doc["sampler"]
    failures = []
    if summary["count"] != sampler["kept"]:
        failures.append(f"kept {summary['count']} samples, expected {sampler['kept']}")
    stats = np.loadtxt(out / "stats.csv", delimiter=",", skiprows=1, ndmin=2)
    if stats.shape != (ULA_N, 3) or not np.all(np.isfinite(stats)):
        failures.append("stats.csv is malformed or not finite")
    # Relative error of a sample variance has sd sqrt(2/ESS) for a Gaussian
    # chain; 3 sd of it is the allowance, which gives criterion 9's 10 % at
    # its kept=100000.  Both ratios are judged pooled over the run's chains.
    var_allowed = 3.0 * math.sqrt(2.0 / max(summary["ess"], 1.0))
    return {
        "iters": int(sampler["burn_in"] + sampler["kept"] * sampler["thin"]),
        "psnr_db": -20.0 * math.log10(gap["mean_gap_inf"]),
        "oracle_gap_ratio": gap["mean_gap_inf"] / gap["mean_gap_allowed"],
        "variance_ratio": gap["max_variance_relative_error"] / var_allowed,
        "chain_within_tolerance": bool(gap["mean_within_tolerance"]),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Set-up through the public library API (fresh process, see setup_probe.py)
# ---------------------------------------------------------------------------


def _setup_images(pk, seed: int, names: list[str], size: int, make_denoiser) -> dict:
    t0 = time.perf_counter()
    problems = []
    for i, name in enumerate(names):
        x = pk.cli.builtin_image(name, size)
        op = pk.make_blur(np.full((9, 9), 1.0 / 81.0), (size, size))
        y = pk.add_gaussian_noise(pk.Signal.from_array(op.apply(x)), 0.03,
                                  pk.Rng(seed).child(100 + i))
        problems.append((x, y))
    t1 = time.perf_counter()
    for _ in names:
        make_denoiser(pk, size)
    t2 = time.perf_counter()
    # the image workloads' oracle is the true image: the input PSNR against it
    for x, y in problems:
        pk.psnr(y, x)
    t3 = time.perf_counter()
    return {"simulate": t1 - t0, "denoiser": t2 - t1, "oracle": t3 - t2}


def _tv(pk, size):
    return pk.tv_denoiser(c=1.0)


def _gs(pk, size):
    return pk.gs_denoiser(pk.gaussian_smoother((size, size), 1.5, floor=0.15), weight=0.7)


def setup_ula(pk, seed: int) -> dict:
    t0 = time.perf_counter()
    rng = pk.Rng(seed)
    prior = pk.GmmPrior([1.0], [np.zeros(ULA_N)], [1.0])
    op = pk.DiagonalOp(np.linspace(1.0, 2.0, ULA_N))
    x = rng.child(1).standard_normal(ULA_N)
    y = pk.add_gaussian_noise(pk.Signal.from_array(op.apply(x)), 0.5, rng.child(2))
    t1 = time.perf_counter()
    pk.mmse_gmm_denoiser(prior)
    t2 = time.perf_counter()
    pk.gaussian_posterior_oracle(op, y, 1.0, 0.3, 0.5)
    t3 = time.perf_counter()
    return {"simulate": t1 - t0, "denoiser": t2 - t1, "oracle": t3 - t2}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    threads: int  # PNPKIT_THREADS for the command
    pool: int  # distinct configs per run
    make_config: Callable[[int], dict]
    inspect: Callable
    hashed: tuple[str, ...]  # output globs that must be byte-identical on reruns
    setup: Callable[[object, int], dict]
    kernel: str  # the calibrate.py kernel that runs the same kind of work

    def configs(self, seed: int) -> list[dict]:
        return [self.make_config(derive_seed(seed, i)) for i in range(self.pool)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deblur_tv",
            why="criterion-11 TV PnP-PGD solve; ~99 % of its time is the TV dual "
                "solve in proximal, so a TV speed-up must move it",
            command="solve", threads=1, pool=16, make_config=deblur_config,
            inspect=inspect_solve, hashed=("recon.raw", "trace.csv", "summary.json"),
            setup=lambda pk, seed: _setup_images(pk, seed, ["shapes"], 64, _tv),
            kernel="tv",
        ),
        Workload(
            name="hqs_tv",
            why="HQS with a falling sigma: large, changing TV lambda (cold calls at "
                "0.04 need over 2,000 inner iterations), so TV tuning for one lambda shows",
            command="solve", threads=1, pool=10, make_config=hqs_config,
            inspect=inspect_solve, hashed=("recon.raw", "trace.csv", "summary.json"),
            setup=lambda pk, seed: _setup_images(pk, seed, ["shapes"], 64, _tv),
            kernel="tv",
        ),
        Workload(
            name="compare_gs",
            why="criterion-11 provable set with the GS denoiser at 128^2 on 2 threads: "
                "FFTs, shifted solves and bookkeeping, no TV",
            command="compare", threads=2, pool=10, make_config=compare_config,
            inspect=inspect_compare, hashed=("compare.csv", "trace_*.csv"),
            setup=lambda pk, seed: _setup_images(pk, seed, ["shapes", "ramp"],
                                                 COMPARE_SIZE, _gs),
            kernel="fft",
        ),
        Workload(
            name="ula_gauss",
            why="criterion-9 PnP-ULA chains at n=16: Python overhead per step on tiny "
                "arrays, no FFT and no TV",
            command="sample", threads=1, pool=48, make_config=ula_config,
            inspect=inspect_sample, hashed=("stats.csv", "summary.json", "oracle_gap.json"),
            setup=setup_ula,
            kernel="ula",
        ),
    )
}
