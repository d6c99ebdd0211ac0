"""Command-line harness: pnpkit <solve|compare|sweep|diagnose|sample|plot>.

Experiments are described by a single JSON config (unknown keys are
rejected).  Commands are deterministic given config + seed: solver timing
is suppressed in emitted traces so repeated runs are byte-identical.

Exit codes: 0 success, 2 usage/config error, 3 assertion failure,
4 numerical divergence where fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DivergenceError,
    ParseError,
    PnpkitError,
    Rng,
    Signal,
    Trace,
    add_gaussian_noise,
    as_array,
    load_signal,
    psnr,
    read_trace,
    save_signal,
    write_trace,
)
from .denoisers import (
    Denoiser,
    estimate_residual_lipschitz,
    gaussian_filter_denoiser,
    gaussian_smoother,
    gs_denoiser,
    homogeneity_defect,
    jacobian_asymmetry,
    linear_spectral_denoiser,
    mmse_gmm_denoiser,
    nlm_denoiser,
    tikhonov_spectral_family,
    tv_denoiser,
)
from .gmm import GmmPrior, load_gmm_prior, sample_smoothed
from .operators import (
    DiagonalOp,
    LinearOp,
    as_dense,
    identity_op,
    make_blur,
    make_mask,
    naive_svd_solve,
)
from .proximal import (
    box_prox,
    l1_prox,
    quadratic_fidelity_prox,
    tv_prox,
    wavelet_l1_prox,
    zero_prox,
)
from .sampling import (
    UlaConfig,
    effective_sample_size,
    gaussian_posterior_oracle,
    run_pnp_ula,
    write_samples,
    write_stats_csv,
)
from .solvers import (
    RegSlot,
    SmoothFn,
    SolverConfig,
    run_admm,
    run_apgd,
    run_drs,
    run_gs_pnp,
    run_hqs,
    run_pgd,
    run_red_apg,
    run_red_gd,
    run_red_pg,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERT = 3
EXIT_DIVERGED = 4

TASKS = ("deblur", "inpaint", "denoise", "sample", "sweep", "diagnose", "compare")
SOLVE_TASKS = ("deblur", "inpaint", "denoise")
VALID_ALGOS = (
    "pgd", "pnp-pgd", "apgd", "pnp-apgd", "drs", "pnp-drs", "pnp-drsdiff",
    "admm", "pnp-admm", "hqs", "red-gd", "red-pg", "red-apg", "gs-pnp",
)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _check_keys(doc: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; round-trips losslessly via JSON."""

    doc: dict

    @property
    def task(self) -> str:
        return self.doc["task"]

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        validate_config(doc)
        return ExperimentConfig(doc)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}")
        return ExperimentConfig.from_dict(doc)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))


def _validate_image(spec, where):
    _check_keys(spec, {"builtin", "size", "path"}, set(), where)
    if ("builtin" in spec) == ("path" in spec):
        raise ConfigError(f"{where}: give exactly one of 'builtin' or 'path'")
    if "builtin" in spec and spec["builtin"] not in ("shapes", "ramp"):
        raise ConfigError(f"{where}: unknown builtin image {spec['builtin']!r}")
    if "path" in spec and not Path(spec["path"]).exists():
        raise ConfigError(f"{where}: file does not exist: {spec['path']}")


def _validate_kernel(spec, where):
    _check_keys(spec, {"builtin", "size", "sigma", "radius", "path"}, set(), where)
    if ("builtin" in spec) == ("path" in spec):
        raise ConfigError(f"{where}: give exactly one of 'builtin' or 'path'")
    if "builtin" in spec and spec["builtin"] not in ("uniform", "gaussian"):
        raise ConfigError(f"{where}: unknown builtin kernel {spec['builtin']!r}")
    if "path" in spec and not Path(spec["path"]).exists():
        raise ConfigError(f"{where}: file does not exist: {spec['path']}")


def _validate_operator(spec, where):
    _check_keys(spec, {"kind", "kernel", "density", "path", "entries"}, {"kind"}, where)
    kind = spec["kind"]
    if kind not in ("blur", "mask", "identity", "diagonal"):
        raise ConfigError(f"{where}: unknown operator kind {kind!r}")
    if kind == "blur":
        if "kernel" not in spec:
            raise ConfigError(f"{where}: blur operator needs a 'kernel'")
        _validate_kernel(spec["kernel"], where + ".kernel")
    if kind == "diagonal" and "entries" not in spec:
        raise ConfigError(f"{where}: diagonal operator needs 'entries'")
    if kind == "mask" and "path" in spec and not Path(spec["path"]).exists():
        raise ConfigError(f"{where}: file does not exist: {spec['path']}")


def _validate_denoiser(spec, where):
    allowed = {
        "tv": {"kind", "c", "tol", "max_iter"},
        "gaussian": {"kind", "kernel_sigma", "radius"},
        "nlm": {"kind", "patch_radius", "window_radius", "h"},
        "spectral": {"kind", "transform", "lam", "profile"},
        "gs": {"kind", "kernel_sigma", "floor", "weight"},
        "gmm": {"kind", "path", "weights", "means", "variances"},
    }
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: denoiser spec needs a 'kind'")
    kind = spec["kind"]
    if kind not in allowed:
        raise ConfigError(f"{where}: unknown denoiser kind {kind!r}; "
                          f"valid {sorted(allowed)}")
    _check_keys(spec, allowed[kind], {"kind"}, where)
    if kind == "gmm" and "path" in spec and not Path(spec["path"]).exists():
        raise ConfigError(f"{where}: file does not exist: {spec['path']}")


def _validate_solver(spec, where):
    _check_keys(
        spec,
        {"algo", "step", "alpha", "rho", "lam", "tau", "eta", "L", "sigma",
         "max_iter", "tol", "backtracking", "reg", "rho_schedule", "sigma_schedule"},
        {"algo"},
        where,
    )
    if spec["algo"] not in VALID_ALGOS:
        raise ConfigError(
            f"{where}: unknown algo {spec['algo']!r}; valid algos: {', '.join(VALID_ALGOS)}"
        )
    if "reg" in spec:
        reg = spec["reg"]
        _check_keys(reg, {"kind", "weight", "levels", "lo", "hi"}, {"kind"}, where + ".reg")
        if reg["kind"] not in ("l1", "box", "tv", "wavelet", "zero"):
            raise ConfigError(f"{where}.reg: unknown reg kind {reg['kind']!r}")
    try:
        _solver_config(spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    red_gd = spec["algo"] == "red-gd"
    # key -> (lower bound, bound allowed), as the drivers require
    bounds = {"L": (1.0, False), "eta": (0.0, False), "tau": (0.0, False),
              "lam": (0.0, red_gd), "sigma": (0.0, not red_gd)}
    for key, (bound, closed) in bounds.items():
        if key not in spec:
            continue
        try:
            value = float(spec[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: {key} must be a number") from None
        if not math.isfinite(value) or value < bound or (value == bound and not closed):
            relation = ">=" if closed else ">"
            raise ConfigError(f"{where}: {key} must be finite and {relation} {bound:g}")


def _validate_noise(spec, where):
    _check_keys(spec, {"percent", "sigma"}, set(), where)
    if ("percent" in spec) == ("sigma" in spec):
        raise ConfigError(f"{where}: give exactly one of 'percent' or 'sigma'")


def validate_config(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    task = doc.get("task")
    if task not in TASKS:
        raise ConfigError(f"config task must be one of {TASKS}, got {task!r}")

    common = {"task", "seed", "output"}
    if task in SOLVE_TASKS:
        _check_keys(doc, common | {"image", "operator", "noise", "denoiser", "solver"},
                    {"task", "image", "solver"}, "config")
        _validate_image(doc["image"], "config.image")
        if "operator" in doc:
            _validate_operator(doc["operator"], "config.operator")
        elif task != "denoise":
            raise ConfigError(f"config: task {task!r} needs an 'operator'")
        if "noise" in doc:
            _validate_noise(doc["noise"], "config.noise")
        if "denoiser" in doc:
            _validate_denoiser(doc["denoiser"], "config.denoiser")
        _validate_solver(doc["solver"], "config.solver")
    elif task == "compare":
        _check_keys(doc, common | {"images", "operator", "noise", "denoiser", "solvers"},
                    {"task", "images", "operator", "solvers"}, "config")
        if not isinstance(doc["solvers"], list) or len(doc["solvers"]) < 2:
            raise ConfigError("config.solvers: compare needs at least 2 solvers")
        if not isinstance(doc["images"], list) or len(doc["images"]) < 1:
            raise ConfigError("config.images: compare needs at least 1 image")
        for i, s in enumerate(doc["solvers"]):
            _validate_solver(s, f"config.solvers[{i}]")
        for i, im in enumerate(doc["images"]):
            _validate_image(im, f"config.images[{i}]")
        _validate_operator(doc["operator"], "config.operator")
        if "noise" in doc:
            _validate_noise(doc["noise"], "config.noise")
        if "denoiser" in doc:
            _validate_denoiser(doc["denoiser"], "config.denoiser")
    elif task == "sweep":
        _check_keys(doc, common | {"sweep"}, {"task"}, "config")
        sweep = doc.get("sweep", {})
        _check_keys(sweep, {"c", "eta", "k_min", "k_max", "diag", "x_true", "deltas"},
                    set(), "config.sweep")
    elif task == "diagnose":
        _check_keys(doc, common | {"denoiser", "probe", "mu"}, {"task", "denoiser"}, "config")
        _validate_denoiser(doc["denoiser"], "config.denoiser")
        probe = doc.get("probe", {})
        _check_keys(probe, {"shape", "sigma", "probes", "fd_step"}, set(), "config.probe")
    elif task == "sample":
        _check_keys(doc, common | {"operator", "prior", "sampler", "save_samples"},
                    {"task", "operator", "prior", "sampler"}, "config")
        _validate_operator(doc["operator"], "config.operator")
        prior = doc["prior"]
        if "path" in prior:
            _check_keys(prior, {"path"}, {"path"}, "config.prior")
            if not Path(prior["path"]).exists():
                raise ConfigError(f"config.prior: file does not exist: {prior['path']}")
        else:
            _check_keys(prior, {"weights", "means", "variances"},
                        {"weights", "means", "variances"}, "config.prior")
        _check_keys(doc["sampler"], {"delta", "sigma", "sigma_w", "kept", "burn_in", "thin"},
                    {"delta", "sigma", "sigma_w"}, "config.sampler")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def builtin_image(name: str, size: int = 64) -> np.ndarray:
    """Deterministic synthetic test images in [0, 1].

    "shapes" is piecewise constant (rectangles plus a disk on a flat
    background); "ramp" is smooth (bilinear ramp plus a Gaussian bump).
    """
    s = int(size)
    if s < 8:
        raise ConfigError("builtin images need size >= 8")
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    if name == "shapes":
        img = np.full((s, s), 0.2)
        img[s // 8: s // 2, s // 6: s // 3] = 0.8
        img[3 * s // 4: 7 * s // 8, s // 10: 9 * s // 10] = 0.95
        disk = (yy - 0.4 * s) ** 2 + (xx - 0.65 * s) ** 2 <= (0.18 * s) ** 2
        img[disk] = 0.55
        img[s // 2: 5 * s // 8, s // 2: 5 * s // 8] = 0.35
        return img
    if name == "ramp":
        ramp = 0.15 + 0.6 * (xx / (s - 1)) * (0.3 + 0.7 * yy / (s - 1))
        bump = 0.25 * np.exp(-((yy - 0.35 * s) ** 2 + (xx - 0.3 * s) ** 2) / (0.02 * s * s))
        return np.clip(ramp + bump, 0.0, 1.0)
    raise ConfigError(f"unknown builtin image {name!r}")


def build_image(spec: dict) -> tuple[np.ndarray, str]:
    if "builtin" in spec:
        name = spec["builtin"]
        return builtin_image(name, int(spec.get("size", 64))), name
    sig = load_signal(spec["path"])
    return sig.to_array(), Path(spec["path"]).stem


def build_kernel(spec: dict) -> np.ndarray:
    if "path" in spec:
        return load_signal(spec["path"]).to_array()
    if spec["builtin"] == "uniform":
        size = int(spec.get("size", 9))
        if size % 2 == 0:
            raise ConfigError("uniform kernel size must be odd")
        return np.full((size, size), 1.0 / (size * size))
    from .denoisers import gaussian_kernel

    return gaussian_kernel(float(spec.get("sigma", 1.5)), ndim=2,
                           radius=spec.get("radius"))


def build_operator(spec: dict, shape, rng: Rng) -> LinearOp:
    kind = spec["kind"]
    if kind == "identity":
        return identity_op(shape)
    if kind == "blur":
        return make_blur(build_kernel(spec["kernel"]), shape)
    if kind == "mask":
        if "path" in spec:
            mask = load_signal(spec["path"]).to_array() > 0.5
        else:
            density = float(spec.get("density", 0.5))
            if not (0.0 < density <= 1.0):
                raise ConfigError("mask density must lie in (0, 1]")
            mask = rng.uniform(0.0, 1.0, tuple(shape)) < density
        return make_mask(mask)
    if kind == "diagonal":
        return DiagonalOp(np.asarray(spec["entries"], dtype=np.float64))
    raise ConfigError(f"unknown operator kind {kind!r}")


def build_gmm_prior(spec: dict) -> GmmPrior:
    if "path" in spec:
        return load_gmm_prior(spec["path"])
    return GmmPrior(np.asarray(spec["weights"]), np.asarray(spec["means"]),
                    np.asarray(spec["variances"]))


def build_denoiser(spec: dict, shape) -> Denoiser:
    kind = spec["kind"]
    if kind == "tv":
        return tv_denoiser(c=float(spec.get("c", 1.0)), tol=spec.get("tol"),
                           max_iter=int(spec.get("max_iter", 200000)))
    if kind == "gaussian":
        return gaussian_filter_denoiser(float(spec.get("kernel_sigma", 1.5)),
                                        radius=spec.get("radius"))
    if kind == "nlm":
        return nlm_denoiser(int(spec.get("patch_radius", 1)),
                            int(spec.get("window_radius", 3)),
                            float(spec.get("h", 0.3)))
    if kind == "spectral":
        family = tikhonov_spectral_family(shape, transform=spec.get("transform", "dct"),
                                          profile=spec.get("profile"))
        return linear_spectral_denoiser(family, float(spec.get("lam", 0.1)))
    if kind == "gs":
        smoother = gaussian_smoother(shape, float(spec.get("kernel_sigma", 1.5)),
                                     floor=float(spec.get("floor", 0.1)))
        return gs_denoiser(smoother, weight=float(spec.get("weight", 1.0)))
    if kind == "gmm":
        return mmse_gmm_denoiser(build_gmm_prior(spec))
    raise ConfigError(f"unknown denoiser kind {kind!r}")


def build_reg_prox(spec: dict):
    kind = spec["kind"]
    weight = float(spec.get("weight", 1.0))
    if kind == "l1":
        return l1_prox(weight)
    if kind == "box":
        return box_prox(float(spec.get("lo", 0.0)), float(spec.get("hi", 1.0)))
    if kind == "tv":
        return tv_prox(weight)
    if kind == "wavelet":
        return wavelet_l1_prox(weight, levels=int(spec.get("levels", 1)))
    if kind == "zero":
        return zero_prox()
    raise ConfigError(f"unknown reg kind {kind!r}")


def noise_sigma(spec: dict | None) -> float:
    if spec is None:
        return 0.0
    if "percent" in spec:
        return 0.01 * float(spec["percent"])  # percent of the unit peak
    return float(spec["sigma"])


def _solver_config(spec: dict) -> SolverConfig:
    return SolverConfig(
        step=float(spec.get("step", 1.0)),
        alpha=float(spec.get("alpha", 0.5)),
        rho=float(spec.get("rho", 1.0)),
        max_iter=int(spec.get("max_iter", 200)),
        tol=float(spec.get("tol", 1e-9)),
        record_time=False,  # byte-identical outputs for identical config+seed
    )


def run_algo(algo: str, spec: dict, op: LinearOp, y: np.ndarray,
             denoiser: Denoiser | None, reference: np.ndarray | None):
    """Dispatch one solver spec against a measurement; returns (Signal, Trace)."""
    cfg = _solver_config(spec)
    fid = SmoothFn.least_squares(op, y)
    x0 = op._adjoint(y)
    sigma = float(spec.get("sigma", 0.0))
    lam = float(spec.get("lam", 1.0))

    def denoiser_slot():
        if denoiser is None:
            raise ConfigError(f"algo {algo!r} needs a denoiser in the config")
        return RegSlot(denoiser=denoiser, sigma=sigma)

    def prox_slot():
        if "reg" not in spec:
            if denoiser is not None:
                return denoiser_slot()
            raise ConfigError(f"algo {algo!r} needs either a 'reg' spec or a denoiser")
        return RegSlot(prox=build_reg_prox(spec["reg"]))

    if algo in ("pgd", "pnp-pgd"):
        slot = denoiser_slot() if algo.startswith("pnp") else prox_slot()
        return run_pgd(fid, slot, cfg, x0, reference=reference)
    if algo in ("apgd", "pnp-apgd"):
        slot = denoiser_slot() if algo.startswith("pnp") else prox_slot()
        return run_apgd(fid, slot, cfg, x0, reference=reference)
    if algo == "drs":
        return run_drs(quadratic_fidelity_prox(op, y), prox_slot(), cfg, x0,
                       reference=reference)
    if algo == "pnp-drs":
        return run_drs(denoiser_slot(), quadratic_fidelity_prox(op, y), cfg, x0,
                       reference=reference)
    if algo == "pnp-drsdiff":
        return run_drs(quadratic_fidelity_prox(op, y), denoiser_slot(), cfg, x0,
                       reference=reference)
    if algo in ("admm", "pnp-admm"):
        slot = denoiser_slot() if algo.startswith("pnp") else prox_slot()
        return run_admm(op, y, slot, cfg, reference=reference)
    if algo == "hqs":
        slot = denoiser_slot() if denoiser is not None else prox_slot()
        return run_hqs(op, y, slot, cfg, rho_schedule=spec.get("rho_schedule"),
                       sigma_schedule=spec.get("sigma_schedule"), reference=reference)
    if algo == "red-gd":
        if denoiser is None:
            raise ConfigError("red-gd needs a denoiser")
        return run_red_gd(op, y, denoiser, lam=lam, sigma=float(spec.get("sigma", 1.0)),
                          eta=float(spec.get("eta", cfg.step)), cfg=cfg,
                          reference=reference)
    if algo in ("red-pg", "red-apg"):
        if denoiser is None:
            raise ConfigError(f"{algo} needs a denoiser")
        runner = run_red_pg if algo == "red-pg" else run_red_apg
        return runner(op, y, denoiser, lam=lam, L=float(spec.get("L", 2.0)), cfg=cfg,
                      sigma=sigma, reference=reference)
    if algo == "gs-pnp":
        if denoiser is None or denoiser.potential is None:
            raise ConfigError("gs-pnp needs a gradient-step denoiser (kind 'gs')")
        return run_gs_pnp(op, y, denoiser, cfg,
                          lam=float(spec["lam"]) if "lam" in spec else None,
                          tau=float(spec["tau"]) if "tau" in spec else None,
                          backtracking=bool(spec.get("backtracking", False)),
                          reference=reference)
    raise ConfigError(f"unknown algo {algo!r}; valid algos: {', '.join(VALID_ALGOS)}")


def _worker_count() -> int:
    raw = os.environ.get("PNPKIT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_jobs(fn, items):
    workers = _worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _prepare_out(cfg_doc: dict, out_override) -> Path:
    out = Path(out_override or cfg_doc.get("output", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _simulate_measurement(doc: dict, image_spec: dict, seed: int, image_index: int = 0):
    """Build (x_true, name, K, y) for a solve/compare config."""
    x_true, name = build_image(image_spec)
    rng = Rng(seed)
    op_spec = doc.get("operator", {"kind": "identity"})
    op = build_operator(op_spec, x_true.shape, rng.child(7))
    y_clean = op._apply(x_true)
    sigma = noise_sigma(doc.get("noise"))
    y = as_array(add_gaussian_noise(Signal.from_array(y_clean), sigma,
                                    rng.child(100 + image_index)))
    return x_true, name, op, y


def cmd_solve(config: ExperimentConfig, out_dir, seed: int) -> int:
    doc = config.doc
    out = _prepare_out(doc, out_dir)
    x_true, name, op, y = _simulate_measurement(doc, doc["image"], seed)
    denoiser = build_denoiser(doc["denoiser"], x_true.shape) if "denoiser" in doc else None
    solver = doc["solver"]
    try:
        recon, trace = run_algo(solver["algo"], solver, op, y, denoiser, x_true)
    except DivergenceError as exc:
        print(f"solve: diverged at step {exc.step}", file=sys.stderr)
        return EXIT_DIVERGED
    save_signal(recon, out / "recon.raw")
    save_signal(Signal.from_array(np.clip(recon.to_array(), 0.0, 1.0)), out / "recon.pgm")
    write_trace(trace, out / "trace.csv")
    summary = {
        "final_psnr": psnr(recon, x_true),
        "input_psnr": psnr(y, x_true) if y.shape == x_true.shape else None,
        "iters": int(trace.last().iter),
        "stop_reason": trace.stop_reason,
        "seed": seed,
        "image": name,
    }
    _write_json(summary, out / "summary.json")
    print(f"solve[{solver['algo']}] {name}: psnr {summary['final_psnr']:.2f} dB "
          f"after {summary['iters']} iters ({trace.stop_reason})")
    return EXIT_OK


def _residual_slope(trace: Trace) -> float:
    """Slope of log step-residual vs log iteration over the last decade."""
    iters = trace.column("iter")
    res = trace.column("step_residual")
    keep = (iters >= 1) & np.isfinite(res) & (res > 0)
    iters, res = iters[keep], res[keep]
    if iters.size < 3:
        return math.nan
    k_max = iters[-1]
    window = iters >= max(1.0, k_max / 10.0)
    if np.count_nonzero(window) < 2:
        return math.nan
    coef = np.polyfit(np.log(iters[window]), np.log(res[window]), 1)
    return float(coef[0])


def cmd_compare(config: ExperimentConfig, out_dir, seed: int) -> int:
    doc = config.doc
    out = _prepare_out(doc, out_dir)

    jobs = []
    for i, image_spec in enumerate(doc["images"]):
        for solver in doc["solvers"]:
            jobs.append((i, image_spec, solver))

    def run_one(job):
        i, image_spec, solver = job
        x_true, name, op, y = _simulate_measurement(doc, image_spec, seed, image_index=i)
        denoiser = (build_denoiser(doc["denoiser"], x_true.shape)
                    if "denoiser" in doc else None)
        label = f"{solver['algo']}_{i:02d}_{name}"
        try:
            recon, trace = run_algo(solver["algo"], solver, op, y, denoiser, x_true)
            final_psnr = psnr(recon, x_true)
        except DivergenceError as exc:
            trace = exc.trace if exc.trace is not None else Trace()
            trace.stop_reason = "diverged"
            final_psnr = psnr(exc.last, x_true) if exc.last is not None else math.nan
        write_trace(trace, out / f"trace_{label}.csv")
        res = trace.column("step_residual")
        finite = res[np.isfinite(res)]
        slope = _residual_slope(trace)
        converged = trace.stop_reason != "diverged" and (
            trace.stop_reason == "tolerance" or (math.isfinite(slope) and slope <= -0.35)
        )
        return {
            "solver": solver["algo"],
            "image": f"{i:02d}_{name}",
            "final_psnr": final_psnr,
            "min_residual": float(np.min(finite)) if finite.size else math.nan,
            "residual_slope": slope,
            "converged": converged,
        }

    rows = _map_jobs(run_one, jobs)
    lines = ["solver,image,final_psnr,min_residual,residual_slope,converged"]
    for r in rows:
        lines.append(
            f"{r['solver']},{r['image']},{r['final_psnr']!r},{r['min_residual']!r},"
            f"{r['residual_slope']!r},{str(r['converged']).lower()}"
        )
    (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for r in rows:
        print(f"compare[{r['solver']}] {r['image']}: psnr {r['final_psnr']:.2f} dB, "
              f"slope {r['residual_slope']:.2f}, converged={r['converged']}")
    return EXIT_OK


DEFAULT_SWEEP_DIAG = (2.0, 1.7, 1.4, 1.1)
DEFAULT_SWEEP_X = (0.15, 0.15, 0.15, 0.15)


def cmd_sweep(config: ExperimentConfig, out_dir, seed: int, do_assert: bool) -> int:
    doc = config.doc
    out = _prepare_out(doc, out_dir)
    sweep = doc.get("sweep", {})
    c = float(sweep.get("c", 0.5))
    eta = float(sweep.get("eta", 0.45))
    diag = np.asarray(sweep.get("diag", DEFAULT_SWEEP_DIAG), dtype=np.float64)
    x_true = np.asarray(sweep.get("x_true", DEFAULT_SWEEP_X), dtype=np.float64)
    if diag.shape != x_true.shape:
        raise ConfigError("sweep diag and x_true must have the same length")
    if "deltas" in sweep:
        deltas = [float(d) for d in sweep["deltas"]]
    else:
        k_min = int(sweep.get("k_min", 1))
        k_max = int(sweep.get("k_max", 8))
        deltas = [2.0 ** (-k) for k in range(k_min, k_max + 1)]

    op = DiagonalOp(diag)
    y0 = op._apply(x_true)
    x_dagger = naive_svd_solve(as_dense(op), y0)
    direction = Rng(seed).standard_normal(diag.shape)
    direction /= np.linalg.norm(direction)
    family = tikhonov_spectral_family(diag.shape, transform="identity")
    fid_cfg = SolverConfig(step=eta, max_iter=100000, tol=1e-14, eval_objective=False,
                           record_time=False)

    rows = []
    for delta in deltas:
        lam = c * math.sqrt(delta)
        y_delta = y0 + delta * direction
        if lam == 0.0:
            x_hat = naive_svd_solve(as_dense(op), y_delta)
        else:
            den = linear_spectral_denoiser(family, lam)
            fid = SmoothFn.least_squares(op, y_delta)
            x_hat, _ = run_pgd(fid, RegSlot(denoiser=den), fid_cfg,
                               op._adjoint(y_delta))
            x_hat = x_hat.to_array()
        err = float(np.linalg.norm(as_array(x_hat) - as_array(x_dagger)))
        rows.append((delta, lam, err))
        print(f"sweep: delta {delta:.6g}  lambda {lam:.6g}  error {err:.6g}")

    lines = ["delta,lambda,error"]
    for delta, lam, err in rows:
        lines.append(f"{delta!r},{lam!r},{err!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    errors = [r[2] for r in rows]
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    if do_assert and not monotone:
        print("sweep: error column is not strictly decreasing", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def cmd_diagnose(config: ExperimentConfig, out_dir, seed: int) -> int:
    doc = config.doc
    out = _prepare_out(doc, out_dir)
    probe = doc.get("probe", {})
    shape = tuple(int(s) for s in probe.get("shape", (16, 16)))
    sigma = float(probe.get("sigma", 0.1))
    probes = int(probe.get("probes", 2))
    fd_step = probe.get("fd_step")
    mu = float(doc.get("mu", 1.0))
    denoiser = build_denoiser(doc["denoiser"], shape)
    rng = Rng(seed)

    eps = estimate_residual_lipschitz(denoiser, sigma, shape, probes=probes,
                                      fd_step=fd_step, rng=rng.child(1))
    x_probe = rng.child(2).uniform(0.0, 1.0, shape)
    asym = jacobian_asymmetry(denoiser, x_probe, sigma, fd_step=fd_step)
    hom = homogeneity_defect(denoiser, x_probe, sigma)
    if eps < 1.0:
        gate = {"pnp_drsdiff_tau_min": eps / ((1.0 + eps - 2.0 * eps * eps) * mu)}
    else:
        gate = {"pnp_drsdiff_tau_min": "not applicable"}
    report = {
        "denoiser": denoiser.tag,
        "epsilon_hat": eps,
        "asymmetry": asym,
        "homogeneity_defect": hom,
        "mu": mu,
        "theorem_gate": gate,
    }
    _write_json(report, out / "diagnose.json")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_sample(config: ExperimentConfig, out_dir, seed: int) -> int:
    doc = config.doc
    out = _prepare_out(doc, out_dir)
    prior = build_gmm_prior(doc["prior"])
    rng = Rng(seed)
    x_true = sample_smoothed(prior, 0.0, rng.child(1))
    op = build_operator(doc["operator"], x_true.shape, rng.child(7))
    s = doc["sampler"]
    cfg = UlaConfig(
        delta=float(s["delta"]), sigma=float(s["sigma"]), sigma_w=float(s["sigma_w"]),
        kept=int(s.get("kept", 2000)), burn_in=s.get("burn_in"),
        thin=int(s.get("thin", 1)), seed=seed,
    )
    y = as_array(add_gaussian_noise(Signal.from_array(op._apply(x_true)), cfg.sigma_w,
                                    rng.child(2)))
    denoiser = mmse_gmm_denoiser(prior)
    try:
        stats, samples = run_pnp_ula(op, y, denoiser, cfg)
    except DivergenceError as exc:
        print(f"sample: chain diverged at step {exc.step}", file=sys.stderr)
        return EXIT_DIVERGED

    write_stats_csv(stats, out / "stats.csv")
    if doc.get("save_samples", False):
        write_samples(samples, out / "samples.raw")
    summary = {
        "seed": seed,
        "count": stats.count,
        "ess": stats.ess,
        "stability": stats.stability,
    }
    _write_json(summary, out / "summary.json")

    gaussian = prior.n_components == 1 and not np.any(prior.means)
    if gaussian:
        gamma = float(math.sqrt(prior.variances[0]))
        oracle = gaussian_posterior_oracle(op, y, gamma, cfg.sigma, cfg.sigma_w)
        gaps = stats.mean - oracle.mean
        oracle_var = np.diag(oracle.covariance)
        ess_per = np.array([effective_sample_size(samples[:, j])
                            for j in range(samples.shape[1])])
        se = np.sqrt(oracle_var / np.maximum(ess_per, 1.0))
        allowed = np.maximum(3.0 * se, 2.0 * cfg.delta)
        var_err = np.abs(stats.variance / oracle_var - 1.0)
        gap_doc = {
            "mean_gap_inf": float(np.max(np.abs(gaps))),
            "mean_gap_allowed": float(np.max(allowed)),
            "mean_within_tolerance": bool(np.all(np.abs(gaps) <= allowed)),
            "max_variance_relative_error": float(np.max(var_err)),
            "variance_within_tolerance": bool(np.all(var_err <= 0.10)),
            "condition_number": oracle.condition_number,
        }
        _write_json(gap_doc, out / "oracle_gap.json")
        print(f"sample: mean gap {gap_doc['mean_gap_inf']:.4g} "
              f"(allowed {gap_doc['mean_gap_allowed']:.4g}), "
              f"max var err {gap_doc['max_variance_relative_error']:.3%}")
    else:
        print(f"sample: kept {stats.count} samples, ess {stats.ess:.1f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

_PALETTE = ("#1f6fb4", "#d1495b", "#3c8d4e", "#8d5fb4", "#c98a2b",
            "#4ab3c9", "#a34f76", "#6b6b6b", "#2b4a8d", "#7a9a39")


def _panel_polyline(xs, ys, x_rng, y_rng, box) -> str:
    x0, y0, w, h = box
    lo_x, hi_x = x_rng
    lo_y, hi_y = y_rng
    span_x = (hi_x - lo_x) or 1.0
    span_y = (hi_y - lo_y) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        px = x0 + (x - lo_x) / span_x * w
        py = y0 + h - (y - lo_y) / span_y * h
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def render_traces_svg(traces: list[Trace], labels: list[str]) -> str:
    """Two-panel SVG: log10 step-residual (left) and PSNR in dB (right)."""
    res_box = (60.0, 40.0, 380.0, 300.0)
    psnr_box = (540.0, 40.0, 380.0, 300.0)

    res_pts, psnr_pts = [], []
    for t in traces:
        it = t.column("iter")
        r = t.column("step_residual")
        p = t.column("psnr")
        with np.errstate(divide="ignore", invalid="ignore"):
            logr = np.where(r > 0, np.log10(np.maximum(r, 1e-300)), np.nan)
        res_pts.append((it, logr))
        psnr_pts.append((it, p))

    def finite_range(series, idx):
        vals = np.concatenate([s[idx] for s in series]) if series else np.array([])
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            return (0.0, 1.0)
        lo, hi = float(vals.min()), float(vals.max())
        return (lo, hi if hi > lo else lo + 1.0)

    x_rng = finite_range(res_pts, 0)
    res_rng = finite_range(res_pts, 1)
    psnr_rng = finite_range(psnr_pts, 1)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="960" height="400" '
        'viewBox="0 0 960 400">',
        '<rect x="0" y="0" width="960" height="400" fill="white"/>',
    ]
    for box, title in ((res_box, "log10 step residual"), (psnr_box, "PSNR (dB)")):
        x0, y0, w, h = box
        parts.append(f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" '
                     'stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{x0 + w / 2:.0f}" y="{y0 - 12:.0f}" font-size="14" '
                     f'text-anchor="middle" fill="#111">{title}</text>')
        parts.append(f'<text x="{x0 + w / 2:.0f}" y="{y0 + h + 28:.0f}" font-size="12" '
                     f'text-anchor="middle" fill="#111">iteration</text>')
    for i, ((it, logr), (it2, p)) in enumerate(zip(res_pts, psnr_pts)):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{_panel_polyline(it, logr, x_rng, res_rng, res_box)}"/>')
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{_panel_polyline(it2, p, x_rng, psnr_rng, psnr_box)}"/>')
        parts.append(f'<text x="62" y="{356 + 14 * i:.0f}" font-size="11" '
                     f'fill="{color}">{labels[i]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(config_doc: dict, out_dir) -> int:
    _check_keys(config_doc, {"traces", "output"}, {"traces"}, "config")
    paths = config_doc["traces"]
    if not isinstance(paths, list) or not paths:
        raise ConfigError("config.traces must be a non-empty list of CSV paths")
    traces, labels = [], []
    for p in paths:
        t = read_trace(p)
        if len(t) == 0:
            raise ParseError(f"{p}: trace has no rows")
        traces.append(t)
        labels.append(Path(p).stem)
    out_name = config_doc.get("output", "plot.svg")
    out = Path(out_dir) if out_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    target = out / out_name
    target.write_text(render_traces_svg(traces, labels), encoding="utf-8")
    print(f"plot: wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pnpkit",
                                     description="plug-and-play experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "compare", "sweep", "diagnose", "sample", "plot"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "sweep":
            p.add_argument("--assert", dest="do_assert", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: invalid JSON: {exc}")
            return cmd_plot(doc, args.out)

        config = ExperimentConfig.from_json(args.config)
        seed = args.seed if args.seed is not None else int(config.doc.get("seed", 0))
        task = config.task
        if args.command == "solve":
            if task not in SOLVE_TASKS:
                raise ConfigError(f"'solve' expects task in {SOLVE_TASKS}, got {task!r}")
            return cmd_solve(config, args.out, seed)
        if args.command == "compare":
            if task != "compare":
                raise ConfigError(f"'compare' expects task 'compare', got {task!r}")
            return cmd_compare(config, args.out, seed)
        if args.command == "sweep":
            if task != "sweep":
                raise ConfigError(f"'sweep' expects task 'sweep', got {task!r}")
            return cmd_sweep(config, args.out, seed, args.do_assert)
        if args.command == "diagnose":
            if task != "diagnose":
                raise ConfigError(f"'diagnose' expects task 'diagnose', got {task!r}")
            return cmd_diagnose(config, args.out, seed)
        if args.command == "sample":
            if task != "sample":
                raise ConfigError(f"'sample' expects task 'sample', got {task!r}")
            return cmd_sample(config, args.out, seed)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParseError) as exc:
        print(f"pnpkit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"pnpkit: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except PnpkitError as exc:
        print(f"pnpkit: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
