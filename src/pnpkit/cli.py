"""Command-line harness: pnpkit <solve|compare|sweep|diagnose|sample|plot>.

Experiments are described by a single JSON config.  Each config section
has one schema table below (key -> type, default, choices or range); one
reader, :func:`_read`, checks a section against its table and fills in its
defaults, and the builders and commands read only that filled spec.  A
command builds its whole problem before it makes its output directory, and
a value the library rejects there is a config error naming its section.
So is a value the library rejects during the run (a solve, a compare job,
a sample chain), but its output directory may then already exist.
Commands are deterministic given config + seed: solver timing is
suppressed in emitted traces so repeated runs are byte-identical.

Exit codes: 0 success; 2 usage/config error, a shape mismatch found
during the run included; 3 assertion failure (``sweep --assert``);
4 numerical failure: a ``solve`` whose run diverges (every algo), or an
inner solve that did not reach its certificate.  ``compare`` writes a
diverged run's trace and reports it ``converged=false``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DivergenceError,
    ParseError,
    PnpkitError,
    Rng,
    ShapeError,
    Trace,
    add_gaussian_noise,
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
    gaussian_kernel,
    gaussian_radius,
    gaussian_smoother,
    gs_denoiser,
    homogeneity_defect,
    jacobian_asymmetry,
    linear_spectral_denoiser,
    mmse_gmm_denoiser,
    nlm_denoiser,
    tv_denoiser,
)
from .gmm import GmmPrior, load_gmm_prior, sample_smoothed
from .operators import (
    DiagonalOp,
    LinearOp,
    check_blur_kernel,
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
    _sample_buffer,
    gaussian_posterior_oracle,
    run_pnp_ula,
    write_stats_csv,
)
from .solvers import (
    RegSlot,
    SmoothFn,
    SolverConfig,
    run_admm,
    run_apgd,
    run_drs,
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

SOLVE_TASKS = ("deblur", "inpaint", "denoise")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

REQUIRED = object()  # no default: the key must be given
PATH = "path"  # a string naming an existing file


@dataclass(frozen=True)
class Key:
    """One config key: its type, its default, and the values it may take.

    ``type`` is bool, int, float, str, PATH, a list ``[t]`` of values of
    type t, or a nested section (a table or a :class:`OneOf`).  A bool is
    not a number, an int takes only integral values, and a float must be
    finite.  None is accepted only where it is the default.  ``choices``,
    ``gt``, ``ge`` and ``le`` restrict a value, or each entry of a list.
    Ranges that a library constructor enforces are not repeated here.
    """

    type: object
    default: object = REQUIRED
    choices: tuple = ()
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    min_len: int = 0


@dataclass(frozen=True)
class OneOf:
    """A section with several forms, each with its own table.

    With a ``tag``, the value of that key names the form; without one, the
    form is the one key of ``tables`` that the section gives.
    """

    tables: dict
    tag: str | None = None


_IMAGE = OneOf({
    "builtin": {"builtin": Key(str, choices=("shapes", "ramp")), "size": Key(int, 64)},
    "path": {"path": Key(PATH)},
})
_KERNEL = OneOf({
    "builtin": OneOf({"uniform": {"size": Key(int, 9, ge=1)},
                      "gaussian": {"sigma": Key(float, 1.5), "radius": Key(int, None)}},
                     tag="builtin"),
    "path": {"path": Key(PATH)},
})
_OPERATOR = OneOf({
    "blur": {"kernel": Key(_KERNEL)},
    # a mask is read from path or drawn at density (0.5 when neither is given)
    "mask": {"density": Key(float, None, gt=0.0, le=1.0), "path": Key(PATH, None)},
    "identity": {},
    "diagonal": {"entries": Key([float], min_len=1)},
}, tag="kind")
_NOISE = OneOf({
    "percent": {"percent": Key(float)},  # percent of the unit peak
    "sigma": {"sigma": Key(float)},
})
_PRIOR = OneOf({
    "path": {"path": Key(PATH)},
    "weights": {"weights": Key([float]), "means": Key([[float]]), "variances": Key([float])},
})
_DENOISER = OneOf({
    "tv": {"c": Key(float, 1.0), "tol": Key(float, None, gt=0.0),
           "max_iter": Key(int, 200000, ge=1)},
    "gaussian": {"kernel_sigma": Key(float, 1.5), "radius": Key(int, None)},
    "nlm": {"patch_radius": Key(int, 1), "window_radius": Key(int, 3), "h": Key(float, 0.3)},
    "spectral": {"transform": Key(str, "dct"), "lam": Key(float, 0.1),
                 "profile": Key([[float]], None)},
    "gs": {"kernel_sigma": Key(float, 1.5), "floor": Key(float, 0.1),
           "weight": Key(float, 1.0)},
    "gmm": _PRIOR,
}, tag="kind")
_REG = OneOf({
    "l1": {"weight": Key(float, 1.0)},
    "box": {"lo": Key(float, 0.0), "hi": Key(float, 1.0)},
    "tv": {"weight": Key(float, 1.0)},
    "wavelet": {"weight": Key(float, 1.0), "levels": Key(int, 1)},
    "zero": {},
}, tag="kind")
# step, alpha, rho, max_iter and tol are checked by SolverConfig.  red-gd's eta
# and gs-pnp's tau default to step, and gs-pnp's lam to the denoiser's weight.
_SOLVER_KEYS = {
    "step": Key(float, 1.0), "alpha": Key(float, 0.5), "rho": Key(float, 1.0),
    "max_iter": Key(int, 200), "tol": Key(float, 1e-9),
    "lam": Key(float, 1.0, gt=0.0), "sigma": Key(float, 0.0, ge=0.0),
    "L": Key(float, 2.0, gt=1.0),
    "rho_schedule": Key([float], None, gt=0.0, min_len=1),
    "sigma_schedule": Key([float], None, ge=0.0, min_len=1),
    "reg": Key(_REG, None), "eta": Key(float, None, gt=0.0), "tau": Key(float, None, gt=0.0),
    "backtracking": Key(bool, False),
}
_ALGO_KEYS = {"red-gd": {"lam": Key(float, 1.0, ge=0.0), "sigma": Key(float, 1.0, gt=0.0)},
              "gs-pnp": {"lam": Key(float, None, gt=0.0)}}  # their own bounds
_ALGOS = {  # algo -> the keys it reads besides max_iter and tol
    "pgd": "step reg sigma", "pnp-pgd": "step sigma",
    "apgd": "step alpha reg sigma", "pnp-apgd": "step alpha sigma",
    "drs": "step reg sigma", "pnp-drs": "step sigma", "pnp-drsdiff": "step sigma",
    "admm": "rho reg sigma", "pnp-admm": "rho sigma",
    "hqs": "rho sigma reg rho_schedule sigma_schedule",  # its denoiser before a reg prox
    "red-gd": "step eta lam sigma", "red-pg": "lam L sigma", "red-apg": "lam L sigma",
    "gs-pnp": "step tau lam backtracking",
}
_SOLVER = OneOf({algo: {k: _ALGO_KEYS.get(algo, {}).get(k, _SOLVER_KEYS[k])
                        for k in ("max_iter", "tol", *row.split())}
                 for algo, row in _ALGOS.items()}, tag="algo")
_SWEEP = {
    "c": Key(float, 0.5, ge=0.0), "eta": Key(float, 0.45),
    "diag": Key([float], [2.0, 1.7, 1.4, 1.1], min_len=1),
    "x_true": Key([float], [0.15, 0.15, 0.15, 0.15], min_len=1),
    "deltas": Key([float], [2.0 ** -k for k in range(1, 9)], ge=0.0, min_len=2),
}
_PROBE = {"shape": Key([int], [16, 16], ge=1, min_len=1), "sigma": Key(float, 0.1),
          "probes": Key(int, 2), "fd_step": Key(float, None)}
_SAMPLER = {"delta": Key(float), "sigma": Key(float), "sigma_w": Key(float),
            "kept": Key(int, 2000), "burn_in": Key(int, None), "thin": Key(int, 1)}
_COMMON = {"seed": Key(int, 0), "output": Key(str, "out")}
_SOLVE = {**_COMMON, "image": Key(_IMAGE), "operator": Key(_OPERATOR),
          "noise": Key(_NOISE, None), "denoiser": Key(_DENOISER, None),
          "solver": Key(_SOLVER)}
_CONFIG = OneOf({
    "deblur": _SOLVE,
    "inpaint": _SOLVE,
    "denoise": {**_SOLVE, "operator": Key(_OPERATOR, {"kind": "identity"})},
    "sample": {**_COMMON, "operator": Key(_OPERATOR), "prior": Key(_PRIOR),
               "sampler": Key(_SAMPLER), "save_samples": Key(bool, False)},
    "sweep": {**_COMMON, "sweep": Key(_SWEEP, {})},
    "diagnose": {**_COMMON, "denoiser": Key(_DENOISER), "probe": Key(_PROBE, {}),
                 "mu": Key(float, 1.0, gt=0.0)},
    "compare": {**_COMMON, "images": Key([_IMAGE], min_len=1), "operator": Key(_OPERATOR),
                "noise": Key(_NOISE, None), "denoiser": Key(_DENOISER, None),
                "solvers": Key([_SOLVER], min_len=2)},
}, tag="task")
_PLOT = {"traces": Key([PATH], min_len=1), "output": Key(str, "plot.svg")}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", PATH: "a path to a file"}
_BOUNDS = (("gt", ">", operator.gt), ("ge", ">=", operator.ge), ("le", "<=", operator.le))


def _number(value, kind):
    """``value`` as an int or a finite float (``kind``), or None when it is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    if kind is int and isinstance(value, numbers.Integral):
        return int(value)
    with contextlib.suppress(OverflowError):
        value = float(value)
        if math.isfinite(value) and (kind is float or value.is_integer()):
            return kind(value)
    return None


def _form(spec: dict, table, where: str) -> dict:
    """The plain table of the form ``spec`` takes, with the tag keys that chose it."""
    tags = {}
    while isinstance(table, OneOf):
        if table.tag is None:
            given = [k for k in table.tables if k in spec]
            if len(given) != 1:
                names = " or ".join(repr(k) for k in table.tables)
                raise ConfigError(f"{where}: give exactly one of {names}")
            table = table.tables[given[0]]
            continue
        if table.tag not in spec:
            raise ConfigError(f"{where}: missing required keys [{table.tag!r}]")
        tags[table.tag] = Key(str, choices=tuple(table.tables))
        table = table.tables[_value(spec[table.tag], tags[table.tag], where, table.tag)]
    return {**tags, **table}


def _read(spec, table, where: str) -> dict:
    """Check a config section against its table; return it with defaults filled in."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object, got {type(spec).__name__}")
    table = _form(spec, table, where)
    unknown = set(spec) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed {sorted(table)}")
    missing = [name for name, key in table.items() if key.default is REQUIRED and name not in spec]
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    return {name: _value(spec[name] if name in spec else key.default, key, where, name)
            for name, key in table.items()}


def _value(value, key: Key, where: str, name: str):
    """Check one value of a section; return it normalized (numbers typed, lists copied)."""
    kind = key.type
    if value is None and key.default is None:
        return None
    if isinstance(kind, (dict, OneOf)):
        return _read(value, kind, f"{where}.{name}")
    if isinstance(kind, list):
        if not isinstance(value, list) or len(value) < key.min_len:
            least = f" of length >= {key.min_len}" if key.min_len else ""
            raise ConfigError(f"{where}: {name} must be a list{least}, got {value!r:.60}")
        entry = replace(key, type=kind[0], default=REQUIRED, min_len=0)
        return [_value(v, entry, where, f"{name}[{i}]") for i, v in enumerate(value)]
    if kind in (int, float):
        checked = _number(value, kind)
    elif kind is bool:
        checked = value if isinstance(value, bool) else None
    else:  # str or PATH
        checked = value if isinstance(value, str) else None
    if checked is None:
        raise ConfigError(f"{where}: {name} must be {_TYPE_NAMES[kind]}, got {value!r:.60}")
    if key.choices and checked not in key.choices:
        raise ConfigError(f"{where}: {name} must be one of {', '.join(key.choices)}; "
                          f"got {checked!r:.60}")
    for field, sign, holds in _BOUNDS:
        bound = getattr(key, field)
        if bound is not None and not holds(checked, bound):
            raise ConfigError(f"{where}: {name} must be {sign} {bound:g}, got {checked!r}")
    if kind == PATH and not Path(checked).is_file():
        raise ConfigError(f"{where}: file does not exist: {checked}")
    return checked


@contextlib.contextmanager
def _section(where: str):
    """Report a value the library rejects as a ConfigError naming its section."""
    try:
        yield
    except (ValueError, TypeError, OverflowError, OSError, ShapeError, ParseError,
            ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def validate_config(doc: dict) -> dict:
    """Check an experiment config; return it with every default filled in."""
    return _read(doc, _CONFIG, "config")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")


# ---------------------------------------------------------------------------
# Builders: each reads a filled section
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
        return builtin_image(spec["builtin"], spec["size"]), spec["builtin"]
    return load_signal(spec["path"]), Path(spec["path"]).stem


def build_kernel(spec: dict, shape) -> np.ndarray:
    """The kernel of a ``kernel`` section; a builtin one is checked to fit ``shape`` first."""
    if "path" in spec:
        return load_signal(spec["path"])
    uniform = spec["builtin"] == "uniform"
    side = spec["size"] if uniform else 2 * gaussian_radius(spec["sigma"], spec["radius"]) + 1
    check_blur_kernel((side, side), shape)  # before a kernel too large to allocate is built
    if uniform:
        return np.full((side, side), 1.0 / (side * side))
    return gaussian_kernel(spec["sigma"], ndim=2, radius=spec["radius"])


def build_operator(spec: dict, shape, rng: Rng) -> LinearOp:
    kind = spec["kind"]
    if kind == "blur":
        return make_blur(build_kernel(spec["kernel"], shape), shape)
    if kind == "mask":
        if spec["path"] is None:
            density = 0.5 if spec["density"] is None else spec["density"]
            return make_mask(rng.uniform(0.0, 1.0, tuple(shape)) < density)
        if spec["density"] is not None:
            raise ConfigError("a mask takes path or density, not both")
        return make_mask(load_signal(spec["path"]) > 0.5)
    if kind == "diagonal":
        return DiagonalOp(np.asarray(spec["entries"], dtype=np.float64))
    return identity_op(shape)


def build_gmm_prior(spec: dict) -> GmmPrior:
    if "path" in spec:
        return load_gmm_prior(spec["path"])
    return GmmPrior(np.asarray(spec["weights"]), np.asarray(spec["means"]),
                    np.asarray(spec["variances"]))


def build_denoiser(spec: dict, shape) -> Denoiser:
    """The denoiser of a filled ``denoiser`` section, for signals of ``shape``.

    It is applied once to zeros of that shape, so a shape it cannot take (3-D
    under TV or NLM, a GMM of another dimension) is found before the run.
    """
    kind = spec["kind"]
    if kind == "tv":
        denoiser = tv_denoiser(c=spec["c"], tol=spec["tol"], max_iter=spec["max_iter"])
    elif kind == "gaussian":
        denoiser = gaussian_filter_denoiser(spec["kernel_sigma"], radius=spec["radius"])
    elif kind == "nlm":
        denoiser = nlm_denoiser(spec["patch_radius"], spec["window_radius"], spec["h"])
    elif kind == "spectral":
        denoiser = linear_spectral_denoiser(shape, spec["lam"], transform=spec["transform"],
                                            profile=spec["profile"])
    elif kind == "gs":
        smoother = gaussian_smoother(shape, spec["kernel_sigma"], floor=spec["floor"])
        denoiser = gs_denoiser(smoother, weight=spec["weight"])
    else:
        denoiser = mmse_gmm_denoiser(build_gmm_prior(spec))
    denoiser.apply(np.zeros(shape))
    return denoiser


def build_reg_prox(spec: dict):
    kind = spec["kind"]
    if kind == "l1":
        return l1_prox(spec["weight"])
    if kind == "box":
        return box_prox(spec["lo"], spec["hi"])
    if kind == "tv":
        return tv_prox(spec["weight"])
    if kind == "wavelet":
        return wavelet_l1_prox(spec["weight"], levels=spec["levels"])
    return zero_prox()


def _check_start(op: LinearOp, y: np.ndarray) -> None:
    """K^T y starts every solve and chain, so a non-finite one is a config error."""
    with _section("config.operator"), np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(op._adjoint(y))):
            raise ConfigError("K^T y has non-finite entries; the operator scale overflows")


def _build_problem(spec: dict, image_spec: dict, rng: Rng, where: str, image_index: int = 0):
    """Build (x_true, name, K, y, denoiser) for a solve/compare config.

    The solver runs of one image share these read-only.
    """
    with _section(where):
        x_true, name = build_image(image_spec)
    x_true.setflags(write=False)
    with _section("config.operator"):
        op = build_operator(spec["operator"], x_true.shape, rng.child(7))
        y_clean = op.apply(x_true)
    noise = spec["noise"]
    with _section("config.noise"):
        sigma = (0.0 if noise is None
                 else 0.01 * noise["percent"] if "percent" in noise else noise["sigma"])
        y = add_gaussian_noise(y_clean, sigma, rng.child(100 + image_index))
    _check_start(op, y)
    with _section("config.denoiser"):
        denoiser = (None if spec["denoiser"] is None
                    else build_denoiser(spec["denoiser"], x_true.shape))
    return x_true, name, op, y, denoiser


def _solver_run(spec: dict, problem, where: str):
    """Check a filled solver section against its problem; return its run.

    The run takes no arguments and returns (the solver's point, its Trace);
    a value the library rejects during it is a ConfigError naming ``where``.
    """
    algo = spec["algo"]
    ref, _, op, y, den = problem
    with _section(where):
        fields = {k: spec[k] for k in ("step", "alpha", "rho", "max_iter", "tol") if k in spec}
        fields.update(("step", spec[k]) for k in ("tau", "eta") if spec.get(k) is not None)
        cfg = SolverConfig(**fields, record_time=False)  # byte-identical reruns
        prox = None if spec.get("reg") is None else RegSlot(prox=build_reg_prox(spec["reg"]))
        plug = None if den is None else RegSlot(denoiser=den, sigma=spec.get("sigma", 0.0))
        fills = {"reg": prox, "sigma": plug}  # the slot is the first one its row names
        slot = next((fills[k] for k in spec if fills.get(k) is not None), plug)
        if slot is None:
            raise ConfigError(f"algo {algo!r} needs a denoiser in the config"
                              + (" or a 'reg' spec" if "reg" in spec else ""))
        if algo == "gs-pnp" and den.potential is None:
            raise ConfigError("gs-pnp needs a gradient-step denoiser (kind 'gs')")

    def run():
        with _section(where):
            x0 = op._adjoint(y)
            if algo in ("pgd", "pnp-pgd", "apgd", "pnp-apgd"):
                driver = run_apgd if algo.endswith("apgd") else run_pgd
                return driver(SmoothFn.least_squares(op, y), slot, cfg, x0, reference=ref)
            if algo in ("drs", "pnp-drsdiff"):
                return run_drs(quadratic_fidelity_prox(op, y), slot, cfg, x0, reference=ref)
            if algo == "pnp-drs":
                return run_drs(slot, quadratic_fidelity_prox(op, y), cfg, x0, reference=ref)
            if algo in ("admm", "pnp-admm"):
                return run_admm(op, y, slot, cfg, reference=ref)
            if algo == "hqs":
                return run_hqs(op, y, slot, cfg, rho_schedule=spec["rho_schedule"],
                               sigma_schedule=spec["sigma_schedule"], reference=ref)
            if algo == "red-gd":
                return run_red_gd(op, y, den, lam=spec["lam"], sigma=spec["sigma"], cfg=cfg,
                                  reference=ref)
            if algo in ("red-pg", "red-apg"):
                runner = run_red_pg if algo == "red-pg" else run_red_apg
                return runner(op, y, den, lam=spec["lam"], L=spec["L"], cfg=cfg,
                              sigma=spec["sigma"], reference=ref)
            lam = den.weight if spec["lam"] is None else spec["lam"]
            return run_pgd(SmoothFn.potential(den, lam), quadratic_fidelity_prox(op, y), cfg, x0,
                           reference=ref, backtracking=spec["backtracking"])

    return run


def _worker_count() -> int:
    """The compare pool size: PNPKIT_THREADS, a positive integer (1 when unset)."""
    raw = os.environ.get("PNPKIT_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"PNPKIT_THREADS must be a positive integer, got {raw!r:.60}")
    return workers


def _map_jobs(fn, items, workers: int):
    """``[fn(item) for item in items]``, on up to ``workers`` forked worker processes.

    The workers are ``fork`` children of this process, so ``fn`` (a closure
    over the problems built here) and ``items`` reach them without pickling;
    only each result, or the exception a job raised, comes back by pickle.
    The results are in item order, and the pool is shut down, its workers
    joined, before this returns or raises.  With one worker, one item or no
    ``fork`` start method, the items run in order in this process.
    """
    if workers > 1 and len(items) > 1:
        import multiprocessing  # imported here: at module level it slows every CLI start

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=min(workers, len(items)),
                                       mp_context=multiprocessing.get_context("fork"),
                                       initializer=_hold_jobs, initargs=(fn, items))
            try:
                return list(pool.map(_run_held_job, range(len(items))))
            finally:  # after a failed job, the jobs not yet started never start
                pool.shutdown(cancel_futures=True)
    return [fn(item) for item in items]


_HELD_JOBS = None  # (fn, items) in a worker process of _map_jobs


def _hold_jobs(fn, items) -> None:
    global _HELD_JOBS
    _HELD_JOBS = (fn, items)


def _run_held_job(index: int):
    fn, items = _HELD_JOBS
    return fn(items[index])


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands: each builds its problem, then makes its output directory
# ---------------------------------------------------------------------------


def _prepare_out(args, default) -> Path:
    """Make the output directory ``--out`` (else ``default``) and its missing parents.

    The directories made are kept in ``args.made_dirs``, deepest first, so a
    command that fails later can take back the ones it left empty.
    """
    out = Path(args.out or default)
    with _section("config.output"):
        args.made_dirs = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(spec: dict, rng: Rng, args) -> int:
    problem = _build_problem(spec, spec["image"], rng, "config.image")
    if problem[0].ndim != 2:  # recon.pgm is a grayscale image
        raise ConfigError(f"config.image: solve needs a 2-D image, got shape {problem[0].shape}")
    run = _solver_run(spec["solver"], problem, "config.solver")
    out = _prepare_out(args, spec["output"])
    recon, trace = run()
    x_true, name, _, y, _ = problem
    save_signal(recon, out / "recon.raw")
    save_signal(np.clip(recon, 0.0, 1.0), out / "recon.pgm")
    write_trace(trace, out / "trace.csv")
    summary = {
        "final_psnr": psnr(recon, x_true),
        "input_psnr": psnr(y, x_true) if y.shape == x_true.shape else None,
        "iters": int(trace.last().iter),
        "stop_reason": trace.stop_reason,
        "seed": rng.seed,
        "image": name,
    }
    _write_json(summary, out / "summary.json")
    print(f"solve[{spec['solver']['algo']}] {name}: psnr {summary['final_psnr']:.2f} dB "
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


def cmd_compare(spec: dict, rng: Rng, args) -> int:
    jobs = []
    for i, image_spec in enumerate(spec["images"]):
        problem = _build_problem(spec, image_spec, rng, f"config.images[{i}]", image_index=i)
        x_true, name = problem[:2]
        for j, solver in enumerate(spec["solvers"]):
            run = _solver_run(solver, problem, f"config.solvers[{j}]")
            jobs.append((solver["algo"], f"{i:02d}_{name}", x_true, run))
    algos = [solver["algo"] for solver in spec["solvers"]]
    if len(set(algos)) < len(algos):  # an algo's runs are named by it alone
        raise ConfigError(f"config.solvers: each algo may appear once, got {algos}")
    workers = _worker_count()
    out = _prepare_out(args, spec["output"])

    def run_one(job):
        algo, image, x_true, run = job
        try:
            recon, trace = run()
            final_psnr = psnr(recon, x_true)
        except DivergenceError as exc:
            trace, final_psnr = exc.trace, psnr(exc.last, x_true)
        res = trace.column("step_residual")
        finite = res[np.isfinite(res)]
        slope = _residual_slope(trace)
        converged = trace.stop_reason != "diverged" and (
            trace.stop_reason == "tolerance" or (math.isfinite(slope) and slope <= -0.35)
        )
        return trace, {
            "solver": algo,
            "image": image,
            "final_psnr": final_psnr,
            "min_residual": float(np.min(finite)) if finite.size else math.nan,
            "residual_slope": slope,
            "converged": converged,
        }

    # nothing is written until every row has returned, so a failed row leaves no files
    results = _map_jobs(run_one, jobs, workers)
    lines = ["solver,image,final_psnr,min_residual,residual_slope,converged"]
    for trace, r in results:
        write_trace(trace, out / f"trace_{r['solver']}_{r['image']}.csv")
        lines.append(
            f"{r['solver']},{r['image']},{r['final_psnr']!r},{r['min_residual']!r},"
            f"{r['residual_slope']!r},{str(r['converged']).lower()}"
        )
    (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for _, r in results:
        print(f"compare[{r['solver']}] {r['image']}: psnr {r['final_psnr']:.2f} dB, "
              f"slope {r['residual_slope']:.2f}, converged={r['converged']}")
    return EXIT_OK


def cmd_sweep(spec: dict, rng: Rng, args) -> int:
    sweep = spec["sweep"]
    c = sweep["c"]
    diag = np.asarray(sweep["diag"], dtype=np.float64)
    x_true = np.asarray(sweep["x_true"], dtype=np.float64)
    if diag.shape != x_true.shape:
        raise ConfigError("config.sweep: diag and x_true must have the same length")
    with _section("config.sweep"):
        fid_cfg = SolverConfig(step=sweep["eta"], max_iter=100000, tol=1e-14,
                               record_time=False)
        op = DiagonalOp(diag)
        y0 = op._apply(x_true)
        x_dagger = naive_svd_solve(op, y0)
    out = _prepare_out(args, spec["output"])

    direction = rng.standard_normal(diag.shape)
    direction /= np.linalg.norm(direction)

    rows = []
    for delta in sweep["deltas"]:
        lam = c * math.sqrt(delta)
        y_delta = y0 + delta * direction
        if lam == 0.0:
            x_hat = naive_svd_solve(op, y_delta)
        else:
            den = linear_spectral_denoiser(diag.shape, lam, transform="identity")
            fid = SmoothFn.least_squares(op, y_delta)
            x_hat, _ = run_pgd(fid, RegSlot(denoiser=den), fid_cfg,
                               op._adjoint(y_delta))
        err = float(np.linalg.norm(x_hat - x_dagger))
        rows.append((delta, lam, err))
        print(f"sweep: delta {delta:.6g}  lambda {lam:.6g}  error {err:.6g}")

    lines = ["delta,lambda,error"]
    for delta, lam, err in rows:
        lines.append(f"{delta!r},{lam!r},{err!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    errors = [r[2] for r in rows]
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    if args.do_assert and not monotone:
        print("sweep: error column is not strictly decreasing", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def cmd_diagnose(spec: dict, rng: Rng, args) -> int:
    probe = spec["probe"]
    shape = tuple(probe["shape"])
    sigma, fd_step, mu = probe["sigma"], probe["fd_step"], spec["mu"]
    with _section("config.denoiser"):
        denoiser = build_denoiser(spec["denoiser"], shape)
    # the diagnostics themselves check the probe settings
    with _section("config.probe"):
        eps = estimate_residual_lipschitz(denoiser, sigma, shape, probes=probe["probes"],
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
    out = _prepare_out(args, spec["output"])
    _write_json(report, out / "diagnose.json")
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_sample(spec: dict, rng: Rng, args) -> int:
    with _section("config.prior"):
        prior = build_gmm_prior(spec["prior"])
    x_true = sample_smoothed(prior, 0.0, rng.child(1))
    with _section("config.operator"):
        op = build_operator(spec["operator"], x_true.shape, rng.child(7))
        y_clean = op.apply(x_true)
    s = spec["sampler"]
    with _section("config.sampler"):
        cfg = UlaConfig(delta=s["delta"], sigma=s["sigma"], sigma_w=s["sigma_w"],
                        kept=s["kept"], burn_in=s["burn_in"], thin=s["thin"], seed=rng.seed)
        _sample_buffer(cfg.kept, op.in_size)  # the chain's kept samples must fit in memory
        y = add_gaussian_noise(y_clean, cfg.sigma_w, rng.child(2))
    _check_start(op, y)
    denoiser = mmse_gmm_denoiser(prior)
    out = _prepare_out(args, spec["output"])
    with _section("config.sampler"):
        stats, samples = run_pnp_ula(op, y, denoiser, cfg)

    write_stats_csv(stats, out / "stats.csv")
    if spec["save_samples"]:
        save_signal(samples, out / "samples.raw")
    summary = {
        "seed": rng.seed,
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
        se = np.sqrt(oracle.variance / np.maximum(stats.coordinate_ess, 1.0))
        allowed = np.maximum(3.0 * se, 2.0 * cfg.delta)
        var_err = np.abs(stats.variance / oracle.variance - 1.0)
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


def cmd_plot(spec: dict, rng, args) -> int:
    traces, labels = [], []
    for p in spec["traces"]:
        t = read_trace(p)
        if len(t) == 0:
            raise ParseError(f"{p}: trace has no rows")
        traces.append(t)
        labels.append(Path(p).stem)
    target = _prepare_out(args, ".") / spec["output"]
    target.write_text(render_traces_svg(traces, labels), encoding="utf-8")
    print(f"plot: wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# command -> (the config tasks it runs, handler); a plot config has no task
COMMANDS = {
    "solve": (SOLVE_TASKS, cmd_solve),
    "compare": (("compare",), cmd_compare),
    "sweep": (("sweep",), cmd_sweep),
    "diagnose": (("diagnose",), cmd_diagnose),
    "sample": (("sample",), cmd_sample),
    "plot": (None, cmd_plot),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pnpkit",
                                     description="plug-and-play experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "sweep":
            p.add_argument("--assert", dest="do_assert", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.made_dirs = []
    tasks, handler = COMMANDS[args.command]
    try:
        doc = _load_json(args.config)
        if tasks is None:
            return handler(_read(doc, _PLOT, "config"), None, args)
        spec = validate_config(doc)
        if spec["task"] not in tasks:
            raise ConfigError(f"{args.command!r} expects task in {tasks}, "
                              f"got {spec['task']!r}")
        with _section("config.seed"):
            rng = Rng(spec["seed"] if args.seed is None else args.seed)
        return handler(spec, rng, args)
    except (ConfigError, ParseError, ShapeError) as exc:  # shapes come from the config
        return _fail(args, exc, EXIT_CONFIG)
    except PnpkitError as exc:  # divergence, or an inner solve that missed its certificate
        return _fail(args, exc, EXIT_DIVERGED)


def _fail(args, exc: Exception, status: int) -> int:
    """Report ``exc`` and remove the output directories this command made and left empty."""
    print(f"pnpkit: {exc}", file=sys.stderr)
    for made in args.made_dirs:  # deepest first; a directory that existed is not listed
        try:
            made.rmdir()
        except OSError:  # not empty
            break
    return status


if __name__ == "__main__":
    sys.exit(main())
