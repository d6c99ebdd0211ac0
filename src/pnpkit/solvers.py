"""Deterministic iterative schemes: proximal splittings, RED, GS-PnP.

Every driver accepts a regularization slot that holds either an exact
proximal map or a denoiser, so the plug-and-play variant of each scheme is
the same code path as the classical one.  Each scheme is a fixed-point
iteration x_{k+1} = T(x_k) and supplies only its step to one kernel,
:func:`_iterate`: ``advance(k, x)`` returns the next state, and
``report(k, x, r)``, called once that state has passed the divergence check,
says what the trace shows for it.  The kernel owns the rest.  Drivers return
the final point plus a per-iteration :class:`~pnpkit.core.Trace`; stopping
is on the step residual ||x_{k+1} - x_k|| (default 1e-9) or max_iter.  A
non-finite start raises ValueError.  A non-finite state, a state norm above
1e12, or a DivergenceError from inside the step (a denoiser's non-finite
output) raises :class:`~pnpkit.core.DivergenceError` carrying the step, the
last finite state and the trace; HQS and RED-APG record it instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DivergenceError, Signal, SolveError, Trace, as_array, psnr
from .denoisers import Denoiser
from .operators import LinearOp, solve_shifted_normal
from .proximal import ProxMap, _fidelity_prox

DIVERGENCE_NORM = 1e12


@dataclass
class SolverConfig:
    """Shared solver parameters.

    ``step`` is the scheme's step size (lambda, tau, or eta depending on the
    driver), ``alpha`` the relaxation parameter, ``rho`` the penalty.
    ``record_time`` controls whether wall-clock seconds enter the trace
    (disable it for byte-reproducible outputs).
    """

    step: float = 1.0
    alpha: float = 0.5
    rho: float = 1.0
    max_iter: int = 500
    tol: float = 1e-9
    eval_objective: bool = True
    seed: int = 0
    record_time: bool = True

    def __post_init__(self):
        for name in ("step", "alpha", "rho", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


@dataclass
class SmoothFn:
    """Smooth term: gradient plus optional value."""

    grad: Callable[[np.ndarray], np.ndarray]
    value: Callable[[np.ndarray], float] | None = None

    @staticmethod
    def least_squares(op: LinearOp, y) -> "SmoothFn":
        y_arr = as_array(y)
        return SmoothFn(grad=op.least_squares_grad(y_arr), value=op.least_squares_value(y_arr))


def _as_smooth(obj) -> SmoothFn:
    if isinstance(obj, SmoothFn):
        return obj
    return SmoothFn(grad=obj)


@dataclass(frozen=True)
class RegSlot:
    """Regularization slot: exactly one of an exact prox or a denoiser.

    For a prox slot, ``apply(v, scale)`` evaluates prox_{scale*weight*g};
    the denoiser slot applies D_sigma and ignores the scale, which is the
    plug-and-play substitution.  ``reg_value`` evaluates the regularization
    term of the objective the scheme targets, when that is known (prox
    objective, or the denoiser's exact proximal potential divided by the
    scale).
    """

    prox: ProxMap | None = None
    denoiser: Denoiser | None = None
    weight: float = 1.0
    sigma: float = 0.0

    def __post_init__(self):
        if (self.prox is None) == (self.denoiser is None):
            raise ValueError("exactly one of prox/denoiser must be set")
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def apply(self, v: np.ndarray, scale: float) -> np.ndarray:
        if self.prox is not None:
            return as_array(self.prox.evaluate(v, scale * self.weight))
        return as_array(self.denoiser.apply(v, self.sigma))

    def reg_value(self, x: np.ndarray, scale: float) -> float | None:
        if self.prox is not None:
            if self.prox.objective is None:
                return None
            return self.weight * float(self.prox.objective(x))
        if self.denoiser.prox_potential is not None:
            return float(self.denoiser.prox_potential(x, self.sigma)) / scale
        return None


def as_slot(obj, weight: float = 1.0, sigma: float = 0.0) -> RegSlot:
    if isinstance(obj, RegSlot):
        return obj
    if isinstance(obj, ProxMap):
        return RegSlot(prox=obj, weight=weight)
    if isinstance(obj, Denoiser):
        return RegSlot(denoiser=obj, sigma=sigma)
    raise TypeError(f"cannot build a RegSlot from {type(obj).__name__}")


def _objective(cfg: SolverConfig, f: SmoothFn | None, slot: RegSlot | None,
               x: np.ndarray, scale: float) -> float:
    if not cfg.eval_objective:
        return math.nan
    total = 0.0
    if f is not None:
        if f.value is None:
            return math.nan
        total += float(f.value(x))
    if slot is not None:
        reg = slot.reg_value(x, scale)
        if reg is None:
            return math.nan
        total += reg
    return total


def _iterate(cfg: SolverConfig, x0, advance, report=None, reference=None,
             peak: float = 1.0, row0=None, record_divergence: bool = False):
    """Run x_{k+1} = advance(k, x_k) under the shared trace and stopping rules.

    ``report(k, x, r)`` gets a checked state and its step residual and
    returns the traced (point, objective, step_residual, fp_residual); the
    default traces the state with no objective and r as both residuals.
    Row 0 is ``report(0, x0, nan)`` unless ``row0``, with the same
    signature, is given.  Returns (Signal of the last traced point, trace).
    """
    x = as_array(x0).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("the start point x0 has non-finite entries")
    report = report or (lambda k, x_new, r: (x_new, math.nan, r, r))
    ref = None if reference is None else as_array(reference)
    trace = Trace()
    t0 = time.perf_counter()

    def append(k, point, objective, step_residual, fp_residual):
        trace.append(k, objective, step_residual, fp_residual,
                     math.nan if ref is None else psnr(point, ref, peak),
                     (time.perf_counter() - t0) if cfg.record_time else math.nan)

    point, objective, r, fp = (row0 or report)(0, x, math.nan)
    append(0, point, objective, r, fp)
    trace.stop_reason = "max_iter"
    for k in range(1, cfg.max_iter + 1):
        try:
            x_new = advance(k, x)
            if not np.all(np.isfinite(x_new)) or float(np.linalg.norm(x_new)) > DIVERGENCE_NORM:
                raise DivergenceError(f"iterates diverged at step {k}")
            point, objective, r, fp = report(k, x_new, float(np.linalg.norm(x_new - x)))
        except DivergenceError as exc:
            trace.stop_reason = "diverged"
            exc.step, exc.last, exc.trace = k, Signal.from_array(x), trace
            if record_divergence:
                return exc.last, trace
            raise
        append(k, point, objective, r, fp)
        x = x_new
        if r <= cfg.tol:
            trace.stop_reason = "tolerance"
            break
    return Signal.from_array(point), trace


# ---------------------------------------------------------------------------
# Proximal gradient descent and relatives
# ---------------------------------------------------------------------------


def run_pgd(grad_f, reg, cfg: SolverConfig, x0, reference=None, peak: float = 1.0):
    """Proximal gradient descent x_{k+1} = reg(x_k - step * grad f(x_k)).

    With an exact prox in the slot this is classical PGD; with a denoiser it
    is the plug-and-play substitution of the same iteration.
    """
    f = _as_smooth(grad_f)
    slot = as_slot(reg)
    return _iterate(cfg, x0, lambda k, x: slot.apply(x - cfg.step * f.grad(x), cfg.step),
                    lambda k, x, r: (x, _objective(cfg, f, slot, x, cfg.step), r, r),
                    reference, peak)


def run_pgd_preconditioned(grad_f, reg: ProxMap, precond, cfg: SolverConfig, x0,
                           reference=None, peak: float = 1.0):
    """Fixed-preconditioner proximal gradient with a diagonal metric B.

    x_{k+1} = prox_g^B(x_k - B^{-1} grad f(x_k)), where the scaled prox under
    a diagonal B is the componentwise prox with lam_i = 1/B_i; this requires
    a separable g (l1, box, quadratic), otherwise the prox raises.
    """
    f = _as_smooth(grad_f)
    b = as_array(precond)
    if np.any(b <= 0):
        raise ValueError("preconditioner entries must be positive")
    inv_b = 1.0 / b
    if as_array(x0).shape != b.shape:
        raise ValueError("preconditioner shape must match the iterate")
    slot = as_slot(reg)
    return _iterate(cfg, x0,
                    lambda k, x: as_array(reg.evaluate_scaled(x - inv_b * f.grad(x), inv_b)),
                    lambda k, x, r: (x, _objective(cfg, f, slot, x, 1.0), r, r),
                    reference, peak)


def run_apgd(grad_f, reg, cfg: SolverConfig, x0, y0=None, reference=None,
             peak: float = 1.0):
    """Relaxed proximal gradient (alpha-PGD), three-line form.

        q_{k+1} = (1-alpha) x_k + alpha y_k
        y_{k+1} = reg(y_k - step * grad f(q_{k+1}))
        x_{k+1} = (1-alpha) x_k + alpha y_{k+1}

    The Lyapunov value F(x_k) + (alpha/2)(1 - 1/alpha)^2 ||x_k - x_{k-1}||^2
    is reconstructable from the trace as
    objective + (alpha/2)(1-1/alpha)^2 * step_residual^2.
    """
    f = _as_smooth(grad_f)
    slot = as_slot(reg)
    alpha = cfg.alpha
    y = as_array(x0 if y0 is None else y0)

    def advance(k, x):
        nonlocal y
        q = (1.0 - alpha) * x + alpha * y
        y = slot.apply(y - cfg.step * f.grad(q), cfg.step)
        return (1.0 - alpha) * x + alpha * y

    return _iterate(cfg, x0, advance,
                    lambda k, x, r: (x, _objective(cfg, f, slot, x, cfg.step), r, r),
                    reference, peak)


# ---------------------------------------------------------------------------
# Douglas-Rachford splitting and ADMM
# ---------------------------------------------------------------------------


def run_drs(map_a, map_b, cfg: SolverConfig, x0, reference=None, peak: float = 1.0):
    """Douglas-Rachford iteration with two resolvent slots.

        y_{k+1} = A(x_k)
        z_{k+1} = B(2 y_{k+1} - x_k)
        x_{k+1} = x_k + z_{k+1} - y_{k+1}

    With A = prox of the first term and B of the second this is classical
    DRS; putting the denoiser in the A slot gives the denoiser-first
    variant, putting it in the B slot (after a differentiable fidelity
    prox) gives the fidelity-first variant.  The returned point is the
    limit of the y-sequence.  The traced fixed-point residual is
    ||z_k - y_k|| = ||x_{k+1} - x_k||, the update's own residual.
    """
    slot_a = as_slot(map_a)
    slot_b = as_slot(map_b)
    lam = cfg.step
    y = as_array(x0)  # the traced point; row 0 shows the start

    def advance(k, x):
        nonlocal y
        y = slot_a.apply(x, lam)
        z = slot_b.apply(2.0 * y - x, lam)
        return x + z - y

    def objective_at(point):
        if not cfg.eval_objective:
            return math.nan
        va = slot_a.reg_value(point, lam)
        vb = slot_b.reg_value(point, lam)
        if va is None or vb is None:
            return math.nan
        return va + vb

    return _iterate(cfg, x0, advance, lambda k, x, r: (y, objective_at(y), r, r), reference,
                    peak)


def run_admm(op: LinearOp, y, reg, cfg: SolverConfig, x0=None, z0=None, u0=None,
             reference=None, peak: float = 1.0):
    """ADMM for 0.5*||Kx - y||^2 + g(z) subject to x = z.

        x_{k+1} = (K^T K + rho I)^{-1} (K^T y + rho (z_k - u_k))
        z_{k+1} = reg(x_{k+1} + u_k)        (prox_{g/rho}, or the denoiser)
        u_{k+1} = u_k + x_{k+1} - z_{k+1}

    The x-update is exact through the shifted normal equations.  The traced
    fixed-point residual is the primal residual ||x_k - z_k||.
    """
    y_arr = as_array(y)
    slot = as_slot(reg)
    rho = cfg.rho
    kty = op._adjoint(y_arr)
    x = kty if x0 is None else as_array(x0)
    z = x if z0 is None else as_array(z0)
    u = np.zeros_like(x) if u0 is None else as_array(u0)
    fid = SmoothFn.least_squares(op, y_arr)

    def advance(k, x):
        nonlocal z, u
        x_new = as_array(solve_shifted_normal(op, rho, kty + rho * (z - u)))
        z = slot.apply(x_new + u, 1.0 / rho)
        u = u + x_new - z
        return x_new

    def report(k, x, r):
        primal = float(np.linalg.norm(x - z)) if k else math.nan
        return x, _objective(cfg, fid, slot, x, 1.0 / rho), r, primal

    return _iterate(cfg, x, advance, report, reference, peak)


def _as_schedule(value, default: float):
    if value is None:
        return lambda k: default
    if np.isscalar(value):
        return lambda k: float(value)
    if callable(value):
        return lambda k: float(value(k))
    seq = [float(v) for v in value]
    return lambda k: seq[min(k - 1, len(seq) - 1)]


def run_hqs(op: LinearOp, y, reg, cfg: SolverConfig, x0=None, rho_schedule=None,
            sigma_schedule=None, reference=None, peak: float = 1.0):
    """Half-quadratic splitting, the (possibly non-convergent) baseline.

        x_{k+1} = prox_{f/rho_k}(z_k)   with f = 0.5*||K. - y||^2
        z_{k+1} = reg(x_{k+1})          (prox_{g/rho_k}, or D_{sigma_k})

    Supports rho and sigma schedules (constant, sequence, or callable); a
    decreasing-sigma denoiser schedule mimics the classical non-convergent
    baseline.  Divergence is recorded in the trace, not raised.
    """
    y_arr = as_array(y)
    slot = as_slot(reg)
    rho_of = _as_schedule(rho_schedule, cfg.rho)
    sigma_of = _as_schedule(sigma_schedule, slot.sigma)
    fid = SmoothFn.least_squares(op, y_arr)
    kty = op._adjoint(y_arr)
    scale = 1.0 / rho_of(1)  # 1/rho_k of the current step; row 0 uses rho_1

    def advance(k, z):
        nonlocal scale
        scale = 1.0 / rho_of(k)
        x = _fidelity_prox(z, scale, op, kty)
        if slot.denoiser is not None:
            return as_array(slot.denoiser.apply(x, sigma_of(k)))
        return slot.apply(x, scale)

    return _iterate(cfg, kty if x0 is None else x0, advance,
                    lambda k, z, r: (z, _objective(cfg, fid, slot, z, scale), r, r),
                    reference, peak, record_divergence=True)


# ---------------------------------------------------------------------------
# RED schemes
# ---------------------------------------------------------------------------


def _red_fixed_point_norm(grad_f, x, dx, weight: float) -> float:
    return float(np.linalg.norm(grad_f(x) + weight * (x - dx)))


def run_red_gd(op: LinearOp, y, denoiser: Denoiser, lam: float, sigma: float,
               eta: float, cfg: SolverConfig, x0=None, reference=None,
               peak: float = 1.0):
    """Gradient-descent RED.

        x_{k+1} = x_k - eta * [K^T(K x_k - y) + (lam/sigma^2)(x_k - D(x_k))]

    The traced fixed-point residual is the norm of the bracket, i.e. the
    stationarity condition the scheme aims to null (with the effective
    weight lam/sigma^2).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be finite and nonnegative")
    y_arr = as_array(y)
    grad_f = op.least_squares_grad(y_arr)
    weight = lam / (sigma * sigma)
    fc = None  # the bracket at the current state

    def bracket_norm(x):
        nonlocal fc
        dx = as_array(denoiser.apply(x, sigma))
        fc = grad_f(x) + weight * (x - dx)
        return float(np.linalg.norm(fc))

    return _iterate(cfg, op._adjoint(y_arr) if x0 is None else x0,
                    lambda k, x: x - eta * fc,
                    lambda k, x, r: (x, math.nan, r, bracket_norm(x)), reference, peak)


def _run_red_prox(op: LinearOp, y, denoiser: Denoiser, lam: float, L: float,
                  cfg: SolverConfig, v0, sigma: float, reference, peak: float,
                  accelerated: bool):
    """RED-PG and, with Nesterov momentum on the v-update, RED-APG."""
    if L <= 1:
        raise ValueError("L must exceed 1")
    y_arr = as_array(y)
    kty = op._adjoint(y_arr)
    grad_f = op.least_squares_grad(y_arr)
    v = kty if v0 is None else as_array(v0)
    x_prev, t_prev = None, 1.0

    def advance(k, x):
        return _fidelity_prox(v, 1.0 / (lam * L), op, kty)

    def report(k, x, r):
        nonlocal v, x_prev, t_prev
        dx = as_array(denoiser.apply(x, sigma))
        z = x
        if accelerated:
            t = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
            if x_prev is None:
                r = math.nan  # the start is v_0; there is no x_0 to step from
            else:
                z = x + ((t_prev - 1.0) / t) * (x - x_prev)
            x_prev, t_prev = x, t
        v = (1.0 / L) * dx - ((1.0 - L) / L) * z
        return x, math.nan, r, _red_fixed_point_norm(grad_f, x, dx, lam)

    def row0(k, v0, r):
        dv = as_array(denoiser.apply(v0, sigma))
        return v0, math.nan, r, _red_fixed_point_norm(grad_f, v0, dv, lam)

    return _iterate(cfg, v, advance, report, reference, peak, row0=row0,
                    record_divergence=accelerated)


def run_red_pg(op: LinearOp, y, denoiser: Denoiser, lam: float, L: float,
               cfg: SolverConfig, v0=None, sigma: float = 0.0, reference=None,
               peak: float = 1.0):
    """Proximal-gradient RED, the provably convergent fixed-point scheme.

        x_k = argmin_x f(x) + (lam*L/2) ||x - v_{k-1}||^2
        v_k = (1/L) D(x_k) - ((1 - L)/L) x_k

    Requires L > 1 (the averagedness condition).  The traced fixed-point
    residual is ||K^T(K x - y) + lam (x - D(x))||.
    """
    return _run_red_prox(op, y, denoiser, lam, L, cfg, v0, sigma, reference, peak,
                         accelerated=False)


def nesterov_t_sequence(count: int) -> np.ndarray:
    """t_0 = 1, t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2."""
    t = np.empty(count)
    if count == 0:
        return t
    t[0] = 1.0
    for k in range(1, count):
        t[k] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t[k - 1] ** 2))
    return t


def run_red_apg(op: LinearOp, y, denoiser: Denoiser, lam: float, L: float,
                cfg: SolverConfig, v0=None, sigma: float = 0.0, reference=None,
                peak: float = 1.0):
    """Momentum-accelerated RED (trace only; convergence is not asserted).

        x_k = argmin_x f(x) + (lam*L/2) ||x - v_{k-1}||^2
        t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2
        z_k = x_k + ((t_{k-1} - 1)/t_k) (x_k - x_{k-1})
        v_k = (1/L) D(x_k) - ((1 - L)/L) z_k

    Divergence is recorded in the trace rather than raised, and the last
    finite x_k is returned.  The step residual of k = 1 is NaN, as x_1 has
    no predecessor.
    """
    return _run_red_prox(op, y, denoiser, lam, L, cfg, v0, sigma, reference, peak,
                         accelerated=True)


# ---------------------------------------------------------------------------
# GS-PnP with optional backtracking
# ---------------------------------------------------------------------------


def run_gs_pnp(op: LinearOp, y, gs: Denoiser, cfg: SolverConfig, lam: float | None = None,
               tau: float | None = None, backtracking: bool = False, x0=None,
               reference=None, peak: float = 1.0, max_halvings: int = 60):
    """Prox-on-fidelity scheme for gradient-step denoisers.

        x_{k+1} = prox_{t f}(x_k - t * lam * grad g(x_k)),  f = 0.5*||K. - y||^2

    Evaluates F = f + lam*g every iteration (g is the denoiser's exposed
    potential).  Without backtracking the step is t = tau throughout; with
    backtracking the trial step is halved (at most ``max_halvings`` times,
    so down to 2^-60 * tau by default) until

        F(x_k) - F(x_{k+1}) >= (1/t) ||x_{k+1} - x_k||^2,

    and exhaustion raises SolveError reporting the last objective values.
    The test carries a 1e-12 relative slack so that rounding noise near
    convergence cannot stall the search.
    """
    if gs.potential is None or gs.grad_potential is None:
        raise ValueError("run_gs_pnp needs a gradient-step denoiser exposing its potential")
    lam = (gs.weight if gs.weight is not None else 1.0) if lam is None else lam
    tau = cfg.step if tau is None else tau
    if lam <= 0 or tau <= 0:
        raise ValueError("lam and tau must be positive")
    y_arr = as_array(y)
    kty = op._adjoint(y_arr)
    fidelity = op.least_squares_value(y_arr)

    def full_objective(x):
        return fidelity(x) + lam * float(gs.potential(x, 0.0))

    fx = math.nan  # F at the current state

    def row0(k, x, r):
        nonlocal fx
        fx = full_objective(x)
        return x, fx, r, r

    def advance(k, x):
        nonlocal fx
        grad = as_array(gs.grad_potential(x, 0.0))
        if backtracking:
            t = tau
            accepted = False
            cand, f_cand = x, fx
            slack = 1e-12 * max(1.0, abs(fx))
            for _ in range(max_halvings + 1):
                cand = _fidelity_prox(x - t * lam * grad, t, op, kty)
                f_cand = full_objective(cand)
                if fx - f_cand >= (1.0 / t) * float(np.sum((cand - x) ** 2)) - slack:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                raise SolveError(
                    f"backtracking exhausted {max_halvings} halvings at iteration {k}: "
                    f"F(x) = {fx:.12g}, last trial F = {f_cand:.12g}"
                )
        else:
            cand = _fidelity_prox(x - tau * lam * grad, tau, op, kty)
            f_cand = full_objective(cand)
        fx = f_cand
        return cand

    return _iterate(cfg, kty if x0 is None else x0, advance,
                    lambda k, x, r: (x, fx, r, r), reference, peak, row0=row0)


# ---------------------------------------------------------------------------
# Generic fixed-point driver
# ---------------------------------------------------------------------------


def drsdiff_operator(prox_f: ProxMap, denoiser: Denoiser, tau: float,
                     sigma: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Fidelity-first DRS as a single operator x -> T(x).

    T = 0.5*id + 0.5*(2D - id)(2 prox_{tau f} - id); iterating T reproduces
    the three-line fidelity-first DRS updates exactly.
    """

    def operator(x):
        yk = as_array(prox_f.evaluate(x, tau))
        reflected = 2.0 * yk - x
        zk = as_array(denoiser.apply(reflected, sigma))
        return 0.5 * x + 0.5 * (2.0 * zk - reflected)

    return operator


def run_fixed_point(operator, cfg: SolverConfig, x0, reference=None, peak: float = 1.0):
    """Iterate x_{k+1} = operator(x_k) and estimate the empirical contraction factor.

    The factor is sup_k ||x_{k+1} - x*|| / ||x_k - x*|| against the final
    iterate as the x* proxy, excluding the last 5 iterations (whose ratios
    are dominated by the proxy error).  Returns (x, trace, factor); raises
    SolveError carrying the factor when max_iter is hit before the step
    residual reaches tolerance.
    """
    iterates = [as_array(x0).copy()]

    def advance(k, x):
        x_new = as_array(operator(x))
        iterates.append(x_new.copy())
        return x_new

    x, trace = _iterate(cfg, x0, advance, reference=reference, peak=peak)
    star = iterates[-1]
    dists = [float(np.linalg.norm(it - star)) for it in iterates]
    factor = 0.0
    usable = len(dists) - 1 - 5  # drop ratios from the last 5 iterations
    scale = max(dists[0], 1.0)
    for k in range(max(usable, 0)):
        if dists[k] > 1e-14 * scale:
            factor = max(factor, dists[k + 1] / dists[k])
    if trace.stop_reason != "tolerance":
        raise SolveError("fixed-point iteration did not converge", residual=factor)
    return x, trace, factor
