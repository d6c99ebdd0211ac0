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
non-finite start raises ValueError.  A state that fails
:func:`~pnpkit.core.diverged` (non-finite, or norm above 1e12), or a
DivergenceError from inside the step (a denoiser's non-finite output),
raises :class:`~pnpkit.core.DivergenceError` carrying the step, the last
finite state and the trace; HQS and RED-APG record it instead.

One driver per scheme: :func:`run_pgd` takes an optional diagonal metric
or a backtracking step rule, and fidelity-first DRS is :func:`run_drs` with
the fidelity prox first.  Gradient-step PnP (Hurault et al. 2022) is PGD on
F = f + lam*g with the data term in the prox slot and the denoiser's
potential as the smooth term: ``run_pgd(SmoothFn.potential(den, lam),
quadratic_fidelity_prox(op, y), cfg, x0)``.  :func:`contraction_factor` reads
a converged run's contraction off its trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DivergenceError, Signal, SolveError, Trace, as_array, diverged, psnr,
                   scoped_run)
from .denoisers import Denoiser
from .operators import LinearOp, solve_shifted_normal
from .proximal import ProxMap, _fidelity_prox


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


# Backtracking halves the trial step at most this many times per iteration.
_HALVINGS = 60


@dataclass
class SmoothFn:
    """Smooth term: gradient plus optional value."""

    grad: Callable[[np.ndarray], np.ndarray]
    value: Callable[[np.ndarray], float] | None = None

    @staticmethod
    def least_squares(op: LinearOp, y) -> "SmoothFn":
        y_arr = as_array(y)
        return SmoothFn(grad=op.least_squares_grad(y_arr), value=op.least_squares_value(y_arr))

    @staticmethod
    def potential(den: Denoiser, lam: float) -> "SmoothFn":
        """lam * g for a gradient-step denoiser D = id - grad g (GS-PnP's smooth term)."""
        if den.potential is None or den.grad_potential is None:
            raise ValueError("SmoothFn.potential needs a gradient-step denoiser exposing "
                             "its potential")
        if not lam > 0:
            raise ValueError("lam must be positive")
        return SmoothFn(grad=lambda x: lam * den.grad_potential(x, 0.0),
                        value=lambda x: lam * float(den.potential(x, 0.0)))


def _as_smooth(obj) -> SmoothFn:
    if isinstance(obj, SmoothFn):
        return obj
    return SmoothFn(grad=obj)


@dataclass(frozen=True)
class RegSlot:
    """Regularization slot: exactly one of an exact prox or a denoiser.

    For a prox slot, ``apply(v, scale)`` evaluates prox_{scale*g} (scale may
    be componentwise for a separable prox); the denoiser slot applies D_sigma
    and ignores the scale, which is the plug-and-play substitution.
    ``reg_value`` evaluates the regularization term of the objective the
    scheme targets, when that is known (prox objective, or the denoiser's
    exact proximal potential divided by the scale).
    """

    prox: ProxMap | None = None
    denoiser: Denoiser | None = None
    sigma: float = 0.0

    def __post_init__(self):
        if (self.prox is None) == (self.denoiser is None):
            raise ValueError("exactly one of prox/denoiser must be set")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def apply(self, v: np.ndarray, scale: float) -> np.ndarray:
        if self.prox is not None:
            return self.prox.evaluate(v, scale)
        return self.denoiser.apply(v, self.sigma)

    def reg_value(self, x: np.ndarray, scale: float) -> float | None:
        if self.prox is not None:
            if self.prox.objective is None:
                return None
            return float(self.prox.objective(x))
        if self.denoiser.prox_potential is not None:
            return float(self.denoiser.prox_potential(x, self.sigma)) / scale
        return None


def as_slot(obj) -> RegSlot:
    if isinstance(obj, RegSlot):
        return obj
    if isinstance(obj, ProxMap):
        return RegSlot(prox=obj)
    if isinstance(obj, Denoiser):
        return RegSlot(denoiser=obj)
    raise TypeError(f"cannot build a RegSlot from {type(obj).__name__}")


def _objective(x: np.ndarray, scale: float, f: SmoothFn | None, *slots: RegSlot) -> float:
    """f(x) plus each slot's regularization term at x; NaN when a value is unknown."""
    total = 0.0
    if f is not None:
        if f.value is None:
            return math.nan
        total += float(f.value(x))
    for slot in slots:
        reg = slot.reg_value(x, scale)
        if reg is None:
            return math.nan
        total += reg
    return total


def _iterate(cfg: SolverConfig, x0, advance, report=None, reference=None, row0=None,
             record_divergence: bool = False):
    """Run x_{k+1} = advance(k, x_k) under the shared trace and stopping rules.

    ``report(k, x, r)`` gets a checked state and its step residual and
    returns the traced (point, objective, step_residual, fp_residual); the
    default traces the state with no objective and r as both residuals.
    Row 0 is ``report(0, x0, nan)`` unless ``row0``, with the same
    signature, is given.  Returns (Signal of the last traced point, trace).

    The whole run, row 0 included, sits in a :func:`~pnpkit.core.scoped_run`
    of its own, so state a map carries between its calls (the TV prox's
    warm dual) lives exactly as long as the run.
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
                     math.nan if ref is None else psnr(point, ref),
                     (time.perf_counter() - t0) if cfg.record_time else math.nan)

    with scoped_run():
        point, objective, r, fp = (row0 or report)(0, x, math.nan)
        append(0, point, objective, r, fp)
        trace.stop_reason = "max_iter"
        with np.errstate(over="ignore"):
            for k in range(1, cfg.max_iter + 1):
                try:
                    x_new = advance(k, x)
                    if diverged(x_new):
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


def run_pgd(grad_f, reg, cfg: SolverConfig, x0, reference=None, precond=None,
            backtracking: bool = False):
    """Proximal gradient descent x_{k+1} = reg(x_k - step * grad f(x_k)).

    With an exact prox in the slot this is classical PGD; with a denoiser it
    is the plug-and-play substitution of the same iteration.  A positive
    diagonal metric ``precond`` = B (shaped like x0) replaces the scalar step
    by the componentwise step 1/B, x_{k+1} = prox_g^B(x_k - B^{-1} grad f(x_k)),
    which needs a separable prox in the slot (l1, box, quadratic, ...);
    other proxes raise SolveError.

    With ``backtracking`` the trial step t starts at ``cfg.step``, is halved
    (at most 60 times per iteration) until F = f + g satisfies

        F(x_k) - F(x_{k+1}) >= (1/(2t)) ||x_{k+1} - x_k||^2,

    and the accepted t starts the next iteration's search, so the step never
    grows (Beck-Teboulle).  Every t <= 1/L meets this sufficient decrease by
    the descent lemma when f is L-smooth and g convex.  A 1e-12 relative
    slack keeps rounding noise near convergence from stalling the search;
    exhaustion raises SolveError reporting both F values.  F is traced at
    every row, whatever ``cfg.eval_objective`` says.  Backtracking needs
    ``f.value``, a prox slot with an objective, and no ``precond``.
    """
    f = _as_smooth(grad_f)
    slot = as_slot(reg)
    step = cfg.step
    if precond is not None:
        b = as_array(precond)
        if np.any(b <= 0):
            raise ValueError("preconditioner entries must be positive")
        if as_array(x0).shape != b.shape:
            raise ValueError("preconditioner shape must match the iterate")
        if slot.prox is None:
            raise ValueError("a preconditioner needs a prox in the slot")
        step = 1.0 / b
    if not backtracking:
        def report(k, x, r):
            return x, _objective(x, step, f, slot) if cfg.eval_objective else math.nan, r, r

        return _iterate(cfg, x0, lambda k, x: slot.apply(x - step * f.grad(x), step), report,
                        reference)
    if f.value is None or slot.prox is None or slot.prox.objective is None or precond is not None:
        raise ValueError("backtracking needs f.value, a prox slot with an objective, "
                         "and no precond")
    fx = math.nan  # F at the current state
    t = step  # the accepted step, carried into the next iteration's search

    def row0(k, x, r):
        nonlocal fx
        fx = _objective(x, t, f, slot)
        return x, fx, r, r

    def advance(k, x):
        nonlocal fx, t
        grad = f.grad(x)
        slack = 1e-12 * max(1.0, abs(fx))
        for _ in range(_HALVINGS + 1):
            cand = slot.apply(x - t * grad, t)
            f_cand = _objective(cand, t, f, slot)
            if fx - f_cand >= (0.5 / t) * float(np.sum((cand - x) ** 2)) - slack:
                fx = f_cand
                return cand
            t *= 0.5
        raise SolveError(f"backtracking exhausted {_HALVINGS} halvings at iteration {k}: "
                         f"F(x) = {fx:.12g}, last trial F = {f_cand:.12g}")

    return _iterate(cfg, x0, advance, lambda k, x, r: (x, fx, r, r), reference, row0=row0)


def run_apgd(grad_f, reg, cfg: SolverConfig, x0, reference=None):
    """Relaxed proximal gradient (alpha-PGD), three-line form.

        q_{k+1} = (1-alpha) x_k + alpha y_k
        y_{k+1} = reg(y_k - step * grad f(q_{k+1}))
        x_{k+1} = (1-alpha) x_k + alpha y_{k+1}

    The Lyapunov value F(x_k) + (alpha/2)(1 - 1/alpha)^2 ||x_k - x_{k-1}||^2
    is reconstructable from the trace as
    objective + (alpha/2)(1-1/alpha)^2 * step_residual^2.  The y-sequence
    starts at x0.
    """
    f = _as_smooth(grad_f)
    slot = as_slot(reg)
    alpha = cfg.alpha
    y = as_array(x0)

    def advance(k, x):
        nonlocal y
        q = (1.0 - alpha) * x + alpha * y
        y = slot.apply(y - cfg.step * f.grad(q), cfg.step)
        return (1.0 - alpha) * x + alpha * y

    def report(k, x, r):
        return x, _objective(x, cfg.step, f, slot) if cfg.eval_objective else math.nan, r, r

    return _iterate(cfg, x0, advance, report, reference)


# ---------------------------------------------------------------------------
# Douglas-Rachford splitting and ADMM
# ---------------------------------------------------------------------------


def run_drs(map_a, map_b, cfg: SolverConfig, x0, reference=None):
    """Douglas-Rachford iteration with two resolvent slots.

        y_{k+1} = A(x_k)
        z_{k+1} = B(2 y_{k+1} - x_k)
        x_{k+1} = x_k + z_{k+1} - y_{k+1}

    With A = prox of the first term and B of the second this is classical
    DRS; putting the denoiser in the A slot gives the denoiser-first
    variant, putting it in the B slot (after a differentiable fidelity
    prox) gives the fidelity-first variant, whose contraction for a strongly
    convex fidelity (Ryu et al. 2019) :func:`contraction_factor` measures.
    The returned point is the limit of the y-sequence.  The traced
    fixed-point residual is ||z_k - y_k|| = ||x_{k+1} - x_k||, the update's
    own residual.
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

    def report(k, x, r):
        objective = _objective(y, lam, None, slot_a, slot_b) if cfg.eval_objective else math.nan
        return y, objective, r, r

    return _iterate(cfg, x0, advance, report, reference)


def run_admm(op: LinearOp, y, reg, cfg: SolverConfig, x0=None, reference=None):
    """ADMM for 0.5*||Kx - y||^2 + g(z) subject to x = z.

        x_{k+1} = (K^T K + rho I)^{-1} (K^T y + rho (z_k - u_k))
        z_{k+1} = reg(x_{k+1} + u_k)        (prox_{g/rho}, or the denoiser)
        u_{k+1} = u_k + x_{k+1} - z_{k+1}

    The x-update is exact through the shifted normal equations.  It starts
    from x_0 = z_0 = x0 (K^T y when not given) and u_0 = 0.  The traced
    fixed-point residual is the primal residual ||x_k - z_k||.
    """
    y_arr = as_array(y)
    slot = as_slot(reg)
    rho = cfg.rho
    kty = op._adjoint(y_arr)
    x = kty if x0 is None else as_array(x0)
    z = x
    u = np.zeros_like(x)
    fid = SmoothFn.least_squares(op, y_arr)

    def advance(k, x):
        nonlocal z, u
        x_new = solve_shifted_normal(op, rho, kty + rho * (z - u))
        z = slot.apply(x_new + u, 1.0 / rho)
        u = u + x_new - z
        return x_new

    def report(k, x, r):
        primal = float(np.linalg.norm(x - z)) if k else math.nan
        objective = _objective(x, 1.0 / rho, fid, slot) if cfg.eval_objective else math.nan
        return x, objective, r, primal

    return _iterate(cfg, x, advance, report, reference)


def _as_schedule(value, default: float, name: str, positive: bool):
    if value is None:
        return lambda k: default
    seq = [float(v) for v in value]
    if not seq:
        raise ValueError(f"{name} must not be empty")
    for v in seq:
        if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
            raise ValueError(f"{name} entries must be finite and "
                             f"{'positive' if positive else 'nonnegative'}, got {v}")
    return lambda k: seq[min(k - 1, len(seq) - 1)]


def run_hqs(op: LinearOp, y, reg, cfg: SolverConfig, x0=None, rho_schedule=None,
            sigma_schedule=None, reference=None):
    """Half-quadratic splitting, the (possibly non-convergent) baseline.

        x_{k+1} = prox_{f/rho_k}(z_k)   with f = 0.5*||K. - y||^2
        z_{k+1} = reg(x_{k+1})          (prox_{g/rho_k}, or D_{sigma_k})

    ``rho_schedule`` and ``sigma_schedule`` are each None (``cfg.rho`` and
    the slot's sigma at every step) or a sequence whose k-th entry is used at
    step k and whose last entry holds after its end.  A decreasing-sigma
    denoiser schedule mimics the classical non-convergent baseline.  An
    empty schedule, or one with a non-finite entry, a rho <= 0 or a sigma < 0,
    raises ValueError before the first step.  Divergence is recorded in the
    trace, not raised.
    """
    y_arr = as_array(y)
    slot = as_slot(reg)
    rho_of = _as_schedule(rho_schedule, cfg.rho, "rho_schedule", positive=True)
    sigma_of = _as_schedule(sigma_schedule, slot.sigma, "sigma_schedule", positive=False)
    fid = SmoothFn.least_squares(op, y_arr)
    kty = op._adjoint(y_arr)
    scale = 1.0 / rho_of(1)  # 1/rho_k of the current step; row 0 uses rho_1

    def advance(k, z):
        nonlocal scale
        scale = 1.0 / rho_of(k)
        x = _fidelity_prox(z, scale, op, kty)
        if slot.denoiser is not None:
            return slot.denoiser.apply(x, sigma_of(k))
        return slot.apply(x, scale)

    def report(k, z, r):
        return z, _objective(z, scale, fid, slot) if cfg.eval_objective else math.nan, r, r

    return _iterate(cfg, kty if x0 is None else x0, advance, report, reference,
                    record_divergence=True)


# ---------------------------------------------------------------------------
# RED schemes
# ---------------------------------------------------------------------------


def _red_fixed_point_norm(grad_f, x, dx, weight: float) -> float:
    return float(np.linalg.norm(grad_f(x) + weight * (x - dx)))


def run_red_gd(op: LinearOp, y, denoiser: Denoiser, lam: float, sigma: float,
               eta: float, cfg: SolverConfig, x0=None, reference=None):
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
        dx = denoiser.apply(x, sigma)
        fc = grad_f(x) + weight * (x - dx)
        return float(np.linalg.norm(fc))

    return _iterate(cfg, op._adjoint(y_arr) if x0 is None else x0,
                    lambda k, x: x - eta * fc,
                    lambda k, x, r: (x, math.nan, r, bracket_norm(x)), reference)


def _run_red_prox(op: LinearOp, y, denoiser: Denoiser, lam: float, L: float,
                  cfg: SolverConfig, v0, sigma: float, reference, accelerated: bool):
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
        dx = denoiser.apply(x, sigma)
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
        dv = denoiser.apply(v0, sigma)
        return v0, math.nan, r, _red_fixed_point_norm(grad_f, v0, dv, lam)

    return _iterate(cfg, v, advance, report, reference, row0=row0,
                    record_divergence=accelerated)


def run_red_pg(op: LinearOp, y, denoiser: Denoiser, lam: float, L: float,
               cfg: SolverConfig, v0=None, sigma: float = 0.0, reference=None):
    """Proximal-gradient RED, the provably convergent fixed-point scheme.

        x_k = argmin_x f(x) + (lam*L/2) ||x - v_{k-1}||^2
        v_k = (1/L) D(x_k) - ((1 - L)/L) x_k

    Requires L > 1 (the averagedness condition).  The traced fixed-point
    residual is ||K^T(K x - y) + lam (x - D(x))||.
    """
    return _run_red_prox(op, y, denoiser, lam, L, cfg, v0, sigma, reference,
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
                cfg: SolverConfig, v0=None, sigma: float = 0.0, reference=None):
    """Momentum-accelerated RED (trace only; convergence is not asserted).

        x_k = argmin_x f(x) + (lam*L/2) ||x - v_{k-1}||^2
        t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2
        z_k = x_k + ((t_{k-1} - 1)/t_k) (x_k - x_{k-1})
        v_k = (1/L) D(x_k) - ((1 - L)/L) z_k

    Divergence is recorded in the trace rather than raised, and the last
    finite x_k is returned.  The step residual of k = 1 is NaN, as x_1 has
    no predecessor.
    """
    return _run_red_prox(op, y, denoiser, lam, L, cfg, v0, sigma, reference,
                         accelerated=True)


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


def contraction_factor(trace: Trace) -> float:
    """Empirical contraction factor sup_k r_{k+1} / r_k of a converged run.

    r_k is the traced step residual ||x_k - x_{k-1}||.  Ratios that involve
    the last 5 iterations (rounding noise near the tolerance) or a residual
    below 1e-14 of the first are skipped.  Raises SolveError carrying the
    factor when the run did not stop on tolerance.
    """
    r = trace.column("step_residual")[1:]
    r = r[:max(len(r) - 5, 0)]
    factor = 0.0
    for k in range(len(r) - 1):
        if r[k] > 1e-14 * r[0]:
            factor = max(factor, float(r[k + 1] / r[k]))
    if trace.stop_reason != "tolerance":
        raise SolveError("fixed-point iteration did not converge", residual=factor)
    return factor
