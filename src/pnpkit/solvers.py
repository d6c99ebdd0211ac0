"""Deterministic iterative schemes: proximal splittings, RED, GS-PnP.

Every driver accepts a regularization slot that holds either an exact
proximal map or a denoiser, so the plug-and-play variant of each scheme is
the same code path as the classical one.  Each scheme is a fixed-point
iteration x_{k+1} = T(x_k) and supplies only its step to one kernel,
:func:`_iterate`: ``advance(k, x)`` returns the next state, and
``report(k, x, r)``, called once that state has passed the divergence check,
says what the trace shows for it.  The kernel owns the rest.  Drivers return
the final point plus a per-iteration :class:`~pnpkit.core.Trace`; stopping
is on the step residual (default 1e-9) or max_iter.  The step residual is
||x_{k+1} - x_k||, except for ADMM, whose state is (z, u).  A
non-finite start raises ValueError, and data y not shaped like the
operator's output raises ShapeError before the first step.  A state that fails
:func:`~pnpkit.core.diverged` (non-finite, or norm above 1e12), or a
DivergenceError from inside the step (a denoiser's non-finite output),
raises :class:`~pnpkit.core.DivergenceError` carrying the step, the last
finite state and the trace, in every driver.

One driver per scheme: :func:`run_pgd` takes an optional backtracking
step rule, and fidelity-first DRS is :func:`run_drs` with the fidelity prox
first.  Gradient-step PnP (Hurault et al. 2022) is PGD on
F = f + lam*g with the data term in the prox slot and the denoiser's
potential as the smooth term: ``run_pgd(SmoothFn.potential(den, lam),
quadratic_fidelity_prox(op, y), cfg, x0)``.  RED-GD and RED-PG are PGD runs
too, with the RED gradient x - D(x) in the smooth term; RED-APG has its own
step.  :func:`contraction_factor` reads a converged run's contraction off its
trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (DivergenceError, SolveError, Trace, as_array, diverged, lincomb, psnr,
                   read_only, scoped_run)
from .denoisers import Denoiser
from .operators import LinearOp, solve_shifted_normal
from .proximal import ProxMap, quadratic_fidelity_prox, zero_prox


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
        value, grad, _ = op.least_squares(op._data(y))
        return SmoothFn(grad=grad, value=value)

    @staticmethod
    def potential(den: Denoiser, lam: float) -> "SmoothFn":
        """lam * g for a gradient-step denoiser D = id - grad g (GS-PnP's smooth term)."""
        if den.potential is None or den.grad_potential is None:
            raise ValueError("SmoothFn.potential needs a gradient-step denoiser exposing "
                             "its potential")
        if not lam > 0:
            raise ValueError("lam must be positive")
        return SmoothFn(grad=lambda x: lincomb((lam, den.grad_potential(x, 0.0))),
                        value=lambda x: lam * float(den.potential(x, 0.0)))


def _as_smooth(obj) -> SmoothFn:
    if isinstance(obj, SmoothFn):
        return obj
    return SmoothFn(grad=obj)


@dataclass(frozen=True)
class RegSlot:
    """Regularization slot: exactly one of an exact prox or a denoiser.

    For a prox slot, ``apply(v, scale)`` evaluates prox_{scale*g} for a
    positive scalar scale; the denoiser slot applies D_sigma and ignores the
    scale, which is the plug-and-play substitution.
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
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")

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


def _as_slot(obj) -> RegSlot:
    if isinstance(obj, RegSlot):
        return obj
    if isinstance(obj, ProxMap):
        return RegSlot(prox=obj)
    if isinstance(obj, Denoiser):
        return RegSlot(denoiser=obj)
    raise TypeError(f"cannot build a RegSlot from {type(obj).__name__}")


def _objective(x: np.ndarray, scale: float, f: SmoothFn | None, *slots: RegSlot) -> float:
    """f(x) plus each slot's regularization term at x; NaN when a value is unknown.

    Inside a solver run the terms share the transforms of x (see
    :func:`~pnpkit.core.real_spectrum`): on a circulant problem the fidelity
    value and a GS potential take one forward real FFT between them.
    """
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


def _iterate(cfg: SolverConfig, x0, advance, report, reference=None):
    """Run x_{k+1} = advance(k, x_k) under the shared trace and stopping rules.

    ``report(k, x, r)`` gets a checked state and its step residual and
    returns the traced (point, objective, step_residual, fp_residual); the
    tolerance stop reads the step_residual it returns.  Row 0 is
    ``report(0, x0, nan)``.  Returns (the last traced point, trace); the point,
    like a DivergenceError's ``last``, is a read-only array that is not x0.
    A DivergenceError, row 0's included, leaves with ``step`` (0 at row 0),
    ``last`` (the last checked state) and the trace so far.

    The whole run, row 0 included, sits in a :func:`~pnpkit.core.scoped_run`
    of its own, so state a map carries between its calls (the TV prox's
    warm dual, the held spectra) lives exactly as long as the run.
    """
    x = as_array(x0).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("the start point x0 has non-finite entries")
    ref = None if reference is None else as_array(reference)
    trace = Trace()
    t0 = time.perf_counter()

    def append(k, point, objective, step_residual, fp_residual):
        trace.append(k, objective, step_residual, fp_residual,
                     math.nan if ref is None else psnr(point, ref),
                     (time.perf_counter() - t0) if cfg.record_time else math.nan)

    k = 0
    with scoped_run():
        try:
            point, objective, r, fp = report(0, x, math.nan)
            append(0, point, objective, r, fp)
            trace.stop_reason = "max_iter"
            # a diverging step overflows to inf, then inf - inf makes NaN; the
            # divergence check reports both once, as a DivergenceError
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(1, cfg.max_iter + 1):
                    x_new = advance(k, x)
                    if diverged(x_new):
                        raise DivergenceError(f"iterates diverged at step {k}")
                    point, objective, r, fp = report(k, x_new,
                                                     float(np.linalg.norm(x_new - x)))
                    append(k, point, objective, r, fp)
                    x = x_new
                    if r <= cfg.tol:
                        trace.stop_reason = "tolerance"
                        break
        except DivergenceError as exc:
            trace.stop_reason = "diverged"
            exc.step, exc.last, exc.trace = k, read_only(x), trace
            raise
    return read_only(point), trace


# ---------------------------------------------------------------------------
# Proximal gradient descent and relatives
# ---------------------------------------------------------------------------


def run_pgd(grad_f, reg, cfg: SolverConfig, x0, reference=None, backtracking: bool = False):
    """Proximal gradient descent x_{k+1} = reg(x_k - step * grad f(x_k)).

    With an exact prox in the slot this is classical PGD; with a denoiser it
    is the plug-and-play substitution of the same iteration.

    With ``backtracking`` the trial step t starts at ``cfg.step``, is halved
    (at most 60 times per iteration) until F = f + g satisfies

        F(x_k) - F(x_{k+1}) >= (1/(2t)) ||x_{k+1} - x_k||^2,

    and the accepted t starts the next iteration's search, so the step never
    grows (Beck-Teboulle).  Every t <= 1/L meets this sufficient decrease by
    the descent lemma when f is L-smooth and g convex.  A 1e-12 relative
    slack keeps rounding noise near convergence from stalling the search;
    exhaustion, after 60 halvings or once a halved step underflows to 0,
    raises SolveError reporting both F values.  Backtracking needs
    ``f.value`` and a prox slot with an objective.
    """
    return _pgd(grad_f, reg, cfg, x0, reference, backtracking)


def _pgd(grad_f, reg, cfg: SolverConfig, x0, reference=None, backtracking: bool = False,
         residual=None):
    """:func:`run_pgd`, tracing ``residual(x)`` as the fixed-point residual when given.

    Without the hook the fixed-point residual is the step residual.  The RED
    drivers pass their stationarity norm through it.
    """
    f = _as_smooth(grad_f)
    slot = _as_slot(reg)
    if backtracking and (f.value is None or slot.prox is None or slot.prox.objective is None):
        raise ValueError("backtracking needs f.value and a prox slot with an objective")
    fx = math.nan  # F at the current state
    t = cfg.step  # with backtracking, the accepted step, carried into the next search

    def report(k, x, r):
        nonlocal fx
        if k == 0 or not backtracking:  # the search has F at an accepted point already
            fx = _objective(x, t, f, slot)
        return x, fx, r, r if residual is None else residual(x)

    def advance(k, x):
        nonlocal fx, t
        grad = f.grad(x)
        slack = 1e-12 * max(1.0, abs(fx))
        for halvings in range(_HALVINGS + 1):
            # the step's combination carries its spectrum
            cand = slot.apply(lincomb((1.0, x), (-t, grad)), t)
            if not backtracking:
                return cand
            f_cand = _objective(cand, t, f, slot)
            if fx - f_cand >= (0.5 / t) * float(np.sum((cand - x) ** 2)) - slack:
                fx = f_cand
                return cand
            t *= 0.5
            if t == 0.0:  # underflowed: no smaller trial is left
                break
        raise SolveError(f"backtracking exhausted {halvings} halvings at iteration {k}, the next "
                         f"step {t:g}: F(x) = {fx:.12g}, last trial F = {f_cand:.12g}")

    return _iterate(cfg, x0, advance, report, reference)


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
    slot = _as_slot(reg)
    alpha = cfg.alpha
    y = None  # y_0: row 0 takes the run's copy of x0, whose spectrum its objective holds

    def advance(k, x):
        nonlocal y
        q = lincomb((1.0 - alpha, x), (alpha, y))
        y = slot.apply(lincomb((1.0, y), (-cfg.step, f.grad(q))), cfg.step)
        return lincomb((1.0 - alpha, x), (alpha, y))

    def report(k, x, r):
        nonlocal y
        if k == 0:
            y = x
        return x, _objective(x, cfg.step, f, slot), r, r

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
    slot_a = _as_slot(map_a)
    slot_b = _as_slot(map_b)
    lam = cfg.step
    y = None  # the traced point; row 0 shows the start, the run's copy of x0

    def advance(k, x):
        nonlocal y
        y = slot_a.apply(x, lam)
        z = slot_b.apply(lincomb((2.0, y), (-1.0, x)), lam)
        return lincomb((1.0, x), (1.0, z), (-1.0, y))

    def report(k, x, r):
        nonlocal y
        if k == 0:
            y = x
        return y, _objective(y, lam, None, slot_a, slot_b), r, r

    return _iterate(cfg, x0, advance, report, reference)


def run_admm(op: LinearOp, y, reg, cfg: SolverConfig, x0=None, reference=None):
    """ADMM for 0.5*||Kx - y||^2 + g(z) subject to x = z.

        x_{k+1} = (K^T K + rho I)^{-1} (K^T y + rho (z_k - u_k))
        z_{k+1} = reg(x_{k+1} + u_k)        (prox_{g/rho}, or the denoiser)
        u_{k+1} = u_k + x_{k+1} - z_{k+1}

    The x-update is exact through the shifted normal equations.  It starts
    from x_0 = z_0 = x0 (K^T y when not given) and u_0 = 0.  The traced
    fixed-point residual is the primal residual ||x_k - z_k||.

    The state is (z, u), so the step residual that the stopping rule reads
    is its movement, hypot(||z_{k+1} - z_k||, ||u_{k+1} - u_k||), and
    ||u_{k+1} - u_k|| is the primal residual.  ||x_{k+1} - x_k|| would not
    do: with K^T K idempotent (a mask, the identity), x_1 = K^T y = x_0 for
    every rho while z and u move.
    """
    y_arr = op._data(y)
    slot = _as_slot(reg)
    rho = cfg.rho
    kty = op._adjoint(y_arr)
    x = kty if x0 is None else as_array(x0)
    z = x
    u = np.zeros_like(x)
    fid = op.least_squares(y_arr)[0]
    dz = math.nan  # ||z_{k+1} - z_k|| of the last step

    def advance(k, x):
        nonlocal z, u, dz
        x_new = solve_shifted_normal(op, rho, kty + rho * (z - u))
        z_new = slot.apply(x_new + u, 1.0 / rho)
        dz = float(np.linalg.norm(z_new - z))
        z = z_new
        u = u + x_new - z
        return x_new

    def report(k, x, r):
        primal = float(np.linalg.norm(x - z)) if k else math.nan
        return x, fid(x) + _objective(x, 1.0 / rho, None, slot), math.hypot(dz, primal), primal

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
    denoiser schedule mimics the classical non-convergent baseline.  Row k
    traces f(z_k) plus the slot's term at step k's rho and sigma (row 0 at
    step 1's).  An empty schedule, or one with a non-finite entry, a
    rho <= 0 or a sigma < 0, raises ValueError before the first step.
    """
    y_arr = op._data(y)
    slot = _as_slot(reg)
    rho_of = _as_schedule(rho_schedule, cfg.rho, "rho_schedule", positive=True)
    sigma_of = _as_schedule(sigma_schedule, slot.sigma, "sigma_schedule", positive=False)
    fid_prox = quadratic_fidelity_prox(op, y_arr)
    # 1/rho_k and the slot at sigma_k of the current step; row 0 uses step 1's
    scale, step_slot = 1.0 / rho_of(1), replace(slot, sigma=sigma_of(1))

    def advance(k, z):
        nonlocal scale, step_slot
        scale, step_slot = 1.0 / rho_of(k), replace(slot, sigma=sigma_of(k))
        return step_slot.apply(fid_prox.evaluate(z, scale), scale)

    def report(k, z, r):
        return z, fid_prox.objective(z) + _objective(z, scale, None, step_slot), r, r

    return _iterate(cfg, op._adjoint(y_arr) if x0 is None else x0, advance, report, reference)


# ---------------------------------------------------------------------------
# RED schemes
# ---------------------------------------------------------------------------


def _red_gradient(denoiser: Denoiser, sigma: float, weight: float, grad_f=None):
    """x -> grad_f(x) + weight * (x - D(x)), the RED gradient.

    The value at the last x is kept, so the traced stationarity and the step
    from the same point share one denoiser call.
    """
    last = [None, None]  # the last x and the gradient there

    def grad(x):
        if x is not last[0]:
            g = weight * (x - denoiser.apply(x, sigma))
            last[:] = x, g if grad_f is None else grad_f(x) + g
        return last[1]

    return grad


def run_red_gd(op: LinearOp, y, denoiser: Denoiser, lam: float, sigma: float,
               cfg: SolverConfig, x0=None, reference=None):
    """Gradient-descent RED.

        x_{k+1} = x_k - step * [K^T(K x_k - y) + (lam/sigma^2)(x_k - D(x_k))]

    with step = ``cfg.step``.  This is :func:`run_pgd` with a zero prox and
    the bracket as the gradient.  The traced fixed-point residual is the
    norm of the bracket, i.e. the stationarity condition the scheme aims to
    null (with the effective weight lam/sigma^2).
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be finite and nonnegative")
    square = sigma * sigma
    if not 0.0 < square < math.inf:
        raise ValueError(f"sigma*sigma must be finite and positive; sigma = {sigma!r} "
                         f"gives {square!r}")
    weight = lam / square
    if not math.isfinite(weight):
        raise ValueError(f"lam/sigma^2 must be finite; lam = {lam!r} and sigma = {sigma!r} "
                         f"give {weight!r}")
    y_arr = op._data(y)
    grad = _red_gradient(denoiser, sigma, weight, op.least_squares(y_arr)[1])
    return _pgd(grad, zero_prox(), cfg, op._adjoint(y_arr) if x0 is None else x0, reference,
                residual=lambda x: float(np.linalg.norm(grad(x))))


def _red_prox_setup(op: LinearOp, y, lam: float, L: float):
    """The fidelity prox and K^T y of RED-PG and RED-APG, after checking lam, L and the step."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lam must be finite and positive")
    if L <= 1:
        raise ValueError("L must exceed 1")
    step = 1.0 / (lam * L)
    if not 0.0 < step < math.inf:
        raise ValueError(f"the step 1/(lam*L) must be finite and positive; lam = {lam!r} "
                         f"and L = {L!r} give {step!r}")
    y_arr = op._data(y)
    return quadratic_fidelity_prox(op, y_arr), op._adjoint(y_arr)


def run_red_pg(op: LinearOp, y, denoiser: Denoiser, lam: float, L: float,
               cfg: SolverConfig, x0=None, sigma: float = 0.0, reference=None):
    """Proximal-gradient RED, the provably convergent fixed-point scheme.

        v_k = (1/L) D(x_k) - ((1 - L)/L) x_k
        x_{k+1} = argmin_x f(x) + (lam*L/2) ||x - v_k||^2

    This is :func:`run_pgd` with the data term f in the prox slot, the
    gradient lam*(x - D(x)) and the step 1/(lam*L); ``cfg.step`` is not
    read.  It starts from x0 (K^T y when not given).  Requires L > 1 (the
    averagedness condition).  The traced fixed-point residual is
    ||K^T(K x - y) + lam (x - D(x))||.
    """
    fid_prox, kty = _red_prox_setup(op, y, lam, L)
    grad = _red_gradient(denoiser, sigma, lam)
    return _pgd(grad, fid_prox, replace(cfg, step=1.0 / (lam * L)),
                kty if x0 is None else x0, reference,
                residual=lambda x: float(np.linalg.norm(op.normal(x) - kty + grad(x))))


def run_red_apg(op: LinearOp, y, denoiser: Denoiser, lam: float, L: float,
                cfg: SolverConfig, x0=None, sigma: float = 0.0, reference=None):
    """Momentum-accelerated RED (trace only; convergence is not asserted).

        x_k = argmin_x f(x) + (lam*L/2) ||x - v_{k-1}||^2
        t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2
        z_k = x_k + ((t_{k-1} - 1)/t_k) (x_k - x_{k-1})
        v_k = (1/L) D(x_k) - ((1 - L)/L) z_k

    It starts from v_0 = x0 (K^T y when not given), which row 0 shows.  The
    step residual of k = 1 is NaN, as x_1 has no predecessor.
    """
    fid_prox, kty = _red_prox_setup(op, y, lam, L)
    t, z, dx = 1.0, None, None  # t_{k-1}, z_{k-1} and D(x_{k-1}) on entry to step k

    def advance(k, x):
        nonlocal t, z
        v = x if k == 1 else (1.0 / L) * dx - ((1.0 - L) / L) * z
        x_new = fid_prox.evaluate(v, 1.0 / (lam * L))
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new if k == 1 else x_new + ((t - 1.0) / t_new) * (x_new - x)
        t = t_new
        return x_new

    def report(k, x, r):
        nonlocal dx
        dx = denoiser.apply(x, sigma)
        return (x, math.nan, math.nan if k == 1 else r,
                float(np.linalg.norm(op.normal(x) - kty + lam * (x - dx))))

    return _iterate(cfg, kty if x0 is None else x0, advance, report, reference)


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
