"""Closed-form and iterative proximal operators.

prox_{lam*f}(v) = argmin_x f(x) + ||x - v||^2 / (2*lam).  Convex instances
are non-expansive and their fixed points are minimizers; the iterative TV
prox certifies its accuracy through the duality gap it reports.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import DivergenceError, ShapeError, SolveError, as_array
from .operators import LinearOp, solve_shifted_normal

# ---------------------------------------------------------------------------
# Componentwise proxes
# ---------------------------------------------------------------------------


def soft_threshold(v, tau: float):
    """Componentwise shrinkage sign(v) * max(|v| - tau, 0); prox of tau*||.||_1."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    arr = as_array(v)
    return np.sign(arr) * np.maximum(np.abs(arr) - tau, 0.0)


def prox_box(v, lo: float, hi: float):
    """Euclidean projection onto the box [lo, hi]; prox of its indicator."""
    if lo > hi:
        raise ValueError("box requires lo <= hi")
    return np.clip(as_array(v), lo, hi)


# ---------------------------------------------------------------------------
# Orthonormal Haar transform and the wavelet-l1 prox
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def _haar_level_axis(x: np.ndarray, axis: int) -> np.ndarray:
    even = np.take(x, np.arange(0, x.shape[axis], 2), axis=axis)
    odd = np.take(x, np.arange(1, x.shape[axis], 2), axis=axis)
    approx = (even + odd) / _SQRT2
    detail = (even - odd) / _SQRT2
    return np.concatenate([approx, detail], axis=axis)


def _ihaar_level_axis(c: np.ndarray, axis: int) -> np.ndarray:
    half = c.shape[axis] // 2
    approx = np.take(c, np.arange(half), axis=axis)
    detail = np.take(c, np.arange(half, 2 * half), axis=axis)
    even = (approx + detail) / _SQRT2
    odd = (approx - detail) / _SQRT2
    out = np.empty_like(c)
    idx_even = [slice(None)] * c.ndim
    idx_odd = [slice(None)] * c.ndim
    idx_even[axis] = slice(0, None, 2)
    idx_odd[axis] = slice(1, None, 2)
    out[tuple(idx_even)] = even
    out[tuple(idx_odd)] = odd
    return out


def _check_levels(shape, levels: int):
    if levels < 1:
        raise ValueError("levels must be >= 1")
    for s in shape:
        if s % (2**levels) != 0:
            raise ShapeError(
                f"dimension {s} not divisible by 2^{levels}; cannot run {levels} Haar levels"
            )


def haar_transform(x, levels: int):
    """Orthonormal multi-level Haar analysis; preserves the l2 norm exactly."""
    arr = as_array(x)
    _check_levels(arr.shape, levels)
    out = arr.copy()
    sub = [s for s in arr.shape]
    for _ in range(levels):
        block = tuple(slice(0, s) for s in sub)
        low = out[block]
        for axis in range(arr.ndim):
            low = _haar_level_axis(low, axis)
        out[block] = low
        sub = [s // 2 for s in sub]
    return out


def haar_inverse(c, levels: int):
    """Inverse of :func:`haar_transform`."""
    arr = as_array(c)
    _check_levels(arr.shape, levels)
    out = arr.copy()
    subs = []
    sub = [s for s in arr.shape]
    for _ in range(levels):
        subs.append(tuple(sub))
        sub = [s // 2 for s in sub]
    for shape in reversed(subs):
        block = tuple(slice(0, s) for s in shape)
        low = out[block]
        for axis in reversed(range(arr.ndim)):
            low = _ihaar_level_axis(low, axis)
        out[block] = low
    return out


def prox_wavelet_l1(v, tau: float, levels: int):
    """Exact prox of tau*||W .||_1 for the orthonormal Haar transform W.

    Computed as W^{-1} o soft_threshold o W; exact because W is orthonormal.
    """
    return haar_inverse(soft_threshold(haar_transform(v, levels), tau), levels)


# ---------------------------------------------------------------------------
# Anisotropic total variation via accelerated dual projection
# ---------------------------------------------------------------------------


@functools.cache
def _shifts(ndim: int) -> tuple[tuple[tuple, tuple], ...]:
    # Per axis, the index tuples of the leading [:-1] and trailing [1:] parts.
    out = []
    for axis in range(ndim):
        lead = [slice(None)] * ndim
        trail = [slice(None)] * ndim
        lead[axis] = slice(0, -1)
        trail[axis] = slice(1, None)
        out.append((tuple(lead), tuple(trail)))
    return tuple(out)


def _grad(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward differences stacked as (ndim, *x.shape), Neumann boundary.

    Only the leading part of each axis is written, so an ``out`` that starts
    at zero keeps a zero trailing slice (the boundary difference) for good.
    """
    if out is None:
        out = np.zeros((x.ndim,) + x.shape)
    for axis, (lead, trail) in enumerate(_shifts(x.ndim)):
        np.subtract(x[trail], x[lead], out=out[axis][lead])
    return out


def _grad_adjoint(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """grad^T p for stacked duals p that are zero on each trailing slice."""
    np.negative(p[0], out=out)
    for axis in range(1, out.ndim):
        out -= p[axis]
    for axis, (lead, trail) in enumerate(_shifts(out.ndim)):
        out[trail] += p[axis][lead]
    return out


def tv_value(x) -> float:
    """Anisotropic TV: l1 norm of the forward-difference gradient."""
    return float(np.sum(np.abs(_grad(as_array(x)))))


# An inf input makes nan (inf * 0) in the iterates; the non-finite gap reports it.
@np.errstate(invalid="ignore")
def _tv_dual_solve(v: np.ndarray, lam: float, tol: float, max_iter: int, p0=None):
    """FISTA-accelerated projected gradient on the TV dual (Beck-Teboulle).

    Maximizes the dual of 0.5*||x - v||^2 + lam*TV(x) over |p| <= lam
    componentwise; returns (x, div_p, gap, iterations).  Dual ascent step is
    1/4 in 1-D and 1/8 in 2-D (1 / ||grad||^2 bound).  ``p0`` optionally
    seeds the stacked (ndim, *v.shape) dual variables.

    The dual gradient at the extrapolated point q = p + beta*(p - p_old) is
    linear in the last two iterates, so with x = v - grad^T p and
    z = p + step*grad(x) the step reads p_next = clip(z + beta*(z - z_old)).
    Each iteration thus costs one adjoint and one gradient, and the grad(x)
    that drives the next step also gives the duality gap
    lam*||grad x||_1 - <p, grad x>, checked against ``tol`` every iteration.
    A non-finite gap raises DivergenceError; running out of iterations raises
    SolveError carrying the gap.

    The momentum restarts (t = 1, beta = 0) whenever the dual objective
    0.5*||v||^2 - 0.5*||x||^2 falls (O'Donoghue-Candes adaptive restart),
    which stops plain FISTA's overshoot at large lam.  The test reads the
    step itself: with d = x_new - x_old, ||x_new||^2 - ||x_old||^2 =
    2*<d, x_new> - <d, d>, which keeps the sign of changes far below the
    rounding of ||x||^2.  Every iterate is still a feasible dual point, so
    the gap certificate and the stopping rule are unchanged.
    """
    ndim = v.ndim
    step = 1.0 / (4.0 * ndim)
    p = np.zeros((ndim,) + v.shape)
    if p0 is not None:
        for axis, (lead, _) in enumerate(_shifts(ndim)):
            p[axis][lead] = np.clip(p0[axis][lead], -lam, lam)
    z = np.empty_like(p)
    z_old = np.zeros_like(p)
    dx = np.zeros_like(p)
    work = np.empty_like(p)
    div_p = np.empty_like(v)
    x = np.empty_like(v)
    x_old = np.empty_like(v)
    d = np.empty_like(v)
    np.subtract(v, _grad_adjoint(p, div_p), out=x)
    _grad(x, dx)
    t, beta = 1.0, 0.0
    gap = np.inf
    for it in range(1, max_iter + 1):
        np.multiply(dx, step, out=z)
        z += p
        np.subtract(z, z_old, out=p)
        p *= beta
        p += z
        np.clip(p, -lam, lam, out=p)
        z, z_old = z_old, z
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        t = t_new

        x, x_old = x_old, x
        np.subtract(v, _grad_adjoint(p, div_p), out=x)
        _grad(x, dx)
        gap = lam * float(np.sum(np.abs(dx, out=work))) - float(np.vdot(p, dx))
        if gap <= tol:
            return x, div_p, gap, it
        if not np.isfinite(gap):
            raise DivergenceError(f"TV dual projection hit a non-finite gap at iteration {it}",
                                  step=it)
        np.subtract(x, x_old, out=d)
        if 2.0 * float(np.vdot(d, x)) > float(np.vdot(d, d)):
            t, beta = 1.0, 0.0
    raise SolveError(
        f"TV dual projection did not reach gap {tol:.3e} in {max_iter} iterations",
        residual=gap,
    )


def _check_lam(lam: float) -> None:
    if not np.isfinite(lam) or lam < 0:
        raise ValueError("lam must be finite and nonnegative")


def _check_tv_domain(arr: np.ndarray) -> None:
    if arr.ndim not in (1, 2):
        raise ShapeError("TV proxes support 1-D and 2-D signals")


def prox_tv(v, lam: float, tol: float | None = None, max_iter: int = 200000):
    """Prox of lam * TV (anisotropic, forward differences, Neumann boundary).

    Chambolle-type dual projection with FISTA acceleration, stopped on the
    duality gap.  Default tolerance is 1e-10 * n, well inside the certified
    1e-6 * n contract; SolveError (carrying the gap) if max_iter is hit,
    DivergenceError if the input is non-finite.
    """
    _check_lam(lam)
    arr = as_array(v)
    _check_tv_domain(arr)
    if lam == 0.0:
        return arr.copy()
    if tol is None:
        tol = 1e-10 * arr.size
    x, _, _, _ = _tv_dual_solve(arr, lam, tol, max_iter)
    return x


def tv_conjugate_prox(v, lam: float, tol: float | None = None, max_iter: int = 200000):
    """Prox of (lam*TV)^*: projection onto {grad^T p : |p| <= lam}.

    Computed from an independent dual solve seeded at a projected gradient
    step rather than at zero, so recombining with :func:`prox_tv` through
    Moreau's identity cross-checks two genuinely distinct solves.
    """
    _check_lam(lam)
    arr = as_array(v)
    _check_tv_domain(arr)
    if lam == 0.0:
        return np.zeros_like(arr)
    if tol is None:
        tol = 1e-10 * arr.size
    seed = (0.25 / arr.ndim) * _grad(arr)
    _, div_p, _, _ = _tv_dual_solve(arr, lam, tol, max_iter, p0=seed)
    return div_p


# ---------------------------------------------------------------------------
# Quadratic fidelity prox
# ---------------------------------------------------------------------------


def prox_quadratic_fidelity(v, lam: float, op: LinearOp, y):
    """Prox of lam-scaled least squares f(x) = 0.5*||y - Kx||^2.

    Returns (I + lam*K^T K)^{-1} (v + lam*K^T y), solved through the shifted
    normal equations with rho = 1/lam (exact for circulant/diagonal kinds).
    """
    return _fidelity_prox(as_array(v), lam, op, op._adjoint(as_array(y)))


def _fidelity_prox(v: np.ndarray, lam: float, op: LinearOp, kty: np.ndarray) -> np.ndarray:
    """:func:`prox_quadratic_fidelity` on arrays, given K^T y computed once per run."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    return solve_shifted_normal(op, 1.0 / lam, kty + v / lam)


# ---------------------------------------------------------------------------
# ProxMap objects and the Moreau identity check
# ---------------------------------------------------------------------------


class ProxMap:
    """A prox evaluator with an identity tag and optional objective.

    ``evaluate(v, lam)`` returns prox_{lam*f}(v) as an array for a positive
    scalar lam.
    A prox built with ``separable=True`` (f a sum of per-entry terms) also
    takes a positive componentwise lam shaped like v, which is the prox under
    a diagonal metric; other proxes raise SolveError for it.  ``objective``
    (when present) evaluates f itself, which solver traces use.
    """

    def __init__(self, fn_id: str, evaluate, objective=None, separable: bool = False):
        self.fn_id = fn_id
        self._evaluate = evaluate
        self.objective = objective
        self.separable = separable

    def evaluate(self, v, lam):
        if np.ndim(lam) == 0:
            if not lam > 0:
                raise ValueError("lam must be positive")
            lam = float(lam)
        elif not self.separable:
            raise SolveError(f"prox {self.fn_id!r} does not support componentwise scaling")
        else:
            lam = as_array(lam)
            if not np.all(lam > 0):
                raise ValueError("componentwise lam must be positive")
        return as_array(self._evaluate(as_array(v), lam))


def _check_weight(weight: float) -> None:
    if weight < 0:
        raise ValueError("weight must be nonnegative")


def l1_prox(weight: float = 1.0) -> ProxMap:
    _check_weight(weight)
    return ProxMap(
        "l1",
        lambda v, lam: np.sign(v) * np.maximum(np.abs(v) - lam * weight, 0.0),
        objective=lambda x: weight * float(np.sum(np.abs(as_array(x)))),
        separable=True,
    )


def box_prox(lo: float = 0.0, hi: float = 1.0) -> ProxMap:
    if lo > hi:
        raise ValueError("box requires lo <= hi")

    def objective(x):
        arr = as_array(x)
        return 0.0 if (arr.min() >= lo - 1e-12 and arr.max() <= hi + 1e-12) else np.inf

    return ProxMap(
        "box",
        lambda v, lam: np.clip(v, lo, hi),
        objective=objective,
        separable=True,
    )


def linf_ball_prox(radius: float = 1.0) -> ProxMap:
    """Projection onto the l-infinity ball; the convex conjugate prox of l1."""
    return box_prox(-radius, radius)


def squared_l2_prox(weight: float = 1.0) -> ProxMap:
    """Prox of (weight/2)*||x||^2, which is v / (1 + lam*weight); self-conjugate at weight 1."""
    return ProxMap(
        "squared_l2",
        lambda v, lam: v / (1.0 + lam * weight),
        objective=lambda x: 0.5 * weight * float(np.sum(as_array(x) ** 2)),
        separable=True,
    )


def quadratic_prox(center, weight: float = 1.0) -> ProxMap:
    """Prox of (weight/2)*||x - center||^2."""
    c = as_array(center)
    return ProxMap(
        "quadratic",
        lambda v, lam: (v + lam * weight * c) / (1.0 + lam * weight),
        objective=lambda x: 0.5 * weight * float(np.sum((as_array(x) - c) ** 2)),
        separable=True,
    )


def zero_prox() -> ProxMap:
    return ProxMap(
        "zero",
        lambda v, lam: v.copy(),
        objective=lambda x: 0.0,
        separable=True,
    )


def tv_prox(weight: float = 1.0, tol: float | None = None, max_iter: int = 200000) -> ProxMap:
    _check_weight(weight)
    return ProxMap(
        "tv",
        lambda v, lam: prox_tv(v, lam * weight, tol=tol, max_iter=max_iter),
        objective=lambda x: weight * tv_value(x),
    )


def tv_conj_prox(weight: float = 1.0, tol: float | None = None, max_iter: int = 200000) -> ProxMap:
    # Conjugate of weight*TV is an indicator, so the prox ignores lam.
    return ProxMap(
        "tv_conjugate",
        lambda v, lam: tv_conjugate_prox(v, weight, tol=tol, max_iter=max_iter),
    )


def wavelet_l1_prox(weight: float = 1.0, levels: int = 1) -> ProxMap:
    _check_weight(weight)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return ProxMap(
        "wavelet_l1",
        lambda v, lam: prox_wavelet_l1(v, lam * weight, levels),
        objective=lambda x: weight * float(np.sum(np.abs(haar_transform(x, levels)))),
    )


def quadratic_fidelity_prox(op: LinearOp, y) -> ProxMap:
    y_arr = as_array(y)
    kty = op._adjoint(y_arr)
    value = op.least_squares_value(y_arr)
    return ProxMap(
        "quadratic_fidelity",
        lambda v, lam: _fidelity_prox(v, lam, op, kty),
        objective=lambda x: value(as_array(x)),
    )


def moreau_check(p: ProxMap, p_conj: ProxMap, v) -> float:
    """Moreau identity defect ||prox_f(v) + prox_{f*}(v) - v||_inf at lam = 1."""
    arr = as_array(v)
    lhs = p.evaluate(arr, 1.0) + p_conj.evaluate(arr, 1.0)
    return float(np.max(np.abs(lhs - arr)))
