"""Closed-form and iterative proximal operators.

prox_{lam*f}(v) = argmin_x f(x) + ||x - v||^2 / (2*lam).  Convex instances
are non-expansive and their fixed points are minimizers; the iterative TV
prox certifies its accuracy through the duality gap it reports.  Each prox
has one public form, a factory that returns a :class:`ProxMap`;
:func:`prox_tv` is the TV kernel entry that ``tv_prox`` and the TV
denoiser call.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DivergenceError, ShapeError, SolveError, as_array, run_state
from .operators import LinearOp, solve_shifted_normal

# ---------------------------------------------------------------------------
# Orthonormal Haar transform
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def _haar_step(x: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    """One orthonormal Haar level along ``axis``.

    Analysis maps the pairs (x[0::2], x[1::2]) to the halves (approx,
    detail); synthesis maps the halves back onto the pairs.  Both are the
    butterfly (a + b, a - b) / sqrt(2), which is its own inverse.
    """
    x = np.moveaxis(x, axis, 0)
    out = np.empty_like(x)
    half = len(x) // 2
    a, b = (x[:half], x[half:]) if inverse else (x[0::2], x[1::2])
    lo, hi = (out[0::2], out[1::2]) if inverse else (out[:half], out[half:])
    lo[...] = (a + b) / _SQRT2
    hi[...] = (a - b) / _SQRT2
    return np.moveaxis(out, 0, axis)


def _haar(x, levels: int, inverse: bool) -> np.ndarray:
    """Multi-level Haar analysis, or with ``inverse`` its synthesis.

    Level j works on the leading block of sides shape / 2^j, one axis at a
    time; synthesis runs the levels and the axes in reverse order.
    """
    arr = as_array(x)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    for s in arr.shape:
        if s % (2**levels) != 0:
            raise ShapeError(
                f"dimension {s} not divisible by 2^{levels}; cannot run {levels} Haar levels"
            )
    out = arr.copy()
    order = -1 if inverse else 1
    for level in range(levels)[::order]:
        block = tuple(slice(0, s >> level) for s in arr.shape)
        low = out[block]
        for axis in range(arr.ndim)[::order]:
            low = _haar_step(low, axis, inverse)
        out[block] = low
    return out


def haar_transform(x, levels: int):
    """Orthonormal multi-level Haar analysis; preserves the l2 norm exactly."""
    return _haar(x, levels, inverse=False)


def haar_inverse(c, levels: int):
    """Inverse of :func:`haar_transform`."""
    return _haar(c, levels, inverse=True)


# ---------------------------------------------------------------------------
# Anisotropic total variation via accelerated dual projection
# ---------------------------------------------------------------------------


def _stencil(x: np.ndarray, stack: np.ndarray) -> list:
    """Per axis, the flat views both TV stencils read and write.

    ``x`` and ``stack`` (shaped (ndim, *x.shape)) are C-contiguous.  Along
    an axis whose C-order flat offset is k, the neighbour of flat entry i is
    entry i + k, so each stencil is one contiguous pass per axis over the
    triple (x[k:], x[:n-k], stack[axis][:n-k]), all flat: the gradient
    writes the difference of the first two into the third, and the adjoint
    adds the third into the first.  Along the last axis the pass also runs
    across each row end; :func:`_grad` and :func:`_grad_adjoint` say why
    that is harmless.
    """
    flat = x.reshape(-1)
    rows = stack.reshape(len(stack), -1)
    n = flat.size
    views = []
    for axis in range(x.ndim):
        k = math.prod(x.shape[axis + 1:])
        views.append((flat[k:], flat[:n - k], rows[axis, :n - k]))
    return views


def _grad(x: np.ndarray, out: np.ndarray | None = None, views=None) -> np.ndarray:
    """Forward differences stacked as (ndim, *x.shape), Neumann boundary.

    Each axis is one flat pass (see :func:`_stencil`).  The last axis's pass
    also writes, into each row's last entry, the difference across the row
    end, so that slice is re-zeroed; the other axes never write their
    trailing slice, so an ``out`` that starts at zero keeps it zero.
    ``views`` is ``_stencil(x, out)``, for a caller that builds it once on
    C-contiguous ``x`` and ``out``.
    """
    if views is None:
        x = np.ascontiguousarray(x)
        if out is None:
            out = np.zeros((x.ndim,) + x.shape)
        views = _stencil(x, out)
    for ahead, behind, target in views:
        np.subtract(ahead, behind, out=target)
    if out.size:
        out[-1, ..., -1] = 0.0
    return out


def _grad_adjoint(p: np.ndarray, out: np.ndarray, views=None) -> np.ndarray:
    """grad^T p for stacked duals p that are zero on each trailing slice.

    ``out`` is C-contiguous.  The last axis's flat pass (see
    :func:`_stencil`) also adds each row's last entry of p[-1], which is
    zero, to the next row's first entry of ``out``.  ``views`` is
    ``_stencil(out, p)``, for a caller that builds it once.
    """
    np.negative(p[0], out=out)
    for axis in range(1, out.ndim):
        out -= p[axis]
    for ahead, _, source in _stencil(out, np.ascontiguousarray(p)) if views is None else views:
        ahead += source
    return out


def tv_value(x) -> float:
    """Anisotropic TV: l1 norm of the forward-difference gradient."""
    return float(np.sum(np.abs(_grad(as_array(x)))))


# An inf input makes nan (inf - inf) in the iterates; the non-finite gap reports it.
@np.errstate(invalid="ignore")
def _tv_dual_solve(v: np.ndarray, lam: float, tol: float, max_iter: int, p0=None, out=None):
    """FISTA-accelerated projected gradient on the TV dual (Beck-Teboulle).

    Maximizes the dual of 0.5*||x - v||^2 + lam*TV(x) over |p| <= lam
    componentwise; returns (x, div_p, gap, iterations).  Dual ascent step is
    1/4 in 1-D and 1/8 in 2-D (1 / ||grad||^2 bound).  ``p0`` optionally
    seeds the stacked (ndim, *v.shape) dual variables: it is clipped into
    the box and its trailing slices, which no difference reaches, are
    zeroed.  The dual is iterated in ``out`` when one is given, else in a
    fresh array, so ``p0 = out`` warm-starts from a buffer and leaves the
    final dual in it for a next solve.

    The dual gradient at the extrapolated point q = p + beta*(p - p_old) is
    linear in the last two iterates, so with x = v - grad^T p and
    z = p + step*grad(x) the step reads p_next = clip(z + beta*(z - z_old)).
    Each iteration thus costs one adjoint and one gradient, and the grad(x)
    that drives the next step also gives the duality gap
    lam*||grad x||_1 - <p, grad x>, checked against ``tol`` every iteration.
    A non-finite gap raises DivergenceError before it is compared with
    ``tol``; running out of iterations raises SolveError carrying the gap.

    Every buffer is C-contiguous (``v`` is read through a C-ordered copy
    when it is not, and ``out`` must be), so both stencils run as one
    contiguous pass per axis on the flat buffers (see :func:`_stencil`),
    with views built once per solve.  The scalars are Python floats, the
    momentum passes are skipped while beta is 0, and ||grad x||_1 is a dot
    product of |grad x| with a buffer of ones.

    The momentum restarts (t = 1, beta = 0) whenever the dual objective
    0.5*||v||^2 - 0.5*||x||^2 falls (O'Donoghue-Candes adaptive restart),
    which stops plain FISTA's overshoot at large lam.  The test reads the
    step itself: with d = x_new - x_old, ||x_new||^2 - ||x_old||^2 =
    2*<d, x_new> - <d, d>, which keeps the sign of changes far below the
    rounding of ||x||^2.  Every iterate is still a feasible dual point, so
    the gap certificate and the stopping rule are unchanged.
    """
    v = np.ascontiguousarray(v)
    ndim = v.ndim
    step = 1.0 / (4.0 * ndim)
    p = np.zeros((ndim,) + v.shape) if out is None else out
    if p0 is not None:
        np.clip(p0, -lam, lam, out=p)
        for axis in range(ndim):
            p[axis].swapaxes(0, axis)[-1] = 0.0
    elif out is not None:
        p.fill(0.0)
    z = np.empty_like(p)
    z_old = np.zeros_like(p)
    dx = np.zeros_like(p)
    work = np.empty_like(p)
    ones = np.ones_like(p)
    div_p = np.empty_like(v)
    x = np.empty_like(v)
    x_old = np.empty_like(v)
    d = np.empty_like(v)
    adjoint = _stencil(div_p, p)
    views, views_old = _stencil(x, dx), _stencil(x_old, dx)
    np.subtract(v, _grad_adjoint(p, div_p, adjoint), out=x)
    _grad(x, dx, views)
    t, beta = 1.0, 0.0
    gap = math.inf
    for it in range(1, max_iter + 1):
        np.multiply(dx, step, out=z)
        z += p
        if beta:
            np.subtract(z, z_old, out=p)
            p *= beta
            p += z
            np.clip(p, -lam, lam, out=p)
        else:
            np.clip(z, -lam, lam, out=p)
        z, z_old = z_old, z
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        t = t_new

        x, x_old = x_old, x
        views, views_old = views_old, views
        np.subtract(v, _grad_adjoint(p, div_p, adjoint), out=x)
        _grad(x, dx, views)
        gap = lam * float(np.vdot(np.abs(dx, out=work), ones)) - float(np.vdot(p, dx))
        if not math.isfinite(gap):
            raise DivergenceError(f"TV dual projection hit a non-finite gap at iteration {it}",
                                  step=it)
        if gap <= tol:
            return x, div_p, gap, it
        np.subtract(x, x_old, out=d)
        if 2.0 * float(np.vdot(d, x)) > float(np.vdot(d, d)):
            t, beta = 1.0, 0.0
    raise SolveError(
        f"TV dual projection did not reach gap {tol:.3e} in {max_iter} iterations",
        residual=gap,
    )


def _check_weight(value: float, name: str = "weight") -> None:
    """The one check on a prox weight, and on the lam of :func:`prox_tv`."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


def _check_tv_domain(arr: np.ndarray) -> None:
    if arr.ndim not in (1, 2):
        raise ShapeError("TV proxes support 1-D and 2-D signals")


def _energy(arr: np.ndarray) -> float:
    """||arr||^2; inf when it overflows."""
    with np.errstate(over="ignore"):
        return float(np.vdot(arr, arr))


def _default_tv_tol(arr: np.ndarray, energy: float) -> float:
    """1e-10 * max(n, ||v||^2): the gap scales with the data's energy.

    An energy that overflows leaves no tolerance to certify against, so it
    raises DivergenceError (only an inf entry gets here; see :func:`_tv_solve`).
    """
    if math.isinf(energy):
        raise DivergenceError("TV prox input energy ||v||^2 overflows")
    return 1e-10 * max(arr.size, energy)


def _energy_scale(arr: np.ndarray) -> float:
    """A power of two s with n <= ||arr/s||^2 < 4n, for a finite, nonzero arr.

    With 2^k the power of two just above max|arr|, arr/2^k lies in (-1, 1)
    and its energy e in [1/4, n); s = 2^(k-j) with 4^j >= n/e lifts the
    energy of arr/s into [n, 4n).  As e < n, j is at least 1, so s is finite
    even when max|arr| is above 2^1023.
    """
    k = math.frexp(float(np.max(np.abs(arr))))[1]
    unit = np.ldexp(arr, -k)
    j = max(1, math.ceil(0.5 * math.log2(arr.size / float(np.vdot(unit, unit)))))
    return math.ldexp(1.0, k - j)


def prox_tv(v, lam: float, tol: float | None = None, max_iter: int = 200000):
    """Prox of lam * TV (anisotropic, forward differences, Neumann boundary).

    Chambolle-type dual projection with FISTA acceleration, stopped on the
    duality gap.  Default tolerance is 1e-10 * max(n, ||v||^2): 1e-10 * n on
    unit-scale images, well inside the certified 1e-6 * n contract, and
    relative to the data's energy once that is larger.  SolveError (carrying
    the gap) if max_iter is hit, DivergenceError if the input is non-finite.

    A finite input whose energy overflows is solved as s * prox_tv(v/s,
    lam/s) (TV prox is 1-homogeneous), with s the power of two that puts
    ||v/s||^2 in [n, 4n); the scaling is exact, and the rescaled solve's
    default tolerance is the nominal 1e-10 * ||v||^2 divided by s^2.  An
    explicit ``tol`` is divided by s^2 too.

    Outside a solver run each call is a cold solve from p = 0.  Inside one
    (see :func:`~pnpkit.core.scoped_run`) each call starts from the dual the
    run's previous TV prox on the same grid ended with.  Any feasible dual
    starts a valid solve, so the gap certified is the same.
    """
    _check_weight(lam, "lam")
    arr = as_array(v)
    _check_tv_domain(arr)
    if lam == 0.0:
        return arr.copy()
    return _tv_solve(arr, lam, tol, max_iter, conjugate=False)


def _tv_solve(v: np.ndarray, lam: float, tol, max_iter: int, conjugate: bool) -> np.ndarray:
    """x = prox_{lam*TV}(v), or with ``conjugate`` div_p = v - x; both 1-homogeneous.

    Holds the overflow rescale and the default tolerance of :func:`prox_tv`.
    The prox starts from the run's warm dual, the conjugate from the
    projected gradient step (1 / (4*ndim)) * grad v of the rescaled input.
    """
    energy = _energy(v)
    if math.isinf(energy) and np.isfinite(v).all():
        s = _energy_scale(v)
        return s * _tv_solve(v / s, lam / s, None if tol is None else tol / s / s, max_iter,
                             conjugate)
    if tol is None:
        tol = _default_tv_tol(v, energy)
    if conjugate:
        return _tv_dual_solve(v, lam, tol, max_iter, p0=(0.25 / v.ndim) * _grad(v))[1]
    p = _warm_dual(v)
    return _tv_dual_solve(v, lam, tol, max_iter, p0=p, out=p)[0]


def _warm_dual(arr: np.ndarray):
    """This solver run's TV dual on the grid of ``arr``; None outside a run.

    Zeros at the run's first TV prox on that grid.  The kernel clips it into
    the new box, so a changed lam needs nothing more.
    """
    state = run_state()
    if state is None:
        return None
    key = ("prox_tv", arr.shape)
    p = state.get(key)
    if p is None:
        p = state[key] = np.zeros((arr.ndim,) + arr.shape)
    return p


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


def _shrink(v: np.ndarray, tau) -> np.ndarray:
    """Componentwise shrinkage sign(v) * max(|v| - tau, 0), the prox of tau*||.||_1."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def l1_prox(weight: float = 1.0) -> ProxMap:
    _check_weight(weight)
    return ProxMap(
        "l1",
        lambda v, lam: _shrink(v, lam * weight),
        objective=lambda x: weight * float(np.sum(np.abs(as_array(x)))),
        separable=True,
    )


def box_prox(lo: float = 0.0, hi: float = 1.0) -> ProxMap:
    """Euclidean projection onto the box [lo, hi]; infinite bounds leave a side open."""
    if not lo <= hi:
        raise ValueError("box requires lo <= hi, neither NaN")

    def objective(x):
        arr = as_array(x)
        return 0.0 if (arr.min() >= lo - 1e-12 and arr.max() <= hi + 1e-12) else np.inf

    return ProxMap(
        "box",
        lambda v, lam: np.clip(v, lo, hi),
        objective=objective,
        separable=True,
    )


def squared_l2_prox(weight: float = 1.0) -> ProxMap:
    """Prox of (weight/2)*||x||^2, which is v / (1 + lam*weight); self-conjugate at weight 1."""
    _check_weight(weight)
    return ProxMap(
        "squared_l2",
        lambda v, lam: v / (1.0 + lam * weight),
        objective=lambda x: 0.5 * weight * float(np.sum(as_array(x) ** 2)),
        separable=True,
    )


def quadratic_prox(center, weight: float = 1.0) -> ProxMap:
    """Prox of (weight/2)*||x - center||^2."""
    _check_weight(weight)
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
    """Prox of (weight*TV)^*: projection onto {grad^T p : |p| <= weight}.

    The conjugate of weight*TV is an indicator, so the prox ignores lam.  Each
    call is an independent dual solve seeded at a projected gradient step
    rather than at zero, so recombining with :func:`tv_prox` through Moreau's
    identity cross-checks two genuinely distinct solves.  ``tol`` defaults
    as in :func:`prox_tv`, and a finite input whose energy overflows is
    rescaled by a power of two as there, the seed taken from the rescaled
    input.
    """
    _check_weight(weight)

    def evaluate(v, lam):
        _check_tv_domain(v)
        if weight == 0.0:
            return np.zeros_like(v)
        return _tv_solve(v, weight, tol, max_iter, conjugate=True)

    return ProxMap("tv_conjugate", evaluate)


def wavelet_l1_prox(weight: float = 1.0, levels: int = 1) -> ProxMap:
    """Exact prox of weight*||W .||_1 for the orthonormal Haar transform W.

    Computed as W^{-1} o shrink o W; exact because W is orthonormal.
    """
    _check_weight(weight)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return ProxMap(
        "wavelet_l1",
        lambda v, lam: haar_inverse(_shrink(haar_transform(v, levels), lam * weight), levels),
        objective=lambda x: weight * float(np.sum(np.abs(haar_transform(x, levels)))),
    )


def quadratic_fidelity_prox(op: LinearOp, y) -> ProxMap:
    """Prox of the least-squares fidelity f(x) = 0.5*||y - Kx||^2.

    ``evaluate(v, lam)`` returns (I + lam*K^T K)^{-1} (v + lam*K^T y), solved
    through the shifted normal equations with rho = 1/lam (exact for
    circulant/diagonal kinds).  K^T y is formed once, here, and a y not
    shaped like the operator's output raises ShapeError.
    """
    y_arr = op._data(y)
    kty = op._adjoint(y_arr)
    value = op.least_squares_value(y_arr)
    return ProxMap(
        "quadratic_fidelity",
        lambda v, lam: solve_shifted_normal(op, 1.0 / lam, kty + v / lam),
        objective=lambda x: value(as_array(x)),
    )


def moreau_check(p: ProxMap, p_conj: ProxMap, v) -> float:
    """Moreau identity defect ||prox_f(v) + prox_{f*}(v) - v||_inf at lam = 1."""
    arr = as_array(v)
    lhs = p.evaluate(arr, 1.0) + p_conj.evaluate(arr, 1.0)
    return float(np.max(np.abs(lhs - arr)))
