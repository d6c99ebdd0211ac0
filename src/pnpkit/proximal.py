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
from .operators import LinearOp

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
    across each row end, which is harmless: the gradient re-zeroes each
    row's last entry after it, and the adjoint adds each row's last entry
    of the dual, which is zero, to the next row's first entry.
    """
    flat = x.reshape(-1)
    rows = stack.reshape(len(stack), -1)
    n = flat.size
    views = []
    for axis in range(x.ndim):
        k = math.prod(x.shape[axis + 1:])
        views.append((flat[k:], flat[:n - k], rows[axis, :n - k]))
    return views


def _grad(x: np.ndarray) -> np.ndarray:
    """Forward differences stacked as (ndim, *x.shape), Neumann boundary.

    Each axis is one flat pass (see :func:`_stencil`) into a zeroed stack;
    the last axis's pass also writes, into each row's last entry, the
    difference across the row end, so that slice is re-zeroed.
    """
    x = np.ascontiguousarray(x)
    out = np.zeros((x.ndim,) + x.shape)
    for ahead, behind, target in _stencil(x, out):
        np.subtract(ahead, behind, out=target)
    if out.size:
        out[-1, ..., -1] = 0.0
    return out


def tv_value(x) -> float:
    """Anisotropic TV: l1 norm of the forward-difference gradient."""
    return float(np.sum(np.abs(_grad(as_array(x)))))


# The dual solve takes its gap and restart test on every _CHECK_EVERY-th iteration.
_CHECK_EVERY = 4

# The byte boundary each TV buffer starts on: one cache line.
_ALIGN = 64


def _aligned_empty(*shapes) -> list:
    """Uninitialized float64 arrays of ``shapes``, C-contiguous, carved from one block.

    Each array starts on a 64-byte boundary.  numpy's allocator promises
    less, so where a buffer of the TV kernel starts within a cache line
    would follow the heap, and the kernel's speed with it.  The arrays are
    views of one ``np.empty``, which lives as long as any of them.
    """
    line = _ALIGN // 8
    slots = [-(-math.prod(shape) // line) * line for shape in shapes]
    block = np.empty(sum(slots) + line)
    start = -block.ctypes.data % _ALIGN // 8
    out = []
    for shape, slot in zip(shapes, slots):
        out.append(block[start:start + math.prod(shape)].reshape(shape))
        start += slot
    return out


# An inf input makes nan (inf - inf) in the iterates; the non-finite gap reports it.
@np.errstate(invalid="ignore")
def _tv_dual_solve(v: np.ndarray, lam: float, tol: float, max_iter: int, p=None):
    """FISTA-accelerated projected gradient on the TV dual (Beck-Teboulle).

    Maximizes the dual of 0.5*||x - v||^2 + lam*TV(x) over |p| <= lam
    componentwise; returns (x, div_p, gap, iterations).  Dual ascent step is
    1/4 in 1-D and 1/8 in 2-D (1 / ||grad||^2 bound).  ``p``, a
    C-contiguous stack of (ndim, *v.shape) dual variables, seeds the solve:
    it is clipped into the box, its trailing slices, which no difference
    reaches, are zeroed, and it is iterated in place, so it holds the final
    dual afterwards for a next solve to warm-start from.  With ``p`` None the
    dual starts at zero in a buffer of the solve's own.

    The dual gradient at the extrapolated point q = p + beta*(p - p_old) is
    linear in the last two iterates, so with x = v - grad^T p and
    z = p + step*grad(x) the step reads p_next = clip(z + beta*(z - z_old)).
    Each iteration thus costs one adjoint and one gradient; iteration 0 runs
    the two passes on the starting dual alone.  The duality gap
    lam*||grad x||_1 - <p, grad x> is bookkeeping that leaves the iterates
    alone, so it is taken only on iterations 1, 1 + 4, 1 + 8, ... (every
    ``_CHECK_EVERY``-th) and at ``max_iter``, and checked against ``tol``
    there: a solve returns on such an iteration.  A non-finite gap raises
    DivergenceError before it is compared with ``tol``; running out of
    iterations raises SolveError carrying the gap of the last iteration (inf
    at ``max_iter`` 0).

    A copy of ``v`` and the work buffers (with the dual, when ``p`` is None)
    come from one block, each on a 64-byte boundary (see
    :func:`_aligned_empty`).  Both stencils run as one contiguous pass per
    axis on the flat buffers (see :func:`_stencil`), on views built once per
    solve.  The returned x and div_p are fresh arrays, so no caller keeps
    the block alive.  The scalars are Python floats and the momentum passes
    are skipped while beta is 0.  The gap reads <p, grad x> as
    <grad^T p, x> = <div_p, x>, on n entries instead of ndim*n, and
    ||grad x||_1 as one reduction of |grad x|.

    The momentum restarts (t = 1, beta = 0) whenever the dual objective
    0.5*||v||^2 - 0.5*||x||^2 has fallen over the last step (O'Donoghue-
    Candes adaptive restart), which stops plain FISTA's overshoot at large
    lam; the test runs on the iterations that take the gap.  It reads the
    step itself: with d = x_new - x_old, ||x_new||^2 - ||x_old||^2 =
    2*<d, x_new> - <d, d>, which keeps the sign of changes far below the
    rounding of ||x||^2.  Every iterate is still a feasible dual point, so
    the gap certificate and the stopping rule are unchanged.
    """
    ndim = v.ndim
    step = 1.0 / (4.0 * ndim)
    stack = (ndim,) + v.shape
    shapes = [v.shape] + [stack] * 4 + [v.shape] * 4 + ([stack] if p is None else [])
    v_copy, z, z_old, dx, work, div_p, x, x_old, d, *own = _aligned_empty(*shapes)
    np.copyto(v_copy, v)
    v = v_copy
    if p is None:
        p = own[0]
        p.fill(0.0)
    else:
        p.clip(-lam, lam, out=p)
        for axis in range(ndim):
            p[axis].swapaxes(0, axis)[-1:] = 0.0
    dx.fill(0.0)  # only the last axis's pass writes its trailing slice
    adjoint = _stencil(div_p, p)
    views, views_old = _stencil(x, dx), _stencil(x_old, dx)
    first, others = p[0], list(p[1:])
    row_ends = dx[-1, ..., -1:]
    t, beta = 1.0, 0.0
    gap = math.inf
    for it in range(max_iter + 1):
        if it:
            np.multiply(dx, step, out=z)
            z += p
            if beta:
                np.subtract(z, z_old, out=p)
                p *= beta
                p += z
                p.clip(-lam, lam, out=p)
            else:
                z.clip(-lam, lam, out=p)
            z, z_old = z_old, z
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            t = t_new

        x, x_old = x_old, x
        views, views_old = views_old, views
        # x = v - grad^T p, then dx = grad x
        np.negative(first, out=div_p)
        for other in others:
            div_p -= other
        for ahead, _, source in adjoint:
            ahead += source
        np.subtract(v, div_p, out=x)
        for ahead, behind, target in views:
            np.subtract(ahead, behind, out=target)
        row_ends.fill(0.0)
        if not it or ((it - 1) % _CHECK_EVERY and it != max_iter):
            continue
        gap = (lam * float(np.add.reduce(np.abs(dx, out=work), axis=None))
               - float(np.vdot(div_p, x)))
        if not math.isfinite(gap):
            raise DivergenceError(f"TV dual projection hit a non-finite gap at iteration {it}",
                                  step=it)
        if gap <= tol:
            return x.copy(), div_p.copy(), gap, it
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


def _check_tv_tol(tol) -> None:
    """A TV gap tolerance is None (the default) or >= 0: no gap meets a NaN or negative one."""
    if tol is not None and not tol >= 0:
        raise ValueError(f"TV tol must be nonnegative, not {tol!r}")


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


# The inner-iteration cap of a TV prox: prox_tv's default, and every tv_conj_prox solve's.
_TV_MAX_ITER = 200000


def prox_tv(v, lam: float, tol: float | None = None, max_iter: int = _TV_MAX_ITER):
    """Prox of lam * TV (anisotropic, forward differences, Neumann boundary).

    Chambolle-type dual projection with FISTA acceleration, stopped on the
    duality gap.  Default tolerance is 1e-10 * max(n, ||v||^2): 1e-10 * n on
    unit-scale images, well inside the certified 1e-6 * n contract, and
    relative to the data's energy once that is larger.  SolveError (carrying
    the gap) if max_iter is hit, DivergenceError if the input is non-finite,
    ValueError for a NaN or negative ``tol``, which no gap meets.

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
    _check_tv_tol(tol)
    arr = as_array(v)
    _check_tv_domain(arr)
    if lam == 0.0:
        return arr.copy()
    return _tv_solve(arr, lam, tol, max_iter, conjugate=False)


def _tv_solve(v: np.ndarray, lam: float, tol, max_iter: int, conjugate: bool) -> np.ndarray:
    """x = prox_{lam*TV}(v), or with ``conjugate`` div_p = v - x; both 1-homogeneous.

    Holds the overflow rescale and the default tolerance of :func:`prox_tv`.
    The prox starts from the run's warm dual, the conjugate from the
    projected gradient step (1 / (4*ndim)) * grad v of the rescaled input,
    written into a dual on a 64-byte boundary like every other.
    """
    energy = _energy(v)
    if math.isinf(energy) and np.isfinite(v).all():
        s = _energy_scale(v)
        return s * _tv_solve(v / s, lam / s, None if tol is None else tol / s / s, max_iter,
                             conjugate)
    if tol is None:
        tol = _default_tv_tol(v, energy)
    if conjugate:
        p = _aligned_empty((v.ndim,) + v.shape)[0]
        np.multiply(_grad(v), 0.25 / v.ndim, out=p)
        return _tv_dual_solve(v, lam, tol, max_iter, p)[1]
    return _tv_dual_solve(v, lam, tol, max_iter, _warm_dual(v))[0]


def _warm_dual(arr: np.ndarray):
    """This solver run's TV dual on the grid of ``arr``; None outside a run.

    Zeros at the run's first TV prox on that grid, on a 64-byte boundary
    (see :func:`_aligned_empty`).  The kernel clips it into the new box, so
    a changed lam needs nothing more.
    """
    state = run_state()
    if state is None:
        return None
    key = ("prox_tv", arr.shape)
    p = state.get(key)
    if p is None:
        p = state[key] = _aligned_empty((arr.ndim,) + arr.shape)[0]
        p.fill(0.0)
    return p


# ---------------------------------------------------------------------------
# ProxMap objects and the Moreau identity check
# ---------------------------------------------------------------------------


class ProxMap:
    """A prox evaluator with an optional objective.

    ``evaluate(v, lam)`` returns prox_{lam*f}(v) as an array for a positive
    scalar lam; any other lam, an array included, raises ValueError.
    ``objective`` (when present) evaluates f itself, which solver traces use.
    """

    def __init__(self, evaluate, objective=None):
        self._evaluate = evaluate
        self.objective = objective

    def evaluate(self, v, lam):
        if not (np.ndim(lam) == 0 and lam > 0):
            raise ValueError("lam must be a positive scalar")
        return as_array(self._evaluate(as_array(v), float(lam)))


def _shrink(v: np.ndarray, tau) -> np.ndarray:
    """Componentwise shrinkage sign(v) * max(|v| - tau, 0), the prox of tau*||.||_1."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def l1_prox(weight: float = 1.0) -> ProxMap:
    _check_weight(weight)
    return ProxMap(lambda v, lam: _shrink(v, lam * weight),
                   objective=lambda x: weight * float(np.sum(np.abs(as_array(x)))))


def box_prox(lo: float = 0.0, hi: float = 1.0) -> ProxMap:
    """Euclidean projection onto the box [lo, hi]; infinite bounds leave a side open."""
    if not lo <= hi:
        raise ValueError("box requires lo <= hi, neither NaN")

    def objective(x):
        arr = as_array(x)
        return 0.0 if (arr.min() >= lo - 1e-12 and arr.max() <= hi + 1e-12) else np.inf

    return ProxMap(lambda v, lam: np.clip(v, lo, hi), objective=objective)


def quadratic_prox(center, weight: float = 1.0) -> ProxMap:
    """Prox of (weight/2)*||x - center||^2; self-conjugate at center 0 and weight 1."""
    _check_weight(weight)
    c = as_array(center)
    return ProxMap(lambda v, lam: (v + lam * weight * c) / (1.0 + lam * weight),
                   objective=lambda x: 0.5 * weight * float(np.sum((as_array(x) - c) ** 2)))


def zero_prox() -> ProxMap:
    return ProxMap(lambda v, lam: v.copy(), objective=lambda x: 0.0)


def tv_prox(weight: float = 1.0, tol: float | None = None) -> ProxMap:
    _check_weight(weight)
    _check_tv_tol(tol)

    def evaluate(v, lam):
        if not math.isfinite(lam * weight):
            raise ValueError(f"TV strength weight * step = {weight!r} * {lam!r} is not finite")
        return prox_tv(v, lam * weight, tol=tol)

    return ProxMap(evaluate, objective=lambda x: weight * tv_value(x))


def tv_conj_prox(weight: float = 1.0, tol: float | None = None) -> ProxMap:
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
    _check_tv_tol(tol)

    def evaluate(v, lam):
        _check_tv_domain(v)
        if weight == 0.0:
            return np.zeros_like(v)
        return _tv_solve(v, weight, tol, _TV_MAX_ITER, conjugate=True)

    return ProxMap(evaluate)


def wavelet_l1_prox(weight: float = 1.0, levels: int = 1) -> ProxMap:
    """Exact prox of weight*||W .||_1 for the orthonormal Haar transform W.

    Computed as W^{-1} o shrink o W; exact because W is orthonormal.
    """
    _check_weight(weight)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return ProxMap(
        lambda v, lam: haar_inverse(_shrink(haar_transform(v, levels), lam * weight), levels),
        objective=lambda x: weight * float(np.sum(np.abs(haar_transform(x, levels)))),
    )


def quadratic_fidelity_prox(op: LinearOp, y) -> ProxMap:
    """Prox of the least-squares fidelity f(x) = 0.5*||y - Kx||^2.

    ``evaluate(v, lam)`` returns (I + lam*K^T K)^{-1} (v + lam*K^T y), the
    prox of the operator's own ``least_squares(y)``: the shifted normal
    equations with rho = 1/lam (exact for the diagonal kind), and one
    filter for a circulant operator, whose data term transforms y once.  A
    y not shaped like the operator's output raises ShapeError.
    """
    value, _, prox = op.least_squares(op._data(y))
    return ProxMap(prox, objective=lambda x: value(as_array(x)))


def moreau_check(p: ProxMap, p_conj: ProxMap, v) -> float:
    """Moreau identity defect ||prox_f(v) + prox_{f*}(v) - v||_inf at lam = 1."""
    arr = as_array(v)
    lhs = p.evaluate(arr, 1.0) + p_conj.evaluate(arr, 1.0)
    return float(np.max(np.abs(lhs - arr)))
