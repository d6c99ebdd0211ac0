"""Denoisers and the diagnostics that gate plug-and-play convergence claims.

Every denoiser is a pure sigma-parameterized map.  Linear instances expose
their exact residual-map norm; gradient-step instances expose the potential
they descend; denoisers that are exact proximal maps expose that potential
too, so solver traces can evaluate the variational objective they minimize.

The diagnostics (residual Lipschitz constant, Jacobian asymmetry, local
homogeneity defect) are estimated through central finite differences and are
meant for desk-scale signals (dense Jacobians capped at 4096 entries).
"""

from __future__ import annotations

import math

import numpy as np

from .core import DivergenceError, Rng, ShapeError, as_array
from .gmm import GmmPrior, _posterior_mean
from .operators import CirculantOp, make_blur
from .proximal import _check_tv_tol, haar_inverse, haar_transform, prox_tv, tv_value

JACOBIAN_MAX_DIM = 4096


class Denoiser:
    """A sigma-parameterized denoising map with optional analytic structure.

    ``apply(x, sigma)`` takes an array (a :class:`~pnpkit.core.Signal` is
    read as its array) and returns an array of the same shape.

    Optional hooks (all taking ``(x, sigma)``):

    * ``potential`` / ``grad_potential``: the scalar g and its gradient when
      the map is the gradient step id - grad g.
    * ``prox_potential``: the function phi with D = prox_phi, when the map is
      an exact proximal operator.

    ``residual_norm`` is the exact Lipschitz constant of x - D(x) when the
    map is linear and the constant is known in closed form;
    ``grad_lipschitz`` that of ``grad_potential`` when known.  Both are
    None otherwise.
    """

    def __init__(self, fn, tag: str, potential=None, grad_potential=None,
                 prox_potential=None, residual_norm=None, weight: float | None = None,
                 grad_lipschitz: float | None = None):
        self._fn = fn
        self.tag = tag
        self.potential = potential
        self.grad_potential = grad_potential
        self.prox_potential = prox_potential
        self.residual_norm = residual_norm
        self.weight = weight
        self.grad_lipschitz = grad_lipschitz

    def apply(self, x, sigma: float = 0.0):
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        arr = as_array(x)
        out = as_array(self._fn(arr, float(sigma)))
        if out.shape != arr.shape:
            raise ValueError(f"denoiser {self.tag!r} changed shape {arr.shape} -> {out.shape}")
        if not np.isfinite(out).all():
            raise DivergenceError(f"denoiser {self.tag!r} produced non-finite output")
        return out

    def __repr__(self):
        return f"Denoiser({self.tag!r})"


# ---------------------------------------------------------------------------
# Classical denoisers
# ---------------------------------------------------------------------------


def gaussian_kernel(sigma: float, ndim: int = 2, radius: int | None = None) -> np.ndarray:
    """Normalized truncated Gaussian kernel with odd sides (sum exactly 1).

    A ``sigma`` that is not finite and positive, or a negative ``radius``, raises ValueError.
    """
    _check_kernel(sigma, radius)
    radius = gaussian_radius(sigma, radius)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # a tiny sigma squares to inf: exp(-inf) = 0, a delta
        g1 = np.exp(-0.5 * (t / sigma) ** 2)
    kernel = g1
    for _ in range(ndim - 1):
        kernel = np.multiply.outer(kernel, g1)
    return kernel / kernel.sum()


def gaussian_radius(sigma: float, radius: int | None = None) -> int:
    """The half-width of a truncated Gaussian kernel: ``radius``, by default ceil(3 sigma) >= 1."""
    return max(1, math.ceil(3.0 * sigma)) if radius is None else radius


def _check_kernel(sigma: float, radius: int | None = None) -> None:
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("kernel sigma must be finite and positive")
    if radius is not None and radius < 0:
        raise ValueError(f"kernel radius must be nonnegative, got {radius}")


def _fitted_gaussian_kernel(sigma: float, shape, radius: int | None) -> np.ndarray:
    # radius clamped so the (odd-sided) kernel fits the image
    ndim = min(len(shape), 2)
    max_radius = (min(shape[:ndim]) - 1) // 2
    radius = max(0, min(gaussian_radius(sigma, radius), max_radius))
    return gaussian_kernel(sigma, ndim=ndim, radius=radius)


def gaussian_filter_denoiser(kernel_sigma: float, radius: int | None = None) -> Denoiser:
    """Linear smoothing by periodic convolution with a normalized Gaussian.

    The measurement sigma argument is ignored; the filter is fixed by
    ``kernel_sigma``.  Constant images are preserved because the kernel sums
    to one.  A ``kernel_sigma`` that is not finite and positive, or a
    negative ``radius``, raises ValueError; a radius too large for the
    signal is clamped to fit it.
    """
    _check_kernel(kernel_sigma, radius)

    def fn(arr, sigma):
        kernel = _fitted_gaussian_kernel(kernel_sigma, arr.shape, radius)
        op = make_blur(kernel, arr.shape)
        return op._apply(arr)

    return Denoiser(fn, tag=f"gaussian({kernel_sigma})")


def nlm_denoiser(patch_radius: int, window_radius: int, h: float) -> Denoiser:
    """Non-local means with periodic boundary handling.

    Each pixel is the weighted average of pixels in the search window, with
    weights exp(-||P_i - P_j||^2 / h^2) normalized to sum to one per pixel;
    patch distances are squared sums over (2*patch_radius+1)^d patches.
    """
    if not (math.isfinite(h) and h > 0 and h * h > 0):
        raise ValueError(f"h must be finite and positive, with h*h > 0; got {h!r}")
    if patch_radius < 0 or window_radius < 0:
        raise ValueError("radii must be nonnegative")
    patch_size = 2 * patch_radius + 1

    def fn(arr, sigma):
        from scipy import ndimage  # imported on first use: it adds ~300 ms to a start-up

        if arr.ndim not in (1, 2):
            raise ShapeError(f"nlm supports 1-D and 2-D signals, got shape {arr.shape}")
        offsets = np.ndindex(*([2 * window_radius + 1] * arr.ndim))
        num = np.zeros_like(arr)
        den = np.zeros_like(arr)
        for off in offsets:
            shift = tuple(o - window_radius for o in off)
            shifted = np.roll(arr, tuple(-s for s in shift), axis=tuple(range(arr.ndim)))
            diff2 = (arr - shifted) ** 2
            # uniform_filter computes the patch mean; rescale to the patch sum
            dist2 = ndimage.uniform_filter(diff2, size=patch_size, mode="wrap")
            dist2 = dist2 * (patch_size**arr.ndim)
            w = np.exp(-dist2 / (h * h))
            num += w * shifted
            den += w
        return num / den

    return Denoiser(fn, tag=f"nlm(p={patch_radius},w={window_radius},h={h})")


def tv_denoiser(c: float = 1.0, tol: float | None = None, max_iter: int = 200000) -> Denoiser:
    """TV denoiser: :func:`~pnpkit.proximal.prox_tv` at a finite strength lam = c * sigma^2.

    Warm-started from the run's previous TV dual within a solver run, cold outside one.
    """
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("c must be finite and nonnegative")
    _check_tv_tol(tol)

    def fn(arr, sigma):
        lam = c * sigma * sigma
        if not math.isfinite(lam):
            raise ValueError(f"TV strength c * sigma^2 = {c!r} * {sigma!r}^2 is not finite")
        return prox_tv(arr, lam, tol=tol, max_iter=max_iter)

    def phi(x, sigma):
        return c * sigma * sigma * tv_value(x)

    return Denoiser(fn, tag="tv", prox_potential=phi)


def _shaped(x, shape: tuple) -> np.ndarray:
    """x as an array of ``shape``, the one shape a shape-fixed denoiser takes; else ValueError."""
    arr = as_array(x)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Linear spectral denoisers
# ---------------------------------------------------------------------------


def _dctn(a):
    from scipy import fft  # imported on first use: it adds ~350 ms to a start-up

    return fft.dctn(a, norm="ortho")


def _idctn(c):
    from scipy import fft

    return fft.idctn(c, norm="ortho")


# The orthonormal transforms W of a spectral denoiser, as (W, W^T) pairs.
_SPECTRAL_TRANSFORMS = {
    "dct": (_dctn, _idctn),
    "haar": (lambda a: haar_transform(a, 1), lambda c: haar_inverse(c, 1)),
    "identity": (lambda a: a, lambda c: c),
}


def linear_spectral_denoiser(shape, lam: float, transform: str = "dct",
                             profile=None) -> Denoiser:
    """Shrinkage x -> W^T diag(g) W x with gains g = 1 / (1 + lam * profile).

    ``transform`` names the orthonormal W ("dct", "haar" or "identity") on
    signals of ``shape``; the default flat profile gives x / (1 + lam).  The
    profile must be finite, >= 1 and shaped like ``shape``, and lam >= 0
    with lam * profile finite, so every gain lies in (0, 1/(1+lam)].
    Exposes the exact residual norm max(1 - g) and, as diagonal shrinkage in
    an orthonormal basis is the prox of a diagonal quadratic, its potential.
    """
    shape = tuple(int(s) for s in shape)
    if transform not in _SPECTRAL_TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    profile = np.ones(shape) if profile is None else as_array(profile)
    if profile.shape != shape:
        raise ValueError(f"profile shape {profile.shape} must match the shape {shape}")
    if not (np.isfinite(profile).all() and np.all(profile >= 1.0)):
        raise ValueError("profile entries must be finite and >= 1")
    if not (lam >= 0 and math.isfinite(lam * float(np.max(profile)))):
        raise ValueError(f"lam {lam} must be >= 0 with lam * profile finite")
    if transform == "haar" and any(s % 2 for s in shape):
        raise ShapeError(f"the one-level Haar transform needs even sides, got shape {shape}")
    fwd, inv = _SPECTRAL_TRANSFORMS[transform]
    gains = 1.0 / (1.0 + lam * profile)
    quad = 1.0 / gains - 1.0  # D = prox of (1/2) sum quad_k * coeff_k^2

    def fn(arr, sigma):
        return inv(fwd(_shaped(arr, shape)) * gains)

    def phi(x, sigma):
        coeff = fwd(_shaped(x, shape))
        return 0.5 * float(np.sum(quad * coeff * coeff))

    return Denoiser(
        fn,
        tag=f"spectral({transform},lam={lam})",
        prox_potential=phi,
        residual_norm=float(np.max(1.0 - gains)),
    )


# ---------------------------------------------------------------------------
# Gradient-step denoiser with an explicit potential
# ---------------------------------------------------------------------------


def gaussian_smoother(shape, kernel_sigma: float, floor: float = 0.0) -> CirculantOp:
    """Symmetric PSD circulant smoother floor*I + (1-floor)*G G^T.

    G is the normalized Gaussian filter, so the spectrum lies in
    [floor, 1]; a positive floor keeps the induced gradient-step denoiser
    invertible, which its proximal potential requires.
    """
    if not (0.0 <= floor < 1.0):
        raise ValueError("floor must lie in [0, 1)")
    _check_kernel(kernel_sigma)
    shape = tuple(int(s) for s in shape)
    kernel = _fitted_gaussian_kernel(kernel_sigma, shape, None)
    g = make_blur(kernel, shape)
    return CirculantOp(floor + (1.0 - floor) * np.abs(g.half_response) ** 2, shape)


def gs_denoiser(smoother: CirculantOp, weight: float = 1.0) -> Denoiser:
    """Gradient-step denoiser D = id - grad g with g(x) = 0.5*||x - A x||^2.

    A is a symmetric circulant smoother, as :func:`gaussian_smoother`
    builds, whose real half response a lies in [0, 1].  Then grad g = (I - A)^2
    is one filter with spectrum (1 - a)^2 and Lipschitz constant
    ``grad_lipschitz`` = max (1 - a)^2 <= 1, g one transform, and D one
    filter with spectrum 1 - (1 - a)^2; when that spectrum is bounded away
    from 0, D is invertible and its exact proximal potential is exposed as
    well.  Every hook takes x of the smoother's shape only.  ``weight`` is
    the default regularization strength the solvers pair with g.  A smoother
    that is not circulant raises TypeError, a complex half response ValueError.
    """
    if not isinstance(smoother, CirculantOp):
        raise TypeError(f"the GS smoother must be circulant, got a {smoother.kind} operator")
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError("weight must be finite and positive")
    if np.max(np.abs(np.imag(smoother.half_response))) > 1e-10:
        raise ValueError("circulant smoother is not symmetric (complex spectrum)")
    shape = smoother.in_shape
    res2 = (1.0 - np.real(smoother.half_response)) ** 2
    grad_op = CirculantOp(res2, shape)
    d_op = CirculantOp(1.0 - res2, shape)
    g_value = grad_op.quadratic_value()
    d_eigs = d_op.half_response
    phi = None
    if np.min(d_eigs) > 1e-12:
        phi = CirculantOp(1.0 / d_eigs - 1.0, shape).quadratic_value()

    def grad_g(x, sigma=0.0):
        return grad_op._apply(_shaped(x, shape))

    def fn(arr, sigma):
        return d_op._apply(_shaped(arr, shape))

    return Denoiser(
        fn,
        tag="gs",
        potential=lambda x, sigma=0.0: g_value(_shaped(x, shape)),
        grad_potential=grad_g,
        prox_potential=None if phi is None else lambda x, sigma=0.0: phi(_shaped(x, shape)),
        weight=weight,
        grad_lipschitz=float(np.max(res2)),
    )


def mmse_gmm_denoiser(prior: GmmPrior) -> Denoiser:
    """Exact posterior-mean denoiser under an isotropic Gaussian-mixture prior.

    sigma = 0 returns the input unchanged.  The map is linear only for a
    single zero-mean component, where it reduces to the scalar shrinkage
    gamma^2 / (gamma^2 + sigma^2).
    """
    dim = prior.dim

    def fn(arr, sigma):
        # Denoiser.apply has checked sigma and made arr a float64 array
        if arr.size != dim:
            raise ValueError(f"point has dimension {arr.size}, prior expects {dim}")
        return _posterior_mean(prior, arr.reshape(-1), sigma).reshape(arr.shape)

    return Denoiser(fn, tag=f"mmse_gmm(J={prior.n_components})")


# ---------------------------------------------------------------------------
# Finite-difference diagnostics
# ---------------------------------------------------------------------------


def _default_fd_step(x: np.ndarray) -> float:
    return 1e-4 * (1.0 + float(np.max(np.abs(x))))


def _fd_jacobian(apply_fn, x: np.ndarray, fd_step: float) -> np.ndarray:
    """Dense Jacobian by central differences, one column per basis vector."""
    n = x.size
    if n > JACOBIAN_MAX_DIM:
        raise ValueError(f"finite-difference Jacobian capped at {JACOBIAN_MAX_DIM} entries")
    jac = np.empty((n, n))
    e = np.zeros_like(x)
    flat = e.reshape(-1)
    for j in range(n):
        flat[j] = fd_step
        plus = apply_fn(x + e)
        minus = apply_fn(x - e)
        jac[:, j] = (plus - minus).reshape(-1) / (2.0 * fd_step)
        flat[j] = 0.0
    return jac


def estimate_residual_lipschitz(d: Denoiser, sigma: float, shape, probes: int = 3,
                                fd_step: float | None = None, rng: Rng | None = None) -> float:
    """Estimated Lipschitz constant of the residual map x - D(x).

    At each probe point the Jacobian of D - id is assembled from central
    finite-difference Jacobian-vector products, and its exact spectral norm
    is taken; the max over probes is returned.  Exact for linear denoisers
    up to finite-difference rounding.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if fd_step is not None and fd_step <= 0:
        raise ValueError("fd_step must be positive")
    rng = rng or Rng(0)
    shape = tuple(int(s) for s in shape)
    worst = 0.0
    for _ in range(probes):
        x = rng.uniform(0.0, 1.0, shape)
        h = fd_step if fd_step is not None else _default_fd_step(x)
        jac = _fd_jacobian(lambda z: d.apply(z, sigma), x, h)
        jac[np.diag_indices_from(jac)] -= 1.0  # Jacobian of D - id
        worst = max(worst, float(np.linalg.norm(jac, 2)))
    return worst


def jacobian_asymmetry(d: Denoiser, x, sigma: float, fd_step: float | None = None) -> float:
    """Relative asymmetry ||J - J^T||_F / ||J||_F of the dense FD Jacobian of D."""
    arr = as_array(x)
    h = fd_step if fd_step is not None else _default_fd_step(arr)
    jac = _fd_jacobian(lambda z: d.apply(z, sigma), arr, h)
    denom = max(float(np.linalg.norm(jac)), 1e-300)
    return float(np.linalg.norm(jac - jac.T)) / denom


def homogeneity_defect(d: Denoiser, x, sigma: float, delta: float = 1e-3) -> float:
    """Local homogeneity defect ||D((1+delta)x) - (1+delta)D(x)|| / (delta*||D(x)||).

    Zero for any linear denoiser; delta = 0 returns 0 by convention.
    """
    if delta == 0.0:
        return 0.0
    arr = as_array(x)
    dx = d.apply(arr, sigma)
    scaled = d.apply((1.0 + delta) * arr, sigma)
    num = float(np.linalg.norm(scaled - (1.0 + delta) * dx))
    return num / (abs(delta) * float(np.linalg.norm(dx)) + 1e-300)
