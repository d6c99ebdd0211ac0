"""Linear forward operators with adjoints and the associated linear solvers.

All operators are immutable and safe to share between concurrent solver
runs.  Circulant operators (periodic convolutions) keep their frequency
response on the half spectrum of a real FFT, which gives one real round
trip per filter and exact FFT-domain solves for the shifted normal
equations; the diagonal kind (masks included) divides componentwise;
everything else falls back to conjugate gradients on the normal equations
with a certified relative residual.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import Rng, ShapeError, SolveError, _rfftn, _spectral_filter, as_array, real_spectrum

CG_RTOL = 1e-10
SVD_MAX_DIM = 512


class LinearOp:
    """Forward/adjoint operator pair between fixed shapes.

    Subclasses implement ``_apply`` and ``_adjoint`` on plain arrays: the
    unchecked path (no shape check) that the package's own solver, denoiser
    and sampler loops call.  The public methods check shapes, take an array
    (a :class:`~pnpkit.core.Signal` is read as its array), and return an
    array.  ``normal`` (K^T K x) and ``shifted_solve`` work on plain arrays
    of the input shape without checks; kinds with a closed form override them, and
    :func:`solve_shifted_normal` is the checked entry.  They also override ``gram_spectrum(g)``
    and ``adjoint_filter(g, y)`` = g(K^T K) K^T y, from y: K^T y squares the condition number.
    Each kind answers for its own ``spectral_norm``.
    """

    kind = "abstract"

    def __init__(self, in_shape, out_shape):
        self.in_shape = tuple(int(s) for s in in_shape)
        self.out_shape = tuple(int(s) for s in out_shape)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x):
        arr = as_array(x)
        if arr.shape != self.in_shape:
            raise ShapeError(f"{self.kind} operator expects {self.in_shape}, got {arr.shape}")
        return self._apply(arr)

    def adjoint(self, y):
        return self._adjoint(self._data(y))

    def _data(self, y) -> np.ndarray:
        """y as an array of the output shape, else ShapeError.

        The check each solver and sampler makes once on its data y, at setup.
        """
        arr = as_array(y)
        if arr.shape != self.out_shape:
            raise ShapeError(f"{self.kind} adjoint expects {self.out_shape}, got {arr.shape}")
        return arr

    def normal(self, x: np.ndarray) -> np.ndarray:
        """K^T K x."""
        return self._adjoint(self._apply(x))

    def least_squares_value(self, y: np.ndarray):
        """x -> 0.5*||K x - y||^2."""
        return lambda x: 0.5 * float(np.sum((self._apply(x) - y) ** 2))

    def least_squares_grad(self, y: np.ndarray):
        """x -> K^T (K x - y), the gradient of 0.5*||K x - y||^2."""
        return lambda x: self._adjoint(self._apply(x) - y)

    def least_squares_prox(self, y: np.ndarray):
        """(v, lam) -> (I + lam K^T K)^{-1} (v + lam K^T y), the prox of lam*0.5*||K x - y||^2.

        Here the shifted normal equations with rho = 1/lam, right-hand side
        K^T y + v/lam, K^T y formed once.
        """
        kty = self._adjoint(y)
        return lambda v, lam: solve_shifted_normal(self, 1.0 / lam, kty + v / lam)

    @property
    def spectral_norm(self) -> float:
        """||K||_2, by power iteration on K^T K from a fixed seed."""
        return operator_norm(self, Rng(0))

    def shifted_solve(self, rho: float, b: np.ndarray) -> np.ndarray:
        """(K^T K + rho*I)^{-1} b by conjugate gradients, at most 10*n iterations.

        Raises SolveError when the relative residual stays above CG_RTOL.
        """

        def matvec(v):
            return self.normal(v.reshape(self.in_shape)).reshape(-1) + rho * v

        x_flat, res = _cg(matvec, b.reshape(-1), CG_RTOL, 10 * self.in_size)
        if res > CG_RTOL:
            raise SolveError("conjugate gradients stagnated", residual=res)
        return x_flat.reshape(self.in_shape)

    def adjoint_filter(self, g, y: np.ndarray) -> np.ndarray:
        """g(K^T K) K^T y; here V g(s^2) s U^T y from the dense SVD K = U diag(s) V^T."""
        u, s, vt = self._svd
        k = s.size
        return (vt[:k].T @ (g(s * s) * s * (u[:, :k].T @ y.reshape(-1)))).reshape(self.in_shape)

    def gram_spectrum(self, g):
        """(g over the eigenvalues of K^T K, the diagonal of g(K^T K)); here from the dense SVD."""
        _, s, vt = self._svd
        t = np.zeros(self.in_size)  # a wide K's null space has t = 0
        t[: s.size] = s * s
        g_t = g(t)
        return g_t, (g_t @ (vt * vt)).reshape(self.in_shape)

    @functools.cached_property
    def _svd(self):
        """The full SVD of the dense K, taken once: an operator's K does not change."""
        if max(self.in_size, self.out_size) > SVD_MAX_DIM:
            raise ShapeError(f"the dense SVD is limited to dimension {SVD_MAX_DIM}")
        return np.linalg.svd(as_dense(self).matrix)

    @property
    def in_size(self) -> int:
        return int(np.prod(self.in_shape))

    @property
    def out_size(self) -> int:
        return int(np.prod(self.out_shape))


class DenseOp(LinearOp):
    kind = "dense"

    def __init__(self, matrix, in_shape=None, out_shape=None):
        matrix = np.array(matrix, dtype=np.float64)  # a copy: the caller's stays writable
        if matrix.ndim != 2:
            raise ShapeError("dense operator needs a 2-D matrix")
        m, n = matrix.shape
        super().__init__(in_shape or (n,), out_shape or (m,))
        if self.in_size != n or self.out_size != m:
            raise ShapeError("matrix size does not match in/out shapes")
        self.matrix = matrix
        self.matrix.setflags(write=False)

    def _apply(self, x):
        return (self.matrix @ x.reshape(-1)).reshape(self.out_shape)

    def _adjoint(self, y):
        return (self.matrix.T @ y.reshape(-1)).reshape(self.in_shape)


class DiagonalOp(LinearOp):
    kind = "diagonal"

    def __init__(self, diag):
        diag = as_array(diag)
        super().__init__(diag.shape, diag.shape)
        self.diag = diag.copy()
        self.diag.setflags(write=False)

    def _apply(self, x):
        return self.diag * x

    def _adjoint(self, y):
        return self.diag * y

    def shifted_solve(self, rho, b):
        return b / (self.diag**2 + rho)

    def adjoint_filter(self, g, y):
        return g(self.diag * self.diag) * (self.diag * y)

    def gram_spectrum(self, g):
        g_t = g(self.diag * self.diag)
        return g_t, g_t

    @property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self.diag)))


class CirculantOp(LinearOp):
    """Periodic convolution; diagonalized by the FFT.

    ``half_response`` is the transfer function H on the half spectrum of a
    real FFT over the leading axes of ``image_shape`` (as many as H has;
    the last is cut to n // 2 + 1), so a full-grid response is a
    ShapeError.  A 2-D response on a 3-D shape acts per channel.  H is the
    half of a Hermitian response, H(-k) = conj(H(k)), as every real
    kernel's is, and a real function of real half responses (a product, a
    polynomial) stays one; it is kept real when it has no imaginary part,
    as for an even kernel.  Apply, adjoint, the normal map and the shifted
    solve are one real FFT round trip each (:func:`~pnpkit.core._rfftn`,
    then :func:`~pnpkit.core._irfftn`); the least-squares and quadratic
    values are one forward real FFT, by Parseval.  The least-squares
    gradient and prox are single filters too, with K^T y's spectrum folded
    into the filtered product.  Each filter is one
    :func:`~pnpkit.core._spectral_filter`: inside a solver run the forward
    transform may come from the run, which holds the spectra of the
    filters' inputs and outputs and of their linear combinations
    (:func:`~pnpkit.core.lincomb`), so a filter of a denoiser's or a prox's
    output, or of a combination of such outputs, costs one inverse transform.
    """

    kind = "circulant-conv"

    def __init__(self, half_response, image_shape):
        super().__init__(image_shape, image_shape)
        half = np.asarray(half_response)
        spatial = self.in_shape[: half.ndim]
        if (not spatial or half.shape != spatial[:-1] + (spatial[-1] // 2 + 1,)
                or len(self.in_shape) - len(spatial) not in (0, 1)):
            raise ShapeError(f"circulant half response {half.shape} does not fit "
                             f"image shape {self.in_shape}")
        if np.iscomplexobj(half) and not np.any(half.imag):
            half = half.real
        real = not np.iscomplexobj(half)
        self.half_response = np.array(half, dtype=np.float64 if real else np.complex128)
        self._conj_response = self.half_response if real else np.conj(self.half_response)
        self._gram = (self.half_response**2 if real
                      else self.half_response.real**2 + self.half_response.imag**2)
        # complex128 copies of the responses multiplied into complex spectra: numpy
        # casts a real operand on every such product, to the same bits, so cast once
        self._response_c = self.half_response.astype(np.complex128, copy=False)
        self._conj_response_c = self._response_c if real else self._conj_response
        self._gram_c = self._gram.astype(np.complex128)
        for arr in (self.half_response, self._conj_response, self._gram, self._response_c,
                    self._conj_response_c, self._gram_c):
            arr.setflags(write=False)
        self._spatial = spatial
        self._axes = tuple(range(len(spatial)))

    def _filter(self, x, response, combine=np.multiply):
        """The inverse real FFT of the new array combine(X, response), X the spectrum of x.

        One :func:`~pnpkit.core._spectral_filter`, with the response fitted
        to a per-channel x.
        """
        if x.ndim != response.ndim:
            response = response[..., None]  # per channel
        return _spectral_filter(x, self._axes, self._spatial, lambda spec: combine(spec, response))

    def _apply(self, x):
        return self._filter(x, self._response_c)

    def _adjoint(self, y):
        return self._filter(y, self._conj_response_c)

    def normal(self, x):
        return self._filter(x, self._gram_c)

    def least_squares_value(self, y):
        """x -> 0.5 * sum w |H X - Y|^2 over the half spectrum (Parseval), one real FFT of x.

        The weights are :func:`half_spectrum_weights`; sqrt(w/2) is folded
        into H and into Y, which is transformed once, so a value is
        ||H' X - Y'||^2 from one complex temporary.  X comes from
        :func:`~pnpkit.core.real_spectrum`, so within a solver run it is
        shared with any other value taken at the same point.
        """
        root = np.sqrt(0.5 * half_spectrum_weights(self._spatial))
        response = root * self.half_response
        if y.ndim > len(self._spatial):  # per channel
            response, root = response[..., None], root[..., None]
        y_hat = root * _rfftn(y, self._axes)

        def value(x):
            res = response * real_spectrum(x, self._axes)
            res -= y_hat
            return float(np.vdot(res, res).real)

        return value

    def quadratic_value(self):
        """x -> 0.5 * <x, K x> = 0.5 * sum w H |X|^2 over the half spectrum (Parseval).

        One forward real FFT of x, from :func:`~pnpkit.core.real_spectrum`,
        so within a solver run it is shared with any other value taken at
        the same point; the weights are :func:`half_spectrum_weights`.  A
        3-D x is summed over its channels.
        """
        weights = 0.5 * self.half_response * half_spectrum_weights(self._spatial)
        channel = weights[..., None]

        def value(x):
            arr = as_array(x)
            spec = real_spectrum(arr, self._axes)
            scaled = (weights if arr.ndim == weights.ndim else channel) * spec
            return float(np.vdot(spec, scaled).real)

        return value

    def least_squares_grad(self, y):
        """x -> K^T (K x - y), one filter with the product |H|^2 X - (K^T y)^."""
        kty_hat = _rfftn(self._adjoint(y), self._axes)  # once

        def gradient(spec, gram):
            res = spec * gram
            res -= kty_hat
            return res

        return lambda x: self._filter(x, self._gram_c, gradient)

    def least_squares_prox(self, y):
        """(v, lam) -> one filter with the product (V/lam + (K^T y)^) / (|H|^2 + 1/lam).

        The spectral form of the base kind's (K^T K + I/lam)^{-1} (K^T y + v/lam).
        """
        kty_hat = _rfftn(self._adjoint(y), self._axes)  # once

        def prox(v, lam):
            rho = 1.0 / lam
            if not rho > 0:
                raise ValueError("rho must be positive")

            def solve(spec, inverse):
                res = spec * rho
                res += kty_hat
                return np.multiply(res, inverse, out=res)

            return self._filter(v, _reciprocal(self._gram + rho), solve)

        return prox

    def shifted_solve(self, rho, b):
        return self._filter(b, _reciprocal(self._gram + rho))

    def adjoint_filter(self, g, y):
        return self._filter(y, self._conj_response * g(self._gram))

    def gram_spectrum(self, g):
        g_t = g(self._gram)  # the diagonal is the Parseval mean sum w g(|H|^2) everywhere
        return g_t, np.full(self.in_shape, np.sum(half_spectrum_weights(self._spatial) * g_t))

    @property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self.half_response)))


def _reciprocal(den: np.ndarray) -> np.ndarray:
    """1/den in place, for a real den: a complex Z times it has the bits of Z / den.

    numpy divides a complex Z by a real c as Z * (1/c), so the product gives
    the quotient's bits at the cost of a multiply.
    """
    return np.divide(1.0, den, out=den)


def half_spectrum_weights(spatial) -> np.ndarray:
    """Parseval weights of the real FFT half spectrum on the grid ``spatial``.

    For a real x and X = :func:`~pnpkit.core._rfftn` of x over the grid's
    axes, sum(w * |X|^2) = ||x||^2: |X(-k)| = |X(k)|, so
    every column of the last axis other than 0 and (for an even side) the
    Nyquist column stands for two and weighs 2/n; those two weigh 1/n.
    The weights vary along the last spatial axis only.
    """
    n = math.prod(spatial)
    cols = np.full(spatial[-1] // 2 + 1, 2.0 / n)
    cols[0] = 1.0 / n
    if spatial[-1] % 2 == 0:
        cols[-1] = 1.0 / n
    return cols


class CompositeOp(LinearOp):
    """Composition outer(inner(x))."""

    kind = "composite"

    def __init__(self, outer: LinearOp, inner: LinearOp):
        if inner.out_shape != outer.in_shape:
            raise ShapeError(
                f"cannot compose: inner out {inner.out_shape} vs outer in {outer.in_shape}"
            )
        super().__init__(inner.in_shape, outer.out_shape)
        self.outer = outer
        self.inner = inner

    def _apply(self, x):
        return self.outer._apply(self.inner._apply(x))

    def _adjoint(self, y):
        return self.inner._adjoint(self.outer._adjoint(y))


def compose(outer: LinearOp, inner: LinearOp) -> LinearOp:
    """outer(inner(x)).

    Two circulant operators on one grid compose to the circulant operator
    with the product response, whose shifted solve stays an exact FFT
    division; any other pair gives a :class:`CompositeOp`.
    """
    if (isinstance(outer, CirculantOp) and isinstance(inner, CirculantOp)
            and outer.in_shape == inner.out_shape
            and outer.half_response.shape == inner.half_response.shape):
        return CirculantOp(outer.half_response * inner.half_response, inner.in_shape)
    return CompositeOp(outer, inner)


def identity_op(shape) -> DiagonalOp:
    return DiagonalOp(np.ones(tuple(shape)))


def check_blur_kernel(kernel_shape, image_shape) -> tuple:
    """The spatial shape a kernel of ``kernel_shape`` blurs; ShapeError if it cannot.

    The kernel has the image's dimension, or one less (it then acts per
    channel), odd sides, and no side larger than the image's.  Only shapes
    are read, so a kernel can be checked before it is built.
    """
    kernel_shape, image_shape = tuple(kernel_shape), tuple(image_shape)
    ndim = len(kernel_shape)
    if ndim != len(image_shape) and not (ndim == len(image_shape) - 1 and ndim >= 1):
        raise ShapeError(f"kernel ndim {ndim} incompatible with image shape {image_shape}")
    if any(s % 2 == 0 for s in kernel_shape):
        raise ShapeError(f"kernel sides must be odd, got {kernel_shape}")
    spatial = image_shape[:ndim]
    if any(k > s for k, s in zip(kernel_shape, spatial)):
        raise ShapeError(f"kernel {kernel_shape} larger than image {spatial}")
    return spatial


def make_blur(kernel, image_shape) -> CirculantOp:
    """Periodic (circular) convolution with ``kernel`` on ``image_shape``.

    Kernel sides must be odd; the kernel is centered, so a delta kernel is
    the identity.  A 2-D kernel on a 3-D [h, w, c] shape acts per channel.
    The adjoint is convolution with the flipped kernel.
    """
    kernel = as_array(kernel)
    image_shape = tuple(int(s) for s in image_shape)
    spatial = check_blur_kernel(kernel.shape, image_shape)
    embedded = np.zeros(spatial)
    slices = tuple(slice(0, k) for k in kernel.shape)
    embedded[slices] = kernel
    center = tuple(k // 2 for k in kernel.shape)
    embedded = np.roll(embedded, tuple(-c for c in center), axis=tuple(range(kernel.ndim)))
    half = _rfftn(embedded, tuple(range(embedded.ndim)))
    if np.array_equal(kernel, np.flip(kernel)):
        half = half.real  # an even kernel has a real response; drop the rounding residue
    return CirculantOp(half, image_shape)


def make_mask(mask) -> DiagonalOp:
    """Masking operator: keeps entries where ``mask`` is true, zeroes the rest.

    It is the diagonal operator of the 0/1 mask, a self-adjoint projection.
    """
    return DiagonalOp((as_array(mask) != 0).astype(np.float64))


def as_dense(op: LinearOp) -> DenseOp:
    """The operator as a DenseOp; column j is K applied to the j-th unit vector."""
    cols = np.empty((op.out_size, op.in_size))
    basis = np.zeros(op.in_shape)
    flat = basis.reshape(-1)
    for j in range(op.in_size):
        flat[j] = 1.0
        cols[:, j] = op._apply(basis).reshape(-1)
        flat[j] = 0.0
    return DenseOp(cols, op.in_shape, op.out_shape)


def naive_svd_solve(op: LinearOp, y, tol: float = 0.0):
    """Pseudo-inverse g(K^T K) K^T y, g = 1/t for t > tol^2 else 0; small kept s amplify noise."""
    return op.adjoint_filter(lambda t: np.divide(1.0, t, out=np.zeros_like(t), where=t > tol**2),
                             op._data(y))


def _cg(matvec, b: np.ndarray, rtol: float, max_iter: int) -> tuple[np.ndarray, float]:
    """Conjugate gradients for SPD systems; returns (x, relative residual)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.vdot(r, r))
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0.0
    threshold = (rtol * b_norm) ** 2
    for _ in range(max_iter):
        if rs <= threshold:
            break
        ap = matvec(p)
        alpha = rs / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.vdot(r, r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, float(np.sqrt(rs)) / b_norm


def solve_shifted_normal(op: LinearOp, rho: float, b):
    """Solve (K^T K + rho*I) x = b to relative residual <= 1e-10.

    Runs the operator's ``shifted_solve``: exact frequency-domain division
    for circulant operators and exact componentwise division for the
    diagonal kind (masks included); otherwise conjugate gradients with at
    most 10*n iterations (SolveError on stagnation).
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    b_arr = as_array(b)
    if b_arr.shape != op.in_shape:
        raise ShapeError(f"rhs shape {b_arr.shape} does not match operator {op.in_shape}")
    return op.shifted_solve(rho, b_arr)


def tikhonov_solve(op: LinearOp, y, alpha: float):
    """Ridge solution x = (K^T K + alpha*I)^{-1} K^T y for alpha > 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return solve_shifted_normal(op, alpha, op._adjoint(as_array(y)))


def adjoint_defect(op: LinearOp, rng, probes: int = 100) -> float:
    """Max relative defect of <Kx, y> = <x, K^T y> over random probe pairs."""
    worst = 0.0
    for _ in range(probes):
        x = rng.standard_normal(op.in_shape)
        y = rng.standard_normal(op.out_shape)
        kx = op._apply(x)
        kty = op._adjoint(y)
        lhs = float(np.vdot(kx, y))
        rhs = float(np.vdot(x, kty))
        scale = np.linalg.norm(kx) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(kty)
        if scale == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def operator_norm(op: LinearOp, rng, iters: int = 2000, tol: float = 1e-13) -> float:
    """Spectral norm ||K||_2 by power iteration on K^T K."""
    v = rng.standard_normal(op.in_shape)
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iters):
        w = op._adjoint(op._apply(v))
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        new_value = norm  # Rayleigh quotient of K^T K at unit v
        v = w / norm
        if abs(new_value - value) <= tol * max(new_value, 1e-300):
            value = new_value
            break
        value = new_value
    return float(np.sqrt(value))

