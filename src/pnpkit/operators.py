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

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .core import Rng, ShapeError, SolveError, as_array, load_signal, real_spectrum

CG_RTOL = 1e-10
SVD_MAX_DIM = 512
EIGH_MAX_DIM = 4096


class LinearOp:
    """Forward/adjoint operator pair between fixed shapes.

    Subclasses implement ``_apply`` and ``_adjoint`` on plain arrays: the
    unchecked path (no shape check) that the package's own solver, denoiser
    and sampler loops call.  The public methods check shapes, take a Signal
    or an array, and return an array.  ``normal`` (K^T K x) and
    ``shifted_solve`` work on plain arrays of the input shape without
    checks; kinds with a closed form override them, and
    :func:`solve_shifted_normal` is the checked entry.
    Each kind answers for its own ``spectral_norm`` and ``symmetric_spectrum()``.
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

    @property
    def spectral_norm(self) -> float:
        """||K||_2, by power iteration on K^T K from a fixed seed."""
        return operator_norm(self, Rng(0))

    def symmetric_spectrum(self):
        """An array of the eigenvalues of a self-adjoint operator, or None when not cheap.

        Raises ValueError when the operator is not self-adjoint.  This default
        checks <K x, y> = <x, K y> on 8 random probe pairs and returns None.
        """
        rng = Rng(0)
        for _ in range(8):
            x = rng.standard_normal(self.in_shape)
            y = rng.standard_normal(self.in_shape)
            lhs = float(np.vdot(self._apply(x), y))
            rhs = float(np.vdot(x, self._apply(y)))
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            if abs(lhs - rhs) > 1e-8 * max(scale, 1.0):
                raise ValueError("smoother fails the self-adjointness probe")
        return None

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

    @property
    def in_size(self) -> int:
        return int(np.prod(self.in_shape))

    @property
    def out_size(self) -> int:
        return int(np.prod(self.out_shape))


class DenseOp(LinearOp):
    kind = "dense"

    def __init__(self, matrix, in_shape=None, out_shape=None):
        matrix = np.asarray(matrix, dtype=np.float64)
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

    def symmetric_spectrum(self):
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-10, rtol=0.0):
            raise ValueError("smoother matrix is not symmetric")
        return np.linalg.eigvalsh(self.matrix) if self.in_size <= EIGH_MAX_DIM else None


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

    @property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self.diag)))

    def symmetric_spectrum(self):
        return self.diag


class CirculantOp(LinearOp):
    """Periodic convolution; diagonalized by the FFT.

    ``freq_response`` is the transfer function H on the FFT grid of the
    image's spatial shape; for 3-D inputs the same 2-D response is applied
    to each channel.  A real signal only sees the Hermitian part
    (H(k) + conj(H(-k)))/2 of H, so that part is what the operator keeps,
    on the half spectrum of a real FFT (``half_response``, a real array
    when the response is real, as for an even kernel).  Apply, adjoint,
    the normal map and the shifted solve are one ``rfftn``/``irfftn`` round
    trip each; the least-squares value is one ``rfftn``, by Parseval.
    """

    kind = "circulant-conv"

    def __init__(self, freq_response, image_shape):
        full = np.asarray(freq_response)
        # H(-k): reverse every axis, then roll so that index 0 stays in place
        mirrored = np.roll(np.flip(full), 1, axis=tuple(range(full.ndim)))
        hermitian = 0.5 * (full + np.conj(mirrored))
        self._init(hermitian[..., : full.shape[-1] // 2 + 1], image_shape, full.shape)

    @classmethod
    def from_half_response(cls, half_response, image_shape) -> "CirculantOp":
        """Build from a Hermitian response given on the ``rfftn`` half spectrum.

        A real function of a real half spectrum (such as a product or a
        polynomial of other operators' responses) stays Hermitian.
        """
        op = cls.__new__(cls)
        half = np.asarray(half_response)
        spatial = tuple(int(s) for s in image_shape)[: half.ndim]
        op._init(half, image_shape, spatial)
        return op

    def _init(self, half, image_shape, spatial):
        LinearOp.__init__(self, image_shape, image_shape)
        spatial = tuple(int(s) for s in spatial)
        expected = spatial[:-1] + (spatial[-1] // 2 + 1,)
        if (half.shape != expected or self.in_shape[: len(spatial)] != spatial
                or len(self.in_shape) - len(spatial) not in (0, 1)):
            raise ShapeError(f"circulant response does not fit image shape {self.in_shape}")
        if np.iscomplexobj(half) and not np.any(half.imag):
            half = half.real
        real = not np.iscomplexobj(half)
        self.half_response = np.array(half, dtype=np.float64 if real else np.complex128)
        self._conj_response = self.half_response if real else np.conj(self.half_response)
        self._gram = (self.half_response**2 if real
                      else self.half_response.real**2 + self.half_response.imag**2)
        for arr in (self.half_response, self._conj_response, self._gram):
            arr.setflags(write=False)
        self._spatial = spatial
        self._axes = tuple(range(len(spatial)))

    def _filter(self, x, response, combine=np.multiply):
        spec = scipy.fft.rfftn(x, axes=self._axes)
        combine(spec, response if x.ndim == response.ndim else response[..., None], out=spec)
        return scipy.fft.irfftn(spec, s=self._spatial, axes=self._axes, overwrite_x=True)

    def _apply(self, x):
        return self._filter(x, self.half_response)

    def _adjoint(self, y):
        return self._filter(y, self._conj_response)

    def normal(self, x):
        return self._filter(x, self._gram)

    def least_squares_value(self, y):
        """x -> 0.5 * sum w |H X - Y|^2 over the half spectrum (Parseval), one ``rfftn`` of x.

        Y is transformed once; the weights are :func:`half_spectrum_weights`.
        X comes from :func:`~pnpkit.core.real_spectrum`, so within a solver
        run it is shared with any other value taken at the same point.
        """
        y_hat = scipy.fft.rfftn(y, axes=self._axes)
        weights = 0.5 * half_spectrum_weights(self._spatial)
        response = self.half_response
        if y.ndim > len(self._spatial):  # per channel
            response, weights = response[..., None], weights[..., None]

        def value(x):
            res = response * real_spectrum(x, self._axes)
            res -= y_hat
            return float(np.vdot(res, weights * res).real)

        return value

    def least_squares_grad(self, y):
        kty = self._adjoint(y)  # once, so each gradient is one filter
        return lambda x: self.normal(x) - kty

    def shifted_solve(self, rho, b):
        return self._filter(b, self._gram + rho, np.divide)

    @property
    def freq_response(self) -> np.ndarray:
        """The Hermitian response on the full FFT grid, rebuilt from the half spectrum."""
        half = self.half_response
        # column j > n/2 of the last axis holds conj(H(-k)), read from column n - j
        tail = np.conj(half[..., self._spatial[-1] - half.shape[-1]: 0: -1])
        for axis in range(half.ndim - 1):
            tail = np.roll(np.flip(tail, axis=axis), 1, axis=axis)
        return np.concatenate([half, tail], axis=-1)

    @property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self.half_response)))

    def symmetric_spectrum(self):
        """The real half spectrum: every eigenvalue, though not every multiplicity."""
        if np.max(np.abs(np.imag(self.half_response))) > 1e-10:
            raise ValueError("circulant smoother is not symmetric (complex spectrum)")
        return np.real(self.half_response)


def half_spectrum_weights(spatial) -> np.ndarray:
    """Parseval weights of the ``rfftn`` half spectrum on the grid ``spatial``.

    For a real x, sum(w * |rfftn(x)|^2) = ||x||^2: |X(-k)| = |X(k)|, so
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
        return CirculantOp.from_half_response(outer.half_response * inner.half_response,
                                              inner.in_shape)
    return CompositeOp(outer, inner)


def identity_op(shape) -> DiagonalOp:
    return DiagonalOp(np.ones(tuple(shape)))


def zero_op(shape) -> DiagonalOp:
    return DiagonalOp(np.zeros(tuple(shape)))


def make_blur(kernel, image_shape) -> CirculantOp:
    """Periodic (circular) convolution with ``kernel`` on ``image_shape``.

    Kernel sides must be odd; the kernel is centered, so a delta kernel is
    the identity.  A 2-D kernel on a 3-D [h, w, c] shape acts per channel.
    The adjoint is convolution with the flipped kernel.
    """
    kernel = as_array(kernel)
    image_shape = tuple(int(s) for s in image_shape)
    spatial = image_shape[: kernel.ndim]
    if kernel.ndim == len(image_shape) - 1 and len(image_shape) >= 2:
        pass  # per-channel application
    elif kernel.ndim != len(image_shape):
        raise ShapeError(
            f"kernel ndim {kernel.ndim} incompatible with image shape {image_shape}"
        )
    if any(s % 2 == 0 for s in kernel.shape):
        raise ShapeError(f"kernel sides must be odd, got {kernel.shape}")
    if any(k > s for k, s in zip(kernel.shape, spatial)):
        raise ShapeError(f"kernel {kernel.shape} larger than image {spatial}")
    embedded = np.zeros(spatial)
    slices = tuple(slice(0, k) for k in kernel.shape)
    embedded[slices] = kernel
    center = tuple(k // 2 for k in kernel.shape)
    embedded = np.roll(embedded, tuple(-c for c in center), axis=tuple(range(kernel.ndim)))
    half = scipy.fft.rfftn(embedded)
    if np.array_equal(kernel, np.flip(kernel)):
        half = half.real  # an even kernel has a real response; drop the rounding residue
    return CirculantOp.from_half_response(half, image_shape)


def make_mask(mask) -> DiagonalOp:
    """Masking operator: keeps entries where ``mask`` is true, zeroes the rest.

    It is the diagonal operator of the 0/1 mask, a self-adjoint projection.
    """
    return DiagonalOp((as_array(mask) != 0).astype(np.float64))


@dataclass(frozen=True)
class SvdFactors:
    """Singular value decomposition K = U diag(s) Vt with s descending."""

    s: np.ndarray
    u: np.ndarray
    vt: np.ndarray


def as_dense(op: LinearOp) -> DenseOp:
    """The operator as a DenseOp, its (out_size x in_size) matrix built column by column."""
    if isinstance(op, DenseOp):
        return op
    cols = np.empty((op.out_size, op.in_size))
    basis = np.zeros(op.in_shape)
    flat = basis.reshape(-1)
    for j in range(op.in_size):
        flat[j] = 1.0
        cols[:, j] = op._apply(basis).reshape(-1)
        flat[j] = 0.0
    return DenseOp(cols, op.in_shape, op.out_shape)


def svd_factors(op: LinearOp) -> SvdFactors:
    """Dense SVD of a small operator (sides capped at 512)."""
    if max(op.in_size, op.out_size) > SVD_MAX_DIM:
        raise ShapeError(f"svd_factors limited to dimension {SVD_MAX_DIM}")
    matrix = as_dense(op).matrix
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return SvdFactors(s, u, vt)


def naive_svd_solve(op: LinearOp, y, tol: float = 0.0):
    """Pseudoinverse solution sum_m <y, u_m>/s_m v_m, truncating s_m <= tol.

    Exhibits noise amplification when small singular values are kept; the
    truncation tolerance handles rank deficiency.
    """
    factors = svd_factors(op)
    y_arr = as_array(y).reshape(-1)
    coeff = factors.u.T @ y_arr
    keep = factors.s > tol
    inv = np.zeros_like(factors.s)
    inv[keep] = 1.0 / factors.s[keep]
    x = factors.vt.T @ (coeff * inv)
    return x.reshape(op.in_shape)


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


def load_dense_operator(path) -> DenseOp:
    """Load a dense operator from the raw float64 format (shape [m, n])."""
    sig = load_signal(path)
    if len(sig.shape) != 2:
        raise ShapeError(f"dense operator file must have shape [m, n], got {sig.shape}")
    return DenseOp(sig.to_array())
