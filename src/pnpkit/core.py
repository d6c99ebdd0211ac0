"""Errors, the run scope, metrics, noise injection, RNG, traces and signal files.

Conventions used throughout the package: signals are float64 arrays with
intensities nominally in [0, 1] (PGM/PPM quantization maps linearly onto
that range), PSNR uses peak = 1.0 by default and is capped at 300 dB so
traces stay numeric, and all randomness flows through the counter-based
:class:`Rng` so runs reproduce bit-for-bit across platforms.
"""

from __future__ import annotations

import contextvars
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PSNR_CAP_DB = 300.0
RAW_MAGIC = b"PNPK0001"

TRACE_COLUMNS = ("iter", "objective", "step_residual", "fp_residual", "psnr", "seconds")
DIVERGENCE_NORM = 1e12
_FLOAT64 = np.dtype(np.float64)


class PnpkitError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(PnpkitError):
    """Operands have incompatible shapes."""


class ParseError(PnpkitError):
    """A file could not be parsed; carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SolveError(PnpkitError):
    """An iterative solve failed to certify its tolerance.

    ``residual`` carries the defect at failure (CG residual, duality gap,
    contraction estimate, ... depending on the caller).
    """

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class DivergenceError(PnpkitError):
    """Iterates became non-finite or unbounded.

    ``step`` is the iteration index at which divergence was detected.  A
    solver run also sets ``last``, its last finite iterate, and ``trace``,
    the rows traced before it (marked ``"diverged"``); both are None otherwise.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
        self.last = None
        self.trace = None


class ConfigError(PnpkitError):
    """An experiment configuration is invalid."""


# The state of the solver run in progress in this context, or None outside one.
_RUN_STATE: contextvars.ContextVar[dict | None] = contextvars.ContextVar("pnpkit_run_state",
                                                                        default=None)


@contextmanager
def scoped_run():
    """Give the solver run inside the block a fresh state dict of its own.

    ``solvers._iterate`` opens one per run.  A map that carries something
    from one call to the next within a run (the TV prox's warm dual, the
    spectra of :func:`real_spectrum`) keeps it in :func:`run_state`,
    so nothing outlives the run or crosses into another run, a nested one
    or another thread included.
    """
    token = _RUN_STATE.set({})
    try:
        yield
    finally:
        _RUN_STATE.reset(token)


def run_state() -> dict | None:
    """The state dict of the innermost solver run in progress; None outside a run."""
    return _RUN_STATE.get()


def _rfftn(x: np.ndarray, axes: tuple) -> np.ndarray:
    """The real FFT of x over ``axes``, on the half spectrum of the last axis.

    numpy's ``rfftn`` passes without its argument front end: ``rfft`` on
    the last axis, then ``fft`` in place on each other axis in the order
    given, the order ``scipy.fft.rfftn`` takes them in, with the same bits.
    """
    spec = np.fft.rfft(x, axis=axes[-1])
    for axis in axes[:-1]:
        np.fft.fft(spec, axis=axis, out=spec)
    return spec


def _irfftn(spec: np.ndarray, shape: tuple, axes: tuple) -> np.ndarray:
    """The inverse of :func:`_rfftn` onto the sides ``shape`` of ``axes``; overwrites spec.

    ``ifft`` in place on each axis but the last, in the order given, then
    ``irfft`` onto ``shape[-1]`` points on the last.
    """
    for axis in axes[:-1]:
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, shape[-1], axis=axes[-1])


# The number of spectra a solver run holds, the oldest evicted first.  Five
# keep every spectrum an alpha-PGD step reads: its x must outlive q, the
# gradient at q, the gradient step and the denoiser's output.
_HELD_SPECTRA = 5


def real_spectrum(x: np.ndarray, axes: tuple) -> np.ndarray:
    """The real FFT :func:`_rfftn` of x, shared within the solver run in progress.

    Inside a :func:`scoped_run` the run holds the read-only spectra of the
    last five array objects recorded with their axes: those this function
    transformed (a filter's input among them), the outputs of
    :func:`_spectral_filter`, and the combinations :func:`lincomb` formed of
    held spectra, a sixth evicting the oldest.  A request for a held object
    and axes returns its spectrum again, so no array that this function, a
    filter or a combination has read may change in place while the run goes
    on.  A filter output's spectrum is the filtered product the filter
    inverted, and a combination's the combination of its terms' spectra;
    each differs from a fresh transform of the array in the last bits.
    Outside a run every call transforms afresh.
    """
    state = _RUN_STATE.get()
    if state is None:
        return _rfftn(x, axes)
    spec = _held_spectrum(state, x, axes)
    if spec is None:
        spec = _rfftn(x, axes)
        _hold_spectrum(state, x, axes, spec)
    return spec


def _spectral_filter(x: np.ndarray, axes: tuple, shape: tuple, product) -> np.ndarray:
    """The inverse real FFT onto the sides ``shape`` of ``product(X)``, X = real_spectrum(x).

    ``product`` forms a new array from X, which inside a run may be a held,
    read-only spectrum.  Inside a run the inverse runs on the run's one work
    copy of the product, and the product is held as the output's spectrum
    (see :func:`real_spectrum`).
    """
    spec = product(real_spectrum(x, axes))
    state = _RUN_STATE.get()
    if state is None:
        return _irfftn(spec, shape, axes)
    work = state.get("spectrum_work")  # the inverse overwrites its input: the run's copy
    if work is None or work.shape != spec.shape:
        work = state["spectrum_work"] = np.empty_like(spec)
    np.copyto(work, spec)
    out = _irfftn(work, shape, axes)
    _hold_spectrum(state, out, axes, spec)
    return out


def _held_spectrum(state: dict, x: np.ndarray, axes: tuple) -> np.ndarray | None:
    """The spectrum the run with ``state`` holds for the array object x over axes, else None."""
    for held, held_axes, spec in state.get("real_spectrum", ()):
        if held is x and held_axes == axes:
            return spec
    return None


def _hold_spectrum(state: dict, x: np.ndarray, axes: tuple, spec: np.ndarray) -> None:
    """Hold spec, made read-only, as the spectrum of x over axes; the run keeps the last five.

    Holding x pins its id, so a later array cannot take it while its entry
    lasts.  (Weak references, which free a spent filter output sooner, made
    the provable drivers slower through allocator churn.)
    """
    spec.setflags(write=False)
    held = state.get("real_spectrum", ())[1 - _HELD_SPECTRA:]
    state["real_spectrum"] = held + ((x, axes, spec),)


def _combine(terms) -> np.ndarray:
    """Sum c_i * x_i over the (c_i, x_i) pairs, left to right, as a new array.

    A coefficient 1 adds its term and -1 subtracts it, which is bitwise the
    product's sum: (-1) * x is -x exactly, and a + (-b) is a - b.
    """
    (c, first), rest = terms[0], terms[1:]
    total = first if c == 1.0 and rest else c * first
    for c, x in rest:
        if c == 1.0 or c == -1.0:
            part, ufunc = x, np.add if c == 1.0 else np.subtract
        else:
            part, ufunc = c * x, np.add
        # write into an array this sum made: the running total, else the new product
        out = total if total is not first else None if part is x else part
        total = ufunc(total, part, out=out)
    return total


def lincomb(*terms) -> np.ndarray:
    """The linear combination c1*x1 + c2*x2 + ... of the ``(c, x)`` pairs, as a new array.

    It is evaluated left to right with the IEEE operations of the written
    expression: ``lincomb((1.0, x), (-t, g))`` gives the bits of
    ``x - t * g`` ((-t) * g is -(t * g) exactly, and a + (-b) is a - b),
    ``lincomb((2.0, y), (-1.0, x))`` those of ``2.0 * y - x`` and
    ``lincomb((1.0, x), (1.0, z), (-1.0, y))`` those of ``x + z - y``.

    Inside a solver run, when the run holds the spectrum of every term over
    the same axes (see :func:`real_spectrum`), it also holds the same
    combination of those spectra as the result's, so a circulant filter of
    the result needs only its inverse transform.  It never transforms
    anything to make one.
    """
    total = _combine(terms)
    state = _RUN_STATE.get()
    if state is not None:
        first = terms[0][1]
        axes = next((a for held, a, _ in state.get("real_spectrum", ()) if held is first), None)
        specs = [(c, _held_spectrum(state, x, axes)) for c, x in terms]
        if axes is not None and all(spec is not None for _, spec in specs):
            _hold_spectrum(state, total, axes, _combine(specs))
    return total


def diverged(x: np.ndarray) -> bool:
    """True when x has a non-finite entry or a norm above DIVERGENCE_NORM.

    One reduction covers both: a NaN, an inf or an overflowing norm fails
    the comparison.  Callers run it under ``np.errstate(over="ignore")`` so a
    large but finite state does not warn on its way to inf.
    """
    flat = x.reshape(-1)
    return not (math.sqrt(flat.dot(flat)) <= DIVERGENCE_NORM)


@dataclass(frozen=True)
class Signal:
    """Immutable flat float64 array plus shape metadata: a validated input wrapper.

    ``data`` is stored flat in row-major order; ``shape`` may describe 1-D
    vectors, 2-D grayscale images, or 3-D multichannel images.  Every
    function of the package accepts a Signal where it takes an array (it
    reads one through ``__array__``), and no function returns one.
    """

    data: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64).reshape(-1)
        shape = tuple(int(s) for s in self.shape)
        if any(s <= 0 for s in shape):
            raise ShapeError(f"shape entries must be positive, got {shape}")
        if int(np.prod(shape)) != data.size:
            raise ShapeError(
                f"shape {shape} implies {int(np.prod(shape))} entries, data has {data.size}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("signal entries must be finite")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", shape)

    @staticmethod
    def from_array(arr) -> "Signal":
        arr = np.asarray(arr, dtype=np.float64)
        return Signal(arr.reshape(-1), arr.shape if arr.shape else (1,))

    def __array__(self, dtype=None, copy=None):
        arr = self.data.reshape(self.shape)
        return arr.astype(np.float64 if dtype is None else dtype, copy=bool(copy))


def as_array(x) -> np.ndarray:
    """Coerce an array-like (a :class:`Signal` included) into a float64 ndarray.

    A float64 ndarray comes back as is, the object ``np.asarray`` would give.
    """
    if type(x) is np.ndarray and x.dtype == _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, marked read-only: how the package hands out a loaded, noisy or solved signal."""
    arr.setflags(write=False)
    return arr


class Rng:
    """Deterministic counter-based random stream (Philox).

    The same seed yields the same stream on every platform, which the
    acceptance tests rely on.  A single Rng must not be shared between
    concurrent consumers; derive independent streams with :meth:`child`.
    """

    algorithm = "philox4x64"

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0 or seed >= 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def child(self, tag: int) -> "Rng":
        """Independent stream derived from (seed, tag); deterministic."""
        rng = Rng.__new__(Rng)
        rng.seed = self.seed
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(tag),))
        rng._gen = np.random.Generator(np.random.Philox(seq))
        return rng

    def standard_normal(self, shape=None) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def uniform(self, low=0.0, high=1.0, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low, high=None, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def choice(self, n, p=None) -> int:
        return int(self._gen.choice(n, p=p))


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio 10*log10(peak^2 / MSE) in dB.

    Returns the 300 dB cap when the mean squared error is zero (or small
    enough to exceed the cap), so that traces remain numeric.  Raises
    ValueError for a non-finite operand or peak, a peak <= 0, or a squared error overflow.
    """
    a = as_array(a)
    b = as_array(b)
    if a.shape != b.shape:
        raise ShapeError(f"psnr operands differ in shape: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ShapeError("psnr operands are empty")
    if not (math.isfinite(peak) and peak > 0):
        raise ValueError("peak must be finite and positive")
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.subtract(a, b).reshape(-1)
        mse = float(d.dot(d)) / d.size
    if not math.isfinite(mse):
        raise ValueError("psnr operands must be finite")
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP_DB)


def add_gaussian_noise(x, sigma: float, rng: Rng) -> np.ndarray:
    """Return x + sigma * w, w i.i.d. standard normal from ``rng``, as a read-only array.

    At sigma = 0 it is a copy of x.  A non-finite result raises ValueError.
    """
    x = as_array(x)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    with np.errstate(over="ignore"):  # an overflow is caught as non-finite below
        noisy = x.copy() if sigma == 0 else x + sigma * rng.standard_normal(x.shape)
    if not np.all(np.isfinite(noisy)):
        raise ValueError("noisy signal entries must be finite")
    return read_only(noisy)


@dataclass
class TraceRow:
    iter: int
    objective: float = math.nan
    step_residual: float = math.nan
    fp_residual: float = math.nan
    psnr: float = math.nan
    seconds: float = math.nan


class Trace:
    """Per-iteration record of a solver run.

    Rows are (iteration, objective, step residual, fixed-point residual,
    PSNR, wall-clock seconds) with NaN for unavailable fields; iteration
    indices are strictly increasing from 0.  ``stop_reason`` summarizes why
    the run ended ("tolerance", "max_iter", "diverged").
    """

    def __init__(self):
        self.rows: list[TraceRow] = []
        self.stop_reason: str = ""

    def append(self, iter, objective=math.nan, step_residual=math.nan,
               fp_residual=math.nan, psnr=math.nan, seconds=math.nan):
        iter = int(iter)
        if self.rows:
            if iter <= self.rows[-1].iter:
                raise ValueError("iteration indices must be strictly increasing")
        elif iter != 0:
            raise ValueError("trace must start at iteration 0")
        self.rows.append(TraceRow(iter, float(objective), float(step_residual),
                                  float(fp_residual), float(psnr), float(seconds)))

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(name)
        return np.array([getattr(r, name) for r in self.rows], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.rows)

    def last(self) -> TraceRow:
        return self.rows[-1]


def _format_cell(value: float) -> str:
    if math.isnan(value):
        return ""
    return repr(float(value))


def write_trace(trace: Trace, path) -> None:
    """Write a trace as CSV; NaN fields are written empty."""
    lines = [",".join(TRACE_COLUMNS)]
    for row in trace.rows:
        lines.append(",".join(
            [str(row.iter)] + [_format_cell(getattr(row, c)) for c in TRACE_COLUMNS[1:]]
        ))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path) -> Trace:
    """Read a trace CSV produced by :func:`write_trace`.

    Anything else raises ParseError naming the file and the line: bytes that
    are not UTF-8, a wrong header, a row of the wrong width, a cell that is
    not a number, an iteration that is not an integer, or iterations that do
    not rise from 0.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line} is not UTF-8 text", offset=exc.start) from None
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln != ""]
    if not lines:
        raise ParseError(f"{path}: empty trace file", offset=0)
    header = lines[0][1].split(",")
    if tuple(header) != TRACE_COLUMNS:
        raise ParseError(f"{path}: unexpected trace header {header!r}", offset=0)
    trace = Trace()
    for n, ln in lines[1:]:
        cells = ln.split(",")
        try:
            if len(cells) != len(TRACE_COLUMNS):
                raise ValueError(f"expected {len(TRACE_COLUMNS)} cells, got {len(cells)}")
            values = [float(c) if c != "" else math.nan for c in cells[1:]]
            trace.append(int(cells[0]), *values)
        except ValueError as exc:
            raise ParseError(f"{path}: line {n}: malformed trace row {ln!r:.80}: {exc}") from None
    return trace


# ---------------------------------------------------------------------------
# File formats for signals: raw float64 container and Netpbm PGM/PPM.
# ---------------------------------------------------------------------------


def save_signal(x, path, maxval: int = 255) -> None:
    """Save a signal; format is inferred from the file extension.

    ``.raw`` uses the lossless float64 container (magic ``PNPK0001``, a JSON
    shape sidecar line, then little-endian float64 payload).  ``.pgm`` /
    ``.ppm`` write binary P5/P6 with linear quantization of [0, 1] onto
    [0, maxval]; maxval must be 255 or 65535.
    """
    x = as_array(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("signal entries must be finite")
    path = str(path)
    ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    if ext == "raw":
        _save_raw(x, path)
    elif ext == "pgm":
        if len(x.shape) != 2:
            raise ShapeError(f"PGM requires a 2-D signal, got shape {x.shape}")
        _save_netpbm(x, path, maxval)
    elif ext == "ppm":
        if len(x.shape) != 3 or x.shape[2] != 3:
            raise ShapeError(f"PPM requires shape [h, w, 3], got {x.shape}")
        _save_netpbm(x, path, maxval)
    else:
        raise ValueError(f"unsupported signal extension {ext!r} (use raw, pgm, or ppm)")


def load_signal(path) -> np.ndarray:
    """Load a signal saved by :func:`save_signal` (raw, PGM, or PPM) as a read-only array."""
    path = str(path)
    ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    with open(path, "rb") as fh:
        buf = fh.read()
    if ext == "raw":
        return _load_raw(buf, path)
    if ext in ("pgm", "ppm"):
        return _load_netpbm(buf, path)
    raise ValueError(f"unsupported signal extension {ext!r} (use raw, pgm, or ppm)")


def _save_raw(x: np.ndarray, path: str) -> None:
    sidecar = json.dumps({"shape": list(x.shape)}, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(sidecar)
        fh.write(b"\n")
        fh.write(x.astype("<f8").tobytes())


def _load_raw(buf: bytes, path: str) -> np.ndarray:
    # The one place a file brings in a shape or a float: both are checked here.
    if buf[: len(RAW_MAGIC)] != RAW_MAGIC:
        raise ParseError(f"{path}: bad magic, expected {RAW_MAGIC!r}", offset=0)
    nl = buf.find(b"\n", len(RAW_MAGIC))
    if nl < 0:
        raise ParseError(f"{path}: missing sidecar newline", offset=len(RAW_MAGIC))
    try:
        sidecar = json.loads(buf[len(RAW_MAGIC):nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: malformed JSON sidecar: {exc}", offset=len(RAW_MAGIC))
    if not isinstance(sidecar, dict) or set(sidecar) != {"shape"}:
        raise ParseError(f"{path}: sidecar must be exactly {{\"shape\": [...]}}",
                         offset=len(RAW_MAGIC))
    shape = tuple(int(s) for s in sidecar["shape"])
    if any(s <= 0 for s in shape):
        raise ShapeError(f"{path}: shape entries must be positive, got {shape}")
    n = int(np.prod(shape))
    payload = buf[nl + 1:]
    if len(payload) != 8 * n:
        raise ParseError(
            f"{path}: payload has {len(payload)} bytes, shape {shape} needs {8 * n}",
            offset=nl + 1,
        )
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=False)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: signal entries must be finite")
    return read_only(data.reshape(shape))


def _save_netpbm(x: np.ndarray, path: str, maxval: int) -> None:
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    magic = b"P5" if len(x.shape) == 2 else b"P6"
    h, w = x.shape[0], x.shape[1]
    quant = np.round(np.clip(x, 0.0, 1.0) * maxval)
    if maxval == 255:
        raster = quant.astype(np.uint8).tobytes()
    else:
        raster = quant.astype(">u2").tobytes()  # 16-bit Netpbm samples are big-endian
    header = magic + f"\n{w} {h}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster)


def _netpbm_token(buf: bytes, pos: int, path: str) -> tuple[bytes, int]:
    # Skips whitespace and '#' comments; returns the next token and new offset.
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ParseError(f"{path}: truncated header", offset=pos)
    start = pos
    while pos < n and buf[pos:pos + 1] not in b" \t\r\n":
        pos += 1
    return buf[start:pos], pos


def _netpbm_int(buf: bytes, pos: int, path: str, what: str, least: int,
                most: int | None = None) -> tuple[int, int]:
    # The next token as an integer in [least, most]; returns it and the new
    # offset.  Errors carry the offset of the token itself.
    token, new_pos = _netpbm_token(buf, pos, path)
    start = new_pos - len(token)
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{path}: expected integer {what}, got {token!r}", offset=start)
    if value < least:
        raise ParseError(f"{path}: {what} must be >= {least}, got {value}", offset=start)
    if most is not None and value > most:
        raise ParseError(f"{path}: {what} {value} exceeds maxval {most}", offset=start)
    return value, new_pos


def _load_netpbm(buf: bytes, path: str) -> np.ndarray:
    magic, pos = _netpbm_token(buf, 0, path)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ParseError(f"{path}: unsupported Netpbm magic {magic!r}", offset=0)
    w, pos = _netpbm_int(buf, pos, path, "width", 1)
    h, pos = _netpbm_int(buf, pos, path, "height", 1)
    maxval, pos = _netpbm_int(buf, pos, path, "maxval", 1)
    if maxval not in (255, 65535):
        raise ParseError(f"{path}: maxval must be 255 or 65535, got {maxval}", offset=pos)
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = w * h * channels

    if magic in (b"P5", b"P6"):
        if pos >= len(buf):
            raise ParseError(f"{path}: missing raster", offset=pos)
        pos += 1  # single whitespace byte separates maxval from the raster
        itemsize = 1 if maxval == 255 else 2
        need = count * itemsize
        raster = buf[pos:pos + need]
        if len(raster) != need:
            raise ParseError(
                f"{path}: raster has {len(raster)} bytes, expected {need}", offset=pos
            )
        dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
        values = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    else:
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            values[i], pos = _netpbm_int(buf, pos, path, "sample", 0, maxval)

    shape = (h, w) if channels == 1 else (h, w, 3)
    return read_only((values / maxval).reshape(shape))
