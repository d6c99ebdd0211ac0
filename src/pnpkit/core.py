"""Shared signal containers, metrics, noise injection, RNG, and file formats.

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

    ``last`` holds the last finite iterate, ``step`` the iteration index at
    which divergence was detected.
    """

    def __init__(self, message: str, last=None, step: int | None = None, trace=None):
        super().__init__(message)
        self.last = last
        self.step = step
        self.trace = trace


class ConfigError(PnpkitError):
    """An experiment configuration is invalid."""


# The state of the solver run in progress in this context, or None outside one.
_RUN_STATE: contextvars.ContextVar[dict | None] = contextvars.ContextVar("pnpkit_run_state",
                                                                        default=None)


@contextmanager
def scoped_run():
    """Give the solver run inside the block a fresh state dict of its own.

    ``solvers._iterate`` opens one per run.  A map that carries something
    from one call to the next within a run (the TV prox's warm dual) keeps
    it in :func:`run_state`, so nothing outlives the run or crosses into
    another run, a nested one or another thread included.
    """
    token = _RUN_STATE.set({})
    try:
        yield
    finally:
        _RUN_STATE.reset(token)


def run_state() -> dict | None:
    """The state dict of the innermost solver run in progress; None outside a run."""
    return _RUN_STATE.get()


def diverged(x: np.ndarray) -> bool:
    """True when x has a non-finite entry or a norm above DIVERGENCE_NORM.

    One reduction covers both: a NaN, an inf or an overflowing norm fails
    the comparison.  Callers run it under ``np.errstate(over="ignore")`` so a
    large but finite state does not warn on its way to inf.
    """
    flat = np.ravel(x)
    return not (math.sqrt(flat.dot(flat)) <= DIVERGENCE_NORM)


@dataclass(frozen=True)
class Signal:
    """Immutable flat float64 array plus shape metadata.

    ``data`` is stored flat in row-major order; ``shape`` may describe 1-D
    vectors, 2-D grayscale images, or 3-D multichannel images.  A Signal is
    what :func:`load_signal`, :func:`add_gaussian_noise` and a finished
    solver run return; every map of the package takes a Signal or an array
    and returns an array.
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

    def to_array(self) -> np.ndarray:
        """Return the signal as a read-only array with its true shape."""
        return self.data.reshape(self.shape)

    def __array__(self, dtype=None, copy=None):
        arr = self.data.reshape(self.shape)
        return arr.astype(dtype) if dtype is not None else arr

    @property
    def size(self) -> int:
        return self.data.size


def as_signal(x) -> Signal:
    """Coerce an array-like into a :class:`Signal` (no-op for Signals)."""
    if isinstance(x, Signal):
        return x
    return Signal.from_array(x)


def as_array(x) -> np.ndarray:
    """Coerce a Signal or array-like into a float64 ndarray with true shape."""
    if isinstance(x, Signal):
        return x.to_array()
    return np.asarray(x, dtype=np.float64)


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
    enough to exceed the cap), so that traces remain numeric.
    """
    a = as_signal(a)
    b = as_signal(b)
    if a.shape != b.shape:
        raise ShapeError(f"psnr operands differ in shape: {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP_DB)


def add_gaussian_noise(x, sigma: float, rng: Rng) -> Signal:
    """Return x + sigma * w with w i.i.d. standard normal from ``rng``."""
    x = as_signal(x)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return x
    noisy = x.data + sigma * rng.standard_normal(x.size)
    return Signal(noisy, x.shape)


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
    """Read a trace CSV produced by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln != ""]
    if not lines:
        raise ParseError(f"{path}: empty trace file", offset=0)
    header = lines[0].split(",")
    if tuple(header) != TRACE_COLUMNS:
        raise ParseError(f"{path}: unexpected trace header {header!r}", offset=0)
    trace = Trace()
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise ParseError(f"{path}: malformed trace row {ln!r}")
        values = [float(c) if c != "" else math.nan for c in cells[1:]]
        trace.append(int(cells[0]), *values)
    return trace


# ---------------------------------------------------------------------------
# Signal file formats: raw float64 container and Netpbm PGM/PPM.
# ---------------------------------------------------------------------------


def save_signal(x, path, maxval: int = 255) -> None:
    """Save a signal; format is inferred from the file extension.

    ``.raw`` uses the lossless float64 container (magic ``PNPK0001``, a JSON
    shape sidecar line, then little-endian float64 payload).  ``.pgm`` /
    ``.ppm`` write binary P5/P6 with linear quantization of [0, 1] onto
    [0, maxval]; maxval must be 255 or 65535.
    """
    x = as_signal(x)
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


def load_signal(path) -> Signal:
    """Load a signal saved by :func:`save_signal` (raw, PGM, or PPM)."""
    path = str(path)
    ext = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    with open(path, "rb") as fh:
        buf = fh.read()
    if ext == "raw":
        return _load_raw(buf, path)
    if ext in ("pgm", "ppm"):
        return _load_netpbm(buf, path)
    raise ValueError(f"unsupported signal extension {ext!r} (use raw, pgm, or ppm)")


def _save_raw(x: Signal, path: str) -> None:
    sidecar = json.dumps({"shape": list(x.shape)}, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(sidecar)
        fh.write(b"\n")
        fh.write(x.data.astype("<f8").tobytes())


def _load_raw(buf: bytes, path: str) -> Signal:
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
    n = int(np.prod(shape))
    payload = buf[nl + 1:]
    if len(payload) != 8 * n:
        raise ParseError(
            f"{path}: payload has {len(payload)} bytes, shape {shape} needs {8 * n}",
            offset=nl + 1,
        )
    data = np.frombuffer(payload, dtype="<f8")
    return Signal(data, shape)


def _save_netpbm(x: Signal, path: str, maxval: int) -> None:
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    magic = b"P5" if len(x.shape) == 2 else b"P6"
    h, w = x.shape[0], x.shape[1]
    quant = np.round(np.clip(x.to_array(), 0.0, 1.0) * maxval)
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


def _load_netpbm(buf: bytes, path: str) -> Signal:
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
    return Signal(values / maxval, shape)
