"""Span recorder for traced runs.

Spans are recorded from outside the package: at run time the names each
upper layer calls are replaced by wrappers that open a span, call the
original and close the span.  The wrappers are removed again when the
traced section ends, so untraced runs never touch the wrap list.

A span is ``[name, layer, start, end, parent, thread]``.  Spans stay in
memory; :meth:`Tracer.write` puts them in a CSV when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time

LAYERS = ("core", "operators", "proximal", "denoisers", "gmm", "solvers", "sampling", "cli")

# (module, attribute) pairs: names an upper layer looks up in its own module
# globals, so replacing them there puts a span around every call it makes.
FUNCTION_TARGETS = (
    ("pnpkit.cli", "run_pgd"),
    ("pnpkit.cli", "run_apgd"),
    ("pnpkit.cli", "run_drs"),
    ("pnpkit.cli", "run_admm"),
    ("pnpkit.cli", "run_hqs"),
    ("pnpkit.cli", "run_red_gd"),
    ("pnpkit.cli", "run_red_pg"),
    ("pnpkit.cli", "run_red_apg"),
    ("pnpkit.cli", "run_gs_pnp"),
    ("pnpkit.cli", "build_denoiser"),
    ("pnpkit.cli", "run_pnp_ula"),
    ("pnpkit.cli", "gaussian_posterior_oracle"),
    ("pnpkit.cli", "effective_sample_size"),
    ("pnpkit.cli", "psnr"),
    ("pnpkit.cli", "add_gaussian_noise"),
    ("pnpkit.cli", "write_trace"),
    ("pnpkit.cli", "save_signal"),
    ("pnpkit.solvers", "solve_shifted_normal"),
    ("pnpkit.solvers", "prox_quadratic_fidelity"),
    ("pnpkit.solvers", "psnr"),
    ("pnpkit.proximal", "solve_shifted_normal"),
    ("pnpkit.denoisers", "prox_tv"),
    ("pnpkit.denoisers", "posterior_mean"),
)

# (module, class, method) triples; the method is replaced on the class.
METHOD_TARGETS = (
    ("pnpkit.denoisers", "Denoiser", "apply"),
    ("pnpkit.proximal", "ProxMap", "evaluate"),
    ("pnpkit.core", "Trace", "append"),
)

# Every LinearOp subclass defined in the package gets these two wrapped.
OPERATOR_METHODS = ("_apply", "_adjoint")


def _layer_of(fn, fallback: str) -> str:
    """The layer is the module that defines the function, when it is ours."""
    module = getattr(fn, "__module__", "") or ""
    name = module.rsplit(".", 1)[-1]
    return name if module.startswith("pnpkit.") and name in LAYERS else fallback


class Tracer:
    """In-memory span list with one open-span stack per thread.

    A span opened on a thread whose stack is empty (a ``compare`` pool
    worker, say) takes the current root span as its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.root: int | None = None
        self.roots: list[int] = []  # one root span per traced command
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str, layer: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def command(self, name: str):
        """Root span around one whole command; spans with no parent attach to it."""
        root = self.open(name, "cli")
        self.root = root
        try:
            yield
        finally:
            self.close(root)
            self.root = None
            self.roots.append(root)

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return spanned

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,layer,start,end,parent,thread\n")
            for i, (name, layer, start, end, parent, thread) in enumerate(self.spans):
                fh.write(f"{i},{name},{layer},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{thread}\n")


class Instrumentation:
    """Installs the wrappers on entry and restores the originals on exit.

    Targets that no longer exist are collected in ``missing`` instead of
    failing, so a renamed or removed name leaves its layer unmeasured.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self.installed: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, label: str, fallback_layer: str) -> None:
        if inspect.isclass(owner):
            original = owner.__dict__.get(attr)  # only what the class itself defines
        else:
            original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(label)
            return
        layer = _layer_of(original, fallback_layer)
        setattr(owner, attr, self.tracer.wrap(original, label, layer))
        self._restore.append((owner, attr, original))
        self.installed[layer] += 1

    def __enter__(self):
        for module_name, attr in FUNCTION_TARGETS:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            self._patch(module, attr, label, module_name.rsplit(".", 1)[-1])
        for module_name, cls_name, attr in METHOD_TARGETS:
            label = f"{module_name}.{cls_name}.{attr}"
            try:
                cls = getattr(importlib.import_module(module_name), cls_name)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if attr not in cls.__dict__:
                self.missing.append(label)
                continue
            self._patch(cls, attr, label, module_name.rsplit(".", 1)[-1])
        try:
            base = importlib.import_module("pnpkit.operators").LinearOp
        except (ImportError, AttributeError):
            self.missing.append("pnpkit.operators.LinearOp")
        else:
            for cls in _package_subclasses(base):
                for attr in OPERATOR_METHODS:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, f"{cls.__module__}.{cls.__name__}.{attr}",
                                    "operators")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def unmeasured_layers(self) -> list[str]:
        """Layers below ``cli`` that no installed wrapper reaches."""
        return [layer for layer in LAYERS if layer != "cli" and self.installed[layer] == 0]


def _package_subclasses(base) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("pnpkit") and sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls and self time per layer.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children on other threads (``compare`` workers) are
    merged as a union, so parallel work is not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, layer, start, end, parent, thread in spans:
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for i, (name, layer, start, end, parent, thread) in enumerate(spans):
        if end is None:
            continue
        kids = children.get(i)
        own = (end - start) - (_covered(kids, start, end) if kids else 0.0)
        totals[layer]["calls"] += 1
        totals[layer]["self_s"] += own
    return totals


def busy_ratio(spans: list[list], root: int, threads: int) -> float:
    """Sum of the root's direct children's time over (root wall x threads)."""
    name, layer, start, end, parent, thread = spans[root]
    busy = sum(s[3] - s[2] for s in spans if s[4] == root and s[3] is not None)
    return busy / ((end - start) * threads)
