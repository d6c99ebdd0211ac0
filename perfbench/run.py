"""pnpkit benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from the root of a checkout: a closed loop with one
client that calls the public CLI (``pnpkit.cli.main``) on configs made
from ``--seed``, each call waiting for the previous one.  The last line of
standard output is the result object; the line before it describes the
run (machine, settings, sample counts, failures).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics: microbenchmarks of each module, spans around the calls
between modules, and the tracing overhead.  See README.md.

The end-to-end timings are scaled to a reference host speed.  Each
workload names a calibration kernel in ``calibrate.py``: a frozen numpy copy
of the workload's hot loop that does not use pnpkit.  It runs before the
first timed command and after each one; an import kernel runs in a fresh
process before each set-up probe and after the last.  Each time is
multiplied by its kernel's reference time over the mean of the kernel runs
on either side of it, and the metrics are medians of the scaled times.
Shared hosts change speed by half within a minute and a kernel that runs
the same kind of instructions changes with them, so the scaled times follow
the program, not the host.  The raw times are on the info line.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported, so that the
# compare workload's 2 pool threads are the only parallelism.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = {0: 5, 1: 3}  # fresh-process set-ups per run, by --trace

END_TO_END_UNITS = {
    "run_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "psnr_db": "dB",
    "oracle_gap_ratio": "ratio",
}


def load_pnpkit():
    """Import pnpkit from this checkout's src/, and nowhere else."""
    package = ROOT / "src" / "pnpkit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pnpkit sources under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import pnpkit
    import pnpkit.cli  # noqa: F401

    if Path(pnpkit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported pnpkit from {pnpkit.__file__}, not {package}")
    return pnpkit


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


class Runner:
    """Runs one workload's CLI command and checks what it wrote."""

    def __init__(self, pk, workload, configs: list[dict], work: Path):
        self.pk = pk
        self.workload = workload
        self.configs = configs
        self.work = work
        self.paths = []
        for i, doc in enumerate(configs):
            path = work / f"config{i}.json"
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
            self.paths.append(path)
        self.count = 0
        self.failed = 0
        self.checks: list[tuple[str, bool]] = []  # run-level checks
        self.failures: list[str] = []
        self.first: dict[int, dict] = {}  # config index -> first inspection
        self.hashes: dict[int, str] = {}
        self.identity_ok = True

    def _fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def run(self, index: int, tracer=None) -> tuple[float, dict | None]:
        """Run config ``index`` once; returns (seconds, inspection or None)."""
        self.count += 1
        out = self.work / f"cmd{self.count}"
        argv = [self.workload.command, "--config", str(self.paths[index]), "--out", str(out)]
        os.environ["PNPKIT_THREADS"] = str(self.workload.threads)
        try:
            span = tracer.command("pnpkit.cli.main") if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(io.StringIO()), span:
                t0 = time.perf_counter()
                code = self.pk.cli.main(argv)
                seconds = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            report = self.workload.inspect(self.pk, self.configs[index], out)
            digest = self._digest(out)
        except Exception as exc:  # a failed command is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self._fail(f"config {index}: {type(exc).__name__}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            return math.nan, None
        shutil.rmtree(out, ignore_errors=True)
        if report["failures"]:
            self.failed += 1
            self._fail(f"config {index}: " + "; ".join(report["failures"]))
        if self.hashes.setdefault(index, digest) != digest:
            self.identity_ok = False
            self._fail(f"config {index}: outputs differ from the first run of the same config")
        self.first.setdefault(index, report)
        return seconds, report

    def _digest(self, out: Path) -> str:
        h = hashlib.sha256()
        files = sorted({p for pattern in self.workload.hashed for p in out.glob(pattern)})
        if not files:
            raise RuntimeError(f"no outputs matching {self.workload.hashed}")
        for p in files:
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, ok))
        if not ok:
            self._fail(f"check failed: {name}")

    def finish(self) -> tuple[int, int]:
        """Run the checks over the whole run; returns (attempted, failed)."""
        self.check("byte-identical reruns", self.identity_ok)
        reports = list(self.first.values())
        if reports and "variance_ratio" in reports[0]:
            # single short chains miss the per-chain allowances a few % of the
            # time; the mean over the run's chains does not (see README)
            gap = statistics.fmean(r["oracle_gap_ratio"] for r in reports)
            var = statistics.fmean(r["variance_ratio"] for r in reports)
            self.check(f"mean oracle gap ratio {gap:.3f} <= 1", gap <= 1.0)
            self.check(f"mean variance ratio {var:.3f} <= 1", var <= 1.0)
        failed = self.failed + sum(not ok for _, ok in self.checks)
        return self.count + len(self.checks), failed


def _probe(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(workload, seed: int, count: int,
                 calibrated: bool) -> tuple[list[dict], list[float]]:
    """Time the set-up in ``count`` fresh processes.  If ``calibrated``, also
    time the import kernel in a fresh process before each probe and after
    the last, so each probe has a kernel run on each side."""
    probes, kernels = [], []
    for _ in range(count):
        if calibrated:
            kernels.append(_probe("--import-kernel")["import"])
        probes.append(_probe(workload.name, str(seed)))
    if calibrated:
        kernels.append(_probe("--import-kernel")["import"])
    return probes, kernels


def timed_loop(seconds: float, minimum: int, step) -> None:
    """Call ``step(i)`` until ``seconds`` have passed and at least ``minimum`` times."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        step(i)
        i += 1


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def end_to_end(pk, runner: Runner, workload, args, probes, info, probe_kernels) -> dict:
    import calibrate

    kernel = calibrate.make(workload.kernel, workload.threads)
    ref_s = calibrate.REF_S[workload.kernel, workload.threads]
    times, kernels, iters, run_s = [], [kernel()], [], []

    def step(i):
        seconds, report = runner.run(i % workload.pool)
        kernels.append(kernel())
        if report is not None:
            # the host's speed over the command: the kernel runs on each side
            host = 0.5 * (kernels[-2] + kernels[-1])
            times.append(seconds)
            run_s.append(seconds * ref_s / host)
            iters.append(report["iters"])

    timed_loop(args.seconds, workload.pool, step)
    if not times:
        raise RuntimeError("no command succeeded")
    reports = [runner.first[i] for i in sorted(runner.first)]
    raw_setups = [sum(p.values()) for p in probes]
    # A set-up is mostly imports, which a compute kernel does not track; the
    # import kernel, timed in fresh processes on each side, does.
    setups = [t * calibrate.IMPORT_REF_S / (0.5 * (a + b))
              for t, a, b in zip(raw_setups, probe_kernels, probe_kernels[1:])]
    info["run_s"] = {"samples": len(times), "quartiles": quartiles(run_s),
                     "raw_quartiles": quartiles(times), "kernel_quartiles": quartiles(kernels)}
    info["setup_s"] = {"samples": len(setups), "quartiles": quartiles(setups),
                       "raw_quartiles": quartiles(raw_setups),
                       "kernel_quartiles": quartiles(probe_kernels)}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": statistics.median(run_s),
        "iters_per_s": statistics.median(n / t for n, t in zip(iters, run_s)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "psnr_db": statistics.fmean(r["psnr_db"] for r in reports),
        "oracle_gap_ratio": statistics.fmean(r["oracle_gap_ratio"] for r in reports),
    }


def traced(pk, runner: Runner, workload, args, probes, info) -> dict:
    import layers
    import spans

    t_start = time.perf_counter()
    metrics, failures = layers.measure(pk, args.seed, runner.work)
    runner.check("layer microbenchmarks: " + ("; ".join(failures) or "ok"), not failures)

    tracer = spans.Tracer()
    plain, spanned, iters = [], [], []
    missing, unmeasured = [], []

    def traced_run(index):
        with spans.Instrumentation(tracer) as inst:
            seconds, report = runner.run(index, tracer)
        missing[:] = inst.missing
        unmeasured[:] = inst.unmeasured_layers()
        return seconds, report

    def step(i):
        index = i % workload.pool
        # alternate which side goes first so drift hits both equally
        order = (runner.run, traced_run) if i % 2 == 0 else (traced_run, runner.run)
        for fn in order:
            seconds, report = fn(index)
            if report is not None:
                (spanned if fn is traced_run else plain).append(seconds)
                iters.append(report["iters"])

    remaining = max(args.seconds - (time.perf_counter() - t_start), 0.5 * args.seconds)
    timed_loop(remaining, 2, step)
    if not plain or not spanned:
        raise RuntimeError("no traced or untraced command succeeded")

    totals = spans.layer_totals(tracer.spans)
    commands = len(tracer.roots)
    all_self = sum(t["self_s"] for t in totals.values()) or 1.0
    for layer, t in totals.items():
        metrics[f"{layer}.calls"] = t["calls"] / commands
        metrics[f"{layer}.self_s"] = t["self_s"] / commands
        metrics[f"{layer}.share"] = t["self_s"] / all_self
    metrics["cli.compare_busy_ratio"] = statistics.median(
        spans.busy_ratio(tracer.spans, r, workload.threads) for r in tracer.roots)
    metrics["solvers.outer_iters"] = statistics.median(iters)
    for phase in ("import", "simulate", "denoiser", "oracle"):
        metrics[f"cli.setup_{phase}_ms"] = 1e3 * statistics.median(p[phase] for p in probes)
    untraced_s, traced_s = statistics.median(plain), statistics.median(spanned)
    metrics["trace.traced_run_s"] = traced_s
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.csv")
    info["traced_commands"] = commands
    info["untraced_commands"] = len(plain)
    info["missing_wrap_targets"] = missing
    info["unmeasured_layers"] = unmeasured
    return metrics


def machine_info(np_module) -> dict:
    import scipy

    try:
        blas = np_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np_module.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
    }


def run_workload(args) -> int:
    pk = load_pnpkit()
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    work = OUT_DIR / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config_seeds": [c["seed"] for c in configs],
        "pnpkit_threads": workload.threads, **machine_info(np),
    }
    try:
        probes, probe_kernels = setup_probes(workload, configs[0]["seed"],
                                             SETUP_PROBES[args.trace], not args.trace)
        runner = Runner(pk, workload, configs, work)
        runner.run(0)  # warm-up: lazy imports and caches; its outputs are hashed too
        if args.trace:
            metrics = traced(pk, runner, workload, args, probes, info)
        else:
            metrics = end_to_end(pk, runner, workload, args, probes, info, probe_kernels)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = runner.finish()
    if not args.trace:
        metrics["pass_ratio"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
        metrics = {name: metrics[name] for name in units}
    else:
        units = {name: _layer_unit(name) for name in metrics}
    info["failures"] = runner.failures
    info["ula_chains_within_tolerance"] = _within(runner)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _within(runner: Runner):
    flags = [r["chain_within_tolerance"] for r in runner.first.values()
             if "chain_within_tolerance" in r]
    return f"{sum(flags)}/{len(flags)}" if flags else None


def _layer_unit(name: str) -> str:
    """Per-layer metric names end in their unit."""
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), (".calls", "count"),
                         ("_matvecs", "count"), ("_iters", "count"), ("_ratio", "ratio"),
                         (".share", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for {name}")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    combined, attempted, failed, ok = {}, 0, 0, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} failed")
        result = json.loads(lines[-1])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
            print(f"{name:12s} {metric:36s} {entry['value']:16.6g} {entry['unit']}",
                  file=sys.stderr)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
