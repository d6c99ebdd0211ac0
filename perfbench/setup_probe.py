"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <checkout root> <workload> <config seed>
    python3 perfbench/setup_probe.py <checkout root> --import-kernel

Prints one JSON object of phase -> seconds: ``import`` (import pnpkit and
its CLI), then the workload's ``simulate``, ``denoiser`` and ``oracle``
phases.  The interpreter's own start-up is not counted.

``--import-kernel`` instead times the set-up's calibration kernel, reported
as ``import``: importing ``IMPORT_KERNEL``, third-party and standard modules
of the kind a set-up loads, and no pnpkit (see calibrate.py).
"""

import importlib
import json
import sys
import time
from pathlib import Path

IMPORT_KERNEL = ("numpy", "scipy.fft", "csv", "argparse", "dataclasses", "concurrent.futures")


def main() -> None:
    if sys.argv[2] == "--import-kernel":
        t0 = time.perf_counter()
        for module in IMPORT_KERNEL:
            importlib.import_module(module)
        print(json.dumps({"import": time.perf_counter() - t0}))
        return
    root, name, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import pnpkit
    import pnpkit.cli  # noqa: F401  (the CLI is part of what a user imports)

    phases = {"import": time.perf_counter() - t0}
    from workloads import WORKLOADS

    phases.update(WORKLOADS[name].setup(pnpkit, seed))
    print(json.dumps(phases))


if __name__ == "__main__":
    main()
