import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pnpkit
from pnpkit import denoisers, proximal, solvers

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_script(script: Path, cwd: Path):
    env = dict(os.environ)
    src = str(Path(pnpkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


# every demo; each copy runs from tmp_path because 05 writes its traces and
# figure into an output/ folder next to its own file
@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_python_example_runs(tmp_path):
    # a fresh interpreter, so that no other test's imports stand in for the snippet's
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    script = tmp_path / "readme_example.py"
    script.write_text(blocks[0])
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy adds ~350 ms to a start-up; only the dct spectral denoiser and NLM use it
    script = tmp_path / "imports.py"
    script.write_text("import sys\nimport pnpkit, pnpkit.cli\n"
                      "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
                      "assert not loaded, loaded\n")
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_dct_and_nlm_denoisers_load_scipy_on_first_use(tmp_path):
    script = tmp_path / "first_use.py"
    script.write_text(
        "import sys\n"
        "import numpy as np\n"
        "from pnpkit import linear_spectral_denoiser, nlm_denoiser\n"
        "x = np.linspace(0.0, 1.0, 64).reshape(8, 8)\n"
        "dct = linear_spectral_denoiser((8, 8), 0.5, 'dct')\n"
        "nlm = nlm_denoiser(1, 2, 0.2)\n"
        "assert 'scipy.fft' not in sys.modules\n"
        "out = dct.apply(x, 0.1)\n"
        "assert 'scipy.fft' in sys.modules\n"
        "assert np.allclose(out, x / 1.5)\n"
        "assert 'scipy.ndimage' not in sys.modules\n"
        "out = nlm.apply(x, 0.1)\n"
        "assert 'scipy.ndimage' in sys.modules\n"
        "assert out.shape == x.shape and np.all(np.isfinite(out))\n")
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_solvers_row_names_every_driver():
    row = next(line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("| `pnpkit.solvers` |"))
    listed = set(re.findall(r"`(run_\w+)", row))
    drivers = {name for name, obj in vars(solvers).items()
               if name.startswith("run_") and inspect.isfunction(obj)}
    assert listed == drivers


def test_readme_proximal_row_names_every_prox_factory():
    row = next(line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("| `pnpkit.proximal` |"))
    listed = set(re.findall(r"`(prox_\w+|\w+_prox)\b", row))
    proxes = {name for name, obj in vars(proximal).items()
              if inspect.isfunction(obj) and obj.__module__ == proximal.__name__
              and not name.startswith("_") and re.fullmatch(r"prox_\w+|\w+_prox", name)}
    assert listed == proxes



def test_readme_denoisers_row_names_every_denoiser_factory():
    row = next(line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("| `pnpkit.denoisers` |"))
    listed = set(re.findall(r"`(\w+_denoiser)\b", row))
    factories = {name for name, obj in vars(denoisers).items()
                 if inspect.isfunction(obj) and obj.__module__ == denoisers.__name__
                 and not name.startswith("_") and name.endswith("_denoiser")}
    assert listed == factories

def test_readme_solvers_row_names_only_real_driver_keywords():
    row = next(line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("| `pnpkit.solvers` |"))
    calls = re.findall(r"`(run_\w+)\(([^`]*)`", row)
    keywords = [(name, kw) for name, args in calls for kw in re.findall(r"(\w+)=", args)]
    assert keywords  # the row shows at least one keyword call
    for name, kw in keywords:
        assert kw in inspect.signature(getattr(solvers, name)).parameters, (name, kw)
