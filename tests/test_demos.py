import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pnpkit
from pnpkit import solvers

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


def test_readme_solvers_row_names_every_driver():
    row = next(line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("| `pnpkit.solvers` |"))
    listed = set(re.findall(r"`(run_\w+)", row))
    drivers = {name for name, obj in vars(solvers).items()
               if name.startswith("run_") and inspect.isfunction(obj)}
    assert listed == drivers
