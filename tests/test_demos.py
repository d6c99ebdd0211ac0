import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pnpkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# every demo; each copy runs from tmp_path because 05 writes its traces and
# figure into an output/ folder next to its own file
@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = dict(os.environ)
    src = str(Path(pnpkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
