"""The demo scripts run to the end.

``demos/05_snr_estimation.py`` takes about 40 s and is left to be run by
hand; the others take a few seconds each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dkimle

SRC = Path(dkimle.__file__).parents[1]
DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_signal_model.py", "02_rician_kernel.py",
                                  "03_barrier_solver.py", "04_fit_comparison.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
