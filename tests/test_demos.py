"""The demos run end to end through the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dispersion_classification_demo(tmp_path):
    # certifies all six built-in families
    out = _run_demo("01_dispersion_classification.py", tmp_path)
    assert out.count("type I certified") == 5


def test_leading_order_profile_demo(tmp_path):
    # the eps = 0 speed line is c0^2 itself; the closed form closes the script
    out = _run_demo("02_leading_order_profile.py", tmp_path)
    assert "(= c0^2)" in out
    assert "closed form at eps=0.1" in out
