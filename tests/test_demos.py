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


def test_solitary_wave_demo(tmp_path):
    # both solvers on a = 4 and nnn; the a = 4 profile is written out
    out = _run_demo("03_solitary_wave.py", tmp_path)
    assert out.count("|W_contr - W_petv|_H1") == 2
    assert (tmp_path / "wave_profile_a4.csv").is_file()


def test_scaling_laws_demo(tmp_path):
    # eps sweeps on a = 3.5, a = 6 and nnn, each with a fitted slope
    out = _run_demo("04_scaling_laws.py", tmp_path)
    assert out.count("fitted slope") == 3


def test_lattice_verification_demo(tmp_path):
    out = _run_demo("05_lattice_verification.py", tmp_path)
    assert "measured speed" in out
