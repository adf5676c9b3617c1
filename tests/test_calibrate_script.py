"""Smoke test of scripts/calibrate.py: it runs, and its C_CONTRACTION probes
reproduce the measured maximum 0.196 behind the frozen constant."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_calibrate_script_reproduces_contraction_maximum():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "calibrate.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "max 0.1961" in proc.stdout
