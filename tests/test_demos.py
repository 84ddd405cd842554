"""Every demo script runs to completion and prints something."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = os.path.join(ROOT, "demos")
SCRIPTS = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


def test_all_six_demos_are_found():
    assert len(SCRIPTS) == 6


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script):
    src = os.path.join(ROOT, "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
