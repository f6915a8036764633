"""Every demo runs to completion against the library in `src/`, so a
public name a demo uses cannot disappear unnoticed."""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEMOS = os.path.join(_ROOT, "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(_DEMOS) if f.endswith(".py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(_DEMOS, demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
