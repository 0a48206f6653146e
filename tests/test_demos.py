"""The demos print exactly the recorded output in tests/data/demo_0N.txt."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_matches_recording(demo):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run([sys.executable, os.path.join("demos", demo)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    with open(os.path.join(ROOT, "tests", "data", f"demo_{demo[:2]}.txt"),
              encoding="utf-8") as fh:
        assert run.stdout == fh.read()
