"""Smoke test: the narrative demos run to completion against the package.

Each demo runs as its own process, so a public name removed from the package
fails here instead of only when someone next runs the demo. Warnings are
errors there, as in the rest of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_selling_rule_walkthrough.py", "02_critical_price_and_income.py",
         "03_avalanche_statistics.py", "04_variance_constants.py",
         "05_base_price_and_baseline.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
