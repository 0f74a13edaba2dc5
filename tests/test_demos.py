"""Smoke test: the narrative demos and the README's Python blocks run to
completion against the package.

Each demo and each block runs as its own process, so a public name removed
or a signature changed fails here instead of only when someone next runs
the demo or copies the block. Warnings are errors there, as in the rest of
the suite.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_selling_rule_walkthrough.py", "02_critical_price_and_income.py",
         "03_avalanche_statistics.py", "04_variance_constants.py",
         "05_base_price_and_baseline.py")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.S | re.M)


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    run_python(str(ROOT / "demos" / demo))


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    run_python("-c", block)
