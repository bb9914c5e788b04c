"""The demos run as scripts and print their headline lines."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@pytest.mark.parametrize("script, lines", [
    ("gamma_point_recovery.py", ["extrapolated (tau -> 0): 0.01", "fitted error rate in tau:"]),
    ("stability_rates.py", ["log-log slope of diff vs eta: 1.0",
                            "one-sided Holder bound holds on every row: True"]),
])
def test_demo_runs(script, lines):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    for line in lines:
        assert line in out.stdout
