"""Smoke tests: the fast example scripts must run end to end.

The training-heavy examples (quickstart, tcp_cluster_demo) are exercised
manually / in benchmarks; here we run the second-scale ones as
subprocesses exactly as a user would.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def run_example(name: str, *args: str) -> str:
    # Examples must run from a plain checkout: put src/ on the child's path
    # whether or not the package is installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestFastExamples:
    def test_failover_demo(self):
        out = run_example("failover_demo.py")
        assert "FLUID DNN" in out
        assert "downtime: 0s" in out          # fluid rides everything out
        assert "downtime: 30s" in out         # static is down for both failures

    def test_modes_demo(self):
        out = run_example("modes_demo.py")
        assert "HT/HA throughput ratio: 2.55x" in out
        assert "28.3" in out and "11.1" in out

    def test_scaling_demo(self):
        out = run_example("scaling_demo.py")
        assert "HT img/s" in out
        # The N = 2, 4 and 8 rows, digit for digit.
        rows = [
            "2      28.8      11.1  k=0: 28.8 k=1: 14.4 k=2:  0.0",
            "4      71.6      13.6  k=0: 71.6 k=1: 53.7 k=2: 35.8 k=3: 17.9 k=4:  0.0",
            "8     154.8      15.4  k=0:154.8 k=1:135.4 k=2:116.1 k=3: 96.7 k=4: 77.4"
            " k=5: 58.0 k=6: 38.7 k=7: 19.3 k=8:  0.0",
        ]
        for row in rows:
            assert f"    {row}\n" in out, row


class TestExampleHygiene:
    def test_all_examples_have_docstrings_and_main(self):
        for name in os.listdir(EXAMPLES_DIR):
            if not name.endswith(".py"):
                continue
            source = open(os.path.join(EXAMPLES_DIR, name)).read()
            assert source.startswith('"""'), f"{name} missing module docstring"
            assert '__name__ == "__main__"' in source, f"{name} missing main guard"
