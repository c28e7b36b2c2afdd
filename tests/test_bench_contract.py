"""The benchmark harness's own tests, run against this checkout.

The harness traces featlog functions by module and name and swaps CLI
commands, so renaming or removing one of those names breaks a traced
bench run; running its self-tests here makes such a change fail the
test suite instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
