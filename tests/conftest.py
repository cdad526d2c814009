import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import mcurve

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def run_python():
    """Run `python *args` in a child process that imports this mcurve, under a
    timeout: a test of a former hang then fails on a regression instead of
    hanging."""
    src = str(Path(mcurve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=60)

    return run
