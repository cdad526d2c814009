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
def child_env():
    """The environment of a child process that imports this mcurve."""
    src = str(Path(mcurve.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def run_python(child_env):
    """Run `python *args` in a child process that imports this mcurve, under a
    timeout: a test of a former hang then fails on a regression instead of
    hanging."""
    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=child_env, timeout=60)

    return run
