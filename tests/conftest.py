import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import qgenocchi

# Exact rational arithmetic has occasional slow shrink paths; wall-clock
# deadlines would make those flaky without catching real bugs.
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def run_module():
    """`python -m qgenocchi argv` in a fresh process with extra env vars,
    with fd 1 closed when `close_stdout` is set and fd 2 when `close_stderr` is.

    The child's PYTHONPATH points at the imported package's source tree, so
    the tests run the same code from an uninstalled checkout.
    """
    src = str(Path(qgenocchi.__file__).resolve().parents[1])

    def run(argv, close_stdout=False, close_stderr=False, **env):
        closed = [fd for fd, close in ((1, close_stdout), (2, close_stderr)) if close]
        return subprocess.run(
            [sys.executable, "-m", "qgenocchi", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, **env},
            preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None,
        )

    return run
