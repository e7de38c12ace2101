"""Run a program in a fresh interpreter that can import only this checkout.

What a process *loads* (``sys.modules``, threads started) can only be
asserted where nothing has been imported yet.  The child sees no
``REPRO_*`` variable — like the benchmark's children — so a CI leg's
``REPRO_EXECUTOR=parallel`` cannot decide what it imports.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_fresh(code: str, *argv: str, timeout: float = 120) -> str:
    """Stdout of ``python -c code argv...``; fails on a non-zero exit."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
