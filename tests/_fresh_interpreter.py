"""Run a program in a fresh interpreter that can import only this checkout.

What a process *loads* (``sys.modules``, threads started) can only be
asserted where nothing has been imported yet.  The child sees no
``REPRO_*`` variable — like the benchmark's children — so a checkpoint or
serve setting in the caller's environment cannot decide what it imports.

The child starts with ``-S`` (no ``site``).  Site start-up runs every
``.pth`` file in site-packages before the program's first line, and such a
file can import whole stdlib stacks (``certifi`` → ``importlib.resources``
→ ``tempfile`` → ``shutil`` is one seen in the wild) that would then count
as the program's.  The project has no runtime dependency, so a site-less
child with ``PYTHONPATH`` at ``src`` sees exactly the checkout.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_fresh(code: str, *argv: str, timeout: float = 120) -> str:
    """Stdout of ``python -S -c code argv...``; fails on a non-zero exit."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
