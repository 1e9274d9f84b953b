"""Run a Python snippet in a subprocess under a chosen ``PYTHONHASHSEED``.

String hashes — and with them set iteration order and any cached hash —
change with the seed, so seed-dependence only shows across processes.
"""

import os
import subprocess
import sys


def run_under_seed(code: str, seed: int, stdin: bytes = b"") -> bytes:
    """The stdout of ``python -c code`` with this process's import path."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout
