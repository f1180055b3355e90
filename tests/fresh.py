"""The command line in a new interpreter, as the ``effdiag`` script runs it.

``run_fresh`` starts ``python -m effectdiagrams.cli`` with the imported
package's source directory first on ``PYTHONPATH``, so a fault at import
time, in the entry point or in ``sys.exit`` shows up as it would for a
user.
"""

import os
import subprocess
import sys
from pathlib import Path

import effectdiagrams as ed


def run_fresh(argv, **env):
    """Exit code, stdout and stderr of ``argv`` in a new interpreter."""
    src = str(Path(ed.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", **env,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "effectdiagrams.cli", *argv],
                          capture_output=True, encoding="utf-8", env=env)
    return done.returncode, done.stdout, done.stderr
