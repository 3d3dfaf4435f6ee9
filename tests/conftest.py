import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

import polylab

# Property tests draw the same examples on every run, and no example fails
# for running slowly on a host whose speed varies.
settings.register_profile("polylab", deadline=None, derandomize=True)
settings.load_profile("polylab")


def run_python(code, *argv):
    """`python -c code argv` in a new interpreter that imports this checkout's polylab."""
    src = str(Path(polylab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300)
