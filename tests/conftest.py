import contextlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

from hypothesis import settings

import polylab

# Property tests draw the same examples on every run, and no example fails
# for running slowly on a host whose speed varies.
settings.register_profile("polylab", deadline=None, derandomize=True)
settings.load_profile("polylab")

# After a property test fails, hypothesis's pytest plugin imports its patch
# writer, and with it libcst, whose import can raise a DeprecationWarning
# (libcst 1.0.1 subclasses mypy_extensions.TypedDict).  The error filter in
# pyproject.toml would make that an INTERNALERROR that ends the whole run, so
# the writer is imported here once with the warning ignored; without libcst
# the plugin writes no patch.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def python_env():
    """This process's environment, with this checkout's polylab first on PYTHONPATH."""
    src = str(Path(polylab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_python(code, *argv):
    """`python -c code argv` in a new interpreter that imports this checkout's polylab."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=python_env(), capture_output=True, text=True, timeout=300
    )
