"""Verification laboratory for undirected first-passage percolation on the hypercube.

Four engines: exact walk combinatorics (pathcount), the closed-form K-slab
geometry of optimal paths (geometry), probability kernels for overlapping
energy sums (stochastics) and a seeded ground-state simulator (simulator);
the cli module fronts them all.  Each library function owns the domain of its
arguments: a caller-supplied value outside it raises `UsageError`, while a
plain ValueError or ArithmeticError reports an engine's own fault.
"""

from .constants import E, L, SQRT2


class UsageError(ValueError):
    """A caller-supplied argument lies outside the documented domain."""


__all__ = ["E", "L", "SQRT2", "UsageError"]
__version__ = "0.1.0"
