"""Module-level test kernels: entry points the executor tests dispatch
through every backend (executors resolve them by ``module:qualname``
reference, so they cannot live inside test functions)."""

import numpy as np


def fill(out, *, value):
    """Overwrite ``out`` with a constant."""
    out[:] = value


def axpy(x, y, *, alpha):
    """``y += alpha * x`` -- one read-only and one inout binding."""
    y += alpha * x


def scale_offset(block, *, factor):
    """In-place scale; used for offset-window bindings."""
    np.multiply(block, factor, out=block)


def boom(x):
    """A kernel that always fails."""
    raise RuntimeError("kernel exploded")
