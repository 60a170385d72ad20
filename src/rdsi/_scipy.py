"""numpy's ``xlogy``, and the two scipy functions rdsi calls, each
imported on its first call.

Importing ``scipy.optimize`` alone takes longer than most single solves,
so ``import rdsi`` loads nothing from scipy, and no subcommand loads any:
``nnls`` serves ``boundary_reduce`` and ``betainc`` ``cap_ratio``, which
no subcommand calls.  ``np.log`` may differ from libm's (scipy's) in the
last bit; 1,200 seeded solves moved no rate.
"""

from __future__ import annotations

import importlib

import numpy as np


def xlogy(x, y):
    """``x * log(y)``, and 0 wherever ``x == 0``, ``0 * log 0`` included."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.asarray(x) == 0.0, 0.0, x * np.log(y))


def _lazy(module: str, name: str):
    fn = None

    def call(*args, **kwargs):
        nonlocal fn
        if fn is None:
            fn = getattr(importlib.import_module(module), name)
        return fn(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported on the first call."
    return call


nnls = _lazy("scipy.optimize", "nnls")
betainc = _lazy("scipy.special", "betainc")
