"""The scipy functions rdsi calls, each imported on its first call.

Importing ``scipy.optimize`` alone takes longer than most single solves,
so ``import rdsi`` loads nothing from scipy: a subcommand pays only for
the scipy modules its code path reaches.  ``xlogy`` stays scipy's rather
than a numpy formula because ``np.log`` and libm's ``log`` differ in the
last bit on some inputs, which would move printed rates.
"""

from __future__ import annotations

import importlib


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


linprog = _lazy("scipy.optimize", "linprog")
nnls = _lazy("scipy.optimize", "nnls")
xlogy = _lazy("scipy.special", "xlogy")
betainc = _lazy("scipy.special", "betainc")
