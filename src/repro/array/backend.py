"""Array-backend selection: NumPy when available, flat lists otherwise.

The batched engine (:mod:`repro.array.engine`) is written against two
interchangeable data planes:

- ``"numpy"`` — vectorized kernels over 2-D/3-D ``ndarray``s.  NumPy is
  an *optional* extra (``pip install repro[fast]``); the core package
  keeps ``dependencies = []``.
- ``"python"`` — the csr kernels (the wire's reductions and the clock
  twins) over nested plain lists.  Slower, but dependency-free and
  value-identical (the conformance suite runs both planes against the
  reference engine).  Dense twins run on NumPy only and refuse this
  plane, so ``run_sweep(backend="array")`` answers their points on the
  reference engine.

Selection order: an explicit ``backend=`` argument wins; otherwise the
``REPRO_ARRAY_BACKEND`` environment variable (``numpy`` / ``python``);
otherwise NumPy if importable, else the fallback.  Asking for NumPy
when it is not installed is a loud error, never a silent downgrade.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "ArrayBackendUnavailable",
    "BACKENDS",
    "get_numpy",
    "has_numpy",
    "pick_backend",
]

#: Environment override consulted when no explicit backend is passed.
ENV_BACKEND = "REPRO_ARRAY_BACKEND"

BACKENDS = ("numpy", "python")

_numpy_module = None
_numpy_checked = False


class ArrayBackendUnavailable(RuntimeError):
    """A requested array backend cannot be provided on this machine."""


def _load_numpy():
    global _numpy_module, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe

            _numpy_module = numpy
        except ImportError:
            _numpy_module = None
    return _numpy_module


def has_numpy() -> bool:
    """True when the NumPy data plane is importable."""
    return _load_numpy() is not None


def get_numpy():
    """The ``numpy`` module, or raise :class:`ArrayBackendUnavailable`."""
    module = _load_numpy()
    if module is None:
        raise ArrayBackendUnavailable(
            "the numpy array backend was requested but numpy is not "
            "installed; install the optional extra (pip install "
            "'repro[fast]') or use backend='python'"
        )
    return module


def pick_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name (``None`` = env var, then auto-detect)."""
    if backend is None:
        backend = os.environ.get(ENV_BACKEND) or None
    if backend is None:
        return "numpy" if has_numpy() else "python"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown array backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "numpy":
        get_numpy()  # raises loudly when unavailable
    return backend
