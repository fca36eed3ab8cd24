"""Pluggable kernel backends for the scheduling-game hot paths.

Backends register themselves in a process-wide registry; the solver
layers resolve one through :func:`get_backend`.  Resolution order for
the default (``None`` or ``"auto"``):

1. the ``REPRO_BACKEND`` environment variable, when set;
2. the ``fused`` numpy variant.

Every registered backend is bitwise-identical to ``reference`` on
pipeline inputs (see :mod:`repro.kernels.base`), so backend choice never
changes results — only wall-clock time.  ``battery_costs`` takes a cost
model's buy rates, signed sell rates and export cap, so every tariff is
priced by the active backend.  Registering a new backend:

    from repro.kernels import register_backend
    register_backend(MyBackend())

after which it is selectable by name everywhere (``--backend``,
``REPRO_BACKEND``, :class:`repro.core.config.SolverConfig`) and is
automatically picked up by the equivalence test suite.
"""

from __future__ import annotations

import os

from repro.kernels.base import KernelBackend
from repro.kernels.fused import FusedBackend
from repro.kernels.reference import ReferenceBackend

__all__ = [
    "KernelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

ENV_VAR = "REPRO_BACKEND"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> None:
    """Add (or replace) a backend in the process-wide registry."""
    _REGISTRY[backend.name] = backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, registration-ordered."""
    return tuple(_REGISTRY)


def get_backend(name: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend by name.

    ``None`` and ``"auto"`` defer to ``REPRO_BACKEND`` and then to
    ``fused``; an already-constructed backend passes through, so call
    sites can accept either form.
    """
    if name is not None and not isinstance(name, str):
        return name
    if name is None or name == "auto":
        env = os.environ.get(ENV_VAR)
        if env and env != "auto":
            name = env
        else:
            return _REGISTRY["fused"]
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {sorted(_REGISTRY)}"
        )
    return backend


register_backend(ReferenceBackend())
register_backend(FusedBackend())
