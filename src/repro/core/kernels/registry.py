"""Backend and pool-factory registry.

Two registries, deliberately separate so the dependency arrows stay
acyclic:

* **backends** — name -> :class:`BoundKernel` singleton.  The two
  built-ins (``numpy``, ``numba``) register lazily on first lookup,
  so importing this module costs nothing.
* **pool factories** — ``(backend name, problem type) -> factory``.
  Problem packages register their pooled kernels here at import time
  (e.g. :mod:`repro.problems.flowshop.pool`); the core never imports
  problem code.  A factory receives the live problem instance and
  returns the :data:`PoolEvaluator` bound to it (or ``None`` to
  decline, e.g. when a JIT compile fails).

Lookup walks the problem type's MRO, so a subclass of a registered
problem inherits its pooled kernels unless it registers its own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core.kernels.base import BoundKernel, PoolEvaluator
from repro.exceptions import EngineError

__all__ = [
    "available_backends",
    "backend_names",
    "get_backend",
    "pool_factory_for",
    "register_backend",
    "register_pool_factory",
]

PoolFactory = Callable[[Any], Optional[PoolEvaluator]]

_BACKENDS: Dict[str, BoundKernel] = {}
_POOL_FACTORIES: Dict[Tuple[str, type], PoolFactory] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Register the built-in backends on first registry use.

    Imported here (not at module top) so ``registry`` <-> backend
    modules do not form an import cycle: backends import the registry,
    the registry only touches them from inside this function.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.core.kernels import numba_backend, numpy_backend

    register_backend(numpy_backend.NumpyKernel())
    register_backend(numba_backend.NumbaKernel())


def register_backend(backend: BoundKernel) -> BoundKernel:
    """Register (or replace) a backend under ``backend.name``."""
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> BoundKernel:
    """The backend registered under ``name`` (raises on unknown)."""
    _ensure_builtins()
    backend = _BACKENDS.get(name)
    if backend is None:
        known = ", ".join(sorted(_BACKENDS))
        raise EngineError(
            f"unknown kernel backend {name!r}; registered backends: {known}"
        )
    return backend


def backend_names() -> List[str]:
    """All registered backend names (available or not), sorted."""
    _ensure_builtins()
    return sorted(_BACKENDS)


def available_backends() -> List[str]:
    """Names of the backends whose dependencies import here, sorted."""
    _ensure_builtins()
    return sorted(
        name for name, backend in _BACKENDS.items() if backend.available()
    )


def register_pool_factory(
    backend: str, problem_type: Type[Any], factory: PoolFactory
) -> None:
    """Register ``factory`` as ``backend``'s evaluator source for
    ``problem_type`` (and, via MRO lookup, its subclasses)."""
    _POOL_FACTORIES[(backend, problem_type)] = factory


def pool_factory_for(
    backend: str, problem_type: Type[Any]
) -> Optional[PoolFactory]:
    """The most specific factory for ``problem_type`` under ``backend``."""
    for klass in problem_type.__mro__:
        factory = _POOL_FACTORIES.get((backend, klass))
        if factory is not None:
            return factory
    return None
