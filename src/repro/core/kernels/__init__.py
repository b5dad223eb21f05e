"""Pluggable pool bound-kernel backends (PR 7).

The engine's pool-evaluation loop collects decomposition-pending
frontier nodes and bounds *all* their children in one backend call.
This package is the seam between that loop and the arithmetic:

* :class:`BoundKernel` / :data:`PoolEvaluator` — the backend contract
  (:mod:`~repro.core.kernels.base`);
* :func:`get_backend` — ``"numpy"`` (always available, the default)
  and ``"numba"`` (JIT loop kernels, optional dep, graceful fallback);
* :func:`register_pool_factory` — how problem packages plug their
  pooled kernels in per backend, without the core importing them.

::

    from repro.core.kernels import get_backend
    evaluator = get_backend("numpy").evaluator_for(problem)
    rows = evaluator(states, depth)   # one row of child bounds each

Every backend must agree with the scalar oracle
(``Problem.lower_bound``) as :mod:`~repro.core.kernels.base` states —
bit-identical wherever a bound can matter, admissible everywhere —
asserted by tests/test_kernel_backends.py.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.kernels.base import BoundKernel, PoolEvaluator
from repro.core.kernels.registry import (
    available_backends,
    backend_names,
    get_backend,
    pool_factory_for,
    register_backend,
    register_pool_factory,
)

__all__ = [
    "BoundKernel",
    "KERNEL_BACKEND_CHOICES",
    "PoolEvaluator",
    "available_backends",
    "backend_names",
    "get_backend",
    "pool_evaluator_for",
    "pool_factory_for",
    "register_backend",
    "register_pool_factory",
]

# The names the CLI / RuntimeConfig accept, beyond "auto" and "off".
KERNEL_BACKEND_CHOICES: Tuple[str, ...] = ("numpy", "numba")


def pool_evaluator_for(
    problem: Any, backend: Optional[str] = None
) -> Optional[PoolEvaluator]:
    """Resolve the pool evaluator the engine should use for ``problem``.

    ``backend=None`` (auto, the default) pools with the numpy backend
    *iff* the problem registered a pooled kernel factory — problems
    without one keep their exact pre-pool behaviour rather than paying
    for speculative per-parent loops.  ``backend="off"`` disables
    pooling explicitly; any other name resolves via
    :func:`get_backend` (unknown names raise ``EngineError``).
    """
    if backend == "off":
        return None
    if backend is None:
        factory = pool_factory_for("numpy", type(problem))
        if factory is None:
            return None
        return factory(problem)
    return get_backend(backend).evaluator_for(problem)
