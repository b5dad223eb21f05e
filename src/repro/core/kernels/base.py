"""Backend interface for pool bound kernels.

The engine's pool-evaluation loop (PR 7) hands *whole frontier pools*
— many same-depth parent states — to one backend call, amortising the
per-call overhead that sibling-sized batches (PR 2) still pay per
node.  This module defines the two contracts that make the backends
pluggable:

* :data:`PoolEvaluator` — the per-problem callable a backend resolves:
  ``evaluator(states, depth)`` bounds the children of every parent in
  ``states`` (all at the same ``depth``) and returns one row of child
  bounds per parent, in rank order.  Every value must be an
  admissible bound; it must be the exact :meth:`Problem.lower_bound`
  value wherever it is below :attr:`Problem.prune_at` (the incumbent
  cost the engine wrote just before the call; ``inf`` unless someone
  did) and for every child of a parent with such a child; a child at
  or above ``prune_at`` may report any admissible value
  ``>= prune_at``.  The engine's accounting equivalence rests on the
  exact part, and the property suite
  (``tests/test_kernel_backends.py``) enforces both per backend.
* :class:`BoundKernel` — a named backend (``numpy`` / ``numba``)
  that resolves a :data:`PoolEvaluator` for a concrete problem
  instance, typically via the factories problem packages
  register with :mod:`repro.core.kernels.registry`.

Optional-dependency backends must *never* import their accelerator at
module level (rule RC09): availability is probed lazily and a missing
dependency degrades to the numpy backend with a one-time warning, so
``--kernel-backend numba`` on a machine without numba still solves —
just slower.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, ClassVar, Optional, Sequence

__all__ = ["BoundKernel", "PoolEvaluator"]

# ``evaluator(states, depth) -> rows | None``: one row of child bounds
# (any sequence or ndarray, rank order) per parent state, or ``None``
# per row / for the whole pool to decline — the engine then falls back
# to the per-parent ``Problem.bound_children`` path for those parents.
PoolEvaluator = Callable[[Sequence[Any], int], Optional[Sequence[Any]]]


class BoundKernel(ABC):
    """One pool-evaluation backend, identified by :attr:`name`.

    Backends are stateless singletons held by the registry; all
    per-problem state lives in the evaluator they resolve.
    """

    name: ClassVar[str] = "abstract"

    def available(self) -> bool:
        """Whether the backend's dependencies are importable here."""
        return True

    def unavailable_reason(self) -> Optional[str]:
        """Human-readable reason when :meth:`available` is ``False``."""
        return None

    @abstractmethod
    def evaluator_for(self, problem: Any) -> Optional[PoolEvaluator]:
        """Resolve the pool evaluator for ``problem``.

        Returns ``None`` when the problem offers nothing poolable (no
        registered factory and no ``bound_children`` override); the
        engine then runs the plain batched path.  Unavailable optional
        backends fall back to the numpy backend's evaluator instead of
        raising, warning once per process.
        """
