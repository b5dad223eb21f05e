"""Pool bound kernels: one tier, numpy, found by problem type.

The engine's exploration loop pops a *wave* of same-depth parents and
bounds all their children in one call to the problem's
:data:`PoolEvaluator`.  Problem packages register the factory that
builds it at import time (:mod:`repro.problems.flowshop.pool`,
:mod:`repro.problems.tsp.pool`), so the core never imports problem
code::

    from repro.core.kernels import pool_evaluator_for
    evaluator = pool_evaluator_for(problem)   # None: nothing registered
    rows = evaluator(states, depth)           # one row of child bounds each

Lookup walks the problem type's MRO, so a subclass inherits its base's
kernels unless it registers its own (the benchmark suite's tracer
registers a timing wrapper that way).  A problem with no factory, or
one whose factory returns ``None``, is not pooled: the engine keeps
waves one parent wide on :meth:`Problem.bound_children` /
:meth:`Problem.lower_bound`.

**Contract.**  ``evaluator(states, depth)`` bounds the children of every
parent in ``states`` (all at ``depth``) and returns one row of child
bounds per parent, in rank order — or ``None`` for a row, or for the
whole pool, to decline (the engine then calls ``bound_children`` for
those parents).  Every value must be admissible; it must be the exact
:meth:`Problem.lower_bound` value wherever it is below
:attr:`Problem.prune_at` (the incumbent cost the engine wrote just
before the call) and for every child of a parent with such a child; a
child at or above ``prune_at`` may report any admissible value
``>= prune_at``.  tests/test_kernel_backends.py checks the evaluators
against the scalar bounds, tests/test_engine_conformance.py the engine
built on them.

There is one kernel tier, :data:`TIER`.  The registry functions take
its name as their first argument (callers outside the package, such as
the benchmark suite's tracer, pass ``"numpy"``) and refuse any other,
so a factory filed under a tier that does not exist fails loudly
instead of never being called.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Type

from repro.exceptions import EngineError

__all__ = [
    "TIER",
    "PoolEvaluator",
    "pool_evaluator_for",
    "pool_factory_for",
    "register_pool_factory",
]

TIER = "numpy"

PoolEvaluator = Callable[[Sequence[Any], int], Optional[Sequence[Any]]]
PoolFactory = Callable[[Any], Optional[PoolEvaluator]]

_FACTORIES: Dict[type, PoolFactory] = {}


def _check_tier(tier: str) -> None:
    if tier != TIER:
        raise EngineError(
            f"unknown kernel tier {tier!r}; the only tier is {TIER!r}"
        )


def register_pool_factory(
    tier: str, problem_type: Type[Any], factory: PoolFactory
) -> None:
    """Register (or replace) ``factory`` as the evaluator source for
    ``problem_type`` and, via MRO lookup, its subclasses."""
    _check_tier(tier)
    _FACTORIES[problem_type] = factory


def pool_factory_for(tier: str, problem_type: Type[Any]) -> Optional[PoolFactory]:
    """The most specific factory registered for ``problem_type``."""
    _check_tier(tier)
    for klass in problem_type.__mro__:
        factory = _FACTORIES.get(klass)
        if factory is not None:
            return factory
    return None


def pool_evaluator_for(problem: Any) -> Optional[PoolEvaluator]:
    """The pool evaluator the engine uses for ``problem``, if any."""
    factory = pool_factory_for(TIER, type(problem))
    return None if factory is None else factory(problem)
