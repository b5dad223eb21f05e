"""In-memory span recorder owned by the suite, wrapped *around* calls.

Spans inside the program are a later change; until then the suite
measures every layer from outside.  A span is ``(id, trace, parent,
name, start, end, count)``; spans of one solve / job / simulation share
a trace id.  Callbacks that fire tens of thousands of times per result
(``problem.branch`` ...) are not recorded call by call: the timing proxy
sums them and the workload files one aggregated child span per name
with ``count`` set, which keeps the traced pass within a few percent of
the untraced one and the trace file small.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.problems.flowshop import FlowShopProblem


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines.

    Parents are passed explicitly (no implicit stack), so concurrent
    asyncio tenants can record into one recorder.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def _new(
        self, name: str, trace: str, parent: Optional[Dict[str, Any]], start: float
    ) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "id": len(self.spans) + 1,
            "trace": trace,
            "parent": None if parent is None else parent["id"],
            "name": name,
            "start": start,
            "end": start,
            "count": 1,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(
        self, name: str, trace: str, parent: Optional[Dict[str, Any]] = None
    ) -> Iterator[Dict[str, Any]]:
        record = self._new(name, trace, parent, time.perf_counter())
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def aggregate(self, parent: Dict[str, Any], name: str, seconds: float, count: int) -> None:
        """File ``count`` calls totalling ``seconds`` as one child of ``parent``."""
        record = self._new(name, parent["trace"], parent, parent["start"])
        record["end"] = parent["start"] + seconds
        record["count"] = count

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus what their children cover."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids
        )
        return self.total(name) - children

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class CallClock:
    """Per-name call counts and seconds, reset between results."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.pool_rows: List[int] = []  # parents per pool-kernel call
        self.pool_bytes = 0  # computed, not measured: see evaluate() below

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.pool_rows.clear()
        self.pool_bytes = 0


class TimedFlowShopProblem(FlowShopProblem):
    """The real problem with a stopwatch on every engine-facing callback.

    A subclass (not a wrapper) so the kernel registry's MRO lookup still
    finds the flow-shop pool kernels and the engine takes exactly the
    path it takes untraced; :func:`time_pool_kernels` then puts the same
    stopwatch on the pool evaluator.
    """

    def __init__(self, *args: Any, clock: CallClock, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.clock = clock

    def branch(self, state: Any, depth: int) -> Any:
        start = time.perf_counter()
        out = super().branch(state, depth)
        self.clock.add("problem.branch", time.perf_counter() - start)
        return out

    def lower_bound(self, state: Any, depth: int) -> float:
        start = time.perf_counter()
        out = super().lower_bound(state, depth)
        self.clock.add("problem.bound", time.perf_counter() - start)
        return out

    def bound_children(self, state: Any, depth: int) -> Any:
        start = time.perf_counter()
        out = super().bound_children(state, depth)
        self.clock.add("problem.bound", time.perf_counter() - start)
        return out

    def leaf_cost(self, state: Any) -> float:
        start = time.perf_counter()
        out = super().leaf_cost(state)
        self.clock.add("problem.leaf", time.perf_counter() - start)
        return out

    def leaf_solution(self, state: Any) -> Any:
        start = time.perf_counter()
        out = super().leaf_solution(state)
        self.clock.add("problem.leaf", time.perf_counter() - start)
        return out


def time_pool_kernels() -> Optional[str]:
    """Time the pool evaluator of :class:`TimedFlowShopProblem` too.

    Returns ``None`` on success, else the reason kernel time could not
    be separated (it then stays inside ``engine.self_s``).
    """
    try:
        from repro.core.kernels import pool_factory_for, register_pool_factory

        inner_factory = pool_factory_for("numpy", FlowShopProblem)
        if inner_factory is None:
            return "no numpy pool factory registered for FlowShopProblem"

        def factory(problem: TimedFlowShopProblem) -> Any:
            inner = inner_factory(problem)
            if inner is None:
                return None
            clock = problem.clock
            jobs, machines = problem.instance.jobs, problem.instance.machines

            def evaluate(states: Sequence[Any], depth: int) -> Any:
                start = time.perf_counter()
                out = inner(states, depth)
                clock.add("kernels.evaluate", time.perf_counter() - start)
                clock.pool_rows.append(len(states))
                # per parent row the kernel gathers p_rem, reads tails and
                # writes child fronts: three (children x machines) int64 planes
                clock.pool_bytes += len(states) * (jobs - depth) * machines * 24
                return out

            return evaluate

        register_pool_factory("numpy", TimedFlowShopProblem, factory)
    except Exception as exc:  # noqa: BLE001 - a probe-style boundary: report, never fail
        return f"{type(exc).__name__}: {exc}"
    return None
