"""Shared toy problems and utilities for the test suite."""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence, Tuple

from repro.core import Problem, TreeShape


class PermutationCostProblem(Problem):
    """Minimise ``sum_pos cost[pos][element]`` over permutations.

    The search tree is the permutation tree; a state is
    ``(placed_elements, cost_so_far, remaining_elements_sorted)``.
    Children place each remaining element, in ascending element order —
    the deterministic rank order the interval coding requires.

    The lower bound is admissible but deliberately weak (cost so far
    plus, for each open position, the cheapest remaining element),
    which keeps plenty of branching alive for engine tests.
    """

    def __init__(self, cost: Sequence[Sequence[float]]):
        self.cost = [list(row) for row in cost]
        self.n = len(self.cost)
        for row in self.cost:
            assert len(row) == self.n, "cost matrix must be square"

    def tree_shape(self) -> TreeShape:
        return TreeShape.permutation(self.n)

    def root_state(self):
        return ((), 0.0, tuple(range(self.n)))

    def branch(self, state, depth: int):
        placed, cost_so_far, remaining = state
        children = []
        for idx, element in enumerate(remaining):
            children.append(
                (
                    placed + (element,),
                    cost_so_far + self.cost[depth][element],
                    remaining[:idx] + remaining[idx + 1 :],
                )
            )
        return children

    def lower_bound(self, state, depth: int) -> float:
        placed, cost_so_far, remaining = state
        bound = cost_so_far
        for pos in range(depth, self.n):
            bound += min(self.cost[pos][e] for e in remaining)
        return bound

    def leaf_cost(self, state) -> float:
        return state[1]

    def leaf_solution(self, state):
        return state[0]

    def brute_force(self) -> Tuple[float, Tuple[int, ...]]:
        best = (math.inf, ())
        for perm in itertools.permutations(range(self.n)):
            total = sum(self.cost[pos][e] for pos, e in enumerate(perm))
            if total < best[0]:
                best = (total, perm)
        return best


class CountingLeafProblem(Problem):
    """Leaf cost == leaf number, over an arbitrary regular tree.

    Makes exploration order and coverage directly observable: the
    minimum over interval ``[A, B)`` is exactly ``A``, and the visited
    set is checkable against the interval.  The bound is ``-inf`` so no
    pruning ever hides a leaf (pass ``pruning=True`` for the exact,
    aggressively-pruning variant).
    """

    def __init__(self, shape: TreeShape, pruning: bool = False):
        self._shape = shape
        self._pruning = pruning
        self.visited_leaves: list = []

    def tree_shape(self) -> TreeShape:
        return self._shape

    def root_state(self):
        return 0  # state = node number of the leftmost leaf below

    def branch(self, state, depth: int):
        w = self._shape.weights()[depth + 1]
        return [state + r * w for r in range(self._shape.branching[depth])]

    def lower_bound(self, state, depth: int) -> float:
        return float(state) if self._pruning else -math.inf

    def leaf_cost(self, state) -> float:
        self.visited_leaves.append(state)
        return float(state)

    def leaf_solution(self, state):
        return state


def toy_cost_matrix(n: int, seed: int = 0) -> list:
    """Deterministic pseudo-random integer cost matrix."""
    values = []
    x = seed * 2654435761 % (2**32) or 1
    for pos in range(n):
        row = []
        for elem in range(n):
            x = (1103515245 * x + 12345) % (2**31)
            row.append(1 + x % 97)
        values.append(row)
    return values


class Leaves:
    """A job of ``n`` leaves and no warm start: all the service core
    asks of a caller-built problem (``total_leaves``, ``warm_start``)."""

    def __init__(self, n: int):
        self.n = n

    def total_leaves(self) -> int:
        return self.n

    def warm_start(self, interval=None):
        return None


def one_job_core(length: int = 1000, **config):
    """A :class:`ServiceCore` holding one job over ``[0, length)`` under
    the single-job id ``""``, as the simulator admits its workload."""
    from repro.grid.service.core import ServiceConfig, ServiceCore

    config.setdefault("lease_seconds", None)
    core = ServiceCore(ServiceConfig(drain_when_idle=True, **config))
    core.admit({}, problem=Leaves(length), job_id="")
    return core


def exchange(core, message, now: float = 0.0):
    """``core.handle(message, now)`` split into the reply (``None``: no
    reply) and the ``(peer, Notice)`` pairs sent before it."""
    from repro.grid.runtime.protocol import Notice

    outbox = core.handle(message, now)
    notices = [(peer, sent) for peer, sent in outbox if isinstance(sent, Notice)]
    replies = [sent for peer, sent in outbox if not isinstance(sent, Notice)]
    return (replies[-1] if replies else None), notices


def pump(listener, until, timeout: float = 5.0) -> list:
    """Run a :class:`~repro.grid.net.tcp.TcpListener`'s loop on this
    thread until ``until()`` holds or ``timeout`` passes; returns the
    protocol messages it delivered meanwhile."""
    from repro.grid.net.transport import TransportTimeout

    delivered = []
    deadline = time.monotonic() + timeout
    while not until() and time.monotonic() < deadline:
        try:
            delivered.append(listener.recv(timeout=0.01))
        except TransportTimeout:
            pass
    return delivered


def pump_while(listener, step, timeout: float = 5.0):
    """Run the blocking client call ``step`` on a helper thread while
    this thread runs ``listener``'s loop (the listener answers only
    inside its own calls); returns ``(step's result, what the listener
    delivered)`` and re-raises what ``step`` raised."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        future = pool.submit(step)
        delivered = pump(listener, future.done, timeout)
        return future.result(timeout=0), delivered


def journalled_jobs(checkpoint_dir: Path) -> set:
    """Jobs whose log holds a snapshot and a reconciliation after it.

    A read-only peek at a live service's ``service.log``: it skips an
    incomplete last line rather than cutting it, as opening a store
    would under the writer.
    """
    try:
        lines = (Path(checkpoint_dir) / "service.log").read_bytes().split(b"\n")[:-1]
    except FileNotFoundError:
        return set()
    snapshotted, journalled = set(), set()
    for line in lines:
        doc = json.loads(line[9:])
        if doc["kind"] == "snapshot":
            snapshotted.add(doc["job"])
        elif doc["kind"] == "explored" and doc["job"] in snapshotted:
            journalled.add(doc["job"])
    return journalled
