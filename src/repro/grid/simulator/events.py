"""Discrete-event simulation kernel.

A minimal, deterministic event queue: events fire in (time, sequence)
order, callbacks may schedule or cancel further events.  Ties break on
insertion order so two runs with the same seeds replay identically —
the property every reproducibility test of the simulator leans on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["EventHandle", "SimClock"]


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float):
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimClock:
    """The virtual clock and its pending-event heap."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle, Callable, tuple]] = []
        self._seq = itertools.count()
        self._fired = 0

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle(self.now + delay)
        heapq.heappush(
            self._heap, (handle.time, next(self._seq), handle, callback, args)
        )
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule at an absolute virtual time (>= now)."""
        return self.schedule(time - self.now, callback, *args)

    @property
    def events_fired(self) -> int:
        return self._fired

    def pending(self) -> int:
        return sum(1 for _, _, h, _, _ in self._heap if not h.cancelled)

    def step(self) -> bool:
        """Fire the next event; False when the queue is empty."""
        while self._heap:
            time, _, handle, callback, args = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = time
            self._fired += 1
            callback(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain events until the horizon / predicate / budget.

        ``until`` advances the clock to exactly that time when the
        queue drains or the next event lies beyond it.
        """
        heap = self._heap
        pop = heapq.heappop
        budget = None if max_events is None else self._fired + max_events
        while True:
            if stop_when is not None and stop_when():
                return
            if budget is not None and self._fired >= budget:
                raise SimulationError(
                    f"simulation exceeded {max_events} events — "
                    f"likely a livelock (e.g. duplication threshold 0 "
                    f"with dead workers holding intervals)"
                )
            while heap and heap[0][2].cancelled:
                pop(heap)
            if not heap:
                if until is not None:
                    self.now = max(self.now, until)
                return
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            self.now, _, _, callback, args = pop(heap)
            self._fired += 1
            callback(*args)
