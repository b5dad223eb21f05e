"""Multi-tenant solve service: many B&B jobs over one worker fleet.

The paper's farmer–worker design (§4) dedicates the whole grid to a
single resolution.  This package is the front door that lifts that
restriction: a job queue (:mod:`store`), a slice scheduler
(:mod:`scheduler`), a sans-IO core multiplexing per-job coordinators
(:mod:`core`, which the simulator drives too), the TCP pump around it
(:mod:`server`), and an async client (:mod:`client`).  Interval coding
(§3, eq. 7–9) makes the sharding natural — a job is exactly one
INTERVALS/SOLUTION pair, so the service is N independent farmers
behind one socket and one fleet.

Submodules are imported lazily by the CLI; importing the package does
not pull the server (and its transport thread machinery) in.
"""

from repro.grid.service.scheduler import Scheduler, SchedulerConfig
from repro.grid.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL,
    JobRecord,
    JobStore,
)

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "TERMINAL",
    "JobRecord",
    "JobStore",
    "Scheduler",
    "SchedulerConfig",
]
