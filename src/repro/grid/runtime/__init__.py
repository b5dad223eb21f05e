"""Real parallel farmer–worker runtime on local processes.

The same protocol as the simulator — pull-model workers, interval
updates through the intersection operator, logged checkpoints, plus
one advisory coordinator notice on the worker-opened connection — but
executed by genuine OS processes exchanging framed messages over TCP
(:mod:`repro.grid.net`).  There is one farmer pump,
:class:`~repro.grid.service.server.SolveService`: ``solve_parallel``
admits its one job to it and forks the workers, which connect to its
loopback TCP listener; for runs that span machines,
``repro grid serve`` runs the same one-job service and
``repro grid worker --connect`` dials in.  This is the deployment a user runs
to exactly solve an instance in parallel (the paper's grid collapsed
to a single host's cores, or spread over real sockets).

Public surface::

    from repro.grid.runtime import (
        RuntimeConfig, ParallelResult,
        solve_parallel, Coordinator, flowshop_spec,
    )
"""

from repro.grid.runtime.bbprocess import AdaptiveSlicer
from repro.grid.runtime.coordinator import Coordinator
from repro.grid.runtime.faults import (
    ChannelFaults,
    CoordinatorCrash,
    FaultPlan,
    WorkerHang,
)
from repro.grid.runtime.launcher import (
    ParallelResult,
    RuntimeConfig,
    solve_parallel,
)
from repro.grid.runtime.protocol import flowshop_spec, tsp_spec
from repro.grid.runtime.supervisor import (
    FleetReport,
    RespawnPolicy,
    SlotStatus,
    WorkerSupervisor,
)

__all__ = [
    "AdaptiveSlicer",
    "ChannelFaults",
    "Coordinator",
    "CoordinatorCrash",
    "FaultPlan",
    "FleetReport",
    "ParallelResult",
    "RespawnPolicy",
    "RuntimeConfig",
    "SlotStatus",
    "WorkerHang",
    "WorkerSupervisor",
    "flowshop_spec",
    "solve_parallel",
    "tsp_spec",
]
