"""Wire protocol of the multiprocessing runtime.

Messages are small picklable dataclasses; intervals travel as
``(begin, end)`` integer pairs — the paper's two-number work units.
Problems cross the process boundary as a :class:`ProblemSpec` (a
module-level factory plus arguments) so workers rebuild their own
problem object instead of pickling caches and NumPy views.

Every message carries an explicit ``version`` field — the message's
wire-format version, serialized by the network transports
(:mod:`repro.grid.net.framing`).  Renaming or retyping a field within
a version is forbidden; additions must bump it.  Decoders refuse
versions from the future, so a mixed fleet fails loudly at the frame
boundary instead of silently misreading fields.  The contract is
machine-enforced: ``tests/test_net_framing.py`` diffs every registered
dataclass against the golden schemas in
``repro/tools/check/schemas/wire.json`` and fails when a field changes
without a version bump; after bumping, refresh the golden with
``repro check --update-schemas``.

:func:`spec_to_wire` / :func:`spec_from_wire` translate a
:class:`ProblemSpec` to and from a JSON-able form (the factory as a
``module:qualname`` reference) so a coordinator can hand the problem
definition to standalone workers over the network, not just over fork.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # import-free at runtime: keep the wire module light
    from repro.problems.flowshop import FlowShopInstance
    from repro.problems.tsp import TSPInstance

from repro.core.problem import Problem

__all__ = [
    "PROTOCOL_VERSION",
    "ProblemSpec",
    "flowshop_spec",
    "tsp_spec",
    "spec_to_wire",
    "spec_from_wire",
    "Request",
    "Update",
    "Push",
    "Bye",
    "GrantWork",
    "Reconciled",
    "Ack",
    "Terminate",
    "Notice",
    "Idle",
    "SubmitJob",
    "JobAccepted",
    "JobRefused",
    "JobStatusRequest",
    "JobStatus",
    "CancelJob",
    "ListJobs",
    "JobList",
]

#: Wire-format version stamped on every message.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for building the same Problem in every process."""

    factory: Callable[..., Problem]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Problem:
        return self.factory(*self.args, **dict(self.kwargs))


def _build_flowshop(
    processing_times: List[List[int]],
    name: str,
    bound: str,
    pair_strategy: str,
) -> Problem:
    from repro.problems.flowshop import FlowShopInstance, FlowShopProblem

    return FlowShopProblem(
        FlowShopInstance(processing_times, name=name),
        bound=bound,
        pair_strategy=pair_strategy,
    )


def flowshop_spec(
    instance: "FlowShopInstance",
    bound: str = "combined",
    pair_strategy: str = "adjacent+ends",
) -> ProblemSpec:
    """Spec for a :class:`~repro.problems.flowshop.FlowShopInstance`."""
    return ProblemSpec(
        _build_flowshop,
        (
            instance.processing_times.tolist(),
            instance.name,
            bound,
            pair_strategy,
        ),
    )


def _build_tsp(distances: List[List[int]], name: str) -> Problem:
    from repro.problems.tsp import TSPInstance, TSPProblem

    return TSPProblem(TSPInstance(distances, name=name))


def tsp_spec(instance: "TSPInstance") -> ProblemSpec:
    """Spec for a :class:`~repro.problems.tsp.TSPInstance`."""
    return ProblemSpec(_build_tsp, (instance.distances.tolist(), instance.name))


def spec_to_wire(spec: ProblemSpec) -> Dict[str, Any]:
    """JSON-able form of ``spec``: the factory as ``module:qualname``.

    Only module-level factories with JSON-able arguments survive the
    trip — which is exactly what :func:`flowshop_spec` and
    :func:`tsp_spec` construct.
    """
    factory = spec.factory
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", "")
    if not module or "." in qualname or "<" in qualname:
        raise ValueError(
            f"spec factory {factory!r} is not a module-level callable; "
            f"it cannot be named on the wire"
        )
    return {
        "factory": f"{module}:{qualname}",
        "args": list(spec.args),
        "kwargs": dict(spec.kwargs),
    }


def spec_from_wire(wire: Dict[str, Any]) -> ProblemSpec:
    """Rebuild the :class:`ProblemSpec` named by :func:`spec_to_wire`."""
    ref = wire.get("factory")
    if not isinstance(ref, str) or ":" not in ref:
        raise ValueError(f"bad factory reference {ref!r}")
    module_name, _, qualname = ref.partition(":")
    module = importlib.import_module(module_name)
    factory = getattr(module, qualname, None)
    if not callable(factory):
        raise ValueError(f"{ref} does not name a callable")
    return ProblemSpec(
        factory,
        tuple(wire.get("args", ())),
        dict(wire.get("kwargs", {})),
    )


# ----------------------------------------------------------------------
# worker -> coordinator
# ----------------------------------------------------------------------
# ``seq`` is a per-worker monotonic sequence number (0 = unsequenced,
# sent by the simulator's ``SimWorker``, whose virtual network neither
# drops nor duplicates).  A worker reuses the same seq when it *retries*
# an RPC whose reply timed out, so the coordinator can tell a retry or
# a channel-duplicated message from new traffic and answer it
# idempotently from its reply cache.
#
# ``job`` on ``Update`` / ``Push`` (and on ``GrantWork`` below) names
# the job the slice belongs to: the solve service multiplexes many jobs
# over one fleet and routes each message to that job's ledger; a
# single-job run leaves it "".  Job ids are *opaque strings* (rule
# RC11): equality only, never arithmetic or ordering.  The coordinator
# never reads it.


@dataclass
class Request:
    worker: str
    power: float = 1.0
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class Update:
    worker: str
    interval: Tuple[int, int]
    nodes: int  # nodes explored since the previous update
    consumed: int
    seq: int = 0
    job: str = ""
    version: int = 3


@dataclass
class Push:
    worker: str
    cost: float
    solution: Any
    seq: int = 0
    job: str = ""
    version: int = 3


@dataclass
class Bye:
    """Graceful exit after a terminate reply; carries final stats.

    Acknowledged with an :class:`Ack` and routed through the worker's
    RPC retry helper (best effort): a dropped Bye under a lossy channel
    is re-sent with the same seq instead of stalling the run until the
    process sentinel notices the exit.  ``seq == 0`` is the farewell of
    a worker whose retry budget ran out: sent once, no reply awaited.

    ``stats`` carries integer counters plus the measured
    ``explore_seconds`` / ``rpc_wait_seconds`` breakdown.
    """

    worker: str
    stats: Dict[str, float]
    seq: int = 0
    version: int = PROTOCOL_VERSION


# ----------------------------------------------------------------------
# coordinator -> worker
# ----------------------------------------------------------------------
# Replies echo the request's ``seq`` so a worker draining its reply
# queue can discard stale replies (late duplicates of RPCs it already
# gave up on) instead of mistaking them for the current answer.


@dataclass
class GrantWork:
    """A work slice, ``[begin, end)`` of the job named by ``job``.

    ``spec`` is that job's problem recipe in wire form
    (:func:`spec_to_wire`), repeated on every grant of the solve service
    so the exchange stays stateless: a worker that has never seen the
    job (or that restarted since) rebuilds the problem without a second
    round trip.  ``None`` on a single-job run, whose workers were given
    the problem up front.
    """

    interval: Tuple[int, int]
    best_cost: float
    seq: int = 0
    job: str = ""
    spec: Optional[Dict[str, Any]] = None
    version: int = 3


@dataclass
class Reconciled:
    interval: Tuple[int, int]
    best_cost: float
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class Ack:
    best_cost: float
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class Terminate:
    best_cost: float
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class Notice:
    """The one message the coordinator sends unasked — never a reply.

    Sent on the connection the worker opened itself: with ``cut`` when
    the coordinator shrank or dropped this worker's copy for a reason
    the worker did not report (its interval was split for a requester,
    a duplicate twin finished it), without when another worker's Push
    lowered ``SOLUTION``.  ``best_cost`` is read off ``SOLUTION`` after
    that Push was handled, so it is never a cost whose solution the
    coordinator lacks.  ``job`` is the service's job id ("" on a
    single-job run); a notice for a job the worker is not exploring is
    ignored.

    Purely advisory: it carries no interval and changes none.  A cut
    notice only makes the worker send its next Update now and collect
    the ``Reconciled`` before exploring on, so the cut itself still
    arrives through eq. 14.  Lost, duplicated, reordered or stale, a
    notice costs redundant work or one early Update, never an answer.
    It has no ``seq``: the RPC layer tells it from a reply by its type.
    """

    best_cost: float
    cut: bool
    job: str = ""
    version: int = PROTOCOL_VERSION


@dataclass
class Idle:
    """Reply to a Request when no job currently has work to hand out.

    Unlike :class:`Terminate` this does not end the worker: the fleet
    outlives any single job, so the worker asks again at once.  The
    service *parks* a Request it cannot grant and answers it the moment
    a job has work; Idle is the keep-alive of a long-parked Request.
    """

    seq: int = 0
    version: int = 3


# ----------------------------------------------------------------------
# multi-tenant service: client traffic
# ----------------------------------------------------------------------
# Clients speak the same framed transport as workers (Hello/Welcome,
# then sequenced RPCs).  ``worker`` on a client request is the sender's
# connection id — the field keeps its transport name so the service
# routes replies through the same ``send(message.worker, reply)`` path
# used for workers.


@dataclass
class SubmitJob:
    worker: str
    spec: Dict[str, Any]
    priority: int = 1
    owner: str = "anonymous"
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class JobAccepted:
    job: str
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class JobRefused:
    """Admission control said no (queue full, per-owner cap, bad spec)."""

    reason: str
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class JobStatusRequest:
    """Ask for one job's :class:`JobStatus`.

    ``wait`` > 0 (wire v2) lets the service hold the reply back while
    the job is unsettled — at most ``wait`` seconds or its keep-alive,
    whichever is shorter.  0 answers at once.
    """

    worker: str
    job: str
    wait: float = 0.0
    seq: int = 0
    version: int = 2


@dataclass
class JobStatus:
    """Snapshot of one job's ledger.

    ``status`` ∈ {queued, running, done, cancelled, failed, unknown};
    ``solution`` is only populated once the job is done (it can be
    large), and ``error`` only when it failed.
    """

    job: str
    status: str
    best_cost: float = float("inf")
    solution: Any = None
    owner: str = ""
    priority: int = 1
    nodes: int = 0
    error: str = ""
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class CancelJob:
    worker: str
    job: str
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class ListJobs:
    worker: str
    owner: str = ""
    seq: int = 0
    version: int = PROTOCOL_VERSION


@dataclass
class JobList:
    """Summaries (dicts mirroring :class:`JobStatus` sans solution)."""

    jobs: List[Dict[str, Any]] = field(default_factory=list)
    seq: int = 0
    version: int = PROTOCOL_VERSION
