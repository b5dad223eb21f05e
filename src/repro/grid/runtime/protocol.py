"""Wire protocol of the multiprocessing runtime.

Messages are small picklable dataclasses; intervals travel as
``(begin, end)`` integer pairs — the paper's two-number work units.
Problems cross the process boundary as a *spec*, a JSON-able
``{"problem": name, "args": [...]}`` naming one entry of the closed
:data:`PROBLEMS` table, so workers rebuild their own problem object
instead of receiving caches and NumPy views.

No message carries a version of its own: the wire has one,
:data:`~repro.grid.net.framing.WIRE_VERSION`, which both ends check
once per connection in the Hello / Welcome handshake, so no frame
from a peer of another version is ever handled.  Adding, renaming,
retyping or removing a field of any message therefore bumps
``WIRE_VERSION``.  The contract is machine-enforced:
``tests/test_net_framing.py`` diffs every registered dataclass against
the golden ``repro/tools/check/schemas/wire.json`` and fails when a
field changes without a bump; after bumping, refresh the golden with
``repro check --update-schemas``.

:func:`flowshop_spec` and :func:`tsp_spec` build specs;
:func:`build_problem` is the one place a spec turns into a problem —
on the service at admission, and on a worker at a job's first grant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # import-free at runtime: keep the wire module light
    from repro.problems.flowshop import FlowShopInstance
    from repro.problems.tsp import TSPInstance

from repro.core.problem import Problem

__all__ = [
    "PROBLEMS",
    "build_problem",
    "flowshop_spec",
    "tsp_spec",
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


def _build_tsp(distances: List[List[int]], name: str) -> Problem:
    from repro.problems.tsp import TSPInstance, TSPProblem

    return TSPProblem(TSPInstance(distances, name=name))


#: The only problems a spec can name, and the builder of each.  Closed
#: on purpose: a spec comes from a tenant, so what it may run is this
#: table and nothing it could name itself.
PROBLEMS: Dict[str, Callable[..., Problem]] = {
    "flowshop": _build_flowshop,
    "tsp": _build_tsp,
}


def flowshop_spec(
    instance: "FlowShopInstance",
    bound: str = "combined",
    pair_strategy: str = "adjacent+ends",
) -> Dict[str, Any]:
    """Spec for a :class:`~repro.problems.flowshop.FlowShopInstance`."""
    return {
        "problem": "flowshop",
        "args": [
            instance.processing_times.tolist(),
            instance.name,
            bound,
            pair_strategy,
        ],
    }


def tsp_spec(instance: "TSPInstance") -> Dict[str, Any]:
    """Spec for a :class:`~repro.problems.tsp.TSPInstance`."""
    return {"problem": "tsp", "args": [instance.distances.tolist(), instance.name]}


def build_problem(spec: Any) -> Problem:
    """The problem ``spec`` names, built from its arguments.

    Raises :class:`ValueError` before anything is called unless
    ``spec`` is exactly ``{"problem": name, "args": [...]}`` with
    ``name`` a key of :data:`PROBLEMS`.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a spec is a dict, not {type(spec).__name__}")
    name = spec.get("problem")
    builder = PROBLEMS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ValueError(f"unknown problem {name!r} (known: {', '.join(PROBLEMS)})")
    if set(spec) != {"problem", "args"} or not isinstance(spec["args"], list):
        raise ValueError(f"a spec is {{'problem': name, 'args': [...]}}, not {spec!r:.200}")
    return builder(*spec["args"])


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


@dataclass
class Update:
    worker: str
    interval: Tuple[int, int]
    nodes: int  # nodes explored since the previous update
    consumed: int
    seq: int = 0
    job: str = ""


@dataclass
class Push:
    worker: str
    cost: float
    solution: Any
    seq: int = 0
    job: str = ""


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


# ----------------------------------------------------------------------
# coordinator -> worker
# ----------------------------------------------------------------------
# Replies echo the request's ``seq`` so a worker draining its reply
# queue can discard stale replies (late duplicates of RPCs it already
# gave up on) instead of mistaking them for the current answer.


@dataclass
class GrantWork:
    """A work slice, ``[begin, end)`` of the job named by ``job``.

    ``spec`` is that job's problem spec (:func:`flowshop_spec`,
    :func:`tsp_spec`), repeated on every grant of the solve service
    so the exchange stays stateless: a worker that has never seen the
    job (or that restarted since) rebuilds the problem without a second
    round trip.  ``None`` for a job admitted with a caller-built
    problem (the simulator's), whose units need none.
    """

    interval: Tuple[int, int]
    best_cost: float
    seq: int = 0
    job: str = ""
    spec: Optional[Dict[str, Any]] = None


@dataclass
class Reconciled:
    interval: Tuple[int, int]
    best_cost: float
    seq: int = 0


@dataclass
class Ack:
    best_cost: float
    seq: int = 0


@dataclass
class Terminate:
    best_cost: float
    seq: int = 0


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


@dataclass
class Idle:
    """Reply to a Request when no job currently has work to hand out.

    Unlike :class:`Terminate` this does not end the worker: the fleet
    outlives any single job, so the worker asks again at once.  The
    service *parks* a Request it cannot grant and answers it the moment
    a job has work; Idle is the keep-alive of a long-parked Request.
    """

    seq: int = 0


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
    """Enqueue a job; ``spec`` names its problem (:func:`build_problem`)."""

    worker: str
    spec: Dict[str, Any]
    priority: int = 1
    owner: str = "anonymous"
    seq: int = 0


@dataclass
class JobAccepted:
    job: str
    seq: int = 0


@dataclass
class JobRefused:
    """Admission control said no (queue full, per-owner cap, bad spec)."""

    reason: str
    seq: int = 0


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


@dataclass
class CancelJob:
    worker: str
    job: str
    seq: int = 0


@dataclass
class ListJobs:
    worker: str
    owner: str = ""
    seq: int = 0


@dataclass
class JobList:
    """Summaries (dicts mirroring :class:`JobStatus` sans solution)."""

    jobs: List[Dict[str, Any]] = field(default_factory=list)
    seq: int = 0
