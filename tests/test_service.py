"""The multi-tenant solve service: store, scheduler, wire and e2e.

The tentpole claim of PR 9 is that N concurrent solves multiplexed
over one shared worker fleet are *exactly* the paper's farmer–worker
algorithm run N times: each job keeps its own INTERVALS/SOLUTION
ledger, workers stay dumb interval-explorers, and every job's proved
optimum is serial-identical under any scheduling policy.  These tests
pin that claim end to end on a loopback fleet, plus the unit surfaces
(admission control, fair share, the per-job durable store) and the
service wire messages.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import socket
import threading
import time
import weakref

import pytest

from repro.core import Incumbent, Interval, IntervalExplorer, IntervalSet, solve
from repro.core import checkpoint
from repro.core.checkpoint import MultiJobStore
from repro.grid.net.framing import (
    WIRE_VERSION,
    Hello,
    Welcome,
    decode_message,
    encode_frame,
)
from repro.grid.net.serve import run_worker
from repro.grid.net.tcp import TcpClientConnection
from repro.grid.net.transport import TransportError, TransportTimeout, WireVersionError
from repro.grid.runtime import flowshop_spec
from repro.grid.runtime.worker import _JOB_CACHE_SIZE, WorkerCore
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    CancelJob,
    GrantWork,
    Idle,
    JobAccepted,
    JobList,
    JobRefused,
    JobStatus,
    JobStatusRequest,
    ListJobs,
    Notice,
    PROBLEMS,
    Push,
    Reconciled,
    Request,
    SubmitJob,
    Terminate,
    Update,
    build_problem,
)
from repro.grid.service import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
    Scheduler,
    SchedulerConfig,
)
from repro.grid.service.core import KEEPALIVE_SECONDS, ServiceCore
from repro.grid.service.client import JobRefusedError, ServiceClient, SyncServiceClient
from repro.grid.service.server import ServiceConfig, SolveService
from repro.problems.flowshop import (
    FlowShopInstance,
    FlowShopProblem,
    makespan,
    random_instance,
)

# Both warm starts are optimal: from their bound a worker still
# explores 197 and 161 nodes to prove it, and Pushes nothing.
instance_a = random_instance(7, 3, seed=78)
instance_b = random_instance(6, 4, seed=72)
serial_a = solve(FlowShopProblem(instance_a))
serial_b = solve(FlowShopProblem(instance_b))
# A job whose warm start a worker beats, once, at its 18th node of 238:
# for the tests that script a Push.
instance_beaten = random_instance(7, 3, seed=88)
serial_beaten = solve(FlowShopProblem(instance_beaten))


# ----------------------------------------------------------------------
# MultiJobStore (the durable log underneath the job store)


def test_multi_job_store_isolates_jobs_and_survives_reopen(tmp_path):
    store = MultiJobStore(tmp_path)
    store.save_meta("job-a", {"status": "queued", "owner": "alice"})
    # An id is an opaque string, not a path: nothing escapes the log.
    store.save_meta("../b", {"status": "running", "owner": "bob"})
    store.job_store("job-a").journal_explored(Interval(0, 4))
    store.job_store("../b").save(IntervalSet.from_payload([(2, 9)], 0), Incumbent(7.0, (1, 0)))
    store.job_store("../b").journal_explored(Interval(2, 5))
    assert store.job_ids() == ["../b", "job-a"]

    reopened = MultiJobStore(tmp_path)
    assert reopened.load_meta("job-a")["owner"] == "alice"
    assert reopened.load_meta("../b")["status"] == "running"
    # Each job replays its own records only.
    a = reopened.job_store("job-a").load_state(Interval(0, 10))
    b = reopened.job_store("../b").load_state(Interval(0, 10))
    assert a.intervals.to_payload() == [(4, 10)] and a.incumbent is None
    assert b.intervals.to_payload() == [(5, 9)] and b.incumbent.cost == 7.0
    assert os.listdir(tmp_path) == ["service.log"]


def test_multi_job_store_epoch_bumps_across_reopen(tmp_path):
    store = MultiJobStore(tmp_path)
    assert store.bump_epoch() == 1
    assert MultiJobStore(tmp_path).bump_epoch() == 2
    assert MultiJobStore(tmp_path).read_epoch() == 2


# ----------------------------------------------------------------------
# JobStore


def test_job_store_assigns_opaque_ids_and_admission_order(tmp_path):
    jobs = JobStore(tmp_path)
    first = jobs.create({"kind": "x"}, owner="alice", priority=1)
    second = jobs.create({"kind": "y"}, owner="bob", priority=3)
    assert first.job_id != second.job_id
    assert first.order < second.order
    assert first.status == QUEUED
    assert jobs.in_status(QUEUED) == [first, second]


def test_job_store_recovers_records_and_order_counter(tmp_path):
    jobs = JobStore(tmp_path)
    record = jobs.create({"kind": "x"}, owner="alice", priority=2)
    record.status = DONE
    record.cost = 123
    record.solution = (1, 0)
    jobs.persist(record)

    recovered = JobStore(tmp_path)
    recovered.recover()
    back = recovered.get(record.job_id)
    assert back.status == DONE
    assert back.cost == 123
    assert tuple(back.solution) == (1, 0)
    assert back.owner == "alice" and back.priority == 2
    # New admissions keep strictly increasing order after recovery.
    assert recovered.create({}, owner="c", priority=1).order > back.order


def test_a_slice_root_near_20_factorial_survives_recovery_exactly(tmp_path):
    top = math.factorial(20)  # > 2**53: a float would round it
    root = (top - 12_345, top - 1)
    record = JobStore(tmp_path).create({"n": 20}, root=root)
    meta = MultiJobStore(tmp_path).load_meta(record.job_id)
    assert meta["root"] == [str(root[0]), str(root[1])]  # as the journal does
    (back,) = JobStore(tmp_path).recover()
    assert back.root == root
    assert JobStore(tmp_path).create({}).root is None  # a whole tree


def test_job_store_is_memory_only_without_a_directory():
    jobs = JobStore(None)
    record = jobs.create({}, owner="alice", priority=1)
    jobs.persist(record)  # must be a no-op, not an error
    assert jobs.get(record.job_id) is record


def test_in_status_keeps_admission_order_across_transitions(tmp_path):
    jobs = JobStore(tmp_path)
    a, b, c, d = (jobs.create({"n": i}, owner="o") for i in range(4))
    # Promotion can skip ahead (per-owner caps), settling can overtake.
    for record in (b, d, a):
        record.status = RUNNING
        jobs.persist(record)
    assert jobs.in_status(RUNNING) == [a, b, d]
    assert jobs.in_status(QUEUED) == [c]
    for record in (d, a):
        record.status = DONE
        jobs.persist(record)
    assert jobs.in_status(DONE) == [a, d]
    assert jobs.in_status(RUNNING, QUEUED) == [b, c]
    assert jobs.in_status(CANCELLED) == []
    assert jobs.records() == [a, b, c, d]

    recovered = JobStore(tmp_path)
    recovered.recover()

    def ids(records):
        return [r.job_id for r in records]

    assert ids(recovered.in_status(DONE)) == ids([a, d])
    assert ids(recovered.in_status(QUEUED, RUNNING)) == ids([b, c])
    assert ids(recovered.records()) == ids([a, b, c, d])
    late = recovered.create({}, owner="o")
    assert ids(recovered.in_status(QUEUED)) == ids([c, late])


def test_the_checkpoint_store_cache_holds_unsettled_jobs_only(tmp_path):
    jobs = JobStore(tmp_path)
    records = [jobs.create({"n": i}, owner="o") for i in range(53)]
    for record in records:  # as a running job's coordinator journals
        jobs.checkpoint_store(record.job_id).journal_explored(Interval(0, 1))
    for record in records[:50]:  # as _settle retires it
        record.status = DONE
        record.forget_spec()
        jobs.persist(record)
    unsettled = {r.job_id for r in records[50:]}
    # The log's memory of a settled job is one offset: its meta.
    assert set(jobs.disk._checkpoint) == unsettled
    assert set(jobs.disk._spec) == unsettled
    assert len(jobs.disk._meta) == 53
    assert os.listdir(tmp_path) == ["service.log"]
    reopened = MultiJobStore(tmp_path)
    settled = records[0].job_id
    assert reopened.job_store(settled).load_state().replayed_records == 0
    assert "spec" not in reopened.load_meta(settled)
    assert reopened.load_meta(records[50].job_id)["spec"] == {"n": 50}


# ----------------------------------------------------------------------
# Scheduler


def record_with(order, owner="alice", priority=1, status=QUEUED):
    return JobRecord(
        job_id=f"id-{order}",
        spec_wire={},
        owner=owner,
        priority=priority,
        order=order,
        status=status,
    )


def test_admission_control_refuses_depth_and_bad_priority():
    scheduler = Scheduler(SchedulerConfig(max_queued_jobs=2))
    queued = [record_with(1), record_with(2)]
    assert scheduler.admission_error(queued, priority=1) is not None
    assert scheduler.admission_error(queued[:1], priority=1) is None
    assert scheduler.admission_error([], priority=0) is not None


def test_promotion_is_oldest_first_with_a_per_owner_cap():
    scheduler = Scheduler(
        SchedulerConfig(max_running_jobs=3, max_running_per_owner=1)
    )
    running = [record_with(1, owner="alice", status=RUNNING)]
    queued = [
        record_with(2, owner="alice"),
        record_with(3, owner="bob"),
    ]
    # alice already runs a job, so her older submission is skipped.
    promoted = scheduler.next_promotion(queued, running)
    assert promoted.owner == "bob"
    # With the cap lifted, strict admission order wins.
    relaxed = Scheduler(
        SchedulerConfig(max_running_jobs=3, max_running_per_owner=2)
    )
    assert relaxed.next_promotion(queued, running).order == 2


def test_promotion_respects_the_running_set_budget():
    scheduler = Scheduler(SchedulerConfig(max_running_jobs=1))
    running = [record_with(1, status=RUNNING)]
    assert scheduler.next_promotion([record_with(2)], running) is None


def test_fifo_grants_by_admission_order_fair_by_weighted_share():
    fifo = Scheduler(SchedulerConfig(policy="fifo"))
    fair = Scheduler(SchedulerConfig(policy="fair"))
    older = record_with(1, priority=1)
    newer = record_with(2, priority=1)
    # FIFO ignores how many workers each job already holds.
    assert fifo.pick_grant([(older, 5), (newer, 0)]) is older
    # Fair share steers the next worker to the starved job.
    assert fair.pick_grant([(older, 5), (newer, 0)]) is newer
    # Priority weights the share: priority 3 deserves 3x the workers.
    urgent = record_with(3, priority=3)
    assert fair.pick_grant([(older, 1), (urgent, 2)]) is urgent
    # Ties fall back to admission order, never to the job id.
    assert fair.pick_grant([(newer, 1), (older, 1)]) is older


# ----------------------------------------------------------------------
# Wire round-trips for the service messages


@pytest.mark.parametrize(
    "message",
    [
        SubmitJob("client-1", {"kind": "k"}, priority=2, owner="alice"),
        JobAccepted("job-1"),
        JobRefused("queue full"),
        GrantWork((3, 17), 99, job="job-1", spec={"kind": "k"}),
        Update("w1", (3, 9), 120, 6, job="job-1"),
        Push("w1", 41, (1, 0, 2), job="job-1"),
        Idle(),
        JobStatusRequest("client-1", "job-1"),
        JobStatusRequest("client-1", "job-1", wait=2.5),
        JobStatus("job-1", "done", best_cost=41, solution=(1, 0, 2)),
        CancelJob("client-1", "job-1"),
        ListJobs("client-1", owner="alice"),
        JobList(jobs=[{"job": "job-1", "status": "done"}]),
    ],
)
def test_service_messages_round_trip_the_frame_codec(message):
    message.seq = 7
    decoded = decode_message(encode_frame(message)[4:])
    assert type(decoded) is type(message)
    assert decoded == message


def test_status_request_from_a_pre_wait_client_decodes_as_non_blocking():
    old = b'{"t":"JobStatusRequest","worker":"c","job":"j","seq":3}'
    assert decode_message(old) == JobStatusRequest("c", "j", wait=0.0, seq=3)


def test_job_grant_intervals_survive_as_exact_int_tuples():
    big = math.factorial(50)
    grant = GrantWork((big, big + 17), 10, job="job-1", spec={})
    decoded = decode_message(encode_frame(grant)[4:])
    assert decoded.interval == (big, big + 17)
    assert all(type(v) is int for v in decoded.interval)


# ----------------------------------------------------------------------
# Parked replies: the pump driven by a script, asserted on message order


class ScriptedListener:
    """Stands in for the TcpListener of a :class:`SolveService`.

    ``recv`` plays the script: a message is delivered, ``None`` is a
    timeout tick, and a callable is called with this listener (to flip
    connection state, or to build a message from earlier replies) and
    its result delivered likewise.  When the script is over the
    service is shut down.  Every reply sent is recorded in order.
    """

    def __init__(self, service, script, connected, on_send=None):
        self.service = service
        self.script = list(script)
        self.connected = set(connected)
        self.on_send = on_send  # called with each reply as it leaves
        self.sent = []

    def connected_workers(self):
        return sorted(self.connected)

    def recv(self, timeout=None):
        if not self.script:
            self.service.shutdown()
            raise TransportTimeout("script over")
        item = self.script.pop(0)
        if callable(item):
            item = item(self)
        if item is None:
            raise TransportTimeout("tick")
        return item

    def send(self, worker, reply):
        self.sent.append((worker, reply))
        if self.on_send is not None:
            self.on_send(reply)

    def flush(self):
        pass

    def close(self):
        pass


def play(script, connected, service=None, on_send=None, **config):
    """Run ``script`` through a service; returns (replies, report)."""
    if service is None:
        service = SolveService(service_config(**config))
    service.listener.close()  # the real socket is never used
    fake = ScriptedListener(service, script, connected, on_send)
    service.listener = fake
    return fake.sent, service.serve_forever()


def wire_a():
    return flowshop_spec(instance_a)


def wire_beaten():
    """``instance_beaten``'s spec, once the premise holds: its warm start is beaten."""
    warm_cost, _ = FlowShopProblem(instance_beaten).warm_start()
    assert serial_beaten.cost < warm_cost
    assert serial_beaten.stats.improvements == 1
    return flowshop_spec(instance_beaten)


def test_parked_request_is_granted_in_the_iteration_that_promotes_the_job():
    sent, report = play(
        [
            Request("w0", seq=1),
            Request("w0", seq=1),  # a retry while parked: still parked
            SubmitJob("c0", wire_a(), owner="alice", seq=1),
            Request("w0", seq=1),  # a late duplicate: the cached grant
        ],
        connected={"w0", "c0"},
    )
    # No tick and no further Request between the submit and the grant.
    assert [(to, type(reply)) for to, reply in sent] == [
        ("c0", JobAccepted),
        ("w0", GrantWork),
        ("w0", GrantWork),
    ]
    grant = sent[1][1]
    assert grant.job == sent[0][1].job
    assert grant.seq == 1 and grant.spec == wire_a()
    assert sent[2][1] == grant
    assert report.requests_idled == 1
    assert report.work_allocations == 1


def test_keepalive_answers_with_idle_and_the_current_status():
    core = ServiceCore(service_config())
    core.admit(wire_a(), owner="alice", job_id="job-x")
    connected = {"w0", "c0", "c1"}
    sent = core.handle(JobStatusRequest("c0", "job-x", wait=30.0, seq=4), 10.0)
    sent += core.tick(10.0 + KEEPALIVE_SECONDS, connected)
    sent += core.handle(JobStatusRequest("c0", "job-x", wait=30.0, seq=4), 11.5)
    sent += core.handle(CancelJob("c1", "job-x", seq=1), 11.5)
    sent += core.handle(Request("w0", seq=9), 12.0)
    sent += core.tick(12.0 + KEEPALIVE_SECONDS, connected)
    # The wait is answered at the keep-alive with what is true then;
    # its retry gets the same cached reply, not a fresh park.
    assert [(to, type(reply), reply.seq) for to, reply in sent] == [
        ("c0", JobStatus, 4),
        ("c0", JobStatus, 4),
        ("c1", JobStatus, 1),
        ("w0", Idle, 9),
    ]
    assert sent[0][1].status == RUNNING and sent[1] == sent[0]
    assert sent[2][1].status == CANCELLED
    assert sent[3][1] == Idle(seq=9)
    assert core.requests_idled == 1


def test_a_bye_is_acknowledged_and_its_stats_kept():
    # A retried Bye (same seq) is acknowledged again, its stats kept once.
    bye = Bye("w0", {"nodes": 7}, seq=3)
    sent, report = play([bye, bye], connected={"w0"})
    assert sent == [("w0", Ack(math.inf, seq=3))] * 2
    assert report.worker_stats == {"w0": {"nodes": 7}}


def test_bye_and_newer_rpcs_abandon_what_the_peer_had_parked():
    service = SolveService(service_config())
    service.admit(wire_a(), owner="alice", job_id="job-x")
    sent, report = play(
        [
            Request("w0", seq=1),  # granted: job-x is promoted at once
            CancelJob("c1", "job-x", seq=1),
            Request("w0", seq=2),  # parked: nothing left with work
            Bye("w0", {"nodes": 0}, seq=3),
            JobStatusRequest("c0", "job-x", wait=0.0, seq=1),
            SubmitJob("c0", wire_a(), owner="alice", seq=2),
        ],
        connected={"w0", "c0", "c1"},
        service=service,
    )
    kinds = [(to, type(reply)) for to, reply in sent]
    assert kinds == [
        ("w0", GrantWork),
        ("c1", JobStatus),
        ("w0", Ack),
        ("c0", JobStatus),
        ("c0", JobAccepted),
    ]  # ... and no grant for the worker that said goodbye
    assert report.work_allocations == 1


@pytest.mark.parametrize("job", ["", "job-unknown"])
def test_work_for_no_running_job_is_withdrawn_and_touches_no_ledger(job):
    service = SolveService(service_config())
    service.admit(wire_a(), owner="alice", job_id="job-x")
    ledgers = []

    def ledger(net):
        (coordinator,) = service.coordinators.values()
        ledgers.append(
            (
                coordinator.intervals.to_payload(),
                coordinator.solution.cost,
                coordinator.nodes_explored,
            )
        )

    sent, report = play(
        [
            Request("w0", seq=1),  # granted: job-x now has a ledger
            ledger,
            Update("w0", (0, 7), nodes=5, consumed=7, seq=2, job=job),
            Push("w0", 1.0, (0, 1, 2), seq=3, job=job),
            ledger,
        ],
        connected={"w0"},
        service=service,
    )
    assert sent[1:] == [
        ("w0", Reconciled((0, 0), math.inf, seq=2)),
        ("w0", Ack(math.inf, seq=3)),
    ]
    assert ledgers[0] == ledgers[1]
    assert report.protocol_errors == 0


def huge_job_core():
    """A core whose one job, a 20x5 flow shop over ``[0, 2**60 - 1)``,
    ``w1`` holds after an Update that left work: a split candidate."""
    core = ServiceCore(service_config())
    core.admit(
        flowshop_spec(random_instance(20, 5, seed=1)),
        owner="alice",
        root=(0, 2**60 - 1),
        job_id="big",
    )
    (_, grant), = core.handle(Request("w1", seq=1), 0.0)
    assert grant.interval == (0, 2**60 - 1)
    (_, reply), = core.handle(
        Update("w1", (10, 2**60 - 1), nodes=10, consumed=10, seq=2, job="big"),
        0.5,
    )
    assert isinstance(reply, Reconciled) and reply.interval == (10, 2**60 - 1)
    return core


def test_a_zero_power_request_on_a_huge_interval_is_answered():
    core = huge_job_core()
    (to, reply), = core.handle(Request("w2", power=0.0, seq=1), 1.0)
    assert to == "w2" and isinstance(reply, GrantWork)
    assert core.protocol_errors == 0


@pytest.mark.parametrize("power", [-1.0, math.nan, math.inf, 10**400, "1", None])
def test_a_request_with_an_unusable_power_is_a_protocol_error(power):
    core = huge_job_core()
    assert core.handle(Request("w2", power=power, seq=1), 1.0) == []
    assert core.protocol_errors == 1
    # Refused before it could park: no later flush grants it.
    idle = ServiceCore(service_config())
    assert idle.handle(Request("w2", power=power, seq=1), 0.0) == []
    idle.admit(wire_a(), owner="alice")
    assert idle.tick(KEEPALIVE_SECONDS, {"w2"}) == []
    assert idle.protocol_errors == 1


def test_a_retried_update_counts_once_after_its_job_settled():
    service = SolveService(service_config())
    service.admit(wire_a(), owner="alice", job_id="job-x")

    def update(seq, nodes):
        return lambda net: Update(
            "w0", grant_to("w0")(net).interval, nodes=nodes, consumed=1,
            seq=seq, job="job-x",
        )

    sent, report = play(
        [
            Request("w0", seq=1),  # granted
            update(2, 5),  # counted by the job's coordinator
            CancelJob("c1", "job-x", seq=1),  # settles it with nodes 5
            update(2, 5),  # that Update retried (its reply was lost)
            update(3, 7),  # a late Update: the job's work, counted
            update(3, 7),  # ... and retried
        ],
        connected={"w0", "c1"},
        service=service,
    )
    replies = [reply for to, reply in sent if to == "w0"]
    assert len(replies) == 5
    assert replies[2] == replies[1]  # the coordinator's own answer
    assert replies[3].interval[0] == replies[3].interval[1]  # withdrawn
    assert replies[4] == replies[3]
    assert report.jobs["job-x"]["status"] == CANCELLED
    assert report.jobs["job-x"]["nodes"] == 5 + 7


def test_cancel_answers_a_parked_status_wait():
    service = SolveService(service_config())
    service.admit(wire_a(), owner="alice", job_id="job-x")
    sent, _ = play(
        [
            JobStatusRequest("c0", "job-x", wait=30.0, seq=1),
            None,  # a tick inside the keep-alive changes nothing
            CancelJob("c1", "job-x", seq=1),
        ],
        connected={"c0", "c1"},
        service=service,
    )
    assert [(to, reply.status, reply.seq) for to, reply in sent] == [
        ("c1", CANCELLED, 1),
        ("c0", CANCELLED, 1),
    ]


def test_disconnected_peer_is_skipped_then_terminated_when_draining():
    sent, report = play(
        [
            Request("w0", seq=1),  # parked: no job yet
            lambda net: net.connected.discard("w0"),
            SubmitJob("c0", wire_a(), owner="alice", seq=1),
            None,  # promoted, but w0 could not hear a grant: none made
            lambda net: CancelJob("c0", net.sent[0][1].job, seq=2),
            lambda net: net.connected.add("w0"),
        ],
        connected={"w0", "w1", "c0"},
        drain_when_idle=True,
        linger_seconds=30.0,
    )
    # Draining began with the cancel; the parked worker hears it in
    # the first iteration it can be reached, not after the linger.
    assert [(to, type(reply)) for to, reply in sent] == [
        ("c0", JobAccepted),
        ("c0", JobStatus),
        ("w0", Terminate),
    ]
    assert sent[2][1].seq == 1
    assert report.work_allocations == 0
    assert report.jobs_cancelled == 1


# ----------------------------------------------------------------------
# End-to-end: concurrent jobs over one shared fleet


def service_config(tmp_path=None, **overrides):
    scheduler = overrides.pop("scheduler", SchedulerConfig())
    base = dict(
        port=0,
        checkpoint_dir=tmp_path,
        checkpoint_period=0.1,
        deadline=120.0,
        poll_interval=0.02,
        lease_seconds=10.0,
        linger_seconds=2.0,
        scheduler=scheduler,
    )
    base.update(overrides)
    return ServiceConfig(**base)


# ----------------------------------------------------------------------
# Grants sized to the job: a second worker only where it can be used


def grant_to(worker):
    """Script item: the latest grant ``worker`` was sent."""

    def find(net):
        return [r for to, r in net.sent if to == worker and isinstance(r, GrantWork)][-1]

    return find


class ScriptedWorker:
    """A worker for :func:`play`: explores its grant when the script says so."""

    def __init__(self, name):
        self.name = name
        self.seq = 0
        self.explorer = None
        self.found = []

    def _stamp(self, message):
        self.seq += 1
        message.seq = self.seq
        return message

    def request(self, net=None):
        return self._stamp(Request(self.name))

    def bye(self, net=None):
        return self._stamp(Bye(self.name, {}))

    def explore(self, max_nodes=math.inf):
        """Script item: one slice of the current grant.

        Delivers the Push of what the slice found (a tick if it found
        nothing); :meth:`update` then reports the slice, as a worker does.
        """

        def item(net):
            grant = grant_to(self.name)(net)
            if self.explorer is None or self.job != grant.job:
                self.job = grant.job
                self.explorer = IntervalExplorer(
                    build_problem(grant.spec),
                    Interval.from_tuple(grant.interval),
                    incumbent=Incumbent(grant.best_cost, None),
                    on_improvement=lambda *found: self.found.append(found),
                )
            self.found.clear()
            report = self.explorer.step(max_nodes)
            self.slice = Update(
                self.name,
                self.explorer.remaining_interval().as_tuple(),
                nodes=report.nodes_processed,
                consumed=report.consumed,
                job=self.job,
            )
            if not self.found:
                return None
            cost, solution = self.found[-1]
            return self._stamp(Push(self.name, cost, solution, job=self.job))

        return item

    def update(self, net=None):
        """Script item: the Update of the slice just explored."""
        return self._stamp(self.slice)


def fifo_or_fair(policy, **overrides):
    return service_config(scheduler=SchedulerConfig(policy=policy), **overrides)


@pytest.mark.parametrize("policy", ["fifo", "fair"])
def test_single_slice_job_is_granted_once_and_explored_once(policy):
    w0, w1 = ScriptedWorker("w0"), ScriptedWorker("w1")
    service = SolveService(fifo_or_fair(policy))
    sent, report = play(
        [
            SubmitJob("c0", wire_beaten(), owner="alice", seq=1),
            w0.request,
            w1.request,  # parked: w0 has shown no sign of outlasting a slice
            None,
            w0.explore(),  # the whole job inside one slice
            w0.update,
            None,
        ],
        connected={"w0", "w1", "c0"},
        service=service,
    )
    assert [(to, type(reply)) for to, reply in sent] == [
        ("c0", JobAccepted),
        ("w0", GrantWork),
        ("w0", Ack),
        ("w0", Reconciled),
    ]
    (summary,) = report.jobs.values()
    assert summary["status"] == DONE and summary["cost"] == serial_beaten.cost
    assert summary["nodes"] == serial_beaten.stats.nodes_explored
    assert summary["work_allocations"] == 1
    assert report.work_allocations == 1 and report.grants_per_job == 1.0


def test_a_service_that_drains_when_idle_grants_the_second_worker_at_once():
    # The same opening as above, on a one-shot service: no later job
    # could use the worker that parking would idle, so the gate yields.
    w0, w1 = ScriptedWorker("w0"), ScriptedWorker("w1")
    service = SolveService(service_config(drain_when_idle=True))
    job = service.admit(wire_a()).job
    sent, report = play(
        [w0.request, w1.request], connected={"w0", "w1"}, service=service
    )
    assert [(to, type(reply)) for to, reply in sent] == [
        ("w0", GrantWork),
        ("w0", Notice),  # its copy was split: a cut
        ("w1", GrantWork),
    ]
    first, cut, second = (reply for _, reply in sent)
    assert second.job == first.job == cut.job == job and cut.cut
    assert second.interval[0] == first.interval[1] // 2
    assert report.requests_idled == 0
    assert report.jobs[job]["work_allocations"] == 2


@pytest.mark.parametrize("policy", ["fifo", "fair"])
def test_second_worker_arrives_with_the_holders_first_unfinished_update(policy):
    w0, w1 = ScriptedWorker("w0"), ScriptedWorker("w1")
    sent, report = play(
        [
            SubmitJob("c0", wire_beaten(), owner="alice", seq=1),
            w0.request,
            w1.request,
            None,  # a tick changes nothing: still parked
            w0.explore(max_nodes=40),  # beats the warm start at node 18
            w0.update,  # leaves work: the job outlasts a slice
        ],
        connected={"w0", "w1", "c0"},
        service=SolveService(fifo_or_fair(policy)),
    )
    # The grant leaves in the pump pass right after the Update's own
    # reply: no tick, no further message in between.
    assert [(to, type(reply)) for to, reply in sent] == [
        ("c0", JobAccepted),
        ("w0", GrantWork),
        ("w0", Ack),
        ("w0", Reconciled),
        ("w0", Notice),
        ("w1", GrantWork),
    ]
    # The holder is told of the cut at once (and hears what was cut
    # from the Reconciled it then asks for).
    notice, grant = sent[4][1], sent[5][1]
    assert notice.cut and notice.job == grant.job
    assert report.notices_sent == 1
    held, cut = sent[3][1].interval, grant.interval
    assert held[0] < cut[0] < cut[1] == held[1]
    assert report.work_allocations == 2 and report.requests_idled == 1


@pytest.mark.parametrize("leaves_by", ["bye", "lease"])
def test_holder_gone_before_any_update_frees_its_interval(leaves_by):
    w0, w1 = ScriptedWorker("w0"), ScriptedWorker("w1")
    service = SolveService(service_config())

    def lease_runs_out(net):
        (coordinator,) = service.coordinators.values()
        assert coordinator.check_leases(now=time.monotonic() + 3600) == ["w0"]

    sent, report = play(
        [
            SubmitJob("c0", wire_a(), owner="alice", seq=1),
            w0.request,
            w1.request,
            w0.bye if leaves_by == "bye" else lease_runs_out,
            w1.explore(),
            w1.update,
            None,
        ],
        connected={"w0", "w1", "c0"},
        service=service,
    )
    grants = [(to, r.interval) for to, r in sent if isinstance(r, GrantWork)]
    whole = (0, math.factorial(7))
    assert grants == [("w0", whole), ("w1", whole)]
    (summary,) = report.jobs.values()
    assert summary["status"] == DONE and summary["cost"] == serial_a.cost
    assert makespan(instance_a, tuple(summary["solution"])) == serial_a.cost


@pytest.mark.parametrize("policy, later_grants", [("fifo", "aa"), ("fair", "ab")])
def test_splittable_jobs_are_shared_out_by_the_policy(policy, later_grants):
    workers = [ScriptedWorker(f"w{i}") for i in range(4)]
    w0, w1, w2, w3 = workers
    sent, _ = play(
        [
            SubmitJob("c0", wire_a(), owner="alice", seq=1),
            SubmitJob("c0", flowshop_spec(instance_b), owner="bob", seq=2),
            w0.request,  # job a: the older of two idle jobs
            w1.request,  # job b: a's only interval is held and unproven
            w0.explore(max_nodes=20),
            w0.update,
            w1.explore(max_nodes=20),
            w1.update,
            w2.request,  # both splittable, one worker each: the older
            w3.request,  # fair: b is now the starved one; fifo: a again
        ],
        connected={"c0", "w0", "w1", "w2", "w3"},
        service=SolveService(fifo_or_fair(policy)),
    )
    job = {sent[0][1].job: "a", sent[1][1].job: "b"}
    order = "".join(job[r.job] for _, r in sent if isinstance(r, GrantWork))
    assert order == "ab" + later_grants
    # The premise: each job outlasted its first slice.
    left = [r.interval for _, r in sent if isinstance(r, Reconciled)]
    assert len(left) == 2 and all(begin < end for begin, end in left)


# ----------------------------------------------------------------------
# The write budget: what a job costs in fsyncs, and what it leaves on disk


class CountingDisk:
    """Counts the service's fsyncs, and every rename and unlink."""

    def __init__(self, monkeypatch):
        self.calls = {"fsync": 0, "replace": 0, "rename": 0, "unlink": 0}
        for name in self.calls:
            monkeypatch.setattr(os, name, self._counting(name, getattr(os, name)))

    def _counting(self, name, real):
        def call(*args, **kwargs):
            self.calls[name] += 1
            return real(*args, **kwargs)

        return call


def play_one_job_counting_fsyncs(tmp_path, monkeypatch, wire, slices):
    """One job over ``slices`` slices; (reply kinds, fsyncs) once it is done.

    meta(running) + meta(done), and one journal append per Push kept
    and per Update — all appended to the one log, which no job renames
    or unlinks.
    """
    service = SolveService(service_config(tmp_path, checkpoint_period=3600.0))
    disk = CountingDisk(monkeypatch)
    w0 = ScriptedWorker("w0")
    sent, report = play(
        [
            SubmitJob("c0", wire, owner="alice", seq=1),
            w0.request,
            *([w0.explore(max_nodes=40), w0.update] * (slices - 1)),
            w0.explore(),
            w0.update,
            None,
        ],
        connected={"w0", "c0"},
        service=service,
    )
    (job,) = report.jobs
    assert report.jobs[job]["status"] == DONE
    assert os.listdir(tmp_path) == ["service.log"]
    assert (disk.calls["replace"], disk.calls["rename"], disk.calls["unlink"]) == (0, 0, 0)
    kinds = [type(reply) for _, reply in sent]
    assert kinds.count(Reconciled) == slices
    return kinds, disk.calls["fsync"]


@pytest.mark.parametrize("slices", [1, 2])
def test_a_small_job_costs_four_fsyncs_and_leaves_one_file(
    tmp_path, monkeypatch, slices
):
    kinds, fsyncs = play_one_job_counting_fsyncs(
        tmp_path, monkeypatch, wire_beaten(), slices
    )
    # instance_beaten's one improvement on its warm start comes in its
    # first 40 nodes: one Push, four fsyncs for a job that fits one
    # slice, one more per extra slice.
    assert kinds.count(Ack) == 1
    assert fsyncs == 4 + (slices - 1)


def test_a_job_whose_neh_is_optimal_costs_three_fsyncs(tmp_path, monkeypatch):
    instance = random_instance(7, 3, seed=71)
    assert solve(FlowShopProblem(instance)).stats.improvements == 0  # premise
    kinds, fsyncs = play_one_job_counting_fsyncs(
        tmp_path, monkeypatch, flowshop_spec(instance), 1
    )
    assert Ack not in kinds  # nothing to Push
    assert fsyncs == 3


def test_many_jobs_rename_only_to_compact_and_within_the_doubling_bound(
    tmp_path, monkeypatch
):
    floor = 4096  # a few jobs' records, so a short run compacts
    monkeypatch.setattr(checkpoint, "_COMPACT_FLOOR", floor)
    compactions = []  # (log size, size at the previous compaction)
    real_compact = MultiJobStore._compact

    def compact(store):
        compactions.append((store._size, store._compacted_size))
        real_compact(store)

    monkeypatch.setattr(MultiJobStore, "_compact", compact)
    service = SolveService(service_config(tmp_path, checkpoint_period=3600.0))
    disk = CountingDisk(monkeypatch)
    jobs = 40
    w0 = ScriptedWorker("w0")
    script = []
    for i in range(jobs):
        script += [SubmitJob("c0", wire_a(), owner="alice", seq=i + 1),
                   w0.request, w0.explore(), w0.update]
    _, report = play(script + [None], connected={"c0", "w0"}, service=service)
    assert report.jobs_completed == jobs
    assert all(doc["cost"] == serial_a.cost for doc in report.jobs.values())
    # Each compaction waited for the log to double past the floor...
    assert len(compactions) >= 2
    for size, base in compactions:
        assert size > max(2 * base, floor)
    # ...and is the only rename; nothing is ever unlinked.
    assert disk.calls["replace"] == len(compactions)
    assert disk.calls["rename"] == disk.calls["unlink"] == 0
    assert os.listdir(tmp_path) == ["service.log"]
    # A resume reads every settled job back from the compacted log.
    back = resumed(tmp_path)
    assert back.epoch == 2 and len(back.jobs) == jobs
    assert all(doc["status"] == DONE and doc["cost"] == serial_a.cost
               for doc in back.jobs.values())


def test_a_submit_that_must_queue_is_written_once_as_queued(tmp_path, monkeypatch):
    service = SolveService(
        service_config(tmp_path, scheduler=SchedulerConfig(max_running_jobs=1))
    )
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
    durable_at_ack = []
    sent, report = play(
        [
            SubmitJob("c0", wire_a(), owner="alice", seq=1),
            SubmitJob("c1", wire_a(), owner="bob", seq=1),
        ],
        connected={"c0", "c1"},
        service=service,
        on_send=lambda reply: durable_at_ack.append(len(fsyncs)),
    )
    first, second = (reply.job for _, reply in sent)
    assert durable_at_ack == [1, 2]  # one write each, before its ack
    assert MultiJobStore(tmp_path).load_meta(first)["status"] == RUNNING
    assert MultiJobStore(tmp_path).load_meta(second)["status"] == QUEUED


def run_one_job_then_abort(tmp_path, after):
    """Play one job through; ``kill -9`` when ``after(reply)`` says so."""
    service = SolveService(service_config(tmp_path))
    w0 = ScriptedWorker("w0")

    def kill(reply):
        if after(reply):
            service.abort()

    sent, report = play(
        [
            SubmitJob("c0", wire_a(), owner="alice", seq=1),
            w0.request,
            w0.explore(max_nodes=20),
            w0.update,
            w0.explore(),
            w0.update,
            lambda net: JobStatusRequest("c0", net.sent[0][1].job, seq=2),
        ],
        connected={"w0", "c0"},
        service=service,
        on_send=kill,
    )
    assert report.aborted
    return sent[0][1].job


def resumed(tmp_path):
    successor = SolveService(service_config(tmp_path, resume=True))
    _, report = play([None], connected=set(), service=successor)
    return report


class Killed(Exception):
    """``kill -9`` inside the pump: nothing after it runs."""


def test_kill_between_the_final_update_and_meta_done_resumes_to_the_proof(
    tmp_path, monkeypatch
):
    # The final Update settles its job while it is handled: the kill
    # lands between the journal append and the meta write.
    persist = JobStore.persist

    def killed_at_done(store, record):
        if record.status == DONE:
            raise Killed
        persist(store, record)

    monkeypatch.setattr(JobStore, "persist", killed_at_done)
    with pytest.raises(Killed):
        run_one_job_then_abort(tmp_path, after=lambda reply: False)
    monkeypatch.undo()
    (job,) = MultiJobStore(tmp_path).job_ids()
    assert MultiJobStore(tmp_path).load_meta(job)["status"] == RUNNING
    assert checkpoint_records(tmp_path, job) > 0

    report = resumed(tmp_path)
    # Snapshot (if any) + journal replay re-derive the empty ledger and
    # the incumbent; recovery settles the job.
    assert report.epoch == 2 and report.jobs_completed == 1
    summary = report.jobs[job]
    assert summary["status"] == DONE and summary["cost"] == serial_a.cost
    assert makespan(instance_a, tuple(summary["solution"])) == serial_a.cost
    assert checkpoint_records(tmp_path, job) == 0
    assert os.listdir(tmp_path) == ["service.log"]


def checkpoint_records(tmp_path, job):
    """How many live snapshot / journal records the log holds for ``job``."""
    state = MultiJobStore(tmp_path).job_store(job).load_state()
    return state.replayed_records + (state.intervals is not None)


def test_kill_after_meta_done_leaves_a_done_job_with_no_snapshot(tmp_path):
    job = run_one_job_then_abort(
        tmp_path, after=lambda r: isinstance(r, JobStatus)
    )
    assert checkpoint_records(tmp_path, job) == 0

    report = resumed(tmp_path)
    assert report.jobs_completed == 0  # nothing left to do or to redo
    summary = report.jobs[job]
    assert summary["status"] == DONE and summary["cost"] == serial_a.cost
    assert makespan(instance_a, tuple(summary["solution"])) == serial_a.cost
    assert checkpoint_records(tmp_path, job) == 0
    assert os.listdir(tmp_path) == ["service.log"]


def test_a_settled_job_forgets_its_spec_and_still_reads_back(tmp_path):
    service = SolveService(service_config(tmp_path))
    w0 = ScriptedWorker("w0")
    sent, _ = play(
        [SubmitJob("c0", wire_a(), owner="alice", seq=1), w0.request, w0.explore(), w0.update],
        connected={"w0", "c0"},
        service=service,
    )
    job = sent[0][1].job
    record = service.jobs.get(job)
    assert record.status == DONE and record.spec_wire == {}
    assert "spec" not in MultiJobStore(tmp_path).load_meta(job)

    report = resumed(tmp_path)
    summary = report.jobs[job]
    assert summary["status"] == DONE and summary["cost"] == serial_a.cost
    assert makespan(instance_a, tuple(summary["solution"])) == serial_a.cost
    # What is kept of the spec still tells this job from another.
    (back,) = JobStore(tmp_path).recover()
    assert back.spec_wire == {}
    assert back.solves(wire_a(), None)
    assert not back.solves(flowshop_spec(instance_b), None)
    assert not back.solves(wire_a(), (0, 1))


def start_service(service):
    outcome = {}

    def serve():
        outcome["report"] = service.serve_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread, outcome


def start_workers(host, port, count, prefix="w"):
    outcomes = {}

    def work(wid):
        try:
            outcomes[wid] = run_worker(
                host,
                port,
                wid,
                update_nodes=300,
                update_period=0.05,
                reply_timeout=2.0,
                max_retries=3,
                max_reconnect_attempts=3,
                backoff_cap=0.2,
            )
        except TransportError:
            # The service may legitimately be gone already (drained, or
            # shut down by the test); a late worker is not a failure.
            outcomes[wid] = "unreachable"

    threads = [
        threading.Thread(target=work, args=(f"{prefix}{i}",), daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads, outcomes


@pytest.mark.parametrize("policy", ["fifo", "fair"])
def test_two_jobs_share_a_fleet_and_stay_serial_identical(policy):
    service = SolveService(
        service_config(scheduler=SchedulerConfig(policy=policy))
    )
    host, port = service.address
    thread, outcome = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=30.0)
        job_a = client.submit(
            flowshop_spec(instance_a), owner="alice", priority=1
        )
        job_b = client.submit(
            flowshop_spec(instance_b), owner="bob", priority=2
        )
        workers, _ = start_workers(host, port, 4)

        status_a = client.result(job_a, timeout=90.0)
        status_b = client.result(job_b, timeout=90.0)
        assert status_a.status == DONE
        assert status_b.status == DONE
        # Serial-identical optimum: same proved cost, and the returned
        # schedule actually achieves it (equal-cost optima may be
        # distinct permutations — exploration order differs).
        assert status_a.best_cost == serial_a.cost
        assert status_b.best_cost == serial_b.cost
        assert makespan(instance_a, tuple(status_a.solution)) == serial_a.cost
        assert makespan(instance_b, tuple(status_b.solution)) == serial_b.cost

        summaries = {s["job"]: s for s in client.list_jobs()}
        assert summaries[job_a]["cost"] == serial_a.cost
        assert summaries[job_b]["owner"] == "bob"
    finally:
        service.shutdown()
        thread.join(timeout=30)
    for worker in workers:
        worker.join(timeout=30)
    report = outcome["report"]
    assert report.jobs_completed == 2
    assert report.jobs[job_a]["cost"] == serial_a.cost
    assert report.jobs[job_b]["cost"] == serial_b.cost


def test_cancel_and_unknown_job_status():
    # No workers connected: the queued job is cancellable, and an
    # unknown id reports as such instead of failing the RPC.
    service = SolveService(service_config())
    host, port = service.address
    thread, outcome = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=10.0)
        job = client.submit(flowshop_spec(instance_a), owner="alice")
        cancelled = client.cancel(job)
        assert cancelled.status == CANCELLED
        assert client.status(job).status == CANCELLED
        assert client.status("no-such-job").status == "unknown"
    finally:
        service.shutdown()
        thread.join(timeout=30)
    assert outcome["report"].jobs_cancelled == 1


def test_one_sync_client_is_one_sender_across_calls():
    # The facade redials for every call, but under one sender id and
    # seq counter: the service keeps one retry-cache entry for it.
    service = SolveService(service_config())
    host, port = service.address
    thread, outcome = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=10.0)
        job = client.submit(flowshop_spec(instance_a), owner="alice")
        for _ in range(30):
            client.status(job)
        client.list_jobs()
        client.cancel(job)
    finally:
        service.shutdown()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert len(service._clients) == 1
    assert len(service._last_reply) == 1
    assert outcome["report"].duplicates_ignored == 0


def test_admission_control_refuses_over_the_wire():
    config = service_config(
        scheduler=SchedulerConfig(
            max_queued_jobs=1, max_running_jobs=1, max_running_per_owner=1
        )
    )
    service = SolveService(config)
    host, port = service.address
    thread, _ = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=10.0)
        # First submit is promoted to the single running slot (no
        # workers needed for promotion), the second parks in the
        # depth-1 queue, so the third must bounce.
        first = client.submit(flowshop_spec(instance_a), owner="alice")
        assert client.status(first).status == RUNNING
        client.submit(flowshop_spec(instance_b), owner="alice")
        with pytest.raises(JobRefusedError):
            client.submit(flowshop_spec(instance_a), owner="bob")
    finally:
        service.shutdown()
        thread.join(timeout=30)


def test_malformed_spec_is_refused_not_failed():
    service = SolveService(service_config())
    host, port = service.address
    thread, outcome = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=10.0)
        with pytest.raises(JobRefusedError):
            client.submit({"builder": "nonsense", "payload": []})
        assert client.list_jobs() == []
    finally:
        service.shutdown()
        thread.join(timeout=30)
    assert len(outcome["report"].jobs) == 0


def hostile_specs(marker):
    """Specs that would create ``marker`` if anything ran the callable
    they name: the pre-table form, and the same name as a problem."""
    command = ["touch " + str(marker)]
    return [
        {"factory": "os:system", "args": command},
        {"factory": "os:system", "args": command, "kwargs": {}},
        {"problem": "os:system", "args": command},
    ]


def test_a_spec_naming_a_callable_is_refused_at_admission(tmp_path):
    marker = tmp_path / "marker"
    core = ServiceCore()
    for spec in hostile_specs(marker):
        reply = core.admit(spec)
        assert not marker.exists()
        assert isinstance(reply, JobRefused)
        assert "unknown problem" in reply.reason
    assert len(core.jobs) == 0


def test_a_spec_naming_a_callable_is_refused_over_the_wire(tmp_path):
    marker = tmp_path / "marker"
    service = SolveService(service_config())
    host, port = service.address
    thread, _ = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=10.0)
        for spec in hostile_specs(marker):
            with pytest.raises(JobRefusedError) as refused:
                client.submit(spec)
            assert not marker.exists()
            assert "unknown problem" in str(refused.value)
        assert client.list_jobs() == []
    finally:
        service.shutdown()
        thread.join(timeout=30)


def test_a_grant_naming_a_callable_is_refused_by_the_worker(tmp_path):
    marker = tmp_path / "marker"
    core = WorkerCore("w0")
    for spec in hostile_specs(marker):
        with pytest.raises(Exception) as refused:
            core.grant(GrantWork((0, 6), math.inf, job="j", spec=spec))
        assert not marker.exists()
        assert refused.type is ValueError
        assert "unknown problem" in str(refused.value)


def test_an_idle_tenant_reaped_by_the_service_redials_and_submits_once():
    # The client sends no heartbeats: past peer_timeout the service
    # drops its connection, and the next RPC must redial, not fail.
    service = SolveService(service_config(peer_timeout=0.5))
    host, port = service.address
    thread, _ = start_service(service)

    async def tenant():
        async with ServiceClient(host, port, timeout=10.0) as client:
            first = client.welcome
            await asyncio.sleep(1.5)
            job = await client.submit(flowshop_spec(instance_a), owner="alice")
            assert client.welcome is not first  # a second handshake
            return job, await client.list_jobs()

    try:
        job, jobs = asyncio.run(tenant())
    finally:
        service.shutdown()
        thread.join(timeout=30)
    assert [summary["job"] for summary in jobs] == [job]


@pytest.mark.parametrize(
    "reply, error, match",
    [
        (encode_frame(Welcome(version=WIRE_VERSION - 1)), WireVersionError, "speaks only"),
        (encode_frame(Welcome(version=WIRE_VERSION + 1)), WireVersionError, "speaks only"),
        (b"", TransportError, "another wire version"),
    ],
    ids=["older-welcome", "newer-welcome", "closed-on-hello"],
)
def test_a_service_of_another_wire_version_is_refused_at_the_handshake(
    reply, error, match
):
    async def handshake():
        async def serve(reader, writer):
            await reader.read(65536)  # the Hello
            writer.write(reply)
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = ServiceClient("127.0.0.1", port, timeout=5.0)
        try:
            with pytest.raises(error, match=match):
                await client.connect()
            assert client.welcome is None
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    asyncio.run(handshake())


def test_owner_filter_on_list():
    service = SolveService(service_config())
    host, port = service.address
    thread, _ = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=10.0)
        client.submit(flowshop_spec(instance_a), owner="alice")
        client.submit(flowshop_spec(instance_b), owner="bob")
        owners = {s["owner"] for s in client.list_jobs(owner="alice")}
        assert owners == {"alice"}
        assert len(client.list_jobs()) == 2
    finally:
        service.shutdown()
        thread.join(timeout=30)


def test_result_is_one_parked_request_per_keepalive():
    core = ServiceCore(service_config())
    connected = {"c0", "c1"}
    asked = []
    handle_status = core._on_status

    def counting(msg):
        asked.append(msg.wait)
        return handle_status(msg)

    core._on_status = counting
    # No workers: the job is promoted and then just stays running.
    ((_, accepted),) = core.handle(
        SubmitJob("c0", wire_a(), owner="alice", seq=1), 0.0
    )
    job = accepted.job

    def result(seq, now):
        """The status wait ``client.result`` sends until the job settles."""
        return core.handle(JobStatusRequest("c0", job, wait=5.0, seq=seq), now)

    # The first wait ran into the keep-alive ("still running") ...
    assert result(2, 0.0) == []
    ((_, still),) = core.tick(KEEPALIVE_SECONDS, connected)
    assert still.status == RUNNING
    # ... the second is parked; settling the job answers it on the spot.
    assert result(3, KEEPALIVE_SECONDS) == []
    second_wait_parked = core.tick(1.5 * KEEPALIVE_SECONDS, connected) == []
    assert second_wait_parked
    sent = core.handle(CancelJob("c1", job, seq=1), 1.5 * KEEPALIVE_SECONDS)
    sent += core.tick(1.5 * KEEPALIVE_SECONDS, connected)
    settled = {"status": reply for to, reply in sent if to == "c0"}
    assert settled["status"].status == CANCELLED
    assert len(asked) == 2 and all(wait > 0 for wait in asked)


def test_the_core_reads_no_clock(monkeypatch, tmp_path):
    # Submit -> grant -> Update -> settle -> a parked status that
    # expires: every time the core uses is the ``now`` it was given.
    def wall_clock():
        raise AssertionError("the service core read a clock")

    monkeypatch.setattr(time, "monotonic", wall_clock)
    monkeypatch.setattr(time, "time", wall_clock)
    core = ServiceCore(service_config(tmp_path), now=100.0, wall_offset=1e9)
    connected = {"c0", "w0"}
    ((_, accepted),) = core.handle(
        SubmitJob("c0", wire_a(), owner="alice", seq=1), 100.0
    )
    job = accepted.job
    assert core.jobs.get(job).submitted_at == 1e9 + 100.0
    assert core.jobs.get(job).queue_wait_seconds == 0.0
    assert core.handle(JobStatusRequest("c0", job, wait=30.0, seq=2), 101.0) == []
    ((_, status),) = core.tick(101.0 + KEEPALIVE_SECONDS, connected)
    assert status.status == RUNNING  # expired at the keep-alive, not before
    ((_, grant),) = core.handle(Request("w0", seq=1), 102.5)
    begin, end = grant.interval
    assert core.tick(102.5 + 4.0, connected) == []  # the lease still holds
    ((_, reply),) = core.handle(
        Update("w0", (end, end), nodes=3, consumed=end - begin, seq=2, job=job),
        107.0,
    )
    assert reply.interval == (end, end)
    assert core.jobs.get(job).status == DONE  # settled on that Update
    assert core.handle(JobStatusRequest("c0", job, wait=30.0, seq=3), 107.0) == [
        ("c0", JobStatus(job=job, status=DONE, best_cost=serial_a.cost,
                         solution=core.jobs.get(job).solution, owner="alice",
                         nodes=3, seq=3)),
    ]


def test_worker_forgets_jobs_it_has_moved_on_from(monkeypatch):
    # The table's flow-shop entry, weakly tracked, so the test can count
    # how many built problems a worker still holds.
    live_problems = weakref.WeakSet()

    def tracked_flowshop(processing_times):
        problem = FlowShopProblem(FlowShopInstance(processing_times))
        live_problems.add(problem)
        return problem

    monkeypatch.setitem(PROBLEMS, "flowshop", tracked_flowshop)
    core = WorkerCore("w0")
    for n in range(50):
        times = random_instance(3, 2, seed=n).processing_times.tolist()
        spec = {"problem": "flowshop", "args": [times]}
        core.grant(GrantWork((0, 6), math.inf, job=f"job-{n}", spec=spec))
    gc.collect()
    # All 50 problems were built; only the newest few are still held.
    assert len(live_problems) == _JOB_CACHE_SIZE


def test_abort_then_resume_completes_both_jobs(tmp_path):
    """In-process kill -9: no final checkpoints, recover from disk."""
    config = service_config(tmp_path)
    service = SolveService(config)
    host, port = service.address
    thread, outcome = start_service(service)
    client = SyncServiceClient(host, port, timeout=10.0)
    job_a = client.submit(flowshop_spec(instance_a), owner="alice")
    job_b = client.submit(flowshop_spec(instance_b), owner="bob")
    workers, _ = start_workers(host, port, 2)
    # Let some interval updates reach the per-job journals, then die.
    time.sleep(0.5)
    service.abort()
    thread.join(timeout=30)
    for worker in workers:
        worker.join(timeout=30)
    assert outcome["report"].aborted

    successor = SolveService(
        service_config(
            tmp_path, resume=True, drain_when_idle=True, linger_seconds=2.0
        )
    )
    host2, port2 = successor.address
    thread2, outcome2 = start_service(successor)
    workers2, worker_outcomes = start_workers(host2, port2, 2, prefix="v")
    for worker in workers2:
        worker.join(timeout=90)
    thread2.join(timeout=90)
    report = outcome2["report"]
    assert report.epoch == 2
    assert report.jobs[job_a]["status"] == DONE
    assert report.jobs[job_b]["status"] == DONE
    assert report.jobs[job_a]["cost"] == serial_a.cost
    assert report.jobs[job_b]["cost"] == serial_b.cost
    # Workers either got told Terminate or arrived after the drain;
    # neither may be a hang or a protocol error.
    assert set(worker_outcomes.values()) <= {"terminate", "unreachable"}


def closed_by_peer(sock, timeout=5.0):
    """Read ``sock`` until the other end closes it; False if it stays open."""
    sock.settimeout(timeout)
    try:
        while sock.recv(4096):
            pass
    except ConnectionResetError:
        pass
    except socket.timeout:
        return False
    return True


def test_a_mistyped_frame_drops_its_connection_not_the_service():
    service = SolveService(service_config())
    host, port = service.address
    thread, _ = start_service(service)
    try:
        with socket.create_connection((host, port), timeout=5.0) as rogue:
            payload = b'{"t":"Request","worker":"rogue","seq":"1"}'
            rogue.sendall(
                encode_frame(Hello("rogue"))
                + len(payload).to_bytes(4, "big") + payload
            )
            assert closed_by_peer(rogue)
        assert SyncServiceClient(host, port, timeout=10.0).list_jobs() == []
        assert thread.is_alive()
    finally:
        service.shutdown()
        thread.join(timeout=30)


def test_a_connection_cannot_speak_for_another_worker():
    # A frame that names another worker than its connection's Hello
    # would spend that worker's seqs: its real RPCs would read as retries.
    service = SolveService(service_config())
    host, port = service.address
    thread, _ = start_service(service)
    a = TcpClientConnection(host, port, "a", heartbeat_interval=None)
    try:
        a.open(timeout=5.0)
        with socket.create_connection((host, port), timeout=5.0) as b:
            b.sendall(
                encode_frame(Hello("b")) + encode_frame(Request("a", seq=10**6))
            )
            assert closed_by_peer(b)
        a.send(Request("a", seq=1))
        reply = a.recv(timeout=KEEPALIVE_SECONDS + 5.0)  # parked, then Idle
        assert (type(reply), reply.seq) == (Idle, 1)
        assert service.duplicates_ignored == 0
    finally:
        a.close()
        service.shutdown()
        thread.join(timeout=30)
