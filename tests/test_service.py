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

import gc
import math
import threading
import weakref

import pytest

from repro.core import solve
from repro.core.checkpoint import MultiJobStore
from repro.exceptions import CheckpointError
from repro.grid.net.framing import decode_message, encode_frame
from repro.grid.net.serve import run_worker
from repro.grid.net.transport import (
    Connection,
    Connector,
    TransportError,
    TransportTimeout,
)
from repro.grid.runtime import flowshop_spec
from repro.grid.runtime import bbprocess
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    CancelJob,
    Idle,
    JobAccepted,
    JobGrant,
    JobList,
    JobPush,
    JobRefused,
    JobStatus,
    JobStatusRequest,
    JobUpdate,
    ListJobs,
    ProblemSpec,
    Reconciled,
    Request,
    SubmitJob,
    Terminate,
    spec_to_wire,
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
from repro.grid.service import server as server_module
from repro.grid.service.client import JobRefusedError, SyncServiceClient
from repro.grid.service.server import ServiceConfig, SolveService
from repro.problems.flowshop import (
    FlowShopInstance,
    FlowShopProblem,
    makespan,
    random_instance,
)

instance_a = random_instance(7, 3, seed=71)
instance_b = random_instance(6, 4, seed=72)
serial_a = solve(FlowShopProblem(instance_a))
serial_b = solve(FlowShopProblem(instance_b))


# ----------------------------------------------------------------------
# MultiJobStore (the durable layout underneath the job store)


def test_multi_job_store_isolates_jobs_and_survives_reopen(tmp_path):
    store = MultiJobStore(tmp_path)
    store.save_meta("job-a", {"status": "queued", "owner": "alice"})
    store.save_meta("job-b", {"status": "running", "owner": "bob"})
    assert store.job_ids() == ["job-a", "job-b"]

    reopened = MultiJobStore(tmp_path)
    assert reopened.load_meta("job-a")["owner"] == "alice"
    assert reopened.load_meta("job-b")["status"] == "running"
    # Per-job checkpoint stores live in disjoint directories.
    assert (
        reopened.job_store("job-a").directory
        != reopened.job_store("job-b").directory
    )


def test_multi_job_store_rejects_path_like_ids(tmp_path):
    store = MultiJobStore(tmp_path)
    for bad in ("../escape", "a/b", "", ".hidden", "semi;colon"):
        with pytest.raises(CheckpointError):
            store.save_meta(bad, {})


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
        JobGrant("job-1", (3, 17), 99, spec={"kind": "k"}),
        JobUpdate("w1", "job-1", (3, 9), 120, 6),
        JobPush("w1", "job-1", 41, (1, 0, 2)),
        Idle(retry_after=0.75),
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
    old = b'{"t":"JobStatusRequest","version":1,"worker":"c","job":"j","seq":3}'
    assert decode_message(old) == JobStatusRequest(
        "c", "j", wait=0.0, seq=3, version=1
    )


def test_job_grant_intervals_survive_as_exact_int_tuples():
    big = math.factorial(50)
    grant = JobGrant("job-1", (big, big + 17), 10, spec={})
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

    def __init__(self, service, script, connected):
        self.service = service
        self.script = list(script)
        self.connected = set(connected)
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

    def close(self):
        pass


def play(script, connected, service=None, **config):
    """Run ``script`` through a service; returns (replies, report)."""
    if service is None:
        service = SolveService(service_config(**config))
    service.listener.close()  # the real socket is never used
    fake = ScriptedListener(service, script, connected)
    service.listener = fake
    return fake.sent, service.serve_forever()


def wire_a():
    return spec_to_wire(flowshop_spec(instance_a))


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
        ("w0", JobGrant),
        ("w0", JobGrant),
    ]
    grant = sent[1][1]
    assert grant.job == sent[0][1].job
    assert grant.seq == 1 and grant.spec == wire_a()
    assert sent[2][1] == grant
    assert report.requests_idled == 1
    assert report.work_allocations == 1


def test_keepalive_answers_with_idle_and_the_current_status(monkeypatch):
    monkeypatch.setattr(server_module, "KEEPALIVE_SECONDS", 0.0)
    service = SolveService(service_config())
    service.jobs.create(wire_a(), owner="alice", job_id="job-x")
    sent, report = play(
        [
            JobStatusRequest("c0", "job-x", wait=30.0, seq=4),
            JobStatusRequest("c0", "job-x", wait=30.0, seq=4),
            CancelJob("c1", "job-x", seq=1),
            Request("w0", seq=9),
        ],
        connected={"w0", "c0", "c1"},
        service=service,
    )
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
    assert sent[3][1].retry_after == 0.0
    assert report.requests_idled == 1


def test_bye_and_newer_rpcs_abandon_what_the_peer_had_parked():
    service = SolveService(service_config())
    service.jobs.create(wire_a(), owner="alice", job_id="job-x")
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
        ("w0", JobGrant),
        ("c1", JobStatus),
        ("w0", Ack),
        ("c0", JobStatus),
        ("c0", JobAccepted),
    ]  # ... and no grant for the worker that said goodbye
    assert report.work_allocations == 1


def test_cancel_answers_a_parked_status_wait():
    service = SolveService(service_config())
    service.jobs.create(wire_a(), owner="alice", job_id="job-x")
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
                heartbeat_interval=0.5,
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


def test_result_is_one_parked_request_per_keepalive(monkeypatch):
    monkeypatch.setattr(server_module, "KEEPALIVE_SECONDS", 0.1)
    service = SolveService(service_config())
    asked = []
    second_wait_parked = threading.Event()
    handle_status = service._on_status

    def counting(msg):
        asked.append(msg.wait)
        reply = handle_status(msg)
        if len(asked) == 2:
            second_wait_parked.set()
        return reply

    service._on_status = counting
    host, port = service.address
    thread, _ = start_service(service)
    try:
        client = SyncServiceClient(host, port, timeout=10.0)
        # No workers: the job is promoted and then just stays running.
        job = client.submit(flowshop_spec(instance_a), owner="alice")
        settled = {}
        waiter = threading.Thread(
            target=lambda: settled.update(
                status=client.result(job, poll_interval=0.01, timeout=60.0)
            ),
            daemon=True,
        )
        waiter.start()
        # The first wait ran into the keep-alive ("still running"), the
        # second is parked; settling the job answers it on the spot.
        assert second_wait_parked.wait(timeout=30)
        client.cancel(job)
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert settled["status"].status == CANCELLED
        assert len(asked) == 2 and all(wait > 0 for wait in asked)
    finally:
        service.shutdown()
        thread.join(timeout=30)


# A weakly tracked problem factory, named on the wire like any other
# spec, so the test below can count how many built problems a worker
# still holds.
_live_problems = weakref.WeakSet()


def _tracked_flowshop(processing_times):
    problem = FlowShopProblem(FlowShopInstance(processing_times))
    _live_problems.add(problem)
    return problem


class OneWorkerService(Connection, Connector):
    """Plays the service to a single worker: one tiny job per Request."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.granted = 0
        self.live_at_terminate = None
        self.inbox = []

    def connect(self, worker_id):
        return self

    def send(self, message):
        if isinstance(message, Request):
            if self.granted == self.jobs:
                gc.collect()
                self.live_at_terminate = len(_live_problems)
                reply = Terminate(math.inf)
            else:
                self.granted += 1
                tiny = random_instance(3, 2, seed=self.granted)
                reply = JobGrant(
                    f"job-{self.granted}",
                    (0, math.factorial(3)),
                    math.inf,
                    spec=spec_to_wire(
                        ProblemSpec(
                            _tracked_flowshop,
                            (tiny.processing_times.tolist(),),
                        )
                    ),
                )
        elif isinstance(message, JobUpdate):
            reply = Reconciled(message.interval, math.inf)
        else:
            assert isinstance(message, (JobPush, Bye))
            reply = Ack(math.inf)
        reply.seq = message.seq
        self.inbox.append(reply)

    def recv(self, timeout=None):
        if not self.inbox:
            raise TransportTimeout("nothing sent")
        return self.inbox.pop(0)

    def close(self):
        pass


def test_worker_forgets_jobs_it_has_moved_on_from():
    service = OneWorkerService(jobs=50)
    outcome = bbprocess.worker_main(
        "w0", None, service, reply_timeout=5.0, max_retries=0
    )
    assert outcome == "terminate"
    assert service.granted == 50
    # All 50 problems were built; only the newest few are still held.
    assert service.live_at_terminate == bbprocess._JOB_CACHE_SIZE


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
    import time

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
