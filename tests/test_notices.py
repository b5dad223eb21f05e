"""The coordinator's one unsolicited message, end to end.

* ``Coordinator.take_notices`` names exactly the holders whose copy
  someone else cut, and the other holders after a Push lowered SOLUTION;
  the service core sends them ahead of the reply and counts them.
* ``Connection.poll`` never blocks on the TCP client; the RPC layer
  tells a ``Notice`` from a reply by its type.
* A scripted connection drives the real ``worker_main`` (its decisions
  are tested sans IO in ``test_worker_core.py``): a cut is reconciled
  before another node, a dead coordinator noticed at the re-inform Push.
* ``solve_parallel`` and one service job with two holders: same
  optimum, proof, reconciled ledger, notices sent.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from unittest import mock

import pytest

from repro.core import Interval, engine, solve
from repro.grid.net import tcp
from repro.grid.net.framing import MessageDecodeError, decode_message
from repro.grid.net.tcp import TcpClientConnection, TcpListener
from repro.grid.net.transport import Connection, TransportError, TransportTimeout
from repro.grid.runtime import (
    Coordinator,
    RuntimeConfig,
    flowshop_spec,
    solve_parallel,
)
from repro.grid.runtime.bbprocess import _RpcChannel, worker_main
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    GrantWork,
    Notice,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)
from repro.problems.flowshop import FlowShopProblem, random_instance
from tests.helpers import exchange, one_job_core, pump_while

instance = random_instance(9, 5, seed=3)
serial = solve(FlowShopProblem(instance))
TOTAL = math.factorial(instance.jobs)
SPEC = flowshop_spec(instance)  # every grant carries its job's spec


# ----------------------------------------------------------------------
# the coordinator names who to tell
# ----------------------------------------------------------------------
def coordinator(threshold=1):
    return Coordinator(Interval(0, 1000), duplication_threshold=threshold)


def test_split_names_the_holder_and_an_unowned_hand_over_names_nobody():
    # Through the service core, which routes the coordinator's notices
    # into its outbox and counts them.
    core = one_job_core(1000, duplication_threshold=1)
    _, told = exchange(core, Request("w0", seq=1))  # the whole root: nobody held it
    assert told == []
    grant, told = exchange(core, Request("w1", seq=1))
    assert grant.interval == (500, 1000)
    assert told == [("w0", Notice(math.inf, True))]
    assert core.coordinators[""].take_notices() == []  # taken once
    core.release_worker("w1")
    _, told = exchange(core, Request("w2", seq=1))  # w1's orphan, whole
    assert told == []
    assert core.notices_sent == 1


def test_a_finished_duplicate_names_the_twin():
    coord = coordinator(threshold=2000)  # everything is duplicated
    coord.handle(Request("w0", seq=1))
    coord.handle(Request("w1", seq=1))
    assert coord.take_notices() == []  # a twin joining cuts nobody
    coord.handle(Update("w0", (400, 1000), nodes=10, consumed=400, seq=2))
    assert coord.take_notices() == []  # the copy shrank, but from the left
    coord.handle(Update("w0", (1000, 1000), nodes=10, consumed=600, seq=3))
    assert coord.take_notices() == [("w1", Notice(math.inf, True))]
    assert coord.intervals.is_empty()


def test_a_push_tells_every_other_holder_the_cost_solution_holds():
    coord = coordinator()
    grants = {
        worker: coord.handle(Request(worker, seq=1)).interval
        for worker in ("w0", "w1", "w2")
    }
    coord.take_notices()
    coord.handle(Push("w1", 90.0, (1, 2), seq=2))
    assert coord.take_notices() == [
        ("w0", Notice(90.0, False)),
        ("w2", Notice(90.0, False)),
    ]
    coord.handle(Push("w0", 95.0, (2, 1), seq=2))  # no improvement
    assert coord.take_notices() == []
    # A worker holding nothing reads the cost off its next grant.
    end = grants["w2"][1]
    coord.handle(Update("w2", (end, end), nodes=1, consumed=1, seq=2))
    coord.handle(Push("w0", 80.0, (2, 1), seq=3))
    assert coord.take_notices() == [("w1", Notice(80.0, False))]


def test_a_holder_that_ran_past_the_cut_shrinks_the_requesters_copy():
    coord = coordinator()
    coord.handle(Request("w0", seq=1))
    coord.handle(Request("w1", seq=1))  # w0 keeps [0, 500), w1 [500, 1000)
    coord.take_notices()
    # w0 had not heard yet: it is at 700 of the [0, 1000) it was granted.
    reply = coord.handle(Update("w0", (700, 1000), nodes=50, consumed=700, seq=2))
    assert Interval.from_tuple(reply.interval).is_empty()
    assert coord.intervals.intervals() == [Interval(700, 1000)]
    assert coord.take_notices() == [("w1", Notice(math.inf, True))]
    # w1's own report is then reconciled with what is left of its copy.
    reply = coord.handle(Update("w1", (520, 1000), nodes=5, consumed=20, seq=2))
    assert reply.interval == (700, 1000)
    assert coord.take_notices() == []


# ----------------------------------------------------------------------
# poll() never waits; a Notice is never a reply
# ----------------------------------------------------------------------
def test_tcp_poll_reads_the_socket_without_blocking():
    listener = TcpListener(peer_timeout=5.0)
    conn = TcpClientConnection(*listener.address, "w0", heartbeat_interval=None)
    try:
        # The parent's only non-blocking read, recv(timeout=0), gives up
        # before it looks at the socket.
        assert conn.poll() is None  # not connected: no dialling from here
        pump_while(listener, lambda: conn.open(timeout=5.0))
        started = time.monotonic()
        assert conn.poll() is None
        assert time.monotonic() - started < 0.2  # the socket's own timeout is 0.25 s
        listener.send("w0", Notice(7.0, False, job="j"))
        listener.send("w0", Ack(1.0, seq=1))
        got = []
        deadline = time.monotonic() + 2.0
        while len(got) < 2 and time.monotonic() < deadline:
            message = conn.poll()
            if message is not None:
                got.append(message)
        assert got == [Notice(7.0, False, job="j"), Ack(1.0, seq=1)]
    finally:
        conn.close()
        listener.close()


def test_a_worker_that_predates_the_notice_drops_the_frame(monkeypatch):
    def old_decode(payload):
        if b'"t":"Notice"' in payload:
            raise MessageDecodeError("unknown message type 'Notice'")
        return decode_message(payload)

    listener = TcpListener(peer_timeout=5.0)
    conn = TcpClientConnection(*listener.address, "w0", heartbeat_interval=None)
    try:
        pump_while(listener, lambda: conn.open(timeout=5.0))
        monkeypatch.setattr(tcp, "decode_message", old_decode)
        listener.send("w0", Notice(7.0, True))
        listener.send("w0", Ack(1.0, seq=1))
        assert conn.recv(timeout=2.0) == Ack(1.0, seq=1)
        assert conn.connects == 1  # the stream survived the unknown type
    finally:
        conn.close()
        listener.close()


class Fifo(Connection):
    """A connection whose coordinator is a function of what was sent."""

    def __init__(self, answer=None):
        self.sent = []
        self.fifo = deque()
        self.answer = answer

    def send(self, message):
        self.sent.append(message)
        if self.answer is not None:
            for item in self.answer(message):
                self.fifo.append(item)

    def recv(self, timeout=None):
        if not self.fifo:
            raise TransportTimeout("nothing sent")
        return self.fifo.popleft()

    def poll(self):
        return self.fifo.popleft() if self.fifo else None

    def close(self):
        pass


def channel(conn):
    return _RpcChannel(conn, 1.0, 0, {"rpc_wait_seconds": 0.0})


def test_notice_arriving_while_collect_waits_is_not_the_reply():
    conn = Fifo()
    chan = channel(conn)
    conn.fifo.extend([Notice(5.0, True), Ack(3.0, seq=1)])
    # The parent took any seq-0 frame for the reply: the Notice.
    assert chan.call(Push("w0", 3.0, (0,))) == Ack(3.0, seq=1)
    assert chan.poll() == [Notice(5.0, True)]
    assert chan.poll() == []


def test_poll_keeps_an_early_reply_for_collect():
    conn = Fifo()
    chan = channel(conn)
    chan.send(Update("w0", (0, 9), nodes=1, consumed=1))
    conn.fifo.extend([Reconciled((0, 9), 5.0, seq=1), Notice(4.0, False)])
    assert chan.poll() == [Notice(4.0, False)]
    assert not conn.fifo
    assert chan.collect() == Reconciled((0, 9), 5.0, seq=1)


def test_an_unsequenced_reply_is_discarded_not_returned():
    conn = Fifo()
    conn.fifo.extend([Ack(3.0), Ack(2.0, seq=1)])  # seq 0 names no RPC
    assert channel(conn).call(Push("w0", 3.0, (0,))) == Ack(2.0, seq=1)


# ----------------------------------------------------------------------
# the worker loop, against a scripted coordinator
# ----------------------------------------------------------------------
POLL_NODES = 32
SLICE_NODES = 256  # several slices per run, each far longer than a poll period


class ScriptedCoordinator(Fifo):
    """One grant of ``[0, end)``, then Terminate; notices on cue.

    ``cue(self)`` runs at every ``poll`` and may put a Notice in the
    FIFO.  ``via`` records, per reply, whether the worker took it off
    the connection blocking (``recv``) or mid-slice (``poll``).
    """

    def __init__(self, best, cue):
        super().__init__(self._reply)
        self.end = TOTAL
        self.best = best
        self.cue = cue
        self.polls = 0
        self.granted = False
        self.halve_next = False  # cut the next Update's report in half
        self.via = {}

    def _reply(self, message):
        if isinstance(message, Request):
            if self.granted:
                reply = Terminate(self.best)
            else:
                reply = GrantWork((0, self.end), self.best, spec=SPEC)
            self.granted = True
        elif isinstance(message, Update):
            begin, end = message.interval
            if self.halve_next:
                self.halve_next = False
                self.end = begin + (end - begin) // 2
            reply = Reconciled((begin, min(end, self.end)), self.best)
        else:
            assert isinstance(message, (Push, Bye))
            if not isinstance(message, Bye):
                self.best = min(self.best, message.cost)
            reply = Ack(self.best)
        reply.seq = message.seq
        return [reply]

    def _take(self, how):
        message = self.fifo.popleft()
        if not isinstance(message, Notice):
            self.via[message.seq] = how
        return message

    def recv(self, timeout=None):
        if not self.fifo:
            raise TransportTimeout("nothing sent")
        return self._take("recv")

    def poll(self):
        self.polls += 1
        if self.cue is not None:
            self.cue(self)
        return self._take("poll") if self.fifo else None

    def updates(self):
        return [m for m in self.sent if isinstance(m, Update)]


def run_worker(conn, slice_nodes=SLICE_NODES):
    # Unpooled explorers: one parent per wave, so polls every 32 nodes.
    with mock.patch.object(engine, "pool_evaluator_for", lambda problem: None):
        return worker_main(
            "w0",
            conn,
            update_nodes=slice_nodes,
            max_retries=0,
            bound_poll_nodes=POLL_NODES,
        )


def test_cut_notice_ends_the_slice_and_is_reconciled_before_the_next_node():
    def cue(conn):
        if conn.polls == 4:  # ~96 nodes into the first slice
            conn.halve_next = True  # what assign() did to the copy
            conn.fifo.append(Notice(conn.best, True))

    conn = ScriptedCoordinator(best=serial.cost, cue=cue)
    assert run_worker(conn) == "terminate"
    (stats,) = [m.stats for m in conn.sent if isinstance(m, Bye)]
    first, second = conn.updates()[:2]
    # The slice ended at the poll that read the notice, not 256 nodes in.
    assert 3 * POLL_NODES <= first.nodes <= 3 * POLL_NODES + instance.jobs
    assert first.interval[1] == TOTAL  # it reports what it believes ...
    assert conn.via[first.seq] == "recv"  # ... and waits to be corrected
    assert second.interval[1] == conn.end < TOTAL  # explorer.end shrank
    assert stats["notices"] == 1 and stats["early_yields"] == 1
    # Every other Update of the run was pipelined: its reply was lying
    # there when the next slice's entry poll looked.
    later = [u for u in conn.updates()[1:-1]]
    assert later and all(conn.via[u.seq] == "poll" for u in later)


def test_an_unanswered_reinform_push_gives_up_before_any_update():
    def answer(message):
        if isinstance(message, Request):
            requests.append(message)  # each time: "nobody has a solution"
            reply = GrantWork((0, TOTAL), math.inf, spec=SPEC)
        elif len(requests) > 1:
            return []  # the coordinator is gone
        elif isinstance(message, Update):
            reply = Reconciled(message.interval, math.inf)
        else:
            reply = Ack(message.cost)
        reply.seq = message.seq
        return [reply]

    requests = []
    conn = Fifo(answer)
    # One slice finds and pushes the optimum; the second grant's stale
    # best asks for a re-inform that nobody answers.
    assert run_worker(conn, slice_nodes=1 << 20) == "gave-up"
    assert [type(m) for m in conn.sent[-2:]] == [Request, Push]
    assert conn.sent[-1].cost == serial.cost


def test_an_unanswered_request_ends_in_one_farewell_at_seq_0():
    conn = Fifo()  # nobody answers
    assert run_worker(conn) == "gave-up"
    request, bye = conn.sent
    assert isinstance(request, Request) and request.seq == 1
    assert isinstance(bye, Bye) and bye.seq == 0


# ----------------------------------------------------------------------
# real processes over TCP, and the service
# ----------------------------------------------------------------------
@pytest.mark.timeout(120)
def test_solve_parallel_sends_notices_and_proves_the_serial_optimum():
    result = solve_parallel(
        flowshop_spec(instance),
        RuntimeConfig(
            workers=2,
            update_nodes=100,
            update_period=None,
            bound_poll_nodes=32,
            deadline=90,
        ),
    )
    assert result.optimal and result.cost == serial.cost
    assert tuple(result.solution) is not None
    assert not result.crashed_workers
    assert result.notices_sent > 0
    stats = result.worker_stats.values()
    assert result.nodes_explored == sum(s["nodes"] for s in stats)
    assert result.checkpoint_operations == sum(s["updates"] for s in stats)
    assert result.early_yields == sum(s["early_yields"] for s in stats)
    assert sum(s["notices"] for s in stats) <= result.notices_sent


@pytest.mark.timeout(120)
def test_service_job_with_two_holders_gets_job_tagged_notices(tmp_path):
    from repro.grid.net.serve import run_worker
    from repro.grid.service.client import SyncServiceClient
    from repro.grid.service.server import ServiceConfig, SolveService

    service = SolveService(
        ServiceConfig(
            checkpoint_dir=tmp_path,
            poll_interval=0.01,
            linger_seconds=2.0,
            drain_when_idle=True,
        )
    )
    host, port = service.address
    outcome = {}
    pump = threading.Thread(
        target=lambda: outcome.update(report=service.serve_forever()), daemon=True
    )
    pump.start()
    client = SyncServiceClient(host, port, timeout=10.0)
    job = client.submit(flowshop_spec(instance), owner="alice")
    def work(worker_id):
        try:
            run_worker(
                host, port, worker_id,
                update_nodes=100, update_period=None,
            )
        except TransportError:
            pass  # the service drained and left before this one got in

    workers = [
        threading.Thread(target=work, args=(f"w{i}",), daemon=True)
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    status = client.result(job, timeout=60.0)
    for worker in workers:
        worker.join(timeout=30)
    pump.join(timeout=30)
    report = outcome["report"]
    assert status.status == "done" and status.best_cost == serial.cost
    assert report.jobs[job]["work_allocations"] >= 2  # it had two holders
    assert report.notices_sent > 0
    heard = sum(s["notices"] for s in report.worker_stats.values())
    assert 0 < heard <= report.notices_sent  # tagged with the job: counted
    # A slice reported after the job settled still counts for it.
    assert 0 < report.jobs[job]["nodes"] == sum(
        s["nodes"] for s in report.worker_stats.values()
    )
