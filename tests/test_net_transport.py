"""The grid/net transport layer: units and loopback end-to-end runs.

Covers the backoff helper, the wire form of problem specs, the TCP
transport against the interface contract, reconnect behavior
under injected socket resets, Bye-stat survival across a coordinator
restart when the goodbye rides a reconnected transport, and the
one-job solve service of ``repro grid serve`` with its ``run_worker``
clients.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time

import pytest

from repro.core import solve
from repro.grid.net.backoff import decorrelated_jitter
from repro.grid.net.framing import WIRE_VERSION, Hello, Welcome, encode_frame
from repro.grid.net.serve import run_worker
from repro.grid.net.tcp import SocketFaults, TcpClientConnection, TcpListener
from repro.grid.net.transport import (
    TransportTimeout,
    WireVersionError,
)
from repro.grid.runtime import (
    CoordinatorCrash,
    FaultPlan,
    RuntimeConfig,
    flowshop_spec,
    solve_parallel,
)
from repro.grid.runtime.protocol import (
    Ack,
    Request,
    spec_from_wire,
    spec_to_wire,
)
from repro.grid.service.server import ServiceConfig, SolveService
from repro.problems.flowshop import FlowShopProblem, random_instance

fs_instance = random_instance(8, 4, seed=51)
serial = solve(FlowShopProblem(fs_instance))


def tcp_config(**overrides) -> RuntimeConfig:
    base = dict(
        workers=2,
        update_nodes=200,
        update_period=0.05,
        max_slice_nodes=400,
        deadline=90,
    )
    base.update(overrides)
    return RuntimeConfig(**base)


def _frame(payload: bytes) -> bytes:
    return struct.pack("!I", len(payload)) + payload


class RawServer:
    """A bare socket that answers every connection's Hello with ``reply``."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.accepted = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            with conn:
                conn.recv(4096)  # the Hello
                conn.sendall(self.reply)
                conn.recv(4096)  # until the client hangs up

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sock.close()


class TestDecorrelatedJitter:
    def test_stays_within_bounds(self):
        rng = random.Random(7)
        delay = 0.05
        for _ in range(500):
            delay = decorrelated_jitter(rng, 0.05, delay, 2.0)
            assert 0.05 <= delay <= 2.0

    def test_growth_bounded_by_triple(self):
        rng = random.Random(11)
        for _ in range(200):
            prev = rng.uniform(0.05, 10.0)
            nxt = decorrelated_jitter(rng, 0.05, prev, 1e9)
            assert nxt <= max(0.05, prev * 3.0)

    def test_rejects_bad_parameters(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            decorrelated_jitter(rng, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            decorrelated_jitter(rng, 1.0, 1.0, 0.5)

    def test_decorrelates_two_synchronized_clients(self):
        a, b = random.Random(1), random.Random(2)
        seq_a = seq_b = 0.1
        diverged = False
        for _ in range(10):
            seq_a = decorrelated_jitter(a, 0.1, seq_a, 8.0)
            seq_b = decorrelated_jitter(b, 0.1, seq_b, 8.0)
            if abs(seq_a - seq_b) > 1e-9:
                diverged = True
        assert diverged


class TestSpecWire:
    def test_roundtrip_builds_the_same_problem(self):
        spec = flowshop_spec(fs_instance)
        wire = spec_to_wire(spec)
        assert isinstance(wire["factory"], str) and ":" in wire["factory"]
        rebuilt = spec_from_wire(wire)
        assert rebuilt.build().total_leaves() == spec.build().total_leaves()

    def test_non_module_factory_refused(self):
        from repro.grid.runtime.protocol import ProblemSpec

        with pytest.raises(ValueError):
            spec_to_wire(ProblemSpec(lambda: None))

    def test_bad_reference_refused(self):
        with pytest.raises(ValueError):
            spec_from_wire({"factory": "no-colon"})
        with pytest.raises(ValueError):
            spec_from_wire({"factory": "math:not_a_real_name"})


class TestTcpTransport:
    def test_request_reply_roundtrip(self):
        listener = TcpListener()
        conn = TcpClientConnection(*listener.address, "w0")
        try:
            conn.send(Request("w0", seq=1))
            message = listener.recv(timeout=5.0)
            assert message == Request("w0", seq=1)
            listener.send("w0", Ack(5.0, seq=1))
            assert conn.recv(timeout=5.0) == Ack(5.0, seq=1)
        finally:
            conn.close()
            listener.close()

    def test_recv_timeout(self):
        listener = TcpListener()
        try:
            with pytest.raises(TransportTimeout):
                listener.recv(timeout=0.01)
        finally:
            listener.close()

    def test_unknown_worker_send_is_dropped(self):
        """Best effort: a reply to nobody is dropped, not raised."""
        listener = TcpListener()
        try:
            listener.send("ghost", Ack(1.0))
            assert listener.connected_workers() == []
        finally:
            listener.close()

    def test_registered_worker_counts_as_connected_while_down(self):
        """A launched worker is waited for before it dials and after its
        socket drops: ``register`` keeps it in ``connected_workers``."""
        listener = TcpListener()
        listener.register("w0")
        try:
            assert listener.connected_workers() == ["w0"]
            conn = TcpClientConnection(
                *listener.address, "w0", heartbeat_interval=None
            )
            conn.send(Request("w0", seq=1))
            assert listener.recv(timeout=5.0) == Request("w0", seq=1)
            conn.close()
            deadline = time.monotonic() + 5.0
            while listener._writers and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not listener._writers  # the server saw the socket go
            assert listener.connected_workers() == ["w0"]
        finally:
            listener.close()

    def test_rpc_survives_client_resets(self):
        """Every other send aborts the connection with an RST; a retry
        loop with the same seq still completes every RPC."""
        listener = TcpListener(peer_timeout=5.0)
        server_done = threading.Event()

        def server():
            while not server_done.is_set():
                try:
                    message = listener.recv(timeout=0.05)
                except TransportTimeout:
                    continue
                listener.send(
                    message.worker, Ack(float(message.seq), seq=message.seq)
                )

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        conn = TcpClientConnection(
            *listener.address,
            "w0",
            heartbeat_interval=None,
            reconnect_base=0.01,
            reconnect_cap=0.1,
            faults=SocketFaults(reset_after_sends=2),
        )
        try:
            for seq in range(1, 8):
                reply = None
                message = Request("w0", seq=seq)
                for _ in range(10):
                    conn.send(message)
                    try:
                        reply = conn.recv(timeout=0.3)
                    except TransportTimeout:
                        continue
                    if reply.seq == seq:
                        break
                assert reply is not None and reply.seq == seq
            assert conn.connects >= 2, "resets should have forced reconnects"
        finally:
            server_done.set()
            conn.close()
            listener.close()
            thread.join(timeout=2.0)

    def test_reconnect_supersedes_stale_connection(self):
        listener = TcpListener(peer_timeout=5.0)
        try:
            old = TcpClientConnection(
                *listener.address, "w0", heartbeat_interval=None
            )
            old.open(timeout=5.0)
            new = TcpClientConnection(
                *listener.address, "w0", heartbeat_interval=None
            )
            new.open(timeout=5.0)
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if listener.connected_workers() == ["w0"]:
                    break
                time.sleep(0.02)
            # Replies go to the most recent Hello for that worker id.
            listener.send("w0", Ack(1.0, seq=1))
            assert new.recv(timeout=2.0) == Ack(1.0, seq=1)
            old.close()
            new.close()
        finally:
            listener.close()

    def test_a_hello_at_another_wire_version_is_closed_unregistered(self):
        listener = TcpListener(peer_timeout=5.0)
        try:
            with socket.create_connection(listener.address, timeout=5.0) as sock:
                sock.sendall(
                    encode_frame(Hello("old", version=2))
                    + encode_frame(Request("old", seq=1))
                )
                try:
                    assert sock.recv(4096) == b""  # no Welcome: closed
                except ConnectionResetError:
                    pass  # closed with the Request unread
            assert listener.connected_workers() == []
            with pytest.raises(TransportTimeout):
                listener.recv(timeout=0.2)  # the Request never got in
        finally:
            listener.close()

    @pytest.mark.parametrize(
        "reply",
        [
            encode_frame(Welcome(version=2)),
            _frame(b'{"t":"Welcome","version":%d}' % (WIRE_VERSION + 1)),
        ],
        ids=["v2-welcome", "future-frame"],
    )
    @pytest.mark.parametrize(
        "dial",
        [
            lambda conn: conn.open(timeout=10.0),
            lambda conn: conn.send(Request("w0", seq=1)),  # lazy reconnect
        ],
        ids=["open", "send"],
    )
    def test_a_welcome_at_another_wire_version_fails_at_once(self, reply, dial):
        server = RawServer(reply)
        conn = TcpClientConnection(
            *server.address,
            "w0",
            heartbeat_interval=None,
            reconnect_base=0.01,
            reconnect_cap=0.05,
        )
        try:
            started = time.monotonic()
            with pytest.raises(WireVersionError):
                dial(conn)
            assert time.monotonic() - started < 2.0
            assert server.accepted == 1  # no reconnect attempt
        finally:
            conn.close()
            server.close()

    def test_unreachable_coordinator_times_out_not_raises(self):
        # Nothing listens on this port: send must drop silently (the
        # retry machinery's job), recv must time out.
        conn = TcpClientConnection(
            "127.0.0.1",
            1,  # reserved port, nothing there
            "w0",
            heartbeat_interval=None,
            connect_timeout=0.2,
            reconnect_base=0.01,
            reconnect_cap=0.05,
        )
        try:
            conn.send(Request("w0", seq=1))  # no exception
            with pytest.raises(TransportTimeout):
                conn.recv(timeout=0.2)
        finally:
            conn.close()


class TestParallelOverTcp:
    def test_same_optimum_as_serial(self):
        result = solve_parallel(flowshop_spec(fs_instance), tcp_config())
        assert result.optimal
        assert result.cost == serial.cost
        assert set(result.worker_stats) == {"worker-0", "worker-1"}

    def test_node_accounting_matches_worker_reports(self):
        result = solve_parallel(
            flowshop_spec(fs_instance), tcp_config(workers=1)
        )
        assert result.optimal and result.cost == serial.cost
        reported = sum(s["nodes"] for s in result.worker_stats.values())
        assert result.nodes_explored == reported

    @pytest.mark.parametrize("transport", ["carrier-pigeon", "inprocess"])
    def test_unknown_transport_refused(self, transport):
        from repro.exceptions import RuntimeProtocolError

        with pytest.raises(RuntimeProtocolError):
            solve_parallel(
                flowshop_spec(fs_instance), tcp_config(transport=transport)
            )

    def test_bye_stats_survive_restart_over_reconnected_transport(self):
        """Satellite regression: the coordinator crashes mid-run AND the
        workers' connections are being reset — the final Byes arrive
        over reconnected transports at a recovered coordinator, and the
        launcher still reports every worker's stats."""
        plan = FaultPlan(
            coordinator_crashes=[
                CoordinatorCrash(after_messages=6, downtime=0.3)
            ]
        )
        result = solve_parallel(
            flowshop_spec(fs_instance),
            tcp_config(
                reply_timeout=0.4,
                max_retries=8,
                lease_seconds=0.6,
                socket_faults=SocketFaults(reset_after_sends=4),
                fault_plan=plan,
            ),
        )
        assert result.optimal
        assert result.cost == serial.cost
        assert result.coordinator_restarts == 1
        assert set(result.worker_stats) == {"worker-0", "worker-1"}
        for stats in result.worker_stats.values():
            assert stats["nodes"] > 0


class TestOneJobService:
    """``repro grid serve``: a solve service that admits one job."""

    def test_serve_and_workers_loopback(self):
        service = SolveService(
            ServiceConfig(port=0, deadline=60, lease_seconds=5.0,
                          linger_seconds=5.0, drain_when_idle=True),
        )
        job = service.admit(spec_to_wire(flowshop_spec(fs_instance))).job
        host, port = service.address
        outcome = {}

        def serve():
            outcome["report"] = service.serve_forever()

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        worker_threads = [
            threading.Thread(
                target=run_worker,
                args=(host, port, f"tw-{i}"),
                kwargs=dict(
                    update_nodes=200,
                    update_period=0.05,
                    reply_timeout=2.0,
                    max_retries=4,
                    heartbeat_interval=0.5,
                ),
                daemon=True,
            )
            for i in range(2)
        ]
        for t in worker_threads:
            t.start()
        for t in worker_threads:
            t.join(timeout=60)
        server_thread.join(timeout=60)
        assert not server_thread.is_alive()
        report = outcome["report"]
        doc = report.jobs[job]
        assert doc["status"] == "done"
        assert doc["cost"] == serial.cost
        # The workers got the problem from their grants, not from us;
        # node accounting must still reconcile exactly.
        assert set(report.worker_stats) == {"tw-0", "tw-1"}
        reported = sum(s["nodes"] for s in report.worker_stats.values())
        assert doc["nodes"] == reported

    def test_shutdown_stops_an_idle_server(self):
        service = SolveService(
            ServiceConfig(port=0, deadline=30, drain_when_idle=True)
        )
        service.admit(spec_to_wire(flowshop_spec(fs_instance)))
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        time.sleep(0.2)
        service.shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
