"""Chaos over real sockets: the §4.1 invariant, now with TCP underneath.

The randomized chaos schedules (lossy channel + coordinator crashes +
worker crashes/hangs) run over the loopback TCP wire every
``solve_parallel`` uses — seeded, each proving the serial optimum.  On
top, socket-specific faults: a client that RSTs its own
connection mid-run (kill-and-reconnect), a raw peer that dies mid-frame,
a half-open peer that goes silent without closing, and an oversized
frame on the wire.  None of them may cost more than redundant work.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.core import solve
from repro.grid.net.framing import MAX_FRAME_BYTES, encode_frame, Hello
from repro.grid.net.tcp import SocketFaults, TcpClientConnection, TcpListener
from repro.grid.net.transport import TransportTimeout
from repro.grid.runtime import FaultPlan, RuntimeConfig, flowshop_spec, solve_parallel
from repro.grid.runtime.protocol import Ack, JobRefused, Request
from repro.problems.flowshop import FlowShopProblem, random_instance
from tests.helpers import pump, pump_while

# The warm start is not optimal here: 525 nodes and 3 Pushes from its
# bound, so a lost Push would surface as a wrong cost.
fs_instance = random_instance(8, 4, seed=153)
serial = solve(FlowShopProblem(fs_instance))

CHAOS_SEEDS = range(10)


def chaos_config(plan: FaultPlan, **overrides) -> RuntimeConfig:
    base = dict(
        workers=3,
        update_nodes=200,
        update_period=0.05,
        max_slice_nodes=400,
        checkpoint_period=0.0,
        deadline=90,
        reply_timeout=0.4,
        max_retries=6,
        lease_seconds=0.6,
        fault_plan=plan,
    )
    base.update(overrides)
    return RuntimeConfig(**base)


@pytest.mark.slow
class TestChaosOverTcp:
    """The seeded chaos property, over the wire."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_schedule_still_proves_optimum(self, seed):
        assert serial.stats.improvements > 0  # premise: Pushes to lose
        plan = FaultPlan.chaos(seed, workers=3)
        result = solve_parallel(flowshop_spec(fs_instance), chaos_config(plan))
        assert result.optimal, f"seed {seed} lost the proof"
        assert result.cost == serial.cost, f"seed {seed}"


class TestSocketChaos:
    """Faults only a real socket can produce."""

    def test_kill_and_reconnect_mid_slice(self):
        """Workers RST their connection every few frames while slices
        are in flight; reconnect + same-seq retry must recover every
        lost reply and the run still terminates with the optimum."""
        result = solve_parallel(
            flowshop_spec(fs_instance),
            chaos_config(
                FaultPlan(), socket_faults=SocketFaults(reset_after_sends=3)
            ),
        )
        assert result.optimal
        assert result.cost == serial.cost

    def test_lossy_channel_over_tcp(self):
        """Generic channel faults compose with the TCP wire: the
        FaultyListener drops/dups/delays on top of real frames."""
        plan = FaultPlan.chaos(3, workers=3)
        plan.coordinator_crashes = []
        plan.worker_crashes = {}
        plan.worker_hangs = {}
        result = solve_parallel(flowshop_spec(fs_instance), chaos_config(plan))
        assert result.optimal
        assert result.cost == serial.cost

    def test_mid_frame_reset_poisons_only_that_connection(self):
        listener = TcpListener(peer_timeout=5.0)
        try:
            # A peer that says a valid Hello, then dies mid-frame (RST
            # with half a header on the wire).
            raw = socket.create_connection(listener.address, timeout=2.0)
            raw.sendall(encode_frame(Hello("corpse")))
            pump(listener, lambda: "corpse" in listener.connected_workers())
            frame = encode_frame(Request("corpse", seq=1))
            raw.sendall(frame[: len(frame) // 2])
            raw.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            raw.close()  # RST
            # The server must shrug it off and keep serving others.
            healthy = TcpClientConnection(
                *listener.address, "healthy", heartbeat_interval=None
            )
            try:
                pump_while(listener, lambda: healthy.open(timeout=5.0))
                healthy.send(Request("healthy", seq=1))
                message = listener.recv(timeout=2.0)
                assert message.worker == "healthy"
                listener.send("healthy", Ack(1.0, seq=1))
                assert healthy.recv(timeout=2.0) == Ack(1.0, seq=1)
            finally:
                healthy.close()
            pump(
                listener,
                lambda: "corpse" not in listener.connected_workers(),
                timeout=2.0,
            )
            assert "corpse" not in listener.connected_workers()
        finally:
            listener.close()

    def test_half_open_peer_is_reaped_without_heartbeats(self):
        listener = TcpListener(peer_timeout=0.4)
        try:
            silent = TcpClientConnection(
                *listener.address, "silent", heartbeat_interval=None
            )
            try:
                pump_while(listener, lambda: silent.open(timeout=5.0))
                assert listener.connected_workers() == ["silent"]
                # Never closes, never speaks: the read timeout treats it
                # as half-open and drops the connection server-side.
                pump(
                    listener,
                    lambda: not listener.connected_workers(),
                    timeout=3.0,
                )
                assert listener.connected_workers() == []
            finally:
                silent.close()
        finally:
            listener.close()

    def test_heartbeats_keep_an_idle_peer_alive(self):
        listener = TcpListener(peer_timeout=0.6)
        try:
            idle = TcpClientConnection(
                *listener.address, "idle", heartbeat_interval=0.1
            )
            try:
                pump_while(listener, lambda: idle.open(timeout=5.0))

                def poll_like_the_engine():
                    # several peer_timeouts with no protocol traffic,
                    # only the engine's mid-slice polls
                    deadline = time.monotonic() + 1.5
                    while time.monotonic() < deadline:
                        assert idle.poll() is None
                        time.sleep(0.05)

                pump_while(listener, poll_like_the_engine)
                assert listener.connected_workers() == ["idle"]
            finally:
                idle.close()
        finally:
            listener.close()

    def test_a_client_that_makes_no_call_sends_no_heartbeat(self):
        """Heartbeats ride the owner's calls: with no thread behind
        them, a connected client that is never called is reaped."""
        listener = TcpListener(peer_timeout=0.4)
        try:
            quiet = TcpClientConnection(
                *listener.address, "quiet", heartbeat_interval=0.1
            )
            try:
                pump_while(listener, lambda: quiet.open(timeout=5.0))
                assert listener.connected_workers() == ["quiet"]
                pump(
                    listener,
                    lambda: not listener.connected_workers(),
                    timeout=3.0,
                )
                assert listener.connected_workers() == []
            finally:
                quiet.close()
        finally:
            listener.close()

    def test_oversized_frame_drops_the_connection(self):
        listener = TcpListener(peer_timeout=5.0)
        try:
            raw = socket.create_connection(listener.address, timeout=2.0)
            raw.sendall(struct.pack("!I", (16 << 20) + 1))  # absurd length
            raw.settimeout(2.0)

            def closed_on_us():
                # Server closes on us rather than buffering 16 MiB of lies.
                deadline = time.monotonic() + 3.0
                while time.monotonic() < deadline:
                    try:
                        if raw.recv(4096) == b"":
                            return True
                    except socket.timeout:
                        return False
                    except OSError:
                        return True
                return False

            closed, _ = pump_while(listener, closed_on_us)
            raw.close()
            assert closed, "server kept a poisoned connection open"
            with pytest.raises(TransportTimeout):
                listener.recv(timeout=0.1)  # nothing was delivered
        finally:
            listener.close()

    def test_a_peer_that_never_reads_is_dropped_not_buffered(self):
        listener = TcpListener(peer_timeout=5.0)
        raw = socket.socket()
        try:
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.connect(listener.address)
            raw.sendall(encode_frame(Hello("deaf")))
            pump(listener, lambda: "deaf" in listener.connected_workers())
            assert listener.connected_workers() == ["deaf"]
            # It never reads: every reply piles up server-side until
            # the backlog passes one frame's cap.
            reply = JobRefused("x" * (1 << 20))
            sent = 0
            while "deaf" in listener.connected_workers() and sent < 40:
                started = time.monotonic()
                listener.send("deaf", reply)
                assert time.monotonic() - started < 1.0  # never blocks
                sent += 1
            assert listener.connected_workers() == []
            assert sent * len(encode_frame(reply)) > MAX_FRAME_BYTES
        finally:
            raw.close()
            listener.close()
