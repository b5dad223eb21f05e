"""Server resume over the checkpoint directory: the crash-only path.

``GridServer.abort()`` is the in-process stand-in for ``kill -9`` — it
drops the final forced checkpoint, so a successor only sees what the
periodic snapshot and the journal persisted.  These tests crash a live
loopback run mid-stream, restart with ``resume=True``, and require the
restarted fleet to finish with the serial optimum; plus the stale-epoch
handshake and the refuse-to-guess construction errors.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import Incumbent, IntervalSet, solve
from repro.core.checkpoint import CheckpointStore
from repro.exceptions import CheckpointError, RuntimeProtocolError
from repro.grid.net.serve import GridServer, ServeConfig, run_worker
from repro.grid.net.tcp import TcpClientConnection
from repro.grid.net.transport import TransportError, TransportTimeout
from repro.grid.runtime import flowshop_spec
from repro.problems.flowshop import FlowShopProblem, random_instance

fs_instance = random_instance(8, 4, seed=51)
serial = solve(FlowShopProblem(fs_instance))


def serve_config(checkpoint_dir, **overrides):
    base = dict(
        port=0,
        deadline=60,
        lease_seconds=5.0,
        linger_seconds=2.0,
        checkpoint_dir=checkpoint_dir,
        checkpoint_period=0.1,
    )
    base.update(overrides)
    return ServeConfig(**base)


def start_server(server):
    outcome = {}

    def serve():
        outcome["result"] = server.serve_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread, outcome


def start_workers(host, port, count, prefix, outcomes):
    def work(wid):
        try:
            outcomes[wid] = run_worker(
                host,
                port,
                wid,
                update_nodes=150,
                update_period=0.05,
                reply_timeout=2.0,
                max_retries=3,
                heartbeat_interval=0.5,
                max_reconnect_attempts=4,
                backoff_cap=0.2,
            )
        except TransportError:
            # A resumed server with nothing left to explore is gone
            # before a late worker dials in; that is not a failure.
            outcomes[wid] = "unreachable"

    threads = [
        threading.Thread(target=work, args=(f"{prefix}-{i}",), daemon=True)
        for i in range(count)
    ]
    for t in threads:
        t.start()
    return threads


class TestAbortResume:
    def test_abort_midrun_then_resume_completes_exactly(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        spec = flowshop_spec(fs_instance)

        server1 = GridServer(spec, serve_config(ckpt))
        assert server1.epoch == 1
        host, port = server1.address
        thread1, outcome1 = start_server(server1)
        worker_outcomes = {}
        workers1 = start_workers(host, port, 2, "rw1", worker_outcomes)

        # Crash once real progress has been checkpointed but the space
        # is (almost certainly) not yet exhausted.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if (
                server1.coordinator.nodes_explored > 0
                and ckpt.joinpath("intervals.json").exists()
            ):
                break
            time.sleep(0.01)
        server1.abort()
        thread1.join(timeout=30)
        assert not thread1.is_alive()
        for t in workers1:
            t.join(timeout=30)
            assert not t.is_alive()
        result1 = outcome1["result"]

        if result1.aborted:
            # The interesting path: the crash landed mid-run.  The
            # abandoned workers gave up against the dead server —
            # unless the abort raced the natural end of the run, in
            # which case a worker may have been terminated (or died
            # mid-RPC) first.
            assert not result1.optimal
            assert all(
                outcome in ("gave-up", "terminate", "crash")
                for outcome in worker_outcomes.values()
            )

        server2 = GridServer(spec, serve_config(ckpt, resume=True))
        assert server2.epoch == 2
        host2, port2 = server2.address
        thread2, outcome2 = start_server(server2)
        workers2 = start_workers(host2, port2, 2, "rw2", {})
        for t in workers2:
            t.join(timeout=60)
        thread2.join(timeout=60)
        assert not thread2.is_alive()
        result2 = outcome2["result"]

        assert result2.optimal
        assert not result2.aborted
        assert result2.cost == serial.cost
        # Node accounting still reconciles on the resumed run alone.
        reported = sum(
            s["nodes"] for s in result2.worker_stats.values()
        )
        assert result2.nodes_explored == reported
        if result1.aborted and result1.cost > serial.cost:
            # The crash provably landed mid-run (the optimum was not
            # found yet), so the successor had real work left.  When
            # the abort races the natural end of the search, the
            # journal may already cover the whole space and a
            # zero-node resume is the correct outcome — the
            # result2.optimal/cost asserts above still pin it.
            assert result2.nodes_explored > 0

    def test_resume_from_clean_shutdown_is_a_noop_run(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        spec = flowshop_spec(fs_instance)
        server1 = GridServer(spec, serve_config(ckpt))
        host, port = server1.address
        thread1, outcome1 = start_server(server1)
        workers = start_workers(host, port, 2, "cw", {})
        for t in workers:
            t.join(timeout=60)
        thread1.join(timeout=60)
        assert outcome1["result"].optimal

        server2 = GridServer(spec, serve_config(ckpt, resume=True))
        thread2, outcome2 = start_server(server2)
        thread2.join(timeout=30)
        result2 = outcome2["result"]
        assert result2.optimal
        assert result2.cost == serial.cost
        assert result2.nodes_explored == 0  # nothing left to explore


class TestStaleEpochWorker:
    def test_reconnecting_worker_sees_the_epoch_change(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        spec = flowshop_spec(fs_instance)
        server1 = GridServer(spec, serve_config(ckpt))
        host, port = server1.address
        thread1, _ = start_server(server1)

        conn = TcpClientConnection(
            host,
            port,
            "stale-epoch-worker",
            heartbeat_interval=None,
            reconnect_base=0.01,
            reconnect_cap=0.05,
        )
        try:
            conn.open(timeout=10.0)
            assert conn.welcome is not None and conn.welcome.epoch == 1
            assert conn.take_epoch_change() is False

            server1.abort()
            thread1.join(timeout=30)

            # The successor resumes on the *same* port, as a restarted
            # production server would.
            server2 = GridServer(
                spec, serve_config(ckpt, port=port, resume=True)
            )
            thread2, _ = start_server(server2)
            try:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    try:
                        conn.recv(timeout=0.2)
                    except TransportTimeout:
                        pass
                    if (
                        conn.welcome is not None
                        and conn.welcome.epoch == 2
                    ):
                        break
                assert conn.welcome is not None
                assert conn.welcome.epoch == 2
                # The reconnect crossed a server generation: exactly one
                # pending resync, consumed once.
                assert conn.take_epoch_change() is True
                assert conn.take_epoch_change() is False
            finally:
                server2.shutdown()
                thread2.join(timeout=30)
        finally:
            conn.close()


class TestResumeErrors:
    def test_resume_without_checkpoint_dir_is_refused(self):
        with pytest.raises(RuntimeProtocolError, match="checkpoint"):
            GridServer(
                flowshop_spec(fs_instance),
                ServeConfig(port=0, resume=True),
            )

    def test_resume_from_corrupted_snapshot_is_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        store = CheckpointStore(ckpt)
        store.save(IntervalSet.from_payload([(0, 100)], 0), Incumbent())
        # Flip a byte inside the payload: the CRC must catch it.
        text = store.intervals_path.read_text()
        store.intervals_path.write_text(
            text.replace('"100"', '"900"', 1)
        )
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            GridServer(
                flowshop_spec(fs_instance),
                serve_config(ckpt, resume=True),
            )

    def test_resume_merges_cli_warm_start_monotonically(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        store = CheckpointStore(ckpt)
        snapshot_best = Incumbent()
        snapshot_best.update(100.0, (0, 1))
        store.save(IntervalSet.from_payload([(5, 9)], 0), snapshot_best)

        worse = GridServer(
            flowshop_spec(fs_instance),
            serve_config(
                ckpt, resume=True, initial_upper_bound=500.0,
                initial_solution=(1, 0),
            ),
        )
        try:
            assert worse.coordinator.solution.cost == 100.0
        finally:
            worse.listener.close()

        better = GridServer(
            flowshop_spec(fs_instance),
            serve_config(
                ckpt, resume=True, initial_upper_bound=50.0,
                initial_solution=(1, 0),
            ),
        )
        try:
            assert better.coordinator.solution.cost == 50.0
            assert better.coordinator.intervals.to_payload() == [(5, 9)]
        finally:
            better.listener.close()
