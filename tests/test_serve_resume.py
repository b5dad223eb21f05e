"""Server resume over the checkpoint directory: the crash-only path.

``repro grid serve`` is a :class:`SolveService` holding one job.
``SolveService.abort()`` is the in-process stand-in for ``kill -9`` — it
drops the final forced checkpoint, so a successor only sees what the
periodic snapshot and the journal persisted.  These tests crash a live
loopback run mid-stream, restart with ``resume=True``, and require the
restarted fleet to finish with the serial optimum; plus the stale-epoch
handshake, the refuse-to-guess construction errors, and the command
line's rule for which job a ``--resume`` continues.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
import warnings

import pytest

from repro import cli
from repro.core import Incumbent, Interval, IntervalSet, solve
from repro.exceptions import CheckpointError, RuntimeProtocolError
from repro.grid.net.serve import run_worker
from repro.grid.net.tcp import TcpClientConnection
from repro.grid.net.transport import TransportError, TransportTimeout
from repro.grid.runtime import flowshop_spec
from repro.grid.service.server import ServiceConfig, SolveService
from repro.grid.service.store import RUNNING, JobStore
from repro.problems.flowshop import FlowShopProblem, random_instance
from tests.helpers import journalled_jobs

# 31 300 nodes, 13 improvements over NEH: the run outlasts several
# checkpoint periods, so an abort lands mid-run, before the optimum.
fs_instance = random_instance(11, 4, seed=8)
serial = solve(FlowShopProblem(fs_instance))
SPEC_WIRE = flowshop_spec(fs_instance)


def serve_config(checkpoint_dir, **overrides):
    base = dict(
        port=0,
        deadline=60,
        lease_seconds=5.0,
        linger_seconds=2.0,
        checkpoint_dir=checkpoint_dir,
        checkpoint_period=0.1,
        drain_when_idle=True,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def one_job_service(checkpoint_dir, **overrides):
    """What ``repro grid serve`` runs: the recovered job, or ours admitted."""
    service = SolveService(serve_config(checkpoint_dir, **overrides))
    records = service.jobs.records()
    job = records[-1].job_id if records else service.admit(SPEC_WIRE).job
    return service, job


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

        # Snapshots every 10 ms: the abort lands while the job is young.
        server1, job = one_job_service(ckpt, checkpoint_period=0.01)
        assert server1.epoch == 1
        host, port = server1.address
        thread1, outcome1 = start_server(server1)
        worker_outcomes = {}
        workers1 = start_workers(host, port, 2, "rw1", worker_outcomes)

        # Crash once real progress has been checkpointed but the space
        # is (almost certainly) not yet exhausted.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            coordinator = server1.coordinators.get(job)
            if coordinator is None or (
                coordinator.nodes_explored > 0 and journalled_jobs(ckpt)
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
        # Proved before the abort landed; otherwise the crash was mid-run.
        settled1 = result1.jobs[job]["status"] == "done"
        assert result1.aborted or settled1
        # The abandoned workers gave up against the dead server —
        # unless the abort raced the natural end of the run, in which
        # case a worker may have been terminated (or died mid-RPC) first.
        assert all(
            outcome in ("gave-up", "terminate", "crash")
            for outcome in worker_outcomes.values()
        )

        server2, resumed = one_job_service(ckpt, resume=True)
        assert resumed == job
        assert server2.epoch == 2
        recovered = server2.coordinators.get(job)
        # The optimum is not in the recovered SOLUTION yet, so the
        # successor must explore to find it.
        work_left = (
            recovered is not None and recovered.solution.cost > serial.cost
        )
        host2, port2 = server2.address
        thread2, outcome2 = start_server(server2)
        workers2 = start_workers(host2, port2, 2, "rw2", {})
        for t in workers2:
            t.join(timeout=60)
        thread2.join(timeout=60)
        assert not thread2.is_alive()
        result2 = outcome2["result"]
        doc = result2.jobs[job]

        assert doc["status"] == "done"
        assert not result2.aborted
        assert doc["cost"] == serial.cost
        if settled1:
            # The abort raced the natural end of the run: the job was
            # proved before the crash, and its successor granted nothing.
            assert not work_left
            assert result2.work_allocations == 0
            return
        # Node accounting still reconciles on the resumed run alone,
        # and the job's grants count that run too.
        reported = sum(s["nodes"] for s in result2.worker_stats.values())
        assert doc["nodes"] == reported
        assert doc["work_allocations"] == result2.work_allocations
        if work_left:
            assert doc["nodes"] > 0
            assert result2.work_allocations > 0

    def test_resume_from_clean_shutdown_is_a_noop_run(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        server1, job = one_job_service(ckpt)
        host, port = server1.address
        thread1, outcome1 = start_server(server1)
        workers = start_workers(host, port, 2, "cw", {})
        for t in workers:
            t.join(timeout=60)
        thread1.join(timeout=60)
        assert outcome1["result"].jobs[job]["status"] == "done"

        server2, resumed = one_job_service(ckpt, resume=True)
        assert resumed == job
        thread2, outcome2 = start_server(server2)
        thread2.join(timeout=30)
        result2 = outcome2["result"]
        assert result2.jobs[job]["status"] == "done"
        assert result2.jobs[job]["cost"] == serial.cost
        # A settled job's nodes in meta are the previous run's; this
        # incarnation granted nothing: there was nothing left.
        assert result2.work_allocations == 0

    def test_a_job_resumed_mid_run_counts_grants_from_zero(self, tmp_path):
        jobs = JobStore(tmp_path)
        record = jobs.create(SPEC_WIRE)
        record.status = RUNNING
        record.work_allocations = 5  # an earlier incarnation's grants
        jobs.persist(record)
        jobs.checkpoint_store(record.job_id).save(
            IntervalSet.from_payload([(0, 100)], 0), Incumbent()
        )
        service = SolveService(serve_config(tmp_path, resume=True))
        try:
            # Like the recovered coordinator's nodes: one incarnation.
            assert service.jobs.get(record.job_id).work_allocations == 0
            assert service.coordinators[record.job_id].nodes_explored == 0
        finally:
            service.listener.close()


class TestStaleEpochWorker:
    def test_reconnecting_worker_sees_the_epoch_change(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        server1, _ = one_job_service(ckpt)
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
            server2, _ = one_job_service(ckpt, port=port, resume=True)
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


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def serve_argv(port, ckpt, jobs, *extra):
    return [
        "grid", "serve", "--port", str(port),
        "--jobs", str(jobs), "--machines", "3", "--seed", "5",
        "--checkpoint-dir", str(ckpt),
        "--linger-seconds", "1", "--deadline", "30",
        *extra,
    ]


def serve_with_a_worker(argv):
    """Run ``repro grid serve`` to its end with one in-process worker."""
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(code=cli.main(argv)), daemon=True
    )
    thread.start()
    port = int(argv[argv.index("--port") + 1])
    assert run_worker("127.0.0.1", port, "w0", reply_timeout=2.0) == "terminate"
    thread.join(timeout=30)
    return outcome["code"]


class TestResumeErrors:
    def test_resume_without_checkpoint_dir_is_refused(self):
        with pytest.raises(RuntimeProtocolError, match="checkpoint"):
            SolveService(ServiceConfig(port=0, resume=True))

    def test_resume_from_corrupted_snapshot_is_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        jobs = JobStore(ckpt)
        record = jobs.create(SPEC_WIRE)
        record.status = RUNNING
        jobs.persist(record)
        store = jobs.checkpoint_store(record.job_id)
        store.save(IntervalSet.from_payload([(0, 100)], 0), Incumbent())
        store.journal_explored(Interval(0, 10))
        # Flip a byte inside the snapshot record, which a valid record
        # follows: no torn append, so the CRC must refuse it.
        log = ckpt / "service.log"
        log.write_text(log.read_text().replace('"100"', '"900"', 1))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            SolveService(serve_config(ckpt, resume=True))

    def test_resume_for_another_problem_is_refused(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        port = free_port()
        assert serve_with_a_worker(serve_argv(port, ckpt, 6)) == 0
        # The 6-job job settled; a 7-job command line must not take its
        # ledger for its own root.
        with pytest.raises(RuntimeProtocolError, match="another problem"):
            cli.main(serve_argv(port, ckpt, 7, "--resume"))
        assert "proof: True" in capsys.readouterr().out  # the 6-job run's

    def test_a_resume_leaves_no_handle_on_the_log_to_the_collector(self, tmp_path):
        # The command line vets the directory before the service opens
        # the log; the vetting reads must not leave a file open behind.
        ckpt = tmp_path / "ckpt"
        port = free_port()
        assert serve_with_a_worker(serve_argv(port, ckpt, 6)) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cli.main(serve_argv(port, ckpt, 6, "--resume")) == 0
            gc.collect()
        leaked = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning) and "service.log" in str(w.message)
        ]
        assert leaked == []

    def test_a_fresh_start_over_a_held_job_is_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        JobStore(ckpt).create(SPEC_WIRE)
        with pytest.raises(RuntimeProtocolError, match="already holds"):
            cli.main(serve_argv(free_port(), ckpt, 8))

    def test_resume_over_an_empty_directory_is_a_fresh_start(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        argv = serve_argv(free_port(), ckpt, 6, "--resume")
        assert serve_with_a_worker(argv) == 0
        out = capsys.readouterr().out
        expected = solve(FlowShopProblem(random_instance(6, 3, seed=5))).cost
        assert f"optimal makespan: {expected} (proof: True)" in out
        assert "resumed" not in out


def test_serve_prints_the_jobs_updates_and_redundancy(tmp_path, capsys):
    result_json = tmp_path / "result.json"
    argv = serve_argv(
        free_port(), tmp_path / "ckpt", 7, "--result-json", str(result_json)
    )
    assert serve_with_a_worker(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(result_json.read_text())
    (doc,) = report["jobs"].values()
    # The job's ledger took every Update its one worker had answered.
    assert doc["updates"] == report["worker_stats"]["w0"]["updates"] > 0
    assert f" updates={doc['updates']} " in out
    assert f" redundant={doc['redundant_rate']:.2%} " in out
