"""kill -9 the multi-tenant service: two jobs in flight; an idle fleet.

The service-level acceptance run for PR 9's crash-only claim: a real
``repro grid service`` subprocess is SIGKILLed over loopback TCP while
two submitted jobs are mid-exploration, a successor restarts from the
same checkpoint directory with ``--resume``, and the shared fleet
still finishes *both* jobs with their serial optima — no Push lost, no
job forgotten, every worker told Terminate.  The second run kills the
service while the whole fleet sits *parked* (every worker's Request
held back because no job has work): the replies die with the service,
so the workers must come back through their ordinary same-seq retry
and pick up a job the successor recovers.  Runs under ``make
chaos-net`` (slow marker).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import solve
from repro.grid.runtime import flowshop_spec
from repro.grid.runtime.protocol import spec_to_wire
from repro.grid.runtime.supervisor import RespawnPolicy, WorkerSupervisor
from repro.grid.service import DONE, JobStore
from repro.grid.service.client import SyncServiceClient
from repro.grid.net.transport import TransportError, TransportTimeout
from repro.problems.flowshop import FlowShopProblem, makespan, random_instance

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

# Small: these jobs only have to finish.
instance_a = random_instance(10, 5, seed=91)
instance_b = random_instance(9, 5, seed=92)
serial_a = solve(FlowShopProblem(instance_a))
serial_b = solve(FlowShopProblem(instance_b))
# 125k and 895k nodes from their warm starts' bounds, each with Pushes
# to lose: both must still be mid-exploration when the kill lands,
# however fast the service hands out work.  Their serial solves run
# inside the slow test, not at import.
inflight_a = random_instance(11, 5, seed=117)
inflight_b = random_instance(12, 5, seed=323)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def service_argv(port, ckpt, report_json=None, resume=False):
    argv = [
        sys.executable, "-m", "repro.cli", "grid", "service",
        "--host", "127.0.0.1", "--port", str(port),
        "--policy", "fair",
        "--checkpoint-dir", str(ckpt),
        "--checkpoint-period", "0.1",
        "--lease-seconds", "3.0",
        "--linger-seconds", "2.0",
        "--deadline", "180",
    ]
    if report_json is not None:
        argv += ["--report-json", str(report_json), "--drain-when-idle"]
    if resume:
        argv.append("--resume")
    return argv


def worker_command(port):
    def command_for(slot, incarnation):
        return [
            sys.executable, "-m", "repro.cli", "grid", "worker",
            "--connect", f"127.0.0.1:{port}",
            "--id", f"svc-{slot}.{incarnation}",
            "--update-nodes", "300",
            "--update-period", "0.05",
            "--reply-timeout", "2.0",
            "--max-retries", "3",
            "--peer-timeout", "2.0",
            "--max-reconnect-attempts", "8",
            "--backoff-cap", "0.2",
        ]

    return command_for


def spawn_service(argv):
    return subprocess.Popen(
        argv,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def fleet_of_three(port):
    return WorkerSupervisor(
        worker_command(port),
        workers=3,
        policy=RespawnPolicy(backoff_base=0.05, backoff_cap=0.5),
        poll_interval=0.02,
        quiet=True,
    )


def wait_until(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def submit_with_retry(client, spec, owner, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        try:
            return client.submit(spec, owner=owner)
        except (TransportError, TransportTimeout, OSError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


@pytest.mark.slow
def test_sigkill_service_with_two_jobs_in_flight(tmp_path):
    ckpt = tmp_path / "ckpt"
    report_json = tmp_path / "report.json"
    port = free_port()

    service1 = spawn_service(service_argv(port, ckpt))
    supervisor = fleet_of_three(port)
    service2 = None
    try:
        client = SyncServiceClient("127.0.0.1", port, timeout=10.0)
        job_a = submit_with_retry(client, flowshop_spec(inflight_a), "alice")
        job_b = submit_with_retry(client, flowshop_spec(inflight_b), "bob")
        supervisor.start()

        # Both jobs in flight: each per-job ledger has a snapshot and
        # journalled updates beyond it.
        def both_journalled():
            supervisor.poll()
            return all(
                (ckpt / "jobs" / job / "intervals.json").exists()
                and (ckpt / "jobs" / job / "journal.log").exists()
                and (ckpt / "jobs" / job / "journal.log").stat().st_size > 0
                for job in (job_a, job_b)
            )

        assert wait_until(both_journalled, timeout=90), (
            "both jobs never reached checkpointed in-flight state"
        )

        # kill -9 the real service process, mid-run, both jobs live.
        assert service1.poll() is None, "service died before the kill"
        os.kill(service1.pid, signal.SIGKILL)
        assert service1.wait(timeout=30) == -signal.SIGKILL
        assert not report_json.exists()

        # Successor: same checkpoint dir, --resume, drain when done.
        service2 = spawn_service(
            service_argv(port, ckpt, report_json=report_json, resume=True)
        )

        assert wait_until(
            lambda: (
                supervisor.poll() or all(s.done for s in supervisor.slots)
            ),
            timeout=150,
        ), "fleet did not drain after service recovery"
        assert all(s.outcome == "clean" for s in supervisor.slots)
        assert service2.wait(timeout=90) == 0
    finally:
        supervisor.stop()
        for proc in (service1, service2):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    report = json.loads(report_json.read_text())
    assert report["aborted"] is False
    assert report["epoch"] == 2
    assert report["jobs_failed"] == 0

    # Both jobs settled with their serial optima — and the recovered
    # solutions really achieve those costs, so no Push was lost across
    # the kill (a lost incumbent would surface as a wrong cost or an
    # unachievable schedule here).
    for job, instance in ((job_a, inflight_a), (job_b, inflight_b)):
        serial = solve(FlowShopProblem(instance))
        assert serial.stats.improvements > 0  # premise: a Push to lose
        summary = report["jobs"][job]
        assert summary["status"] == "done"
        assert summary["cost"] == serial.cost
        assert makespan(instance, tuple(summary["solution"])) == serial.cost


@pytest.mark.slow
def test_sigkill_service_while_the_whole_fleet_is_parked(tmp_path):
    ckpt = tmp_path / "ckpt"
    report_json = tmp_path / "report.json"
    port = free_port()

    service1 = spawn_service(service_argv(port, ckpt))
    supervisor = fleet_of_three(port)
    service2 = None
    try:
        client = SyncServiceClient("127.0.0.1", port, timeout=10.0)
        warm = submit_with_retry(client, flowshop_spec(instance_b), "bob")
        supervisor.start()
        # The fleet is up and has nothing left to do: from here on
        # every worker's Request is parked in the service.
        assert client.result(warm, timeout=90.0).status == DONE
        time.sleep(0.5)
        supervisor.poll()
        assert not any(s.done for s in supervisor.slots)

        assert service1.poll() is None, "service died before the kill"
        os.kill(service1.pid, signal.SIGKILL)
        assert service1.wait(timeout=30) == -signal.SIGKILL

        # A job the successor will find in its durable queue.
        staged = JobStore(ckpt)
        staged.recover()
        job = staged.create(
            spec_to_wire(flowshop_spec(instance_a)), owner="alice"
        ).job_id

        service2 = spawn_service(
            service_argv(port, ckpt, report_json=report_json, resume=True)
        )
        assert wait_until(
            lambda: (
                supervisor.poll() or all(s.done for s in supervisor.slots)
            ),
            timeout=150,
        ), "parked fleet never came back to the recovered service"
        assert all(s.outcome == "clean" for s in supervisor.slots)
        assert service2.wait(timeout=90) == 0
    finally:
        supervisor.stop()
        for proc in (service1, service2):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    report = json.loads(report_json.read_text())
    assert report["aborted"] is False
    assert report["epoch"] == 2
    assert report["jobs_failed"] == 0
    assert report["work_allocations"] >= 1
    # Terminal stays terminal; the recovered job is serial-identical.
    assert report["jobs"][warm]["status"] == "done"
    assert report["jobs"][warm]["cost"] == serial_b.cost
    summary = report["jobs"][job]
    assert summary["status"] == "done"
    assert summary["cost"] == serial_a.cost
    assert makespan(instance_a, tuple(summary["solution"])) == serial_a.cost
