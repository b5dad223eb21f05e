"""kill -9 end to end: real processes, real sockets, real recovery.

The acceptance run for the crash-only grid: a genuine ``repro grid
serve`` subprocess is SIGKILLed mid-run over loopback TCP, a successor
restarts from the same checkpoint directory with ``--resume``, at
least two worker subprocesses are SIGKILLed along the way (the
supervisor respawns them), and the fleet still terminates with the
serial optimum and exactly reconciled node accounting.
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
from repro.grid.runtime.supervisor import RespawnPolicy, WorkerSupervisor
from repro.problems.flowshop import FlowShopProblem, random_instance

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

# The warm start is not optimal here: 70 930 nodes and 5 Pushes from
# its bound, so the incumbent itself must survive the kill.
JOBS, MACHINES, SEED = 11, 5, 5
fs_instance = random_instance(JOBS, MACHINES, SEED)
serial = solve(FlowShopProblem(fs_instance))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def serve_argv(port, ckpt, result_json, resume=False):
    argv = [
        sys.executable, "-m", "repro.cli", "grid", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--jobs", str(JOBS), "--machines", str(MACHINES),
        "--seed", str(SEED),
        "--checkpoint-dir", str(ckpt),
        "--checkpoint-period", "0.1",
        "--lease-seconds", "3.0",
        "--linger-seconds", "2.0",
        "--deadline", "120",
        "--result-json", str(result_json),
    ]
    if resume:
        argv.append("--resume")
    return argv


def worker_command(port):
    def command_for(slot, incarnation):
        return [
            sys.executable, "-m", "repro.cli", "grid", "worker",
            "--connect", f"127.0.0.1:{port}",
            "--id", f"e2e-{slot}.{incarnation}",
            "--update-nodes", "300",
            "--update-period", "0.05",
            "--reply-timeout", "2.0",
            "--max-retries", "3",
            "--peer-timeout", "2.0",
            "--max-reconnect-attempts", "8",
            "--backoff-cap", "0.2",
        ]

    return command_for


def wait_until(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.mark.slow
def test_sigkill_server_and_workers_recovery(tmp_path):
    ckpt = tmp_path / "ckpt"
    result1_json = tmp_path / "result1.json"
    result2_json = tmp_path / "result2.json"
    port = free_port()
    env = child_env()

    serve1 = subprocess.Popen(
        serve_argv(port, ckpt, result1_json),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    supervisor = WorkerSupervisor(
        worker_command(port),
        workers=3,
        policy=RespawnPolicy(backoff_base=0.05, backoff_cap=0.5),
        poll_interval=0.02,
        quiet=True,
    )
    serve2 = None
    try:
        supervisor.start()

        # Let the run make checkpointed progress: the job's snapshot
        # pair exists and its journal has reconciled updates beyond it.
        def progressed():
            for job_dir in ckpt.glob("jobs/*"):
                journal = job_dir / "journal.log"
                if (
                    (job_dir / "intervals.json").exists()
                    and journal.exists()
                    and journal.stat().st_size > 0
                ):
                    return True
            return False

        assert wait_until(
            lambda: supervisor.poll() or progressed(), timeout=60
        ), "no checkpointed progress before the crash"

        # kill -9 the real server process, mid-run.
        assert serve1.poll() is None, "server finished before the kill"
        os.kill(serve1.pid, signal.SIGKILL)
        assert serve1.wait(timeout=30) == -signal.SIGKILL
        assert not result1_json.exists()  # no graceful wrap-up happened

        # kill -9 two of the three worker subprocesses too.
        killed = 0
        deadline = time.monotonic() + 30
        while killed < 2 and time.monotonic() < deadline:
            supervisor.poll()
            for slot in (0, 1):
                if killed >= 2:
                    break
                if supervisor.kill(slot, signal.SIGKILL) is not None:
                    killed += 1
            time.sleep(0.05)
        assert killed >= 2, "could not SIGKILL two live workers"

        # Restart the server from the same checkpoint directory.
        serve2 = subprocess.Popen(
            serve_argv(port, ckpt, result2_json, resume=True),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

        # Supervisor keeps respawning (killed and gave-up workers
        # alike) until every slot exits 0 on the coordinator's
        # Terminate.
        assert wait_until(
            lambda: (
                supervisor.poll()
                or all(s.done for s in supervisor.slots)
            ),
            timeout=120,
        ), "fleet did not drain after recovery"
        assert all(s.outcome == "clean" for s in supervisor.slots)

        assert serve2.wait(timeout=60) == 0
    finally:
        supervisor.stop()
        for proc in (serve1, serve2):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    # The killed processes really died by signal, and the supervisor
    # really respawned them.
    sigkilled = [
        code
        for status in supervisor.slots
        for code in status.exit_codes
        if code == -signal.SIGKILL
    ]
    assert len(sigkilled) >= 2
    assert sum(s.respawns for s in supervisor.slots) >= 2

    result = json.loads(result2_json.read_text())
    (doc,) = result["jobs"].values()  # the one job, resumed
    assert doc["status"] == "done"
    assert result["aborted"] is False
    assert serial.stats.improvements > 0  # premise: the incumbent moved
    assert doc["cost"] == serial.cost
    assert result["epoch"] == 2
    # Node accounting reconciles exactly on the recovered run: the
    # job's count is the sum of what the workers reported.
    reported = sum(
        stats["nodes"] for stats in result["worker_stats"].values()
    )
    assert doc["nodes"] == reported
