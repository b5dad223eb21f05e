"""Standalone probes: one public function of one layer, timed from outside.

Each probe runs the function on representative seeded inputs up to
``CALLS`` times (or until its slice of the time budget is spent) and
reports the median.  Probes reach below the stable end-to-end entry
points, so any of them may stop working after a refactor: a probe whose
import or call fails reports every metric it owns as ``None`` with the
reason, and never fails the run.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple
from unittest import mock

from benchmarks.suite.harness import REPO_ROOT, WORK_ROOT, median, percentile
from benchmarks.suite.inputs import load_catalog, matrix

CALLS = 1000
BUDGET_SECONDS = 0.4  # per timed function
SEED = 2007


class Budget:
    def __init__(self, quick: bool):
        self.calls = 40 if quick else CALLS
        self.seconds = 0.03 if quick else BUDGET_SECONDS
        self.quick = quick

    def time(self, fn: Callable[[int], Any], calls: Optional[int] = None) -> List[float]:
        """Per-call seconds of ``fn(i)``: up to ``calls`` calls, or — once 20
        samples are in — until the time budget is spent."""
        samples: List[float] = []
        give_up = time.perf_counter() + self.seconds
        for i in range(calls or self.calls):
            start = time.perf_counter()
            fn(i)
            end = time.perf_counter()
            samples.append(end - start)
            if end > give_up and len(samples) >= 20:
                break
        return samples

    def median_us(self, fn: Callable[[int], Any], calls: Optional[int] = None) -> float:
        return 1e6 * median(self.time(fn, calls))


# ----------------------------------------------------------------------
def probe_kernels(budget: Budget) -> Dict[str, float]:
    from repro.core.kernels import pool_evaluator_for
    from repro.problems.flowshop import FlowShopInstance, FlowShopProblem

    out: Dict[str, float] = {}
    for machines, pool, name in (
        (5, 64, "kernels.pool64_us_per_row.m5"),
        (20, 64, "kernels.pool64_us_per_row.m20"),
        (20, 1, "kernels.pool1_us_per_row.m20"),
    ):
        problem = FlowShopProblem(FlowShopInstance(matrix(20, machines, SEED)))
        depth, states = 0, [problem.root_state()]
        while len(states) < pool or depth < 3:  # a same-depth frontier, 3 jobs placed
            states = [c for s in states[:8] for c in problem.branch(s, depth)]
            depth += 1
        states = states[:pool]
        evaluator = pool_evaluator_for(problem)
        if evaluator is None:
            raise RuntimeError("no pool evaluator for FlowShopProblem")
        out[name] = budget.median_us(lambda i: evaluator(states, depth), 300) / pool
    return out


def _interval_set(records: int, total: int) -> Any:
    """INTERVALS as a coordinator holds it after ``records`` requests."""
    from repro.core import Interval, IntervalSet

    intervals = IntervalSet.initial(Interval(0, total), duplication_threshold=64)
    for worker in range(records):
        intervals.assign(f"w{worker}", 1.0)
    return intervals


def probe_intervals(budget: Budget) -> Dict[str, float]:
    from repro.core import Interval

    total = math.factorial(50)
    out: Dict[str, float] = {}
    for records in (2, 256, 2048):
        intervals = _interval_set(records, total)
        # a re-request: the requester's own copy is released, every record is
        # scored (selection), one is cut (partitioning); the set stays this size
        out[f"intervals.select_partition_us.k{records}"] = budget.median_us(
            lambda i: intervals.assign("w0", 1.0), 300 if records > 256 else None
        )
    intervals = _interval_set(256, total)
    owned = {
        w: rec.interval
        for rec in intervals.records().values()
        for w in rec.owners
    }
    workers = sorted(owned)

    def update(i: int) -> None:
        worker = workers[i % len(workers)]
        current = owned[worker]
        owned[worker] = intervals.update(
            worker, Interval(current.begin + 1000, current.end)
        )

    out["intervals.intersect_us"] = budget.median_us(update)

    def subtract(i: int) -> None:
        worker = workers[i % len(workers)]
        begin = owned[worker].begin + 1000 * (i // len(workers))
        intervals.subtract(Interval(begin, begin + 1000))

    out["intervals.subtract_us"] = budget.median_us(subtract)
    return out


def probe_coding(budget: Budget) -> Dict[str, float]:
    from repro.core import Interval, TreeShape, fold, unfold

    rng = random.Random(SEED)
    out: Dict[str, float] = {}
    for jobs in (20, 50):
        shape = TreeShape.permutation(jobs)
        total = shape.total_leaves
        spans = []
        for _ in range(64):
            begin = rng.randrange(total)
            spans.append(Interval(begin, min(total, begin + rng.randrange(1, total // 1000))))
        actives = [unfold(shape, iv) for iv in spans]
        out[f"coding.unfold_us.n{jobs}"] = budget.median_us(
            lambda i: unfold(shape, spans[i % 64])
        )
        out[f"coding.fold_us.n{jobs}"] = budget.median_us(lambda i: fold(actives[i % 64]))
    return out


def probe_checkpoint(budget: Budget) -> Dict[str, float]:
    from repro.core import CheckpointStore, Incumbent, Interval
    from repro.core.checkpoint import MultiJobStore

    total = math.factorial(50)
    root = Interval(0, total)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="probe-ck-", dir=WORK_ROOT))
    try:
        def journal(store: Any) -> Callable[[int], None]:
            return lambda i: store.journal_explored(Interval(i * 1000, i * 1000 + 1000))

        with_fsync = budget.median_us(journal(CheckpointStore(work / "fsync")))
        with mock.patch("os.fsync", lambda fd: None):
            without = budget.median_us(journal(CheckpointStore(work / "nofsync")))
            # the read side, priced on a full 1000-record journal
            replay_store = CheckpointStore(work / "replay")
            for i in range(1000):
                journal(replay_store)(i)
        replay_store.journal.close()
        replay_ms = 1e3 * median(
            budget.time(lambda i: CheckpointStore(work / "replay").load_state(root), 10)
        )

        intervals = _interval_set(256, total)
        incumbent = Incumbent(3679.0, tuple(range(50)))
        snapshot = CheckpointStore(work / "snapshot")
        save_ms = 1e3 * median(budget.time(lambda i: snapshot.save(intervals, incumbent), 30))
        load_ms = 1e3 * median(
            budget.time(lambda i: CheckpointStore(work / "snapshot").load_state(root), 30)
        )

        jobs = MultiJobStore(work / "multijob")
        meta = {"spec": {"args": matrix(9, 5, SEED)}, "status": "queued", "owner": "probe"}
        meta_ms = 1e3 * median(budget.time(lambda i: jobs.save_meta(f"job{i % 8}", meta), 100))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "checkpoint.journal_append_us": with_fsync,
        "checkpoint.journal_append_nofsync_us": without,
        "checkpoint.fsync_share": 1.0 - without / with_fsync,
        "checkpoint.snapshot_save_ms.k256": save_ms,
        "checkpoint.replay_ms_per_1k": replay_ms,
        "checkpoint.load_state_ms": load_ms,
        "checkpoint.multijob_save_meta_ms": meta_ms,
    }


def _wire_messages() -> Dict[str, Any]:
    from repro.grid.runtime import flowshop_spec
    from repro.grid.runtime.protocol import JobGrant, Update, spec_to_wire
    from repro.problems.flowshop import FlowShopInstance

    def update(jobs: int) -> Any:
        total = math.factorial(jobs)
        return Update("fleet-0.1", (total // 3, total // 2), nodes=4321, consumed=total // 7, seq=99)

    spec = spec_to_wire(flowshop_spec(FlowShopInstance(matrix(9, 5, SEED), name="probe")))
    total = math.factorial(9)
    return {
        "update_n20": update(20),
        "update_n50": update(50),
        "jobgrant": JobGrant("0123456789ab", (0, total), 812.0, spec=spec, seq=7),
    }


def probe_framing(budget: Budget) -> Dict[str, float]:
    from repro.grid.net.framing import FrameBuffer, decode_message, encode_frame, encode_message

    out: Dict[str, float] = {}
    frames: Dict[str, bytes] = {}
    for kind, message in _wire_messages().items():
        frames[kind] = encode_frame(message)
        payload = encode_message(message)
        out[f"framing.encode_us.{kind}"] = budget.median_us(lambda i: encode_frame(message))
        out[f"framing.decode_us.{kind}"] = budget.median_us(lambda i: decode_message(payload))
    out["framing.bytes.update_n50"] = float(len(frames["update_n50"]))
    out["framing.bytes.jobgrant"] = float(len(frames["jobgrant"]))
    buffer = FrameBuffer()
    out["framing.framebuffer_feed_us"] = budget.median_us(
        lambda i: buffer.feed(frames["jobgrant"])
    )
    return out


def probe_tcp(budget: Budget) -> Dict[str, float]:
    from repro.grid.net.tcp import TcpClientConnection, TcpListener
    from repro.grid.net.transport import TransportTimeout
    from repro.grid.runtime.protocol import Ack, Request

    listener = TcpListener("127.0.0.1", 0)
    host, port = listener.address
    stop = threading.Event()

    def echo() -> None:
        while not stop.is_set():
            try:
                message = listener.recv(timeout=0.05)
            except TransportTimeout:
                continue
            listener.send(message.worker, Ack(0.0, seq=message.seq))

    server = threading.Thread(target=echo, name="probe-echo", daemon=True)
    server.start()
    connections: List[Any] = []
    try:
        def connect(i: int) -> None:
            connection = TcpClientConnection(host, port, f"probe-{i}", heartbeat_interval=None)
            connections.append(connection)
            connection.open(timeout=5.0)

        connect_ms = 1e3 * median(budget.time(connect, 20))
        connection = connections[0]

        def round_trip(i: int) -> None:
            connection.send(Request("probe-0", seq=i + 1))
            connection.recv(timeout=5.0)

        rtts = budget.time(round_trip)
    finally:
        for connection in connections:
            connection.close()
        stop.set()
        server.join(timeout=5.0)
        listener.close()
    return {
        "tcp.connect_ms": connect_ms,
        "tcp.rtt_us_p50": 1e6 * median(rtts),
        "tcp.rtt_us_p99": 1e6 * percentile(rtts, 0.99),
    }


def probe_coordinator(budget: Budget) -> Dict[str, float]:
    """``Coordinator.handle`` on a seeded Request / Update / Push stream."""
    from repro.core import Interval
    from repro.grid.runtime import Coordinator
    from repro.grid.runtime.protocol import Push, Request, Update

    out: Dict[str, float] = {}
    total = math.factorial(50)
    for workers in (2, 256):
        rng = random.Random(SEED)
        coordinator = Coordinator(Interval(0, total), duplication_threshold=64)
        names = [f"w{i}" for i in range(workers)]
        seqs = dict.fromkeys(names, 0)
        held: Dict[str, Tuple[int, int]] = {}

        def send(message: Any) -> Any:
            seqs[message.worker] += 1
            message.seq = seqs[message.worker]
            return coordinator.handle(message)

        for name in names:
            held[name] = send(Request(name)).interval
        samples: Dict[str, List[float]] = {"request": [], "update": [], "push": []}
        cost = 4000.0
        started = time.perf_counter()
        handled = 0
        while handled < budget.calls * 3 and time.perf_counter() - started < 3 * budget.seconds:
            name = rng.choice(names)
            draw = rng.random()
            begin, end = held[name]
            if draw < 0.1:
                kind, message = "request", Request(name)
            elif draw < 0.9:
                kind = "update"
                message = Update(name, (min(begin + 10**6, end), end), nodes=500, consumed=10**6)
            else:
                cost -= 0.001
                kind, message = "push", Push(name, cost, tuple(range(50)))
            start = time.perf_counter()
            reply = send(message)
            samples[kind].append(time.perf_counter() - start)
            handled += 1
            if kind != "push":
                held[name] = reply.interval
        elapsed = time.perf_counter() - started
        for kind, values in samples.items():
            out[f"coordinator.handle_us.{kind}.w{workers}"] = 1e6 * median(values)
        if workers == 256:
            out["coordinator.msgs_per_s"] = handled / elapsed
    return out


def probe_scheduler(budget: Budget) -> Dict[str, float]:
    from repro.grid.service.scheduler import Scheduler, SchedulerConfig
    from repro.grid.service.store import JobRecord, JobStore

    rng = random.Random(SEED)
    scheduler = Scheduler(SchedulerConfig(policy="fair"))
    out: Dict[str, float] = {}
    for jobs in (4, 64):
        runnable = [
            (
                JobRecord(f"{i:012x}", {}, owner=f"o{i % 5}", priority=1 + i % 3, order=i + 1),
                rng.randrange(4),
            )
            for i in range(jobs)
        ]
        out[f"scheduler.pick_grant_us.j{jobs}"] = budget.median_us(
            lambda i: scheduler.pick_grant(runnable)
        )
    queued = [record for record, _ in runnable]
    out["scheduler.admission_us"] = budget.median_us(
        lambda i: scheduler.admission_error(queued, 1)
    )
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="probe-store-", dir=WORK_ROOT))
    try:
        store = JobStore(work)
        spec = _wire_messages()["jobgrant"].spec
        out["store.submit_persist_ms"] = 1e3 * median(
            budget.time(lambda i: store.create(spec, owner="probe"), 100)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def probe_cli(budget: Budget) -> Dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

    def run(argv: List[str]) -> Callable[[int], None]:
        def call(i: int) -> None:
            subprocess.run(
                [sys.executable, *argv], env=env, cwd=str(REPO_ROOT), check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
            )
        return call

    repeats = 1 if budget.quick else 5  # a process start is ~0.1-0.4 s: five, not a thousand
    return {
        "cli.import_ms": 1e3 * median(budget.time(run(["-c", "import repro.cli"]), repeats)),
        "cli.solve_startup_ms": 1e3 * median(
            budget.time(
                run(["-m", "repro.cli", "solve", "--jobs", "5", "--machines", "3"]), repeats
            )
        ),
    }


def probe_wave(budget: Budget) -> Dict[str, float]:
    """The costly-bound slices under ``frontier="wave"`` — the one knob probe.

    Fails (reports ``None``) once the knob is gone, by design.
    """
    from benchmarks.suite.workloads import instance_of, interval_of
    from repro.core import solve
    from repro.problems.flowshop import FlowShopProblem

    units = load_catalog()["costly"][: 1 if budget.quick else 3]
    times = []
    for unit in units:
        problem = FlowShopProblem(instance_of(unit))
        start = time.perf_counter()
        result = solve(problem, interval=interval_of(unit), frontier="wave")
        times.append(time.perf_counter() - start)
        if result.cost != unit.cost:
            raise RuntimeError(f"wave cost {result.cost} != catalogued {unit.cost}")
    return {"engine.wave_result_s": median(times)}


PROBES: Dict[Callable[[Budget], Dict[str, float]], Tuple[str, ...]] = {
    probe_kernels: (
        "kernels.pool64_us_per_row.m5",
        "kernels.pool64_us_per_row.m20",
        "kernels.pool1_us_per_row.m20",
    ),
    probe_intervals: (
        "intervals.select_partition_us.k2",
        "intervals.select_partition_us.k256",
        "intervals.select_partition_us.k2048",
        "intervals.intersect_us",
        "intervals.subtract_us",
    ),
    probe_coding: (
        "coding.fold_us.n20", "coding.fold_us.n50",
        "coding.unfold_us.n20", "coding.unfold_us.n50",
    ),
    probe_checkpoint: (
        "checkpoint.journal_append_us",
        "checkpoint.journal_append_nofsync_us",
        "checkpoint.fsync_share",
        "checkpoint.snapshot_save_ms.k256",
        "checkpoint.replay_ms_per_1k",
        "checkpoint.load_state_ms",
        "checkpoint.multijob_save_meta_ms",
    ),
    probe_framing: (
        "framing.encode_us.update_n20", "framing.decode_us.update_n20",
        "framing.encode_us.update_n50", "framing.decode_us.update_n50",
        "framing.encode_us.jobgrant", "framing.decode_us.jobgrant",
        "framing.bytes.update_n50", "framing.bytes.jobgrant",
        "framing.framebuffer_feed_us",
    ),
    probe_tcp: ("tcp.connect_ms", "tcp.rtt_us_p50", "tcp.rtt_us_p99"),
    probe_coordinator: (
        "coordinator.handle_us.request.w2", "coordinator.handle_us.update.w2",
        "coordinator.handle_us.push.w2", "coordinator.handle_us.request.w256",
        "coordinator.handle_us.update.w256", "coordinator.handle_us.push.w256",
        "coordinator.msgs_per_s",
    ),
    probe_scheduler: (
        "scheduler.pick_grant_us.j4", "scheduler.pick_grant_us.j64",
        "scheduler.admission_us", "store.submit_persist_ms",
    ),
    probe_cli: ("cli.import_ms", "cli.solve_startup_ms"),
    probe_wave: ("engine.wave_result_s",),
}


def run_probes(
    quick: bool = False,
    probes: Optional[Dict[Callable[[Budget], Dict[str, float]], Tuple[str, ...]]] = None,
) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """``(values, reasons)``: a failed probe's metrics are ``None`` + why."""
    budget = Budget(quick)
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}
    for probe, names in (probes or PROBES).items():
        try:
            measured = probe(budget)
            missing = [name for name in names if name not in measured]
            if missing:
                raise KeyError(f"probe did not report {missing}")
            values.update({name: measured[name] for name in names})
        except Exception as exc:  # noqa: BLE001 - the boundary that must keep the run alive
            for name in names:
                values[name] = None
                reasons[name] = f"{probe.__name__}: {type(exc).__name__}: {exc}"
    return values, reasons
