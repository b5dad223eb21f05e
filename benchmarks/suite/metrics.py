"""Every metric the suite emits, declared once.

``BENCHMARK.json`` repeats name / unit / direction (and the bound of the
end-to-end metrics) because the driver reads that file; ``test_suite.py``
asserts the two agree.  What ``BENCHMARK.json`` has no room for lives
here: where each per-layer number comes from and — written down *before*
anything was measured — which end-to-end metric on which workload it is
expected to move.

Source ``T`` = the traced pass of a workload (0 on workloads that never
enter the layer), ``P`` = a standalone probe of a public function.
A probe that cannot run reports ``FAILED`` (the contract wants numbers;
the human front end prints ``null`` plus the reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

WORKLOADS: Dict[str, str] = {
    "serial_cheap_bound": (
        "solve() to full proof on 11-13 job x 5 machine flow shops: tiny bound arrays, so "
        "per-call overhead of the engine loop and kernels dominates, not arithmetic; no grid layer"
    ),
    "serial_costly_bound": (
        "solve() over leaf-number slices of 20x20 flow shops: deep tree, cold incumbent, "
        "20-machine pool kernels dominate - same engine as workload 1 used the other way"
    ),
    "fleet_tcp": (
        "solve_parallel with nproc worker processes over loopback TCP, checkpoint dir and "
        "journal on, on 5x larger 20x20 slices: the real multi-core run; coordination gains show only here"
    ),
    "service_stream": (
        "service + fleet subprocesses, closed-loop tenants streaming ~20 ms jobs: "
        "service/net/checkpoint/scheduler timers dominate and the engine does little"
    ),
    "sim_grid": (
        "GridSimulation of 256 volatile hosts on a synthetic workload: stresses interval_set "
        "selection/partitioning at hundreds of intervals; all counts repeat exactly"
    ),
}

FAILED = -1.0  # value of a per-layer metric whose probe or span source failed


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    source: str  # "T" or "P"
    moves: str  # the end-to-end metric it should move
    on: str  # the workload on which it should move it


END_TO_END: List[EndToEnd] = [
    # every duration is in calibrated seconds: see harness.HostSpeed
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of the set-up repeats: catalogue load, instance generation, temp dirs, process "
        "spawn until service and fleet accept traffic, one warm-up result",
    ),
    EndToEnd(
        "result_p50_s", "s", "lower", 0.25,
        "median wall time from the entry-point call to a verified result: a proved optimum "
        "(serial, fleet), submit() to result() == done (service), one simulation (sim_grid)",
    ),
    EndToEnd(
        "results_per_s", "1/s", "higher", 0.25,
        "verified results / (first call start to last result end); the mean-based twin of "
        "result_p50_s, so a fatter tail shows even when the median holds",
    ),
    EndToEnd(
        "cpu_s_per_result", "s", "lower", 0.25,
        "user+sys CPU of the harness and all its children per verified result - catches "
        "polling and busy-waiting that a wall clock hides",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.25,
        "largest resident set among the harness and its (reaped) children",
    ),
]

_SERIAL = "serial_cheap_bound"
_COSTLY = "serial_costly_bound"
_FLEET = "fleet_tcp"
_SERVICE = "service_stream"
_SIM = "sim_grid"


def _layers() -> List[Layer]:
    rows: List[Layer] = []

    def add(name: str, unit: str, better: str, source: str, moves: str, on: str) -> None:
        rows.append(Layer(name, unit, better, source, moves, on))

    # engine: per traced result; self = solve wall - time inside problem callbacks
    add("engine.nodes_explored", "count", "lower", "T", "result_p50_s", _SERIAL)
    add("engine.nodes_per_s", "nodes/s", "higher", "T", "result_p50_s", _SERIAL)
    add("engine.self_s", "s", "lower", "T", "result_p50_s", _SERIAL)
    add("engine.self_us_per_node", "us/node", "lower", "T", "result_p50_s", _SERIAL)
    add("engine.branch_s", "s", "lower", "T", "result_p50_s", _SERIAL)
    add("engine.bound_s", "s", "lower", "T", "result_p50_s", _COSTLY)
    add("engine.leaf_s", "s", "lower", "T", "result_p50_s", _SERIAL)
    add("engine.pruned_share", "ratio", "higher", "T", "result_p50_s", _COSTLY)
    add("engine.improvements", "count", "lower", "T", "result_p50_s", _COSTLY)
    add("engine.wave_result_s", "s", "lower", "P", "result_p50_s", _COSTLY)
    # kernels: the pool evaluator behind the engine
    add("kernels.calls", "count", "lower", "T", "result_p50_s", _COSTLY)
    add("kernels.rows_per_call_p50", "count", "higher", "T", "result_p50_s", _COSTLY)
    add("kernels.us_per_row", "us/row", "lower", "T", "result_p50_s", _COSTLY)
    add("kernels.bytes_per_row_computed", "bytes/row", "lower", "T", "result_p50_s", _COSTLY)
    add("kernels.pool64_us_per_row.m5", "us/row", "lower", "P", "result_p50_s", _SERIAL)
    add("kernels.pool64_us_per_row.m20", "us/row", "lower", "P", "result_p50_s", _COSTLY)
    add("kernels.pool1_us_per_row.m20", "us/row", "lower", "P", "result_p50_s", _FLEET)
    # interval algebra and fold/unfold coding
    add("intervals.select_partition_us.k2", "us", "lower", "P", "result_p50_s", _FLEET)
    add("intervals.select_partition_us.k256", "us", "lower", "P", "result_p50_s", _SIM)
    add("intervals.select_partition_us.k2048", "us", "lower", "P", "result_p50_s", _SIM)
    add("intervals.intersect_us", "us", "lower", "P", "result_p50_s", _SIM)
    add("intervals.subtract_us", "us", "lower", "P", "result_p50_s", _SERVICE)
    add("coding.fold_us.n20", "us", "lower", "P", "result_p50_s", _FLEET)
    add("coding.fold_us.n50", "us", "lower", "P", "result_p50_s", _SIM)
    add("coding.unfold_us.n20", "us", "lower", "P", "result_p50_s", _COSTLY)
    add("coding.unfold_us.n50", "us", "lower", "P", "result_p50_s", _SIM)
    # checkpoint: write side taxes the service, read side guards resume
    add("checkpoint.journal_append_us", "us", "lower", "P", "result_p50_s", _SERVICE)
    add("checkpoint.journal_append_nofsync_us", "us", "lower", "P", "result_p50_s", _SERVICE)
    add("checkpoint.fsync_share", "ratio", "lower", "P", "result_p50_s", _SERVICE)
    add("checkpoint.snapshot_save_ms.k256", "ms", "lower", "P", "result_p50_s", _FLEET)
    add("checkpoint.replay_ms_per_1k", "ms", "lower", "P", "setup_s", _SERVICE)
    add("checkpoint.load_state_ms", "ms", "lower", "P", "setup_s", _SERVICE)
    add("checkpoint.multijob_save_meta_ms", "ms", "lower", "P", "result_p50_s", _SERVICE)
    # framing: JSON frames with bignum intervals
    for kind in ("update_n20", "update_n50", "jobgrant"):
        on = _SERVICE if kind == "jobgrant" else _FLEET
        add(f"framing.encode_us.{kind}", "us", "lower", "P", "result_p50_s", on)
        add(f"framing.decode_us.{kind}", "us", "lower", "P", "result_p50_s", on)
    add("framing.bytes.update_n50", "bytes", "lower", "P", "result_p50_s", _FLEET)
    add("framing.bytes.jobgrant", "bytes", "lower", "P", "result_p50_s", _SERVICE)
    add("framing.framebuffer_feed_us", "us", "lower", "P", "result_p50_s", _SERVICE)
    # tcp: real Listener/Connector on loopback
    add("tcp.connect_ms", "ms", "lower", "P", "setup_s", _FLEET)
    add("tcp.rtt_us_p50", "us", "lower", "P", "result_p50_s", _SERVICE)
    add("tcp.rtt_us_p99", "us", "lower", "P", "result_p50_s", _SERVICE)
    # coordinator: pure protocol logic on a synthetic message stream
    for kind in ("request", "update", "push"):
        add(f"coordinator.handle_us.{kind}.w2", "us", "lower", "P", "results_per_s", _FLEET)
        add(f"coordinator.handle_us.{kind}.w256", "us", "lower", "P", "results_per_s", _SERVICE)
    add("coordinator.msgs_per_s", "1/s", "higher", "P", "results_per_s", _SERVICE)
    # runtime: ParallelResult of the fleet workload, per traced result
    add("runtime.nodes_explored", "count", "lower", "T", "result_p50_s", _FLEET)
    add("runtime.nodes_per_s", "nodes/s", "higher", "T", "result_p50_s", _FLEET)
    add("runtime.explore_s", "s", "lower", "T", "cpu_s_per_result", _FLEET)
    add("runtime.rpc_wait_s", "s", "lower", "T", "result_p50_s", _FLEET)
    add("runtime.rpc_wait_share", "ratio", "lower", "T", "result_p50_s", _FLEET)
    add("runtime.updates", "count", "lower", "T", "cpu_s_per_result", _FLEET)
    add("runtime.work_allocations", "count", "lower", "T", "result_p50_s", _FLEET)
    add("runtime.checkpoint_ops", "count", "lower", "T", "result_p50_s", _FLEET)
    add("runtime.redundant_share", "ratio", "lower", "T", "cpu_s_per_result", _FLEET)
    add("runtime.non_explore_s", "s", "lower", "T", "result_p50_s", _FLEET)
    add("runtime.parallel_efficiency", "ratio", "higher", "T", "result_p50_s", _FLEET)
    # service: client-side spans of the job stream
    add("service.sojourn_p90_ms", "ms", "lower", "T", "results_per_s", _SERVICE)
    add("service.submit_rtt_ms_p50", "ms", "lower", "T", "result_p50_s", _SERVICE)
    add("service.status_rtt_ms_p50", "ms", "lower", "T", "result_p50_s", _SERVICE)
    add("service.queue_wait_ms_p50", "ms", "lower", "T", "result_p50_s", _SERVICE)
    add("service.queue_wait_ms_p90", "ms", "lower", "T", "results_per_s", _SERVICE)
    add("service.overhead_ms_p50", "ms", "lower", "T", "result_p50_s", _SERVICE)
    add("service.overhead_ms_p90", "ms", "lower", "T", "results_per_s", _SERVICE)
    add("service.polls_per_job", "count", "lower", "T", "cpu_s_per_result", _SERVICE)
    add("scheduler.pick_grant_us.j4", "us", "lower", "P", "result_p50_s", _SERVICE)
    add("scheduler.pick_grant_us.j64", "us", "lower", "P", "result_p50_s", _SERVICE)
    add("scheduler.admission_us", "us", "lower", "P", "result_p50_s", _SERVICE)
    add("store.submit_persist_ms", "ms", "lower", "P", "result_p50_s", _SERVICE)
    # sim: paper Table 2 definitions, exact counts
    add("sim.events", "count", "lower", "T", "result_p50_s", _SIM)
    add("sim.events_per_s", "1/s", "higher", "T", "result_p50_s", _SIM)
    add("sim.messages", "count", "lower", "T", "result_p50_s", _SIM)
    add("sim.message_bytes", "bytes", "lower", "T", "result_p50_s", _SIM)
    add("sim.work_allocations", "count", "lower", "T", "result_p50_s", _SIM)
    add("sim.checkpoint_ops", "count", "lower", "T", "result_p50_s", _SIM)
    add("sim.redundant_share", "ratio", "lower", "T", "result_p50_s", _SIM)
    add("sim.worker_exploitation", "ratio", "higher", "T", "result_p50_s", _SIM)
    add("sim.farmer_exploitation", "ratio", "lower", "T", "result_p50_s", _SIM)
    # cli start-up
    add("cli.import_ms", "ms", "lower", "P", "setup_s", _SERVICE)
    add("cli.solve_startup_ms", "ms", "lower", "P", "setup_s", _SERVICE)
    # the tracer's own cost on this workload, and what the traced pass measured
    add("trace.overhead_ratio", "ratio", "lower", "T", "result_p50_s", _SERIAL)
    add("trace.result_mean_s", "s", "lower", "T", "result_p50_s", _SERIAL)
    return rows


PER_LAYER: List[Layer] = _layers()


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
