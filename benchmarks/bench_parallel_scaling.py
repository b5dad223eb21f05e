"""Parallel runtime scaling — nodes/sec, speedup, and the coordination tax.

PR 3's tentpole restructured the farmer–worker hot path so exploration
never blocks on coordination: pipelined interval updates (the
``Reconciled`` reply is collected a slice later), adaptive slice sizing
toward a wall-clock update period, a batch-draining coordinator pump,
and an advisory bound heard mid-slice (since PR 20 through the
coordinator's notices, not a shared-memory cell).  This
benchmark solves the same Ta021 20×20 interval slice at 1/2/4/8
workers, asserts that **every** configuration proves the exact optimum
the serial engine proves, and records into ``BENCH_PR3.json``:

* aggregate nodes/sec and the speedup over the 1-worker run;
* the per-worker explore-time vs RPC-wait-time breakdown (measured by
  the workers themselves, not inferred);
* a coordination-tax comparison at the widest worker count: adaptive
  slices vs the legacy fixed-size slices on identical work (the
  synchronous-update and no-shared-bound halves of the legacy mode went
  with their knobs in PR 20; ``BENCH_PR3.json`` keeps their figures).

Honest-measurement note: ``host_cpus`` is recorded because aggregate
nodes/sec cannot exceed what the host's cores can execute — on a
single-core container every worker count time-shares one CPU and the
speedup column reads ≈1×; the RPC-wait column and the coordination-tax
comparison are the host-independent signals there.  On an N-core host
the same harness shows the worker scaling directly.

Run it via ``make bench-parallel`` or directly::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick

The tier-1 smoke test (``tests/test_bench_parallel_scaling.py``) runs
the ``--quick`` configuration (2 workers) on every test run, so the
parallel path's serial-identical-optimum guarantee cannot silently rot.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import Interval, solve  # noqa: E402
from repro.grid.runtime import (  # noqa: E402
    RuntimeConfig,
    flowshop_spec,
    solve_parallel,
)
from repro.problems.flowshop import (  # noqa: E402
    FlowShopProblem,
    random_instance,
    taillard_instance,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR3.json"
DEFAULT_WORKER_COUNTS = [1, 2, 4, 8]


def _make_workload(quick: bool) -> Dict[str, Any]:
    """The instance + interval every configuration solves."""
    if quick:
        instance = random_instance(8, 4, seed=17)
        interval = None  # full tree: tiny anyway
        name = "quick-8x4-full"
    else:
        instance = taillard_instance(20, 20, 1)
        total = math.factorial(instance.jobs)
        interval = Interval(0, total // 10**11)
        name = "ta021-20x20-slice"
    return {"name": name, "instance": instance, "interval": interval}


def _runtime_config(
    workers: int, quick: bool, legacy: bool, interval
) -> RuntimeConfig:
    config = RuntimeConfig(
        workers=workers,
        update_nodes=500 if quick else 2000,
        deadline=120 if quick else 900,
        root_interval=None if interval is None else interval.as_tuple(),
    )
    if legacy:
        # The pre-PR 3 slicing: a fixed node count between Updates.
        config.update_period = None
    return config


def _worker_breakdown(result) -> List[Dict[str, Any]]:
    rows = []
    for worker_id in sorted(result.worker_stats):
        stats = result.worker_stats[worker_id]
        explore = stats.get("explore_seconds", 0.0)
        wait = stats.get("rpc_wait_seconds", 0.0)
        busy = explore + wait
        rows.append(
            {
                "worker": worker_id,
                "nodes": int(stats.get("nodes", 0)),
                "updates": int(stats.get("updates", 0)),
                "explore_seconds": round(explore, 4),
                "rpc_wait_seconds": round(wait, 4),
                "rpc_wait_share": round(wait / busy, 4) if busy else 0.0,
            }
        )
    return rows


def _run_parallel(
    spec,
    workers: int,
    quick: bool,
    expected_cost: float,
    interval,
    legacy: bool = False,
) -> Dict[str, Any]:
    result = solve_parallel(
        spec, _runtime_config(workers, quick, legacy, interval)
    )
    if not result.optimal:
        raise AssertionError(f"{workers}-worker run did not prove optimality")
    if result.cost != expected_cost:
        raise AssertionError(
            f"{workers}-worker run found {result.cost}, "
            f"serial engine proved {expected_cost}"
        )
    return {
        "workers": workers,
        "mode": "legacy" if legacy else "pipelined",
        "cost": int(result.cost),
        "serial_identical_optimum": True,
        "wall_seconds": round(result.wall_seconds, 4),
        "nodes_explored": result.nodes_explored,
        "nodes_per_sec": round(result.nodes_explored / result.wall_seconds),
        "redundant_rate": round(result.redundant_rate, 4),
        "work_allocations": result.work_allocations,
        "explore_seconds": round(result.explore_seconds, 4),
        "rpc_wait_seconds": round(result.rpc_wait_seconds, 4),
        "worker_breakdown": _worker_breakdown(result),
    }


def run_benchmark(
    quick: bool = False, worker_counts: Optional[List[int]] = None
) -> Dict[str, Any]:
    """Scaling sweep + coordination-tax comparison, all optima asserted."""
    if worker_counts is None:
        worker_counts = [1, 2] if quick else list(DEFAULT_WORKER_COUNTS)
    workload = _make_workload(quick)
    instance = workload["instance"]
    interval = workload["interval"]

    serial = solve(
        FlowShopProblem(instance),
        interval=interval,
    )
    spec = flowshop_spec(instance)

    scaling = [
        _run_parallel(spec, workers, quick, serial.cost, interval)
        for workers in worker_counts
    ]
    base = scaling[0]["nodes_per_sec"]
    for record in scaling:
        record["speedup_vs_1_worker"] = round(
            record["nodes_per_sec"] / base, 2
        )

    # Coordination tax: identical work, widest worker count, adaptive
    # vs legacy fixed-size slices.
    tax_workers = max(worker_counts)
    legacy = _run_parallel(
        spec, tax_workers, quick, serial.cost, interval, legacy=True
    )
    pipelined = next(r for r in scaling if r["workers"] == tax_workers)
    coordination = {
        "workers": tax_workers,
        "legacy_nodes_per_sec": legacy["nodes_per_sec"],
        "pipelined_nodes_per_sec": pipelined["nodes_per_sec"],
        "throughput_ratio": round(
            pipelined["nodes_per_sec"] / legacy["nodes_per_sec"], 2
        ),
        "legacy_rpc_wait_seconds": legacy["rpc_wait_seconds"],
        "pipelined_rpc_wait_seconds": pipelined["rpc_wait_seconds"],
        "legacy_run": legacy,
    }

    return {
        "pr": 3,
        "benchmark": (
            "parallel runtime scaling: adaptive slicing, pipelined updates, "
            "coordinator notices"
        ),
        "command": "make bench-parallel",
        "quick": quick,
        "host_cpus": os.cpu_count(),
        "workload": {
            "name": workload["name"],
            "jobs": instance.jobs,
            "machines": instance.machines,
            "interval": None
            if interval is None
            else [interval.begin, interval.end],
            "serial_cost": int(serial.cost),
            "serial_nodes": serial.stats.nodes_explored,
        },
        "scaling": scaling,
        "coordination_tax": coordination,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny instance, 2 workers (the tier-1 smoke configuration)",
    )
    parser.add_argument(
        "--workers",
        type=str,
        default=None,
        help="comma-separated worker counts (default 1,2,4,8; quick: 1,2)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"result file (default {DEFAULT_OUTPUT}; quick mode: stdout only)",
    )
    args = parser.parse_args(argv)

    worker_counts = None
    if args.workers:
        worker_counts = sorted({int(w) for w in args.workers.split(",")})
    report = run_benchmark(quick=args.quick, worker_counts=worker_counts)

    for rec in report["scaling"]:
        print(
            f"workers={rec['workers']:<2} {rec['nodes_explored']:>8} nodes  "
            f"{rec['nodes_per_sec']:>7} n/s  "
            f"speedup {rec['speedup_vs_1_worker']:>5.2f}x  "
            f"rpc-wait {rec['rpc_wait_seconds']:>7.3f}s  "
            f"redundant {rec['redundant_rate']:.2%}"
        )
    tax = report["coordination_tax"]
    print(
        f"coordination tax @ {tax['workers']} workers: "
        f"legacy {tax['legacy_nodes_per_sec']} n/s "
        f"(rpc-wait {tax['legacy_rpc_wait_seconds']:.3f}s) vs pipelined "
        f"{tax['pipelined_nodes_per_sec']} n/s "
        f"(rpc-wait {tax['pipelined_rpc_wait_seconds']:.3f}s) -> "
        f"{tax['throughput_ratio']:.2f}x"
    )
    if report["host_cpus"] < max(r["workers"] for r in report["scaling"]):
        print(
            f"note: host has {report['host_cpus']} CPU(s); worker counts "
            "beyond that time-share cores and the speedup column is "
            "host-limited, not runtime-limited"
        )

    output = args.output
    if output is None and not args.quick:
        output = DEFAULT_OUTPUT
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
