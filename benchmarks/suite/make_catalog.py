"""Author ``catalog.json`` — run once, by hand, never by the benchmark.

    PYTHONPATH=src python benchmarks/suite/make_catalog.py [family ...]

(no family: all of them; named families are rebuilt and merged into the
existing file).

For each family it searches seeded candidates for work units whose
explored-node count under the engine *as it stands when this script
runs* lands in the family's band, then proves each unit's optimum a
second time on the scalar per-node path (``batched_bounds=False``, the
repo's own test oracle) and refuses the unit if the two disagree.  The
result is frozen: later engines may explore fewer or more nodes on the
same units — that is what the benchmark is there to show — but the units
and their optima do not move.

This is the only file of the suite allowed to pass engine knobs; it is an
authoring tool, not part of any measured run.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.suite.inputs import CATALOG_PATH, makespan, matrix
from repro.core import Interval, IntervalExplorer, solve
from repro.problems.flowshop import FlowShopInstance, FlowShopProblem

# family -> (sizes, node band or slice target, how many units)
FULL_SOLVES = {
    "cheap": ([(11, 5), (12, 5), (13, 5)], (2000, 3000), 256),
    "job_small": ([(9, 5)], (400, 800), 256),
    "job_large": ([(11, 5)], (3000, 5000), 64),
}
SLICES = {
    "costly": ((20, 20), 6000, 192),
    "fleet": ((20, 20), 30000, 96),
}
SLICE_INSTANCE_SEEDS = 8
SLICE_TOLERANCE = 0.15


def _problem(jobs: int, machines: int, seed: int) -> FlowShopProblem:
    return FlowShopProblem(
        FlowShopInstance(matrix(jobs, machines, seed), name=f"{jobs}x{machines}-s{seed}")
    )


def _capped_nodes(problem: FlowShopProblem, interval: Optional[Interval], cap: int):
    """Explore up to ``cap`` nodes; ``(finished, explorer)``."""
    explorer = IntervalExplorer(problem, interval)
    explorer.step(cap)
    return explorer.is_finished(), explorer


def _checked_unit(
    jobs: int, machines: int, seed: int, interval: Optional[Interval]
) -> Optional[Dict[str, Any]]:
    """Prove the unit twice (default path, scalar oracle); None on any doubt."""
    problem = _problem(jobs, machines, seed)
    first = solve(problem, interval=interval)
    second = solve(_problem(jobs, machines, seed), interval=interval, batched_bounds=False)
    if first.solution is None or first.cost != second.cost:
        return None
    if makespan(matrix(jobs, machines, seed), tuple(first.solution)) != first.cost:
        return None
    unit: Dict[str, Any] = {
        "jobs": jobs,
        "machines": machines,
        "seed": seed,
        "cost": int(first.cost),
        "ref_nodes": first.stats.nodes_explored,
    }
    if interval is not None:
        unit["begin"] = interval.begin
        unit["length"] = interval.length
    return unit


def full_solve_family(
    sizes: List[Tuple[int, int]], band: Tuple[int, int], count: int
) -> Iterator[Dict[str, Any]]:
    low, high = band
    found = 0
    for seed in range(1, 10**6):
        jobs, machines = sizes[seed % len(sizes)]
        finished, explorer = _capped_nodes(_problem(jobs, machines, seed), None, high + 1)
        if not finished or not low <= explorer.stats.nodes_explored <= high:
            continue
        unit = _checked_unit(jobs, machines, seed, None)
        if unit is None:
            continue
        yield unit
        found += 1
        if found == count:
            return


def slice_family(
    size: Tuple[int, int], target: int, count: int, rng: random.Random
) -> Iterator[Dict[str, Any]]:
    jobs, machines = size
    total = math.factorial(jobs)
    found = 0
    while found < count:
        seed = 1 + found % SLICE_INSTANCE_SEEDS
        begin = rng.randrange(total)
        finished, explorer = _capped_nodes(
            _problem(jobs, machines, seed), Interval(begin, total), target
        )
        if finished:
            continue
        interval = Interval(begin, explorer.remaining_interval().begin)
        unit = _checked_unit(jobs, machines, seed, interval)
        if unit is None or abs(unit["ref_nodes"] - target) > SLICE_TOLERANCE * target:
            continue
        yield unit
        found += 1


def main() -> None:
    started = time.time()
    wanted = sys.argv[1:] or [*FULL_SOLVES, *SLICES]
    families: Dict[str, List[Dict[str, Any]]] = {}
    if sys.argv[1:]:
        families = json.loads(CATALOG_PATH.read_text())["families"]
    for name in wanted:
        if name in FULL_SOLVES:
            sizes, band, count = FULL_SOLVES[name]
            families[name] = list(full_solve_family(sizes, band, count))
        else:
            size, target, count = SLICES[name]
            # seeded per family, so rebuilding one leaves the others' draws alone
            families[name] = list(slice_family(size, target, count, random.Random(name)))
        print(f"{name}: {len(families[name])} units, {time.time() - started:.0f}s", flush=True)
    doc = {
        "schema": 1,
        "note": (
            "frozen work units; ref_nodes/cost measured by make_catalog.py on the "
            "default DFS engine and cross-checked on the scalar per-node path"
        ),
        "families": families,
    }
    CATALOG_PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {CATALOG_PATH}")


if __name__ == "__main__":
    main()
