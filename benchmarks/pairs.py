"""Alternating parent/change pairs of one suite workload, judged by §8.

    python3 benchmarks/pairs.py --parent <checkout> --workload service_stream

Runs ``benchmarks/suite/run.py`` (each checkout's *own* copy, from that
checkout's root, so each side builds and measures its own source) in
``--pairs`` pairs, alternating which side goes first, and prints per
end-to-end metric: each side's median and quartiles, how many pairs the
change won, and the verdict of the choosing-metrics guide, section 8 —
a gain needs >= 9/10 of the pairs (ties count for neither) *and* medians
further apart than the parent's own inter-quartile distance; a metric
worse than its ``BENCHMARK.json`` bound reads ``REGRESSED``.  Every run
made is printed.  Measure a claim on a seed not used while developing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]


def one_run(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """The end-to-end metrics of one run; a failed result aborts the series."""
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(checkout), stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: run.py printed nothing (exit {done.returncode})")
    line = json.loads(lines[-1])
    if line["failed"]:
        raise SystemExit(f"{checkout}: {line['failed']} of {line['attempted']} results failed")
    return {name: row["value"] for name, row in line["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    parent: List[float], change: List[float], higher_is_better: bool, bound: float
) -> Tuple[int, int, str]:
    """(pairs the change won, pairs tied, what section 8 lets one say)."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c2 = quartiles(change)[1]
    gain = sign * (c2 - p2)
    if gain > p3 - p1 and wins >= 0.9 * len(parent):
        return wins, ties, "GAIN"
    if -gain > bound * abs(p2):
        return wins, ties, "REGRESSED"
    if p3 - p1 > bound * abs(p2) and wins + ties < len(parent):
        return wins, ties, "unresolved (spread wider than the bound)"
    return wins, ties, "within bound"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", default="service_stream")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2007)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(declared["run_seconds"])  # set by the benchmark, same on both sides
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(one_run(sides[side], args.workload, args.seed, seconds))
        print(
            f"pair {pair + 1:>2} ({order[0]} first): "
            + "  ".join(
                f"{m['name']} {runs['parent'][-1][m['name']]:.4g}->{runs['change'][-1][m['name']]:.4g}"
                for m in declared["end_to_end"]
            ),
            flush=True,
        )

    print(f"\n{args.workload}, seed {args.seed}, {seconds:g} s, {args.pairs} alternating pairs")
    print(f"{'metric':<18} {'parent q1/med/q3':<30} {'change q1/med/q3':<30} {'ratio':>6}  wins  verdict")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        wins, ties, word = verdict(parent, change, metric["better"] == "higher", metric["bound"])
        p, c = quartiles(parent), quartiles(change)
        print(
            f"{name:<18} {'/'.join(f'{v:.4g}' for v in p):<30} "
            f"{'/'.join(f'{v:.4g}' for v in c):<30} {c[1] / p[1]:>6.3f}  "
            f"{wins}/{args.pairs}{f' ({ties} tied)' if ties else ''}  {word}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
