"""Contract entry point: one workload, one run, one JSON line.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints every metric by name with unit
and direction, then — as the last line of stdout — the JSON object the
driver reads.  ``--trace 0`` reports the end-to-end metrics (tracing
off); ``--trace 1`` spends the first 40 % of the window untraced and the
rest under the span recorder, runs the standalone probes, and reports
every per-layer metric instead.  Exit code 1 when any result failed its
oracle, 2 when the program under test is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks/suite: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    # run as a script, sys.path[0] is this directory: its module names
    # (metrics, inputs, ...) must not shadow anything the program imports
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.suite import metrics as declared
from benchmarks.suite.harness import WORK_ROOT, HostSpeed, ResourceMark, Result, median
from benchmarks.suite.report import per_layer_table
from benchmarks.suite.tracing import SpanRecorder
from benchmarks.suite.workloads import WORKLOAD_CLASSES

SETUP_REPEATS = 3
UNTRACED_SHARE = 0.4  # of the window, when --trace 1


def end_to_end(
    results: List[Result],
    setups: List[float],
    before: ResourceMark,
    after: ResourceMark,
    speed: Optional[HostSpeed],
) -> Dict[str, float]:
    """The five metrics; in calibrated seconds when ``speed`` is given."""
    good = [r for r in results if r.ok] or results
    first, last = min(r.start for r in results), max(r.end for r in results)
    cpu = (after.self_cpu - before.self_cpu) + (after.children_cpu - before.children_cpu)
    if speed is None:
        latencies, elapsed = [r.seconds for r in good], last - first
    else:
        latencies = [speed.calibrated(r.start, r.end) for r in good]
        elapsed = speed.calibrated(first, last)
    return {
        "setup_s": median(setups),
        "result_p50_s": median(latencies),
        "results_per_s": len(good) / elapsed,
        # CPU seconds stretch with the host exactly as wall seconds do
        "cpu_s_per_result": cpu * (elapsed / (last - first)) / len(good),
        "peak_rss_mb": after.peak_rss_mb,
    }


def measure(
    workload_name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> Dict[str, Any]:
    """Set up, run the window, tear down; the full record of one run."""
    workload = WORKLOAD_CLASSES[workload_name](seed, quick=quick)
    setups: List[float] = []
    raw_setups: List[float] = []
    repeats = 1 if quick else SETUP_REPEATS
    for repeat in range(repeats):
        if repeat:
            workload.teardown()
        # children's CPU is only visible once they are reaped, so the mark
        # sits before the last set-up and the next one after teardown
        before = ResourceMark.now()
        speed_before = workload.speed.sample()
        start = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.teardown()
            raise
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * (speed_before + workload.speed.sample()) / 2)

    recorder: Optional[SpanRecorder] = None
    traced: List[Result] = []
    layers: Dict[str, float] = {}
    try:
        untraced = workload.run(seconds * (UNTRACED_SHARE if trace else 1.0), None)
        if trace:
            recorder = SpanRecorder()
            traced = workload.run(seconds * (1.0 - UNTRACED_SHARE), recorder)
            if all(r.ok for r in untraced + traced):
                layers = workload.layer_metrics(untraced, traced, recorder)
                layers["trace.result_mean_s"] = sum(r.seconds for r in traced) / len(traced)
                # both passes walk the same inputs in the same order: compare
                # the results they have in common
                both = min(len(untraced), len(traced))
                speed = workload.speed
                layers["trace.overhead_ratio"] = sum(
                    speed.calibrated(r.start, r.end) for r in traced[:both]
                ) / sum(speed.calibrated(r.start, r.end) for r in untraced[:both])
    finally:
        digest = workload.input_digest()
        workload.teardown()
    after = ResourceMark.now()

    results = untraced + traced
    record: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "input_digest": digest,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "failures": sorted({r.why for r in results if not r.ok})[:5],
        "samples": {"setup_s": setups, "result_s": [r.seconds for r in untraced]},
        "host_speed": [factor for _, factor in workload.speed.samples],
        "end_to_end": end_to_end(untraced, setups, before, after, workload.speed),
        "uncalibrated": end_to_end(untraced, raw_setups, before, after, None),
    }
    if recorder is not None:
        WORK_ROOT.mkdir(exist_ok=True)
        trace_path = WORK_ROOT / f"trace-{workload_name}-{seed}.jsonl"
        recorder.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["per_layer"] = layers
    return record


def contract_line(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The driver's JSON object: exactly correct / attempted / failed / metrics."""
    if trace:
        # the contract wants numbers: a probe that could not run reads FAILED
        values = {
            name: {
                "value": declared.FAILED if row["value"] is None else row["value"],
                "unit": row["unit"],
            }
            for name, row in per_layer_table(record).items()
        }
    else:
        values = {
            m.name: {"value": record["end_to_end"][m.name], "unit": m.unit}
            for m in declared.END_TO_END
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": values,
    }


def print_table(line: Dict[str, Any], trace: bool) -> None:
    rows = declared.PER_LAYER if trace else declared.END_TO_END
    for row in rows:
        value = line["metrics"][row.name]["value"]
        print(f"{row.name:<40} {value:>16.6g} {row.unit:<10} ({row.better} is better)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one set-up")
    parser.add_argument("--detail", metavar="PATH", help="also write the full record as JSON")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    record = measure(args.workload, args.seed, args.seconds, trace, args.quick)
    if trace:
        from benchmarks.suite.probes import run_probes

        record["probes"], reasons = run_probes(quick=args.quick)
        record["probe_failures"] = reasons
        for name, reason in reasons.items():
            print(f"probe failed: {name}: {reason}", file=sys.stderr)
    for why in record["failures"]:
        print(f"FAILED: {why}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps(record, indent=1) + "\n")
    line = contract_line(record, trace)
    print_table(line, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
