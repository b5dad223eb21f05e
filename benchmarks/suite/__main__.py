"""Human front end: ``PYTHONPATH=src python -m benchmarks.suite run|probes|compare``.

``run`` repeats the contract entry point (``run.py``, one fresh process
per workload per repeat — exactly what the driver does), alternating the
workload order between repeats, keeps every sample, and writes one
versioned JSON document.  ``probes`` runs only the standalone probes.
``compare A.json B.json`` judges B against A with the bounds of
``BENCHMARK.json``.  ``calibrate`` repeats the driver's steadiness test:
one run per seed, IQR / median of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.suite import metrics as declared
from benchmarks.suite import report
from benchmarks.suite.harness import REPO_ROOT, WORK_ROOT

RUN_PY = Path(__file__).with_name("run.py")


def one_run(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Optional[Dict[str, Any]]:
    """One ``run.py`` process; its full record, or ``None`` if it crashed."""
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=WORK_ROOT) as detail:
        argv = [
            sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--detail", detail.name,
        ]
        if quick:
            argv.append("--quick")
        done = subprocess.run(argv, cwd=str(REPO_ROOT), stdout=subprocess.DEVNULL)
        text = Path(detail.name).read_text()
    if done.returncode not in (0, 1) or not text:
        print(f"{workload}: run.py exited {done.returncode} without a record", file=sys.stderr)
        return None
    return json.loads(text)


def cmd_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(declared.WORKLOADS)
    seconds = args.seconds if args.seconds else (1.0 if args.quick else 20.0)
    repeats = args.repeats if args.repeats else (1 if args.quick else 5)
    prov = report.provenance(args.seed)
    records: List[Dict[str, Any]] = []
    crashed = 0
    for repeat in range(repeats):
        for name in names if repeat % 2 == 0 else reversed(names):
            record = one_run(name, args.seed, seconds, False, args.quick)
            if record is None:
                crashed += 1
                continue
            records.append(record)
            values = "  ".join(
                f"{m.name}={record['end_to_end'][m.name]:.4g}{m.unit}" for m in declared.END_TO_END
            )
            print(f"[{repeat + 1}/{repeats}] {name:<20} failed={record['failed']}  {values}")
    traced: Dict[str, Dict[str, Any]] = {}
    if args.traced:
        for name in names:
            record = one_run(name, args.seed, seconds, True, args.quick)
            if record is None:
                crashed += 1
                continue
            traced[name] = record
    document = report.aggregate(records, traced, crashed, args.seed, args.quick, prov)
    print_document(document)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if document["failed_share"] > 0 else 0


def print_document(document: Dict[str, Any]) -> None:
    prov = document["provenance"]
    print(
        f"\nschema {document['schema']}  rev {prov['git_rev'][:12]}"
        f"{'+dirty' if prov['git_dirty'] else ''}  nproc {prov['nproc']}  "
        f"fs {prov['checkpoint_fs']}  load {prov['loadavg_1m_at_start']:.2f}"
        f"{'  NOISY' if prov['noisy'] else ''}  seed {document['seed']}"
    )
    for name, entry in document["workloads"].items():
        print(f"\n{name}  inputs {entry['input_digest']}  failed {entry['failed']}/{entry['attempted']}")
        for metric, cell in entry["end_to_end"].items():
            spread = (cell["q3"] - cell["q1"]) / cell["median"] if cell["median"] else 0.0
            print(
                f"  {metric:<20} {cell['median']:>12.5g} {cell['unit']:<5} "
                f"({cell['better']} is better, bound {cell['bound']:.2f}, "
                f"IQR/median {spread:.3f}, n={len(cell['samples'])})"
            )
        for metric, cell in entry.get("per_layer", {}).items():
            if cell["on"] != name and (cell["source"] == "P" or not cell["value"]):
                continue  # a probe filed under another workload, or a layer never entered
            value = "null" if cell["value"] is None else f"{cell['value']:.5g}"
            reason = f"  [{cell['reason']}]" if cell["value"] is None else ""
            print(
                f"    {metric:<40} {value:>12} {cell['unit']:<10} "
                f"-> {cell['moves']} on {cell['on']}{reason}"
            )
    print(f"\nfailed_share {document['failed_share']:.6f}   claim: null")


def cmd_probes(args: argparse.Namespace) -> int:
    from benchmarks.suite.probes import run_probes

    values, reasons = run_probes(quick=args.quick)
    for layer in declared.PER_LAYER:
        if layer.source != "P":
            continue
        value = values.get(layer.name)
        shown = "null" if value is None else f"{value:.5g}"
        reason = f"  [{reasons[layer.name]}]" if value is None else ""
        print(f"{layer.name:<40} {shown:>12} {layer.unit:<10} ({layer.better} is better){reason}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """The driver's own steadiness test: one run per seed, IQR / median per metric."""
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    prov = report.provenance(args.first_seed)
    spreads: Dict[str, Dict[str, Any]] = {}
    for name in [args.workload] if args.workload else list(declared.WORKLOADS):
        records = [one_run(name, seed, args.seconds, False, False) for seed in seeds]
        good = [r for r in records if r is not None and r["failed"] == 0]
        spreads[name] = {"runs": len(records), "clean_runs": len(good)}
        for metric in declared.END_TO_END:
            values = [r["end_to_end"][metric.name] for r in good]
            q1, middle, q3 = report.quartiles(values)
            spreads[name][metric.name] = {
                "median": middle, "spread": (q3 - q1) / middle, "bound": metric.bound,
                "values": values,
            }
            print(f"{name:<20} {metric.name:<18} median {middle:>10.5g}  "
                  f"IQR/median {(q3 - q1) / middle:.4f}  (bound {metric.bound:.2f})")
    document = {"schema": report.SCHEMA_VERSION, "provenance": prov, "seeds": seeds,
                "seconds": args.seconds, "spreads": spreads}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    rows, regressed = report.compare(a, b)
    print(report.format_rows(rows))
    print(f"failed_share: A {a['failed_share']:.6f}  B {b['failed_share']:.6f}")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="repeat the workloads, aggregate, write one JSON")
    run_p.add_argument("--seed", type=int, default=2007)
    run_p.add_argument("--workload", choices=sorted(declared.WORKLOADS))
    run_p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    run_p.add_argument("--quick", action="store_true", help="tiny inputs, 1 s, one repeat")
    run_p.add_argument("--repeats", type=int, help="runs per workload (default 5)")
    run_p.add_argument("--seconds", type=float, help="window per run (default 20)")
    run_p.add_argument("--out", metavar="F")
    run_p.set_defaults(func=cmd_run)
    probes_p = sub.add_parser("probes", help="run only the standalone probes")
    probes_p.add_argument("--quick", action="store_true")
    probes_p.set_defaults(func=cmd_probes)
    calibrate_p = sub.add_parser("calibrate", help="one run per seed; spread of every metric")
    calibrate_p.add_argument("--seeds", type=int, default=10)
    calibrate_p.add_argument("--first-seed", type=int, default=1)
    calibrate_p.add_argument("--seconds", type=float, default=20.0)
    calibrate_p.add_argument("--workload", choices=sorted(declared.WORKLOADS))
    calibrate_p.add_argument("--out", metavar="F")
    calibrate_p.set_defaults(func=cmd_calibrate)
    compare_p = sub.add_parser("compare", help="judge B.json against A.json")
    compare_p.add_argument("a")
    compare_p.add_argument("b")
    compare_p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
