"""The versioned result document: provenance, aggregation, comparison."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.suite import metrics as declared
from benchmarks.suite.harness import REPO_ROOT, WORK_ROOT, nproc

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git(*argv: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *argv], cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fs_type(path: Path) -> str:
    """File-system type holding ``path`` (tmpfs vs disk changes every fsync figure)."""
    try:
        target = str(path.resolve())
        best, kind = "", "unknown"
        for line in Path("/proc/mounts").read_text().splitlines():
            _device, mount, fstype = line.split()[:3]
            prefix = mount.rstrip("/") + "/"
            if (target + "/").startswith(prefix) and len(mount) > len(best):
                best, kind = mount, fstype
        return kind
    except (OSError, ValueError):
        return "unknown"


def _version(module: str) -> Optional[str]:
    try:
        return getattr(__import__(module), "__version__", "present")
    except ImportError:
        return None


def provenance(seed: int) -> Dict[str, Any]:
    cpus = nproc()
    load = os.getloadavg()[0]
    status = _git("status", "--porcelain")
    WORK_ROOT.mkdir(exist_ok=True)
    return {
        "schema": SCHEMA_VERSION,
        "git_rev": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "numba": _version("numba"),
        "checkpoint_fs": fs_type(WORK_ROOT),
        "loadavg_1m_at_start": load,
        "noisy": load > cpus,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# aggregation of single-run records (see run.measure)
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def aggregate(
    records: List[Dict[str, Any]],
    traced: Dict[str, Dict[str, Any]],
    crashed: int,
    seed: int,
    quick: bool,
    prov: Dict[str, Any],
) -> Dict[str, Any]:
    """One result document from every run's record; every sample is kept.

    ``records`` are the untraced runs (the only source of end-to-end
    numbers), ``traced`` one traced record per workload, ``crashed`` the
    runs that died without a record — each counts as one failed operation.
    """
    workloads: Dict[str, Any] = {}
    everything = records + list(traced.values())
    attempted = sum(r["attempted"] for r in everything) + crashed
    failed = sum(r["failed"] for r in everything) + crashed
    for name in declared.WORKLOADS:
        mine = [r for r in records if r["workload"] == name]
        if not mine:
            continue
        table: Dict[str, Any] = {}
        for metric in declared.END_TO_END:
            samples = [r["end_to_end"][metric.name] for r in mine]
            q1, middle, q3 = quartiles(samples)
            table[metric.name] = {
                "unit": metric.unit, "better": metric.better, "bound": metric.bound,
                "samples": samples, "median": middle, "q1": q1, "q3": q3,
            }
        entry: Dict[str, Any] = {
            "why": declared.WORKLOADS[name],
            "input_digest": mine[0]["input_digest"],
            "same_inputs_every_repeat": len({r["input_digest"] for r in mine}) == 1,
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "failures": sorted({why for r in mine for why in r["failures"]}),
            "result_samples_per_run": [len(r["samples"]["result_s"]) for r in mine],
            "end_to_end": table,
        }
        if name in traced:
            entry["trace_file"] = traced[name].get("trace_file")
            entry["per_layer"] = per_layer_table(traced[name])
        workloads[name] = entry
    return {
        "schema": SCHEMA_VERSION,
        "provenance": prov,
        "seed": seed,
        "quick": quick,
        "workloads": workloads,
        "failed_share": failed / max(attempted, 1),
        "claim": None,
    }


def per_layer_table(record: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of one traced record, with the interaction columns."""
    table: Dict[str, Any] = {}
    probes = record.get("probes", {})
    reasons = record.get("probe_failures", {})
    for layer in declared.PER_LAYER:
        if layer.source == "P":
            value = probes.get(layer.name)
        else:
            value = record.get("per_layer", {}).get(layer.name, 0.0)
        row = {
            "value": value, "unit": layer.unit, "better": layer.better,
            "source": layer.source, "moves": layer.moves, "on": layer.on,
        }
        if value is None:
            row["reason"] = reasons.get(layer.name, "not measured")
        table[layer.name] = row
    return table


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``better | same | worse | unresolved`` for one metric on one workload."""
    bound, base = a["bound"], a["median"]
    if base == 0:
        return "unresolved"
    if (a["q3"] - a["q1"]) / abs(base) > bound:
        return "unresolved"  # A's own spread is wider than the bound
    change = (b["median"] - base) / abs(base)
    if a["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows (one per workload x end-to-end metric) and whether B regressed."""
    rows: List[Dict[str, Any]] = []
    for name, left in a["workloads"].items():
        right = b["workloads"].get(name)
        if right is None:
            continue
        for metric, cell in left["end_to_end"].items():
            other = right["end_to_end"][metric]
            rows.append(
                {
                    "workload": name, "metric": metric, "unit": cell["unit"],
                    "bound": cell["bound"],
                    "a": (cell["q1"], cell["median"], cell["q3"]),
                    "b": (other["q1"], other["median"], other["q3"]),
                    "verdict": verdict(cell, other),
                }
            )
    regressed = any(r["verdict"] == "worse" for r in rows) or (
        b["failed_share"] > a["failed_share"]
    )
    return rows, regressed


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<20} {'metric':<18} {'A q1/median/q3':<34} {'B q1/median/q3':<34} "
        f"{'bound':>6}  verdict"
    ]
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        lines.append(
            f"{row['workload']:<20} {row['metric']:<18} {a:<34} {b:<34} "
            f"{row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)
