"""Self-test of the benchmark suite (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.suite import metrics as declared
from benchmarks.suite import report
from benchmarks.suite.harness import REPO_ROOT, SUITE_DIR, WORK_ROOT
from benchmarks.suite.probes import PROBES, run_probes

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_PY = SUITE_DIR / "run.py"


def run_py(*argv: str, cwd: Path = REPO_ROOT, script: Path = RUN_PY) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *argv], cwd=str(cwd), capture_output=True, text=True,
        timeout=170,
    )


def test_benchmark_json_is_the_declared_manifest():
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert manifest == declared.manifest()


def test_names_units_and_limits():
    manifest = declared.manifest()
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_every_layer_names_the_metric_and_workload_it_should_move():
    end_to_end = {m.name for m in declared.END_TO_END}
    for layer in declared.PER_LAYER:
        assert layer.moves in end_to_end, layer
        assert layer.on in declared.WORKLOADS, layer
        assert layer.source in ("T", "P"), layer
    probed = {name for names in PROBES.values() for name in names}
    assert probed == {layer.name for layer in declared.PER_LAYER if layer.source == "P"}


@pytest.mark.parametrize("workload", list(declared.WORKLOADS))
def test_quick_run_emits_exactly_the_declared_metrics(workload):
    for trace, rows in ((0, declared.END_TO_END), (1, declared.PER_LAYER)):
        done = run_py("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--quick")
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {row.name for row in rows}
        for row in rows:
            cell = line["metrics"][row.name]
            assert set(cell) == {"value", "unit"} and cell["unit"] == row.unit
            assert isinstance(cell["value"], (int, float))
        if trace == 0:
            assert all(cell["value"] > 0 for cell in line["metrics"].values())
        else:
            mine = [r for r in rows if r.source == "T" and r.name.split(".")[0] != "trace"]
            entered = [r for r in mine if line["metrics"][r.name]["value"] != 0]
            assert entered, "the traced pass reported no layer of its own"


def test_a_raising_probe_yields_null_and_a_reason_not_a_failed_run():
    def boom(budget):
        raise ImportError("layer moved")

    values, reasons = run_probes(quick=True, probes={boom: ("gone.metric_us",)})
    assert values == {"gone.metric_us": None}
    assert "layer moved" in reasons["gone.metric_us"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    from benchmarks.suite.workloads import SerialCostlyBound

    def units(seed):
        workload = SerialCostlyBound(seed, quick=True)
        workload.setup()
        return workload.input_digest()

    assert units(3) == units(3) != units(4)


def _document(median: float, spread: float = 0.0, failed_share: float = 0.0):
    cell = {
        "unit": "s", "better": "lower", "bound": 0.15, "median": median,
        "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2),
    }
    return {"workloads": {"w": {"end_to_end": {"result_p50_s": cell}}},
            "failed_share": failed_share}


def test_compare_verdicts():
    base = _document(1.0)
    assert report.compare(base, _document(1.05))[0][0]["verdict"] == "same"
    assert report.compare(base, _document(1.30))[0][0]["verdict"] == "worse"
    assert report.compare(base, _document(0.70))[0][0]["verdict"] == "better"
    assert report.compare(_document(1.0, spread=0.4), _document(1.3))[0][0]["verdict"] == "unresolved"
    assert report.compare(base, _document(1.30))[1] is True
    assert report.compare(base, _document(1.0, failed_share=0.01))[1] is True
    assert report.compare(base, _document(1.05))[1] is False


def test_without_the_program_the_benchmark_refuses_to_report():
    WORK_ROOT.mkdir(exist_ok=True)
    bare = WORK_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            SUITE_DIR, bare / "benchmarks" / "suite",
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
        shutil.copy(REPO_ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_py("--workload", "sim_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=bare / "benchmarks" / "suite" / "run.py")
        assert done.returncode != 0
        assert not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
