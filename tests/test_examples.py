"""Smoke tests: every example script must run cleanly end to end.

The heavyweight ``grid_simulation.py`` (full 1889-processor platform)
is only import-checked here; the benchmark harness exercises its
content at scale.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "interval_coding.py",
    "parallel_solve.py",
    "challenge_ta056.py",
    "chaos_run.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print their findings"


def test_all_examples_compile():
    for script in EXAMPLES.glob("*.py"):
        source = script.read_text()
        compile(source, str(script), "exec")


def test_expected_example_set_present():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "grid_simulation.py"} <= names
    assert len(names) >= 6


def test_quickstart_output_shape():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "optimal makespan" in result.stdout
    assert "proof: True" in result.stdout
