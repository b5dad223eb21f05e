"""What every workload shares: results, the timed window, resource reads."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.suite.tracing import SpanRecorder

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
WORK_ROOT = SUITE_DIR / ".work"  # inside the checkout, named in .gitignore


@dataclass
class Result:
    """One operation a user waited for, and whether its output was right."""

    start: float
    end: float
    ok: bool
    why: str = ""  # first reason the oracle refused it
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
# The hosts this runs on are shared: with nothing else in the container, a
# fixed instruction stream takes 0.85x-1.15x its usual CPU time, drifting
# over 5-15 s (SMT siblings, frequency).  That alone is a 10-20 % spread
# between runs of one commit - wider than any bound worth having.  So a
# fixed, harness-owned spin is timed (thread CPU time, so descheduling does
# not count) every SPIN_GAP seconds between operations, and every duration
# is reported in *calibrated seconds*: what it would have taken with the
# host at the speed where the spin takes SPIN_NOMINAL_S.
SPIN_NOMINAL_S = 0.0039
SPIN_GAP = 0.2
SPIN_WINDOW = 1.0  # an operation is calibrated by the spins within +-1 s of it

_SPIN_ARRAY = list(range(2048))


def spin() -> float:
    """Thread-CPU seconds of a fixed mix of bytecode and numpy work, now."""
    import numpy as np

    start = time.thread_time()
    total = 0
    for i in range(60000):
        total += i * i
    values = np.array(_SPIN_ARRAY, dtype=np.int64)
    for _ in range(600):
        values = np.maximum(values, values[::-1]) + 1
    return time.thread_time() - start


class HostSpeed:
    """Speed factors (nominal spin / measured spin) sampled over a run."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, factor)

    def sample(self) -> float:
        factor = SPIN_NOMINAL_S / spin()
        self.samples.append((time.perf_counter(), factor))
        return factor

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SPIN_GAP:
            self.sample()

    def between(self, start: float, end: float) -> float:
        """Median factor of the samples around ``[start, end]`` (nearest if none).

        A median, because one spin in twenty is hit by an interrupt and
        reads 1.5x slow.
        """
        near = [f for t, f in self.samples if start - SPIN_WINDOW <= t <= end + SPIN_WINDOW]
        if near:
            return statistics.median(near)
        middle = (start + end) / 2
        return min(self.samples, key=lambda s: abs(s[0] - middle))[1]

    def calibrated(self, start: float, end: float) -> float:
        """``end - start`` in calibrated seconds.

        Short spans take the factor around them; long ones are summed
        piecewise so that drift inside the span is followed.
        """
        if end - start <= 2 * SPIN_WINDOW:
            return (end - start) * self.between(start, end)
        total, cursor = 0.0, start
        while cursor < end:
            step = min(cursor + SPIN_WINDOW, end)
            total += (step - cursor) * self.between(cursor, step)
            cursor = step
        return total


def nproc() -> int:
    """Cores this process may run on: worker and tenant counts follow it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` (0..1) quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def repeat_until(
    deadline: float, operation: Callable[[int], Result], speed: HostSpeed
) -> List[Result]:
    """Call ``operation(i)`` back to back until ``deadline``; at least once.

    The operation in flight at the deadline is finished and counted, so
    ``results / elapsed`` is the plain renewal estimate of the rate.  The
    host-speed spin runs between operations, never inside one.
    """
    results: List[Result] = []
    while not results or time.perf_counter() < deadline:
        speed.sample_if_due()
        results.append(operation(len(results)))
    speed.sample()
    return results


Span = Optional[Dict[str, Any]]


def timed(
    recorder: Optional[SpanRecorder], name: str, trace: str, parent: Span, call: Callable[[], Any]
) -> Tuple[float, float, Any, Span]:
    """``(start, end, call(), span)``: under a span when tracing, bare otherwise."""
    if recorder is None:
        start = time.perf_counter()
        value = call()
        return start, time.perf_counter(), value, None
    with recorder.span(name, trace, parent) as span:
        value = call()
    return span["start"], span["end"], value, span


@dataclass
class ResourceMark:
    """CPU seconds and peak RSS of this process and its reaped children."""

    self_cpu: float
    children_cpu: float
    peak_rss_mb: float

    @classmethod
    def now(cls) -> "ResourceMark":
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        # ru_maxrss is KiB on Linux, bytes on macOS
        scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        return cls(
            self_cpu=time.process_time(),
            children_cpu=kids.ru_utime + kids.ru_stime,
            peak_rss_mb=max(own.ru_maxrss, kids.ru_maxrss) / scale,
        )


class Workload:
    """One benchmark workload; subclasses fill in the five hooks.

    ``setup`` / ``teardown`` are repeatable (the driver sets up several
    times and reports the median).  ``run`` measures for about
    ``seconds`` and returns one :class:`Result` per operation
    (``one_result``), already checked against the oracle.  With a recorder it is the traced pass;
    ``layer_metrics`` then turns spans and result details into this
    workload's per-layer numbers.
    """

    name = ""

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.work_dir: Optional[Path] = None
        self.speed = HostSpeed()

    # -- hooks ----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def one_result(self, index: int, recorder: Optional[SpanRecorder], root: Span) -> Result:
        raise NotImplementedError

    def run(self, seconds: float, recorder: Optional[SpanRecorder]) -> List[Result]:
        """Results back to back for ``seconds`` (concurrent workloads override)."""
        deadline = time.perf_counter() + seconds
        if recorder is None:
            return repeat_until(deadline, lambda i: self.one_result(i, None, None), self.speed)
        with recorder.span("workload", self.name) as root:
            return repeat_until(
                deadline, lambda i: self.one_result(i, recorder, root), self.speed
            )

    def layer_metrics(
        self,
        untraced: List[Result],
        traced: List[Result],
        recorder: SpanRecorder,
    ) -> Dict[str, float]:
        return {}

    def teardown(self) -> None:
        self.drop_work_dir()

    def input_digest(self) -> str:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------
    def make_work_dir(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK_ROOT))
        return self.work_dir

    def drop_work_dir(self) -> None:
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir = None
