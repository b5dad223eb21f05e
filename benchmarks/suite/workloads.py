"""The five workloads.

Each enters the program only through its highest-level, default-option
entry point and never passes an engine knob (``frontier``, ``pool_size``,
``kernel_backend`` ...): later changes may not edit this benchmark, and
the ROADMAP intends to delete those knobs.

Why these five: workloads 1 and 2 run the same engine with the cost in
opposite places (engine loop vs bound kernels), so an engine change must
show on one without moving the other; 3 adds real worker processes over
TCP on the *same kind of slice* as 2, so engine gains show in both and
coordination gains only there; 4 turns the split around (many tiny
grants, so service / net / checkpoint / timers dominate); 5 is the
simulator path that regenerates the paper's Table 2, whose counts repeat
exactly and double as the determinism check.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from benchmarks.suite.harness import (
    REPO_ROOT,
    SPIN_GAP,
    Result,
    Span,
    Workload,
    mean,
    median,
    nproc,
    percentile,
    timed,
)
from benchmarks.suite.inputs import Unit, digest, draw, load_catalog, makespan
from benchmarks.suite.tracing import (
    CallClock,
    SpanRecorder,
    TimedFlowShopProblem,
    time_pool_kernels,
)
from repro.core import Interval, solve
from repro.problems.flowshop import FlowShopInstance, FlowShopProblem

QUICK_UNITS = 8


def instance_of(unit: Unit) -> FlowShopInstance:
    return FlowShopInstance(unit.times(), name=unit.name)


def interval_of(unit: Unit) -> Optional[Interval]:
    bounds = unit.slice()
    return None if bounds is None else Interval(*bounds)


def check_optimum(unit: Unit, cost: float, proved: bool, solution: Any) -> str:
    """Why a claimed optimum is refused ('' when it stands)."""
    if not proved:
        return "result does not carry a proof"
    if cost != unit.cost:
        return f"cost {cost} != catalogued optimum {unit.cost}"
    if solution is not None and makespan(unit.times(), tuple(solution)) != cost:
        return "solution does not evaluate to the claimed cost"
    return ""


# ----------------------------------------------------------------------
# 1 + 2: serial solve()
# ----------------------------------------------------------------------
class SerialWorkload(Workload):
    """``solve(FlowShopProblem(instance), interval=...)`` back to back.

    The problem is built inside the timed call, as a user would: a
    problem object keeps per-solve caches, so holding hundreds of solved
    ones alive would make peak RSS a function of how many results fit in
    the window.
    """

    family = ""

    def setup(self) -> None:
        family = load_catalog()[self.family]
        units = draw(family, random.Random(self.seed))
        self.units = units[:QUICK_UNITS] if self.quick else units
        self.instances = [instance_of(u) for u in self.units]
        # warm-up (lazy imports, numpy caches) on the same unit whatever the
        # seed, so that set-up time does not inherit one unit's luck
        solve(FlowShopProblem(instance_of(family[0])), interval=interval_of(family[0]))
        self.clock: Optional[CallClock] = None  # set by the traced pass

    def input_digest(self) -> str:
        return digest([u.__dict__ for u in self.units])

    def one_result(self, index: int, recorder: Optional[SpanRecorder], root: Span) -> Result:
        slot = index % len(self.units)
        unit, instance = self.units[slot], self.instances[slot]
        interval = interval_of(unit)
        clock = self.clock if recorder is not None else None

        def call() -> Any:
            if clock is None:
                return solve(FlowShopProblem(instance), interval=interval)
            clock.reset()
            return solve(TimedFlowShopProblem(instance, clock=clock), interval=interval)

        start, end, result, span = timed(recorder, "solve", f"{self.name}-{index}", root, call)
        detail: Dict[str, Any] = {}
        if span is not None and clock is not None:
            for name, seconds in clock.seconds.items():
                recorder.aggregate(span, name, seconds, clock.calls[name])
            stats = result.stats
            detail = {
                "nodes": stats.nodes_explored,
                "pruned": stats.nodes_pruned,
                "bounded": stats.bound_evaluations,
                "improvements": stats.improvements,
                "pool_rows": list(clock.pool_rows),
                "pool_bytes": clock.pool_bytes,
            }
        why = check_optimum(unit, result.cost, result.optimal, result.solution)
        return Result(start, end, not why, why, detail)

    def run(self, seconds: float, recorder: Optional[SpanRecorder]) -> List[Result]:
        if recorder is not None:
            self.kernel_timing_error = time_pool_kernels()
            self.clock = CallClock()
        return super().run(seconds, recorder)

    def layer_metrics(
        self, untraced: List[Result], traced: List[Result], recorder: SpanRecorder
    ) -> Dict[str, float]:
        count = len(traced)
        nodes = sum(r.detail["nodes"] for r in traced)
        bounded = sum(r.detail["bounded"] for r in traced)
        wall = sum(r.seconds for r in traced)
        kernel_s = recorder.total("kernels.evaluate")
        rows = [n for r in traced for n in r.detail["pool_rows"]]
        self_s = recorder.self_time("solve")
        out = {
            "engine.nodes_explored": nodes / count,
            "engine.nodes_per_s": nodes / wall,
            "engine.self_s": self_s / count,
            "engine.self_us_per_node": 1e6 * self_s / max(nodes, 1),
            "engine.branch_s": recorder.total("problem.branch") / count,
            "engine.bound_s": (recorder.total("problem.bound") + kernel_s) / count,
            "engine.leaf_s": recorder.total("problem.leaf") / count,
            "engine.pruned_share": sum(r.detail["pruned"] for r in traced) / max(bounded, 1),
            "engine.improvements": sum(r.detail["improvements"] for r in traced) / count,
        }
        if self.kernel_timing_error is None:
            out.update(
                {
                    "kernels.calls": len(rows) / count,
                    "kernels.rows_per_call_p50": median(rows),
                    "kernels.us_per_row": 1e6 * kernel_s / max(sum(rows), 1),
                    "kernels.bytes_per_row_computed": (
                        sum(r.detail["pool_bytes"] for r in traced) / max(sum(rows), 1)
                    ),
                }
            )
        return out


class SerialCheapBound(SerialWorkload):
    name = "serial_cheap_bound"
    family = "cheap"


class SerialCostlyBound(SerialWorkload):
    name = "serial_costly_bound"
    family = "costly"


# ----------------------------------------------------------------------
# 3: solve_parallel over loopback TCP
# ----------------------------------------------------------------------
class FleetTcp(Workload):
    """One ``solve_parallel`` call per result: spawn, handshake, proof, linger."""

    name = "fleet_tcp"

    def setup(self) -> None:
        from repro.grid.runtime import flowshop_spec

        catalog = load_catalog()
        family = "job_large" if self.quick else "fleet"
        self.units = draw(catalog[family], random.Random(self.seed))
        self.specs = [flowshop_spec(instance_of(u)) for u in self.units]
        self.workers = nproc()
        self.make_work_dir()
        warm = catalog["job_large"][0]  # the same unit whatever the seed
        self._solve_parallel(flowshop_spec(instance_of(warm)), warm, "warm")

    def input_digest(self) -> str:
        return digest([u.__dict__ for u in self.units])

    def _solve_parallel(self, spec: Any, unit: Unit, tag: str) -> Any:
        from repro.grid.runtime import RuntimeConfig, solve_parallel

        assert self.work_dir is not None
        config = RuntimeConfig(
            workers=self.workers,
            transport="tcp",
            checkpoint_dir=self.work_dir / f"ck-{tag}",
            root_interval=unit.slice(),
        )
        return solve_parallel(spec, config)

    def one_result(self, index: int, recorder: Optional[SpanRecorder], root: Span) -> Result:
        slot = index % len(self.units)
        unit, spec = self.units[slot], self.specs[slot]
        tag = f"{'t' if recorder else 'u'}{index}"
        start, end, outcome, _ = timed(
            recorder, "fleet.solve_parallel", f"{self.name}-{index}", root,
            lambda: self._solve_parallel(spec, unit, tag),
        )
        why = check_optimum(unit, outcome.cost, outcome.optimal, outcome.solution)
        if not why and outcome.crashed_workers:
            why = f"workers crashed: {outcome.crashed_workers}"
        stats = outcome.worker_stats.values()
        detail = {
            "slot": slot,
            "nodes": outcome.nodes_explored,
            "explore_s": outcome.explore_seconds,
            "rpc_wait_s": outcome.rpc_wait_seconds,
            "updates": sum(s.get("updates", 0) for s in stats),
            "work_allocations": outcome.work_allocations,
            "checkpoint_ops": outcome.checkpoint_operations,
            "redundant_share": outcome.redundant_rate,
        }
        return Result(start, end, not why, why, detail)

    def layer_metrics(
        self, untraced: List[Result], traced: List[Result], recorder: SpanRecorder
    ) -> Dict[str, float]:
        count = len(traced)
        wall = sum(r.seconds for r in traced)
        explore = sum(r.detail["explore_s"] for r in traced)
        rpc_wait = sum(r.detail["rpc_wait_s"] for r in traced)
        nodes = sum(r.detail["nodes"] for r in traced)
        # the same slices, serially, give the efficiency its numerator
        sample = traced[:2]
        serial_s = 0.0
        for result in sample:
            unit = self.units[result.detail["slot"]]
            start = time.perf_counter()
            solve(FlowShopProblem(instance_of(unit)), interval=interval_of(unit))
            serial_s += time.perf_counter() - start
        fleet_s = sum(r.seconds for r in sample)
        return {
            "runtime.nodes_explored": nodes / count,
            "runtime.nodes_per_s": nodes / wall,
            "runtime.explore_s": explore / count,
            "runtime.rpc_wait_s": rpc_wait / count,
            "runtime.rpc_wait_share": rpc_wait / max(explore + rpc_wait, 1e-9),
            "runtime.updates": sum(r.detail["updates"] for r in traced) / count,
            "runtime.work_allocations": sum(r.detail["work_allocations"] for r in traced) / count,
            "runtime.checkpoint_ops": sum(r.detail["checkpoint_ops"] for r in traced) / count,
            "runtime.redundant_share": mean([r.detail["redundant_share"] for r in traced]),
            "runtime.non_explore_s": (wall - explore / self.workers) / count,
            "runtime.parallel_efficiency": serial_s / (self.workers * fleet_s),
        }


# ----------------------------------------------------------------------
# 4: the multi-tenant service as real subprocesses
# ----------------------------------------------------------------------
POLL_SECONDS = 0.01  # tenant's result() poll; the default 0.2 s would hide the service
JOB_TIMEOUT = 60.0
LARGE_EVERY = 10  # every tenth job of a tenant is a large one at priority 2


def _spawn(argv: List[str], log: Path) -> subprocess.Popen:
    """A ``repro.cli`` child in its own session, SIGINT at default.

    Its own session so teardown can sweep grandchildren; SIGINT reset so
    the child raises KeyboardInterrupt (and runs its ``finally`` blocks)
    even when this harness was itself started with SIGINT ignored.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"  # the service prints its port; we read it from the log
    with open(log, "wb") as out:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=out,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(REPO_ROOT),
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )


def _stop(proc: subprocess.Popen) -> None:
    """SIGINT (graceful: children reaped, CPU accounted), then sweep the group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=8.0)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


class ServiceStream(Workload):
    """``repro grid service`` + ``repro grid fleet`` under closed-loop tenants.

    Each tenant keeps one job in flight: submit, await the result, next
    (callers that wait for a reply make a closed loop).  ``min(nproc, 4)``
    tenants share one event loop in this process, each with one
    persistent :class:`ServiceClient`.
    """

    name = "service_stream"

    def setup(self) -> None:
        from repro.grid.runtime import flowshop_spec
        from repro.grid.service.client import ServiceClient

        catalog = load_catalog()
        rng = random.Random(self.seed)
        self.small = draw(catalog["job_small"], rng)
        self.large = draw(catalog["job_large"], rng)
        if self.quick:
            self.small, self.large = self.small[:QUICK_UNITS], self.large[:2]
        self.specs = {u: flowshop_spec(instance_of(u)) for u in self.small + self.large}
        self.tenants = min(nproc(), 4)
        work = self.make_work_dir()

        self.service = _spawn(
            ["grid", "service", "--port", "0", "--policy", "fair",
             "--checkpoint-dir", str(work / "jobs")],
            work / "service.log",
        )
        host, port = self._service_address(work / "service.log")
        self.fleet = _spawn(
            ["grid", "fleet", "--connect", f"{host}:{port}", "--workers", str(nproc())],
            work / "fleet.log",
        )
        self.loop = asyncio.new_event_loop()
        self.clients = [
            ServiceClient(host, port, client_id=f"tenant-{i}") for i in range(self.tenants)
        ]
        self.loop.run_until_complete(self._connect_and_warm())

    def input_digest(self) -> str:
        return digest([u.__dict__ for u in self.small + self.large])

    def _service_address(self, log: Path) -> Tuple[str, int]:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            for line in log.read_text().splitlines():
                if line.startswith("service on "):
                    host, _, port = line.split()[2].rpartition(":")
                    return host, int(port)
            if self.service.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"service did not start: {log.read_text()[-500:]}")

    def _stream(self, tenant: int) -> Iterator[Tuple[Unit, int]]:
        """This tenant's job mix: (unit, priority), endlessly.

        90 % small, 10 % large, but on a fixed beat (at a seeded phase)
        rather than by coin toss: a large job is ~6 small ones, so a
        binomial count of them would by itself move throughput by +-8 %.
        """
        phase = random.Random(f"{self.seed}-{tenant}").randrange(LARGE_EVERY)
        small = itertools.cycle(self.small[tenant::self.tenants])
        large = itertools.cycle(self.large[tenant::self.tenants])
        for index in itertools.count():
            if index % LARGE_EVERY == phase:
                yield next(large), 2
            else:
                yield next(small), 1

    async def _connect_and_warm(self) -> None:
        for client in self.clients:
            await client.connect()
        # one job each: returns only once the fleet is connected and solving
        self.streams = [self._stream(i) for i in range(self.tenants)]
        warm = await asyncio.gather(
            *(self._job(i, 0, None, None) for i in range(self.tenants))
        )
        bad = [r.why for r in warm if not r.ok]
        if bad:
            raise RuntimeError(f"service warm-up failed: {bad[0]}")

    async def _job(
        self,
        tenant: int,
        index: int,
        recorder: Optional[SpanRecorder],
        root: Span,
    ) -> Result:
        from repro.grid.net.transport import TransportError

        client = self.clients[tenant]
        unit, priority = next(self.streams[tenant])
        detail: Dict[str, Any] = {"large": priority == 2}
        start = time.perf_counter()
        try:
            if recorder is None:
                job = await client.submit(
                    self.specs[unit], priority=priority, owner=client.client_id
                )
                status = await client.result(
                    job, poll_interval=POLL_SECONDS, timeout=JOB_TIMEOUT
                )
            else:
                status = await self._traced_job(
                    client, unit, priority, f"job-{tenant}-{index}", recorder, root, detail
                )
        except TransportError as exc:  # refused submit, timeout, lost service
            return Result(start, time.perf_counter(), False, f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        if status.status != "done":
            why = f"job ended {status.status}: {status.error}"
        else:
            why = check_optimum(unit, status.best_cost, True, status.solution)
        return Result(start, end, not why, why, detail)

    async def _traced_job(
        self,
        client: Any,
        unit: Unit,
        priority: int,
        trace: str,
        recorder: SpanRecorder,
        root: Span,
        detail: Dict[str, Any],
    ) -> Any:
        """submit + result with the poll loop opened up, so queue wait shows.

        Same poll cadence as ``client.result``; the only extra work is
        reading the clock around each status call.
        """
        with recorder.span("job", trace, root) as job_span:
            with recorder.span("client.submit", trace, job_span) as submit_span:
                job = await client.submit(
                    self.specs[unit], priority=priority, owner=client.client_id
                )
            with recorder.span("client.result", trace, job_span):
                give_up = time.perf_counter() + JOB_TIMEOUT
                status_rtts: List[float] = []
                left_queue: Optional[float] = None
                while True:
                    asked = time.perf_counter()
                    status = await client.status(job)
                    now = time.perf_counter()
                    status_rtts.append(now - asked)
                    if left_queue is None and status.status != "queued":
                        left_queue = now
                    if status.status not in ("queued", "running") or now > give_up:
                        break
                    await asyncio.sleep(POLL_SECONDS)
        detail["submit_s"] = submit_span["end"] - submit_span["start"]
        detail["status_rtts"] = status_rtts
        detail["queue_wait_s"] = (left_queue or now) - submit_span["end"]
        return status

    async def _tenant(
        self,
        tenant: int,
        deadline: float,
        recorder: Optional[SpanRecorder],
        root: Span,
    ) -> List[Result]:
        results = [await self._job(tenant, 0, recorder, root)]
        while time.perf_counter() < deadline and results[-1].ok:
            results.append(await self._job(tenant, len(results), recorder, root))
        return results

    def run(self, seconds: float, recorder: Optional[SpanRecorder]) -> List[Result]:
        deadline = time.perf_counter() + seconds
        # every pass replays the same seeded job sequence from its start
        self.streams = [self._stream(i) for i in range(self.tenants)]

        async def host_speed() -> None:
            while True:  # cancelled when the tenants are done
                self.speed.sample()
                await asyncio.sleep(SPIN_GAP)

        async def all_tenants(root: Span) -> List[List[Result]]:
            sampler = asyncio.ensure_future(host_speed())
            try:
                return await asyncio.gather(
                    *(self._tenant(i, deadline, recorder, root) for i in range(self.tenants))
                )
            finally:
                sampler.cancel()

        if recorder is None:
            per_tenant = self.loop.run_until_complete(all_tenants(None))
        else:
            with recorder.span("workload", self.name) as root:
                per_tenant = self.loop.run_until_complete(all_tenants(root))
        return sorted((r for results in per_tenant for r in results), key=lambda r: r.end)

    def layer_metrics(
        self, untraced: List[Result], traced: List[Result], recorder: SpanRecorder
    ) -> Dict[str, float]:
        # pure solve time of the two job sizes, to price the service's own tax
        serial: Dict[bool, float] = {}
        for large, units in ((False, self.small[:12]), (True, self.large[:4])):
            times = []
            for unit in units:
                start = time.perf_counter()
                solve(FlowShopProblem(instance_of(unit)))
                times.append(time.perf_counter() - start)
            serial[large] = median(times)
        overhead = [1e3 * (r.seconds - serial[r.detail["large"]]) for r in traced]
        queue_wait = [1e3 * r.detail["queue_wait_s"] for r in traced]
        rtts = [1e3 * s for r in traced for s in r.detail["status_rtts"]]
        return {
            "service.sojourn_p90_ms": 1e3 * percentile([r.seconds for r in traced], 0.9),
            "service.submit_rtt_ms_p50": 1e3 * median([r.detail["submit_s"] for r in traced]),
            "service.status_rtt_ms_p50": median(rtts),
            "service.queue_wait_ms_p50": median(queue_wait),
            "service.queue_wait_ms_p90": percentile(queue_wait, 0.9),
            "service.overhead_ms_p50": median(overhead),
            "service.overhead_ms_p90": percentile(overhead, 0.9),
            "service.polls_per_job": len(rtts) / len(traced),
        }

    def teardown(self) -> None:
        """Safe after a set-up that failed half way: stops whatever exists."""
        async def close_clients() -> None:
            for client in self.__dict__.pop("clients", []):
                await client.close()

        loop = self.__dict__.pop("loop", None)
        if loop is not None:
            loop.run_until_complete(close_clients())
            loop.close()
        for name in ("fleet", "service"):
            proc = self.__dict__.pop(name, None)
            if proc is not None:
                _stop(proc)
        self.drop_work_dir()


# ----------------------------------------------------------------------
# 5: the grid simulator
# ----------------------------------------------------------------------
SIM_HOSTS = 256
SIM_VIRTUAL_DAYS = 0.5
SIM_LEAVES_JOBS = 50  # a Ta056-sized (50!) synthetic tree


class SimGrid(Workload):
    """``GridSimulation(SimulationConfig(...)).run()`` for a fixed virtual horizon."""

    name = "sim_grid"

    def setup(self) -> None:
        self.days = 0.02 if self.quick else SIM_VIRTUAL_DAYS
        self.ledger: Optional[Tuple[int, int, int]] = None
        self._simulate(self.days / 4, seed=0)  # warm-up, the same whatever the seed

    def input_digest(self) -> str:
        return digest([self.seed, SIM_HOSTS, self.days, SIM_LEAVES_JOBS])

    def _simulate(self, days: float, seed: int) -> Tuple[Any, Any]:
        import math

        from repro.grid.simulator import (
            FarmerConfig,
            GridSimulation,
            SimulationConfig,
            SyntheticWorkload,
            WorkerConfig,
            paper_availability_model,
            small_platform,
        )

        leaves = math.factorial(SIM_LEAVES_JOBS)
        horizon = days * 86400.0
        # sized so the pool would need ~2x the horizon: the run ends at the
        # horizon with every host still holding work (steady-state protocol)
        power = SIM_HOSTS * 0.5 * 2.0
        config = SimulationConfig(
            platform=small_platform(workers=SIM_HOSTS, clusters=4, dedicated=False),
            workload=SyntheticWorkload(
                leaves,
                seed=seed,
                mean_leaf_rate=leaves / (power * 2.0 * horizon),
                irregularity=1.3,
                nodes_per_second=9.4e3,
            ),
            horizon=horizon,
            seed=seed,
            availability=paper_availability_model(),
            farmer=FarmerConfig(
                service_time=1e-3,
                checkpoint_period=1800.0,
                duplication_threshold=leaves // 10**8,
            ),
            worker=WorkerConfig(update_period=120.0),
        )
        simulation = GridSimulation(config)
        return simulation, simulation.run()

    def one_result(self, index: int, recorder: Optional[SpanRecorder], root: Span) -> Result:
        start, end, (simulation, report), _ = timed(
            recorder, "sim.run", f"{self.name}-{index}", root,
            lambda: self._simulate(self.days, self.seed),
        )
        table = report.table2
        ledger = (simulation.clock.events_fired, table.work_allocations, report.messages)
        if self.ledger is None:
            self.ledger = ledger
        why = ""
        if ledger != self.ledger:
            why = f"ledger {ledger} differs from the first run's {self.ledger}"
        elif not 0.0 < table.worker_exploitation <= 1.0:
            why = f"worker exploitation {table.worker_exploitation} out of (0, 1]"
        detail = {
            "events": simulation.clock.events_fired,
            "messages": report.messages,
            "message_bytes": report.message_bytes,
            "work_allocations": table.work_allocations,
            "checkpoint_ops": table.checkpoint_operations,
            "redundant_share": table.redundant_node_rate,
            "worker_exploitation": table.worker_exploitation,
            "farmer_exploitation": table.coordinator_exploitation,
        }
        return Result(start, end, not why, why, detail)

    def layer_metrics(
        self, untraced: List[Result], traced: List[Result], recorder: SpanRecorder
    ) -> Dict[str, float]:
        last = traced[-1].detail  # every run of one seed has the same ledger
        out = {f"sim.{key}": float(value) for key, value in last.items()}
        out["sim.events_per_s"] = sum(r.detail["events"] for r in traced) / sum(
            r.seconds for r in traced
        )
        return out


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (SerialCheapBound, SerialCostlyBound, FleetTcp, ServiceStream, SimGrid)
}
