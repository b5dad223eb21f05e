"""Command-line interface: ``repro <command>``.

Commands
--------
``repro solve``
    Exactly solve a flow-shop instance (sequential or parallel).
``repro simulate``
    Run a grid simulation and print the Table 2 statistics.
``repro grid serve`` / ``repro grid worker``
    Run the farmer–worker runtime over real TCP: a solve service
    holding one job, and workers that connect to it by address (two
    terminals on one machine, or many machines).
``repro grid service`` / ``repro job ...``
    The multi-tenant front door: one job-queue service multiplexing
    many concurrent solves over a shared worker fleet, and the client
    verbs (``submit``/``status``/``result``/``cancel``/``list``) that
    talk to it (see ``docs/service.md``).
``repro tables``
    Print the paper's static tables (1 and 3).
``repro taillard``
    Print a Taillard benchmark instance.
``repro check``
    Run the project-specific static-analysis pass (see
    ``docs/static-analysis.md``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.exceptions import CheckpointError

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a clear message.

    Guards the service's size limits and job priorities at the parser,
    so a bad value dies as a usage error instead of a traceback.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (>= 1), got {value}"
        )
    return value


def _power(text: str) -> float:
    """argparse type: a finite processor power >= 0 (the coordinator
    refuses any other in a Request)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Grid-enabled Branch and Bound with interval-coded work "
            "units (Mezmaz, Melab & Talbi, IPPS 2007)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="exactly solve a flow-shop instance")
    solve_p.add_argument("--jobs", type=int, default=9)
    solve_p.add_argument("--machines", type=int, default=4)
    solve_p.add_argument("--seed", type=int, default=1)
    solve_p.add_argument(
        "--taillard", type=int, default=None, metavar="INDEX",
        help="use Taillard instance INDEX of the jobs x machines class",
    )
    solve_p.add_argument("--workers", type=int, default=0,
                         help="0: sequential; N>0: parallel processes")
    solve_p.add_argument("--bound", choices=["lb1", "lb2", "combined"],
                         default="combined")
    solve_p.add_argument("--ig-iterations", type=int, default=0,
                         help="also seed with a classic Iterated Greedy "
                              "run (the paper's reference [9]) of N "
                              "iterations, beyond the warm start's own "
                              "20-cycle polish")
    solve_p.add_argument("--checkpoint-dir", default=None,
                         help="periodic fold-and-persist checkpoints; "
                              "re-running with the same dir resumes")

    sim_p = sub.add_parser("simulate", help="run a grid simulation")
    sim_p.add_argument("--workers", type=int, default=64,
                       help="worker count (ignored with --paper-platform)")
    sim_p.add_argument("--paper-platform", action="store_true",
                       help="use the full 1889-processor Table 1 pool")
    sim_p.add_argument("--days", type=float, default=1.0,
                       help="calibrated virtual duration of the workload")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--update-period", type=float, default=174.0)
    sim_p.add_argument("--irregularity", type=float, default=1.2)
    sim_p.add_argument("--always-on", action="store_true")

    report_p = sub.add_parser(
        "report",
        help="run a quick reproduction sweep and print paper-vs-measured",
    )
    report_p.add_argument("--seed", type=int, default=1)

    grid_p = sub.add_parser(
        "grid", help="network farmer–worker runtime (TCP transport)"
    )
    grid_sub = grid_p.add_subparsers(dest="grid_command", required=True)

    serve_p = grid_sub.add_parser(
        "serve", help="run a solve service for one resolution"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=4715,
                         help="0 picks a free port (printed at startup)")
    serve_p.add_argument("--jobs", type=int, default=9)
    serve_p.add_argument("--machines", type=int, default=4)
    serve_p.add_argument("--seed", type=int, default=1)
    serve_p.add_argument(
        "--taillard", type=int, default=None, metavar="INDEX",
        help="use Taillard instance INDEX of the jobs x machines class",
    )
    serve_p.add_argument("--bound", choices=["lb1", "lb2", "combined"],
                         default="combined")
    serve_p.add_argument("--interval", type=int, nargs=2, default=None,
                         metavar=("BEGIN", "END"),
                         help="solve only this leaf interval of the tree")
    serve_p.add_argument("--deadline", type=float, default=None,
                         help="abort after this many wall seconds")
    serve_p.add_argument("--lease-seconds", type=float, default=30.0,
                         help="presume a silent worker dead after this long")
    serve_p.add_argument("--checkpoint-dir", default=None)
    serve_p.add_argument("--checkpoint-period", type=float, default=2.0,
                         help="seconds between full INTERVALS+SOLUTION "
                              "snapshots")
    serve_p.add_argument("--resume", action="store_true",
                         help="continue the job in --checkpoint-dir (its "
                              "INTERVALS+SOLUTION and journal); an empty "
                              "directory starts fresh")
    serve_p.add_argument("--linger-seconds", type=float, default=10.0,
                         help="grace for worker goodbyes once the search "
                              "space is empty")
    serve_p.add_argument("--result-json", default=None, metavar="PATH",
                         help="write the final ServiceReport as JSON to PATH")

    worker_p = grid_sub.add_parser(
        "worker", help="connect to a coordinator server and work"
    )
    worker_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator server address")
    worker_p.add_argument("--id", default=None,
                          help="worker id (default: host-pid)")
    worker_p.add_argument("--power", type=_power, default=1.0)
    worker_p.add_argument("--update-nodes", type=int, default=2000)
    worker_p.add_argument("--update-period", type=float, default=0.25,
                          help="target seconds per interval update "
                               "(0 disables adaptive slicing)")
    worker_p.add_argument("--reply-timeout", type=float, default=10.0)
    worker_p.add_argument("--max-retries", type=int, default=6)
    worker_p.add_argument("--peer-timeout", type=float, default=None,
                          help="drop and redial a connection silent for "
                               "this many seconds (half-open link reaper)")
    worker_p.add_argument("--max-reconnect-attempts", type=int, default=None,
                          help="give up after this many consecutive failed "
                               "reconnects (default: keep trying)")
    worker_p.add_argument("--backoff-cap", type=float, default=2.0,
                          help="cap (seconds) on the decorrelated-jitter "
                               "reconnect backoff")

    service_p = grid_sub.add_parser(
        "service",
        help="run the multi-tenant job-queue service (many concurrent "
             "solves over one shared worker fleet)",
    )
    service_p.add_argument("--host", default="127.0.0.1")
    service_p.add_argument("--port", type=int, default=4716,
                           help="0 picks a free port (printed at startup)")
    service_p.add_argument("--policy", choices=["fifo", "fair"],
                           default="fair",
                           help="grant policy across runnable jobs")
    service_p.add_argument("--max-running", type=_positive_int, default=4,
                           help="jobs allowed in the running set at once")
    service_p.add_argument("--max-queued", type=_positive_int, default=64,
                           help="admission control: refuse submits beyond "
                                "this queue depth")
    service_p.add_argument("--max-per-owner", type=_positive_int, default=2,
                           help="running jobs any single owner may hold")
    service_p.add_argument("--deadline", type=float, default=None,
                           help="abort after this many wall seconds")
    service_p.add_argument("--lease-seconds", type=float, default=30.0,
                           help="presume a silent worker dead after this "
                                "long")
    service_p.add_argument("--checkpoint-dir", default=None,
                           help="durable per-job checkpoints; required for "
                                "--resume")
    service_p.add_argument("--checkpoint-period", type=float, default=2.0)
    service_p.add_argument("--resume", action="store_true",
                           help="recover every persisted job from "
                                "--checkpoint-dir before serving")
    service_p.add_argument("--linger-seconds", type=float, default=10.0)
    service_p.add_argument("--drain-when-idle", action="store_true",
                           help="exit once every submitted job has settled "
                                "(default: serve forever)")
    service_p.add_argument("--report-json", default=None, metavar="PATH",
                           help="write the final ServiceReport as JSON")

    fleet_p = grid_sub.add_parser(
        "fleet",
        help="supervise N worker subprocesses against one server",
    )
    fleet_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="coordinator server address")
    fleet_p.add_argument("--workers", type=int, default=2)
    fleet_p.add_argument("--id-prefix", default="fleet",
                         help="worker ids are PREFIX-SLOT.INCARNATION")
    fleet_p.add_argument("--update-nodes", type=int, default=2000)
    fleet_p.add_argument("--update-period", type=float, default=0.25)
    fleet_p.add_argument("--reply-timeout", type=float, default=10.0)
    fleet_p.add_argument("--max-retries", type=int, default=6)
    fleet_p.add_argument("--peer-timeout", type=float, default=None)
    fleet_p.add_argument("--max-reconnect-attempts", type=int, default=None)
    fleet_p.add_argument("--backoff-cap", type=float, default=2.0)
    fleet_p.add_argument("--respawn-base", type=float, default=0.2,
                         help="base respawn backoff (seconds)")
    fleet_p.add_argument("--respawn-cap", type=float, default=5.0,
                         help="cap on the respawn backoff (seconds)")
    fleet_p.add_argument("--max-respawns", type=int, default=None,
                         help="per-slot respawn budget (default: unlimited)")
    fleet_p.add_argument("--deadline", type=float, default=None,
                         help="stop supervising after this many seconds")

    job_p = sub.add_parser(
        "job", help="talk to a running `repro grid service`"
    )
    job_p.add_argument("--connect", default="127.0.0.1:4716",
                       metavar="HOST:PORT", help="service address")
    job_p.add_argument("--timeout", type=float, default=30.0,
                       help="per-RPC timeout (seconds)")
    job_sub = job_p.add_subparsers(dest="job_command", required=True)

    submit_p = job_sub.add_parser("submit", help="enqueue one solve")
    submit_p.add_argument("--problem", choices=["flowshop", "tsp"],
                          default="flowshop")
    submit_p.add_argument("--jobs", type=int, default=9,
                          help="flow-shop jobs")
    submit_p.add_argument("--machines", type=int, default=4)
    submit_p.add_argument("--seed", type=int, default=1)
    submit_p.add_argument("--taillard", type=int, default=None,
                          metavar="INDEX")
    submit_p.add_argument("--bound", choices=["lb1", "lb2", "combined"],
                          default="combined")
    submit_p.add_argument("--cities", type=int, default=8,
                          help="TSP cities")
    submit_p.add_argument("--priority", type=_positive_int, default=1,
                          help="fair-share weight (higher = larger share)")
    submit_p.add_argument("--owner", default="anonymous",
                          help="fair-share / per-owner-cap accounting key")
    submit_p.add_argument("--wait", action="store_true",
                          help="block until the job settles and print its "
                               "result")

    status_p = job_sub.add_parser("status", help="one status snapshot")
    status_p.add_argument("job_id")

    result_help = ("wait until the job settles, then print it (blocks "
                   "server-side: the service holds the reply until the "
                   "job settles, nothing polls)")
    result_p = job_sub.add_parser(
        "result", help=result_help, description=result_help
    )
    result_p.add_argument("job_id")
    result_p.add_argument("--poll-interval", type=float, default=0.5,
                          help="least seconds between status requests; "
                               "only matters against a service that "
                               "answers a waiting request at once")
    result_p.add_argument("--wait-timeout", type=float, default=None,
                          help="give up waiting after this many seconds")

    cancel_p = job_sub.add_parser("cancel", help="cancel a queued or "
                                                 "running job")
    cancel_p.add_argument("job_id")

    list_p = job_sub.add_parser("list", help="list jobs the service knows")
    list_p.add_argument("--owner", default="",
                        help="only this owner's jobs")

    sub.add_parser("tables", help="print the static tables (1 and 3)")

    check_p = sub.add_parser(
        "check",
        help="run the project-specific static-analysis pass",
    )
    from repro.tools.check.cli import add_check_arguments

    add_check_arguments(check_p)

    ta_p = sub.add_parser("taillard", help="print a Taillard instance")
    ta_p.add_argument("--jobs", type=int, default=50)
    ta_p.add_argument("--machines", type=int, default=20)
    ta_p.add_argument("--index", type=int, default=6)

    return parser


def _cmd_solve(args) -> int:
    from repro.core import solve
    from repro.problems.flowshop import (
        FlowShopProblem,
        random_instance,
        taillard_instance,
    )

    if args.taillard is not None:
        instance = taillard_instance(args.jobs, args.machines, args.taillard)
    else:
        instance = random_instance(args.jobs, args.machines, args.seed)
    print(f"instance: {instance.name} ({instance.jobs}x{instance.machines})")

    # Every solve starts from NEH completed inside its interval and
    # polished by a fixed 20-cycle Iterated Greedy below the same node
    # (FlowShopProblem.warm_start); a longer classic Iterated Greedy
    # run from whole-tree NEH is an explicit extra.
    ub, warm = math.inf, None
    if args.ig_iterations > 0:
        from repro.problems.flowshop import iterated_greedy

        ig = iterated_greedy(
            instance, iterations=args.ig_iterations, seed=args.seed
        )
        ub, warm = ig.cost, tuple(ig.sequence)
        print(f"Iterated Greedy upper bound: {ig.cost} "
              f"({args.ig_iterations} iterations)")

    if args.workers > 0:
        from repro.grid.runtime import RuntimeConfig, flowshop_spec, solve_parallel

        result = solve_parallel(
            flowshop_spec(instance, bound=args.bound),
            RuntimeConfig(
                workers=args.workers,
                initial_upper_bound=ub,
                initial_solution=warm,
            ),
        )
        print(f"optimal makespan: {result.cost} (proof: {result.optimal})")
        print(f"schedule: {list(result.solution)}")
        print(
            f"workers={result.workers} allocations={result.work_allocations} "
            f"updates={result.checkpoint_operations} "
            f"nodes={result.nodes_explored} "
            f"redundant={result.redundant_rate:.2%} "
            f"notices={result.notices_sent} "
            f"early_yields={result.early_yields}"
        )
    elif args.checkpoint_dir:
        from repro.core import ResumableSolver

        solver = ResumableSolver(
            FlowShopProblem(instance, bound=args.bound),
            args.checkpoint_dir,
            initial_upper_bound=ub,
            initial_solution=warm,
        )
        if solver.progress.resumed_from is not None:
            print(f"resumed from {solver.progress.resumed_from}")
        result = solver.run()
        print(f"optimal makespan: {result.cost} (proof: {result.optimal})")
        print(f"schedule: {list(result.solution)}")
        print(f"checkpoints written: {solver.progress.checkpoints_written}")
    else:
        result = solve(
            FlowShopProblem(instance, bound=args.bound),
            initial_upper_bound=ub,
            initial_solution=warm,
        )
        print(f"optimal makespan: {result.cost} (proof: {result.optimal})")
        print(f"schedule: {list(result.solution)}")
        print(f"nodes explored: {result.stats.nodes_explored}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.analysis import render_table2, resample, series_summary, sparkline
    from repro.grid.simulator import (
        FarmerConfig,
        paper_availability_model,
        GridSimulation,
        SimulationConfig,
        SyntheticWorkload,
        WorkerConfig,
        paper_platform,
        small_platform,
    )

    platform = (
        paper_platform() if args.paper_platform else small_platform(args.workers)
    )
    horizon = args.days * 86400.0 * 4
    leaves = math.factorial(50)
    # calibrated churn: roughly 19 % of the pool busy at mean 2.1 GHz
    expected_power = 0.19 * platform.total_processors * 2.1
    workload = SyntheticWorkload(
        leaves,
        seed=args.seed,
        mean_leaf_rate=leaves / (expected_power * args.days * 86400.0),
        irregularity=args.irregularity,
        nodes_per_second=1e4,
    )
    config = SimulationConfig(
        platform=platform,
        workload=workload,
        horizon=horizon,
        seed=args.seed,
        availability=paper_availability_model(),
        farmer=FarmerConfig(duplication_threshold=leaves // 10**8),
        worker=WorkerConfig(update_period=args.update_period),
        always_on=args.always_on,
    )
    report = GridSimulation(config).run()
    print(render_table2(report.table2))
    avg, peak = series_summary(report.series, report.wall_clock)
    print(f"\nFigure 7 (exploited processors over time, avg={avg:.0f}, "
          f"peak={peak}):")
    grid = resample(report.series, max(report.wall_clock, 1.0), samples=300)
    print(sparkline([n for _, n in grid]))
    print(f"\nbest cost: {report.best_cost}  proof: {report.finished}")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import quick_report

    comparisons = quick_report(seed=args.seed)
    print(comparisons.text())
    print()
    failures = comparisons.failures()
    if failures:
        print(f"{len(failures)} claim(s) FAILED")
        return 1
    print(f"all {len(comparisons.rows)} claims hold")
    return 0


def _cmd_grid(args) -> int:
    if args.grid_command == "serve":
        return _cmd_grid_serve(args)
    if args.grid_command == "service":
        return _cmd_grid_service(args)
    if args.grid_command == "fleet":
        return _cmd_grid_fleet(args)
    return _cmd_grid_worker(args)


def _cmd_grid_serve(args) -> int:
    """A solve service that admits the command line's job and drains."""
    from pathlib import Path

    from repro.exceptions import RuntimeProtocolError
    from repro.grid.runtime import flowshop_spec
    from repro.grid.runtime.protocol import JobRefused
    from repro.grid.service.server import ServiceConfig, SolveService
    from repro.grid.service.store import JobStore
    from repro.problems.flowshop import random_instance, taillard_instance

    if args.taillard is not None:
        instance = taillard_instance(args.jobs, args.machines, args.taillard)
    else:
        instance = random_instance(args.jobs, args.machines, args.seed)
    print(f"instance: {instance.name} ({instance.jobs}x{instance.machines})")
    wire = flowshop_spec(instance, bound=args.bound)
    root = tuple(args.interval) if args.interval else None
    checkpoint_dir = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    if checkpoint_dir is not None:
        # One directory, one job: a fresh start never buries another
        # job's checkpoint, and --resume continues only this one.
        vetting = JobStore(checkpoint_dir)
        try:
            recorded = vetting.recover()
        finally:
            vetting.close()  # the service opens the log itself
        for record in recorded:
            if not args.resume:
                raise RuntimeProtocolError(
                    f"{checkpoint_dir} already holds job {record.job_id} "
                    f"({record.status}): continue it with --resume, or "
                    f"start in an empty directory"
                )
            if not record.solves(wire, root):
                raise RuntimeProtocolError(
                    f"--resume: job {record.job_id} in {checkpoint_dir} "
                    f"solves another problem or slice than this command line"
                )
    service = SolveService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            checkpoint_dir=checkpoint_dir,
            checkpoint_period=args.checkpoint_period,
            deadline=args.deadline,
            lease_seconds=args.lease_seconds,
            linger_seconds=args.linger_seconds,
            resume=args.resume,
            drain_when_idle=True,
        )
    )
    recovered = service.jobs.records()
    if recovered:
        job = recovered[-1].job_id
        print(f"resumed job {job} from {checkpoint_dir} (epoch {service.epoch})")
    else:  # a fresh start, or --resume over an empty directory
        reply = service.admit(wire, root=root)
        if isinstance(reply, JobRefused):
            service.listener.close()
            raise RuntimeProtocolError(reply.reason)
        job = reply.job
    host, port = service.address
    print(f"serving on {host}:{port} — connect workers with:")
    print(f"  repro grid worker --connect {host}:{port}")
    report = service.serve_forever()
    doc = report.jobs[job]
    optimal = doc["status"] == "done"
    print(f"optimal makespan: {doc['cost']} (proof: {optimal})")
    if doc["solution"] is not None:
        print(f"schedule: {doc['solution']}")
    print(
        f"workers={len(report.worker_stats)} "
        f"allocations={doc['work_allocations']} "
        f"updates={doc['updates']} "
        f"nodes={doc['nodes']} "
        f"redundant={doc['redundant_rate']:.2%} "
        f"notices={report.notices_sent} "
        f"early_yields={report.early_yields}"
    )
    if args.result_json:
        _write_service_report(args.result_json, report)
    return 0 if optimal else 1


def _cmd_grid_service(args) -> int:
    from pathlib import Path

    from repro.grid.service.scheduler import SchedulerConfig
    from repro.grid.service.server import ServiceConfig, SolveService

    service = SolveService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            checkpoint_dir=(
                Path(args.checkpoint_dir) if args.checkpoint_dir else None
            ),
            checkpoint_period=args.checkpoint_period,
            deadline=args.deadline,
            lease_seconds=args.lease_seconds,
            linger_seconds=args.linger_seconds,
            resume=args.resume,
            scheduler=SchedulerConfig(
                policy=args.policy,
                max_running_jobs=args.max_running,
                max_queued_jobs=args.max_queued,
                max_running_per_owner=args.max_per_owner,
            ),
            drain_when_idle=args.drain_when_idle,
        )
    )
    host, port = service.address
    if args.resume:
        print(f"resumed {len(service.jobs)} job(s) from "
              f"{args.checkpoint_dir} (epoch {service.epoch})")
    print(f"service on {host}:{port} ({args.policy} policy) — "
          f"submit with:")
    print(f"  repro job --connect {host}:{port} submit ...")
    print(f"  repro grid worker --connect {host}:{port}")
    report = service.serve_forever()
    print(f"served {len(report.jobs)} job(s) in {report.wall_seconds:.1f}s: "
          f"{report.jobs_completed} done, {report.jobs_failed} failed, "
          f"{report.jobs_cancelled} cancelled "
          f"(allocations={report.work_allocations} "
          f"idled={report.requests_idled} "
          f"notices={report.notices_sent})")
    if args.report_json:
        _write_service_report(args.report_json, report)
    return 0 if not report.aborted and report.jobs_failed == 0 else 1


def _write_service_report(path_text: str, report) -> None:
    import json
    from dataclasses import asdict
    from pathlib import Path

    payload = asdict(report)
    for summary in payload["jobs"].values():
        if summary.get("cost") == math.inf:
            summary["cost"] = None
    Path(path_text).write_text(json.dumps(payload, indent=2) + "\n")


def _job_spec_from_args(args):
    if args.problem == "tsp":
        from repro.grid.runtime import tsp_spec
        from repro.problems.tsp import random_tsp

        return tsp_spec(random_tsp(args.cities, seed=args.seed))
    from repro.grid.runtime import flowshop_spec
    from repro.problems.flowshop import random_instance, taillard_instance

    if args.taillard is not None:
        instance = taillard_instance(args.jobs, args.machines, args.taillard)
    else:
        instance = random_instance(args.jobs, args.machines, args.seed)
    return flowshop_spec(instance, bound=args.bound)


def _print_job_status(status) -> None:
    line = f"job {status.job}: {status.status}"
    if status.status in ("running", "done"):
        cost = "inf" if math.isinf(status.best_cost) else status.best_cost
        line += f" cost={cost} nodes={status.nodes}"
    if status.status == "done" and status.solution is not None:
        line += f" solution={list(status.solution)}"
    if status.error:
        line += f" error={status.error!r}"
    print(line)


def _cmd_job(args) -> int:
    from repro.grid.net.transport import TransportError
    from repro.grid.service.client import SyncServiceClient

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--connect must be HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    client = SyncServiceClient(host, int(port_text), timeout=args.timeout)
    try:
        return _job_rpc(client, args)
    except (TransportError, OSError) as exc:
        print(f"repro job {args.job_command}: {args.connect}: {exc}",
              file=sys.stderr)
        return 1


def _job_rpc(client, args) -> int:
    from repro.grid.service.client import JobRefusedError

    if args.job_command == "submit":
        spec = _job_spec_from_args(args)
        try:
            job_id = client.submit(
                spec, priority=args.priority, owner=args.owner
            )
        except JobRefusedError as refusal:
            print(f"refused: {refusal}", file=sys.stderr)
            return 1
        print(job_id)
        if args.wait:
            status = client.result(job_id)
            _print_job_status(status)
            return 0 if status.status == "done" else 1
        return 0
    if args.job_command == "status":
        _print_job_status(client.status(args.job_id))
        return 0
    if args.job_command == "result":
        status = client.result(
            args.job_id,
            poll_interval=args.poll_interval,
            timeout=args.wait_timeout,
        )
        _print_job_status(status)
        return 0 if status.status == "done" else 1
    if args.job_command == "cancel":
        _print_job_status(client.cancel(args.job_id))
        return 0
    summaries = client.list_jobs(owner=args.owner)
    for summary in summaries:
        cost = summary.get("cost")
        cost_text = "-" if cost is None or cost == math.inf else cost
        print(f"{summary['job']}  {summary['status']:<9} "
              f"owner={summary['owner']} priority={summary['priority']} "
              f"cost={cost_text}")
    if not summaries:
        print("(no jobs)")
    return 0


def _cmd_grid_worker(args) -> int:
    import os
    import socket as socket_mod

    from repro.grid.net.serve import run_worker

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--connect must be HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    worker_id = args.id or f"{socket_mod.gethostname()}-{os.getpid()}"
    print(f"worker {worker_id} connecting to {host}:{port_text}")
    outcome = run_worker(
        host,
        int(port_text),
        worker_id,
        power=args.power,
        update_nodes=args.update_nodes,
        update_period=args.update_period or None,
        reply_timeout=args.reply_timeout,
        max_retries=args.max_retries,
        peer_timeout=args.peer_timeout,
        max_reconnect_attempts=args.max_reconnect_attempts,
        backoff_cap=args.backoff_cap,
    )
    print(f"worker {worker_id} done: {outcome}")
    # The exit code is the supervision contract (see grid/runtime/
    # supervisor.py): 0 only when the coordinator said Terminate.
    return 0 if outcome == "terminate" else 3


def _cmd_grid_fleet(args) -> int:
    from repro.grid.runtime.supervisor import RespawnPolicy, WorkerSupervisor

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--connect must be HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2

    def command_for(slot: int, incarnation: int) -> List[str]:
        argv = [
            sys.executable, "-m", "repro.cli", "grid", "worker",
            "--connect", args.connect,
            "--id", f"{args.id_prefix}-{slot}.{incarnation}",
            "--update-nodes", str(args.update_nodes),
            "--update-period", str(args.update_period),
            "--reply-timeout", str(args.reply_timeout),
            "--max-retries", str(args.max_retries),
            "--backoff-cap", str(args.backoff_cap),
        ]
        if args.peer_timeout is not None:
            argv += ["--peer-timeout", str(args.peer_timeout)]
        if args.max_reconnect_attempts is not None:
            argv += ["--max-reconnect-attempts",
                     str(args.max_reconnect_attempts)]
        return argv

    supervisor = WorkerSupervisor(
        command_for,
        workers=args.workers,
        policy=RespawnPolicy(
            backoff_base=args.respawn_base,
            backoff_cap=args.respawn_cap,
            max_respawns=args.max_respawns,
        ),
    )
    print(f"fleet of {args.workers} workers -> {args.connect}")
    report = supervisor.run(deadline=args.deadline)
    for status in report.slots:
        print(
            f"slot {status.slot}: {status.outcome} "
            f"after {status.incarnations} incarnation(s) "
            f"(exit codes {status.exit_codes})"
        )
    print(
        f"fleet done in {report.wall_seconds:.1f}s "
        f"respawns={report.respawns} timed_out={report.timed_out}"
    )
    return 0 if report.all_clean else 1


def _cmd_tables(_args) -> int:
    from repro.analysis import render_table1, render_table3

    print(render_table1())
    print()
    print(render_table3())
    return 0


def _cmd_check(args) -> int:
    from repro.tools.check.cli import run_check

    return run_check(args)


def _cmd_taillard(args) -> int:
    from repro.problems.flowshop import taillard_instance

    instance = taillard_instance(args.jobs, args.machines, args.index)
    print(f"{instance.name}: {instance.jobs} jobs x {instance.machines} machines")
    print(f"trivial lower bound: {instance.trivial_lower_bound()}")
    for row in instance.processing_times:
        print(" ".join(f"{v:2d}" for v in row))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "simulate": _cmd_simulate,
        "grid": _cmd_grid,
        "job": _cmd_job,
        "report": _cmd_report,
        "tables": _cmd_tables,
        "taillard": _cmd_taillard,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except CheckpointError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
