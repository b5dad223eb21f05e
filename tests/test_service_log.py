"""The service's one log: torn tails, compaction, crashes, old layouts.

Every job of a solve service lives in ``<dir>/service.log``
(:class:`~repro.core.checkpoint.MultiJobStore`), CRC-framed as the
journal is.  These tests pin what a crash can do to that file — tear
its last record, or land between a compaction's temp write and its
rename — and that a service resumed from it, across a compaction or
from a torn tail, still finishes with the serial optimum and a ledger
that reconciles with its workers.
"""

from __future__ import annotations

import os
import re
import time

import pytest

from repro import cli
from repro.core import Incumbent, Interval, IntervalSet
from repro.core import checkpoint
from repro.core.checkpoint import MultiJobStore
from repro.exceptions import CheckpointError
from repro.grid.service.server import SolveService
from tests.helpers import journalled_jobs
from tests.test_serve_resume import (
    SPEC_WIRE,
    one_job_service,
    serial,
    serve_config,
    start_server,
    start_workers,
)


def two_jobs(directory):
    """A running job with a snapshot and reconciliations, and a settled one."""
    store = MultiJobStore(directory)
    store.bump_epoch()
    store.save_meta("run", {"status": "running", "spec": {"n": 1}})
    job = store.job_store("run")
    # Dead once the snapshot lands: replay starts at the snapshot, so
    # this range, which the snapshot holds open, stays open.
    job.journal_explored(Interval(50, 60))
    job.save(IntervalSet.from_payload([(10, 100)], 0), Incumbent(50.0, (0, 1)))
    job.journal_explored(Interval(10, 20))
    job.journal_push(40.0, (1, 0))
    # A later meta record carries no spec: it is read from the first.
    store.save_meta("run", {"status": "running", "owner": "o", "spec": {"n": 1}})
    store.save_meta("done", {"status": "running", "spec": {"n": 2}})
    store.job_store("done").journal_explored(Interval(0, 5))
    store.save_meta("done", {"status": "done", "cost": 3.0, "spec": {"n": 2}}, settled=True)
    return store


def state_of(store):
    run = store.job_store("run").load_state(Interval(0, 100))
    return (
        store.read_epoch(),
        store.job_ids(),
        store.load_meta("run"),
        store.load_meta("done"),
        run.intervals.to_payload(),
        (run.incumbent.cost, run.incumbent.solution),
        store.job_store("done").load_state().replayed_records,
    )


EXPECTED = (
    1,
    ["done", "run"],
    {"status": "running", "owner": "o", "spec": {"n": 1}},
    {"status": "done", "cost": 3.0},  # a settled job's spec is gone
    [(20, 100)],
    (40.0, (1, 0)),
    0,
)


def test_a_job_replays_its_latest_snapshot_then_the_records_after_it(tmp_path):
    two_jobs(tmp_path)
    assert state_of(MultiJobStore(tmp_path)) == EXPECTED


def test_a_torn_final_record_is_cut_and_the_valid_prefix_recovers(tmp_path):
    store = two_jobs(tmp_path)
    whole = store.path.read_bytes()
    store.job_store("run").journal_explored(Interval(20, 30))
    torn = store.path.read_bytes()[: len(whole) + 20]  # cut mid-line
    store.path.write_bytes(torn)

    reopened = MultiJobStore(tmp_path)
    assert state_of(reopened) == EXPECTED
    assert reopened.path.read_bytes() == whole  # the tail is gone, durably
    reopened.job_store("run").journal_explored(Interval(20, 30))
    run = MultiJobStore(tmp_path).job_store("run").load_state(Interval(0, 100))
    assert run.intervals.to_payload() == [(30, 100)]


def test_a_damaged_record_before_valid_ones_is_refused(tmp_path):
    store = two_jobs(tmp_path)
    damaged = store.path.read_bytes().replace(b'"100"', b'"900"', 1)
    store.path.write_bytes(damaged)
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        MultiJobStore(tmp_path).job_ids()
    assert store.path.read_bytes() == damaged  # nothing was cut


def test_compaction_keeps_every_live_record_and_drops_the_dead(tmp_path):
    store = two_jobs(tmp_path)
    before = store.path.stat().st_size
    store._compact()
    assert store.path.stat().st_size < before
    assert state_of(store) == EXPECTED
    assert state_of(MultiJobStore(tmp_path)) == EXPECTED
    assert os.listdir(tmp_path) == ["service.log"]
    # Appends after a compaction land in the new log.
    store.job_store("run").journal_explored(Interval(20, 25))
    run = MultiJobStore(tmp_path).job_store("run").load_state(Interval(0, 100))
    assert run.intervals.to_payload() == [(25, 100)]


def test_clear_forgets_every_job_and_the_epoch(tmp_path):
    store = two_jobs(tmp_path)
    store.clear()
    for view in (store, MultiJobStore(tmp_path)):
        assert view.job_ids() == [] and view.read_epoch() == 0
        assert view.load_meta("run") is None
    assert store.bump_epoch() == 1
    assert os.listdir(tmp_path) == ["service.log"]


class Killed(Exception):
    """``kill -9`` inside the compaction: nothing after it runs."""


def test_a_kill_between_compaction_write_and_rename_resumes_from_the_old_log(
    tmp_path, monkeypatch
):
    store = two_jobs(tmp_path)
    old = store.path.read_bytes()

    def killed(src, dst):
        raise Killed

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(Killed):
        store._compact()
    monkeypatch.undo()
    assert store.path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["service.log", "service.log.compact"]
    reopened = MultiJobStore(tmp_path)
    assert state_of(reopened) == EXPECTED  # the stray temp file is ignored
    reopened._compact()  # and the next compaction writes over it
    assert os.listdir(tmp_path) == ["service.log"]
    assert state_of(MultiJobStore(tmp_path)) == EXPECTED


@pytest.mark.parametrize("layout", ["jobs", "epoch.json", "two-file"])
def test_a_directory_in_the_per_job_layout_is_refused(tmp_path, layout, capsys):
    ckpt = tmp_path / "ckpt"
    if layout == "two-file":
        # What `repro solve --checkpoint-dir` wrote before it kept a log.
        names = ["intervals.json", "solution.json", "journal.log"]
        ckpt.mkdir()
        for name in names:
            (ckpt / name).write_text("{}")
        argv = ["solve", "--jobs", "6", "--machines", "3",
                "--checkpoint-dir", str(ckpt)]
    else:
        names = ["jobs", "epoch.json"][: 1 + (layout == "epoch.json")]
        (ckpt / "jobs" / "abc").mkdir(parents=True)
        (ckpt / "jobs" / "abc" / "meta.json").write_text("{}")
        if layout == "epoch.json":
            (ckpt / "epoch.json").write_text('{"epoch": 1}')
        argv = ["grid", "serve", "--port", "0", "--jobs", "6", "--machines", "3",
                "--checkpoint-dir", str(ckpt), "--resume"]
    refusal = f"checkpoint layout ({', '.join(names)}) of an earlier release"
    with pytest.raises(CheckpointError, match=re.escape(refusal)):
        SolveService(serve_config(ckpt, resume=True))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and refusal in err[0]
    assert not (ckpt / "service.log").exists()


def test_repro_solve_refuses_a_service_directory(tmp_path, capsys):
    """``repro solve --checkpoint-dir`` over a service's log appends
    nothing to it: one line, exit 1, the log as it was."""
    two_jobs(tmp_path).close()
    before = (tmp_path / "service.log").read_bytes()
    argv = ["solve", "--jobs", "6", "--machines", "3", "--checkpoint-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("repro: ")
    assert "holds a solve service's log" in err[0]
    assert (tmp_path / "service.log").read_bytes() == before
    # An epoch alone (a service that never admitted a job) is a service's too.
    empty = tmp_path / "epoch-only"
    MultiJobStore(empty).bump_epoch()
    assert cli.main(argv[:-1] + [str(empty)]) == 1


@pytest.mark.timeout(60)  # a service that is not refused would serve on
@pytest.mark.parametrize("front_door", ["grid serve", "grid service"])
def test_a_service_refuses_a_repro_solve_directory(tmp_path, front_door, capsys):
    """A service over a ``repro solve`` log would carry the solver's
    records through every compaction: refused before it serves."""
    solve_argv = ["solve", "--jobs", "6", "--machines", "3", "--checkpoint-dir", str(tmp_path)]
    assert cli.main(solve_argv) == 0
    capsys.readouterr()
    before = (tmp_path / "service.log").read_bytes()
    refusal = "holds a `repro solve` checkpoint"
    with pytest.raises(CheckpointError, match=re.escape(refusal)):
        SolveService(serve_config(tmp_path))
    argv = [*front_door.split(), "--port", "0", "--checkpoint-dir", str(tmp_path)]
    if front_door == "grid serve":
        argv[2:2] = ["--jobs", "6", "--machines", "3"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("repro: ") and refusal in err[0]
    assert (tmp_path / "service.log").read_bytes() == before


def crash_then_resume(ckpt, before_abort=lambda server: True, between=lambda: None):
    """Serve one job with two workers, abort it once the log holds its
    snapshot and a reconciliation after it (and ``before_abort`` holds),
    call ``between``, resume, finish."""
    # Snapshots every 10 ms: the abort lands while the job is young.
    server1, job = one_job_service(ckpt, checkpoint_period=0.01)
    host, port = server1.address
    thread1, _ = start_server(server1)
    workers1 = start_workers(host, port, 2, "lw1", {})
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        coordinator = server1.coordinators.get(job)
        if coordinator is None or (
            coordinator.nodes_explored > 0
            and journalled_jobs(ckpt)
            and before_abort(server1)
        ):
            break
        time.sleep(0.01)
    server1.abort()
    thread1.join(timeout=30)
    assert not thread1.is_alive()
    for t in workers1:
        t.join(timeout=30)
        assert not t.is_alive()
    between()

    server2, resumed = one_job_service(ckpt, resume=True)
    assert resumed == job and server2.epoch == 2
    thread2, outcome2 = start_server(server2)
    workers2 = start_workers(*server2.address, 2, "lw2", {})
    for t in workers2:
        t.join(timeout=60)
    thread2.join(timeout=60)
    assert not thread2.is_alive()
    report = outcome2["result"]
    doc = report.jobs[job]
    assert doc["status"] == "done" and doc["cost"] == serial.cost
    if report.work_allocations:  # the abort landed mid-run
        assert doc["nodes"] == sum(s["nodes"] for s in report.worker_stats.values())
        assert doc["work_allocations"] == report.work_allocations
    return server1


def test_a_resume_across_a_compaction_finishes_with_the_optimum(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint, "_COMPACT_FLOOR", 2048)
    ckpt = tmp_path / "ckpt"
    server1 = crash_then_resume(
        ckpt, before_abort=lambda server: server.jobs.disk.compactions > 0
    )
    assert server1.jobs.disk.compactions > 0
    assert os.listdir(ckpt) == ["service.log"]


def test_a_resume_from_a_torn_log_finishes_with_the_optimum(tmp_path):
    ckpt = tmp_path / "ckpt"
    log = ckpt / "service.log"

    def tear():
        with open(log, "ab") as fh:  # a record cut mid-append
            fh.write(b'01234567 {"kind":"explored","job":"' + SPEC_WIRE["problem"].encode())

    crash_then_resume(ckpt, between=tear)
    assert log.read_bytes().endswith(b"\n")
