"""The log's reconciliation records: framing, torn tails, replay, epoch.

Between a job's snapshots, ``service.log``
(:class:`~repro.core.checkpoint.MultiJobStore`) keeps one record per
reconciliation — an explored range or an incumbent push — which shrinks
the recovery window from one full ``checkpoint_period`` to the last
reconciled update.  These tests pin the records' durability contract —
CRC-framed lines, torn-tail truncation, replay after the latest
snapshot only — plus the service epoch the Welcome handshake carries,
and the claim behind it all: a crashed run recovered with its
reconciliations re-explores strictly fewer nodes than one recovered
from its last snapshot alone.
"""

import json
import math
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Incumbent, Interval, IntervalSet, JournalRecord, solve
from repro.core.checkpoint import MultiJobStore
from repro.core.engine import IntervalExplorer
from repro.exceptions import CheckpointError
from repro.grid.runtime.coordinator import Coordinator
from repro.grid.runtime.protocol import Push, Request, Update
from repro.problems.flowshop import FlowShopProblem, random_instance

JOB = "job"


def make_store(tmp_path):
    """The job as a (re)started process opens it."""
    return MultiJobStore(tmp_path / "ckpt").job_store(JOB)


def snapshot(store, pairs, cost=None, solution=None):
    intervals = IntervalSet.from_payload(pairs, 0)
    incumbent = Incumbent()
    if cost is not None:
        incumbent.update(cost, solution)
    store.save(intervals, incumbent)
    return intervals


def replayed(tmp_path, root=None):
    """``(INTERVALS, incumbent cost)`` as a restart recovers them."""
    state = make_store(tmp_path).load_state(root)
    pushed = state.incumbent.cost if state.incumbent else None
    return (state.intervals.to_payload() if state.intervals else None), pushed


def framed(doc):
    body = json.dumps(doc).encode()
    return format(zlib.crc32(body), "08x").encode() + b" " + body + b"\n"


# ----------------------------------------------------------------------
# JournalRecord round-trip


def test_record_roundtrip_explored():
    rec = JournalRecord("explored", (10, 25))
    assert JournalRecord.from_doc(rec.to_doc(job=JOB)) == rec


def test_record_roundtrip_push():
    rec = JournalRecord("push", cost=1278.0, solution=(2, 0, 1))
    assert JournalRecord.from_doc(rec.to_doc(job=JOB)) == rec


def test_record_endpoints_survive_beyond_double_precision(tmp_path):
    total = math.factorial(50)  # Ta056's leaf count
    begin = total // 3 + 1
    end = begin + 2**60 + 3
    rec = JournalRecord("explored", (begin, end))
    # Serialised as decimal strings, not JSON numbers: a reader that
    # round-trips numbers through doubles cannot corrupt them.
    assert rec.to_doc()["interval"] == [str(begin), str(end)]
    store = make_store(tmp_path)
    store.journal_explored(Interval(begin, end))
    log = store.log.path.read_bytes()
    assert f'"{begin}"'.encode() in log
    assert replayed(tmp_path, Interval(0, total))[0] == [(0, begin), (end, total)]


@settings(max_examples=50, deadline=None)
@given(
    begin=st.integers(min_value=0, max_value=2**80),
    span=st.integers(min_value=0, max_value=2**80),
    cost=st.one_of(st.none(), st.integers(0, 2**40), st.floats(0, 1e9)),
)
def test_record_roundtrip_hypothesis(begin, span, cost):
    for rec in (
        JournalRecord("explored", (begin, begin + span)),
        JournalRecord("push", cost=cost, solution=(begin % 7, 0)),
    ):
        doc = json.loads(json.dumps(rec.to_doc(job=JOB)))
        assert JournalRecord.from_doc(doc) == rec


def test_malformed_record_raises():
    with pytest.raises(ValueError):
        JournalRecord.from_doc({"kind": "frobnicate"})
    with pytest.raises(ValueError):
        JournalRecord.from_doc({"kind": "explored", "interval": ["1"]})


# ----------------------------------------------------------------------
# The log: append / replay / torn tails


def test_append_replay_roundtrip(tmp_path):
    store = make_store(tmp_path)
    store.journal_explored(Interval(0, 10))
    store.journal_push(54.0, (1, 0))
    store.journal_explored(Interval(10, 20))
    store.log.close()
    state = make_store(tmp_path).load_state(Interval(0, 30))
    assert state.replayed_records == 3
    assert state.intervals.to_payload() == [(20, 30)]
    assert (state.incumbent.cost, state.incumbent.solution) == (54.0, (1, 0))


def test_replay_filters_other_generations(tmp_path):
    # One log, many jobs: a job replays its own records only.
    log = MultiJobStore(tmp_path / "ckpt")
    log.job_store(JOB).journal_explored(Interval(0, 5))
    log.job_store("other").journal_explored(Interval(5, 9))
    log.job_store("other").journal_push(1.0, (0,))
    log.job_store(JOB).journal_explored(Interval(9, 12))
    assert replayed(tmp_path, Interval(0, 20)) == ([(5, 9), (12, 20)], None)


def test_replay_truncates_torn_tail(tmp_path):
    store = make_store(tmp_path)
    store.journal_explored(Interval(0, 5))
    store.journal_explored(Interval(5, 8))
    store.log.close()
    intact = store.log.path.read_bytes()
    # A SIGKILL mid-append leaves a partial line with no newline.
    store.log.path.write_bytes(intact + b'aaaaaaaa {"kind":"exp')
    assert make_store(tmp_path).load_state().replayed_records == 2
    # The torn tail was excised so later appends cannot interleave.
    assert store.log.path.read_bytes() == intact


def test_replay_truncates_at_crc_mismatch(tmp_path):
    store = make_store(tmp_path)
    store.journal_explored(Interval(0, 5))
    store.log.close()
    good = store.log.path.read_bytes()
    line = framed(JournalRecord("explored", (5, 9)).to_doc(job=JOB))
    bad_crc = format(int(line[:8], 16) ^ 1, "08x").encode()
    store.log.path.write_bytes(good + bad_crc + line[8:])
    assert replayed(tmp_path, Interval(0, 10))[0] == [(5, 10)]
    assert store.log.path.read_bytes() == good


def test_replay_missing_file_is_empty(tmp_path):
    state = make_store(tmp_path).load_state()
    assert (state.intervals, state.incumbent, state.replayed_records) == (None, None, 0)
    assert not (tmp_path / "ckpt").exists()


def test_append_after_torn_replay_stays_parseable(tmp_path):
    store = make_store(tmp_path)
    store.journal_explored(Interval(0, 5))
    store.log.close()
    store.log.path.write_bytes(store.log.path.read_bytes() + b"garbage")
    reopened = make_store(tmp_path)
    reopened.load_state()
    reopened.journal_explored(Interval(5, 9))
    reopened.log.close()
    assert replayed(tmp_path, Interval(0, 10))[0] == [(9, 10)]


def test_rotate_empties_the_journal(tmp_path):
    # A compaction drops the records a snapshot subsumed: only the
    # snapshot itself is left in the log.
    store = make_store(tmp_path)
    store.journal_explored(Interval(0, 5))
    snapshot(store, [(0, 100)])
    only_snapshot = store.log.path.read_bytes().splitlines(keepends=True)[-1]
    store.log._compact()
    assert store.log.path.read_bytes() == only_snapshot
    assert make_store(tmp_path).load_state().replayed_records == 0


# ----------------------------------------------------------------------
# load_state: a snapshot, then its later records


def test_load_state_replays_explored_and_push(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 100)], cost=90.0, solution=(0, 1))
    store.journal_explored(Interval(0, 30))
    store.journal_push(75.0, (1, 0))
    store.journal_explored(Interval(60, 80))

    state = make_store(tmp_path).load_state()
    assert state.replayed_records == 3
    assert state.replayed_leaves == 50
    assert state.intervals.to_payload() == [(30, 60), (80, 100)]
    assert state.incumbent.cost == 75.0
    assert state.incumbent.solution == (1, 0)


def cut_after_last_snapshot(tmp_path, to):
    """A copy of the log that ends at its latest snapshot record: what a
    restart would read if nothing were journaled after snapshots."""
    lines = (tmp_path / "ckpt" / "service.log").read_bytes().splitlines(keepends=True)
    kinds = [json.loads(line[9:])["kind"] for line in lines]
    last = len(kinds) - 1 - kinds[::-1].index("snapshot")
    (to / "ckpt").mkdir(parents=True)
    (to / "ckpt" / "service.log").write_bytes(b"".join(lines[: last + 1]))
    return make_store(to)


def test_load_state_without_journal_replay(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 100)])
    store.journal_explored(Interval(0, 40))
    state = cut_after_last_snapshot(tmp_path, tmp_path / "cut").load_state()
    assert state.replayed_records == 0
    assert state.intervals.to_payload() == [(0, 100)]


def test_save_rotates_journal(tmp_path):
    store = make_store(tmp_path)
    intervals = snapshot(store, [(0, 100)])
    store.journal_explored(Interval(0, 99))
    store.save(intervals, Incumbent())  # new snapshot subsumes the journal
    state = store.load_state()
    assert state.replayed_records == 0
    assert state.intervals.to_payload() == [(0, 100)]


def test_load_state_ignores_stale_generation_records(tmp_path):
    # Records before the latest snapshot stay in the file until a
    # compaction; a restart's scan must not replay them.
    store = make_store(tmp_path)
    intervals = snapshot(store, [(0, 100)])
    store.journal_explored(Interval(0, 10))
    store.journal_push(3.0, (0,))
    store.save(intervals, Incumbent())
    assert len(store.log.path.read_bytes().splitlines()) == 4
    state = make_store(tmp_path).load_state()
    assert state.replayed_records == 0
    assert state.intervals.to_payload() == [(0, 100)]
    assert state.incumbent.cost == float("inf")


def test_load_state_replays_over_fresh_root_before_first_snapshot(tmp_path):
    store = make_store(tmp_path)
    store.journal_explored(Interval(0, 7))  # no snapshot yet
    state = make_store(tmp_path).load_state(root_interval=Interval(0, 24))
    assert state.intervals.to_payload() == [(7, 24)]
    assert state.incumbent is None


def test_load_state_replay_is_idempotent(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 100)])
    store.journal_explored(Interval(0, 30))
    store.journal_explored(Interval(0, 30))  # duplicate delivery
    store.journal_explored(Interval(10, 40))  # overlapping
    state = make_store(tmp_path).load_state()
    assert state.intervals.to_payload() == [(40, 100)]


# ----------------------------------------------------------------------
# Crash recovery end to end: the journal loses less work


def _finish(problem, pairs, incumbent):
    """Nodes and cost of finishing ``pairs`` with the serial engine."""
    nodes, cost = 0, incumbent.cost
    for begin, end in pairs:
        result = solve(
            problem,
            interval=Interval(begin, end),
            initial_upper_bound=incumbent.cost,
            initial_solution=incumbent.solution,
        )
        nodes += result.stats.nodes_explored
        cost = min(cost, result.cost)
    return nodes, cost


def test_journal_replay_re_explores_fewer_nodes_than_a_snapshot_restart(tmp_path):
    """A real explorer reports to a real coordinator over a real log,
    snapshotting every 3 slices, and crashes after 10 (one past the last
    snapshot).  Both recoveries prove the serial optimum; the one that
    replays the records after the snapshot re-explores strictly fewer
    nodes than one from a copy of the log cut at that snapshot."""
    problem = FlowShopProblem(random_instance(8, 4, seed=17))
    serial = solve(problem)
    root = Interval(0, problem.total_leaves())
    coordinator = Coordinator(
        root,
        duplication_threshold=0,
        store=make_store(tmp_path),
        checkpoint_period=float("inf"),  # snapshots are slice-counted
    )
    grant = coordinator.handle(Request("w0", 1.0, seq=1))
    explorer = IntervalExplorer(
        problem, Interval.from_tuple(grant.interval), incumbent=Incumbent()
    )
    seq, pushed = 1, float("inf")
    for sliced in range(1, 11):
        report = explorer.step(40)
        assert not report.finished  # the crash must find work left
        if explorer.incumbent.cost < pushed:
            pushed = explorer.incumbent.cost
            seq += 1
            coordinator.handle(
                Push("w0", pushed, explorer.incumbent.solution, seq=seq)
            )
        seq += 1
        coordinator.handle(
            Update(
                "w0",
                explorer.remaining_interval().as_tuple(),
                report.nodes_processed,
                0,
                seq=seq,
            )
        )
        if sliced % 3 == 0:
            coordinator.maybe_checkpoint(force=True)
    # The crash: the coordinator is dropped; only the directory survives.
    coordinator.store.log.close()
    lossless, _ = _finish(
        problem, [explorer.remaining_interval().as_tuple()], explorer.incumbent
    )
    re_explored = {}
    for replay in (True, False):
        store = make_store(tmp_path) if replay else cut_after_last_snapshot(
            tmp_path, tmp_path / "snapshot-only"
        )
        state = store.load_state(root)
        assert (state.replayed_records > 0) == replay
        nodes, cost = _finish(
            problem, state.intervals.to_payload(), state.incumbent or Incumbent()
        )
        assert cost == serial.cost
        re_explored[replay] = nodes - lossless
    assert 0 <= re_explored[True] < re_explored[False]


# ----------------------------------------------------------------------
# Snapshot CRC


def test_snapshot_files_carry_crc(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 10)], cost=5.0, solution=(0,))
    line = store.log.path.read_bytes()
    assert line[:8] == format(zlib.crc32(line[9:-1]), "08x").encode()
    assert json.loads(line[9:])["kind"] == "snapshot"


def test_corrupted_snapshot_is_rejected(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 10)])
    store.journal_explored(Interval(0, 5))
    store.log.close()
    # Tampered after the fact: the CRC is stale and a valid record
    # follows, so this is damage, not a torn append.
    store.log.path.write_bytes(store.log.path.read_bytes().replace(b'"10"', b'"15"', 1))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        make_store(tmp_path).load_state()


# ----------------------------------------------------------------------
# Service epoch (MultiJobStore)


def test_corrupt_epoch_file_does_not_block_restart(tmp_path):
    store = MultiJobStore(tmp_path)
    store.bump_epoch()
    store.bump_epoch()
    # A crash mid-append tears the latest epoch record.
    store.path.write_bytes(store.path.read_bytes()[:-5])
    # Crash-only: the torn record is cut, and the count goes on from
    # the last whole one (the torn bump was never acknowledged).
    assert MultiJobStore(tmp_path).read_epoch() == 1
    assert MultiJobStore(tmp_path).bump_epoch() == 2
    assert MultiJobStore(tmp_path).read_epoch() == 2


# ----------------------------------------------------------------------
# IntervalSet.subtract (the replay primitive)


def test_subtract_trims_splits_and_removes():
    s = IntervalSet.from_payload([(0, 10), (20, 30), (40, 50)], 0)
    assert s.subtract(Interval(5, 45)) == 20  # (5,10) + (20,30) + (40,45)
    assert s.to_payload() == [(0, 5), (45, 50)]


def test_subtract_split_keeps_both_sides():
    s = IntervalSet.from_payload([(0, 100)], 0)
    removed = s.subtract(Interval(40, 60))
    assert removed == 20
    assert s.to_payload() == [(0, 40), (60, 100)]


def test_subtract_disjoint_is_noop():
    s = IntervalSet.from_payload([(0, 10)], 0)
    assert s.subtract(Interval(10, 20)) == 0
    assert s.to_payload() == [(0, 10)]
