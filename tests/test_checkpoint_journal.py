"""The PR 6 recovery layer: journal, CRC snapshots, epoch counter.

The append-only journal shrinks the recovery window from one full
``checkpoint_period`` to the last reconciled update; these tests pin
its durability contract — CRC-framed records, torn-tail truncation,
generation filtering — plus the snapshot checksum and the server epoch
counter the Welcome handshake carries, and the claim behind it all: a
crashed run recovered with the journal re-explores strictly fewer
nodes than one recovered from its last snapshot alone.
"""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Incumbent, Interval, IntervalSet, solve
from repro.core.checkpoint import (
    CheckpointJournal,
    CheckpointStore,
    JournalRecord,
    MultiJobStore,
)
from repro.core.engine import IntervalExplorer
from repro.exceptions import CheckpointError
from repro.grid.runtime.coordinator import Coordinator
from repro.grid.runtime.protocol import Push, Request, Update
from repro.problems.flowshop import FlowShopProblem, random_instance


def make_store(tmp_path):
    return CheckpointStore(tmp_path / "ckpt")


def snapshot(store, pairs, cost=None, solution=None):
    intervals = IntervalSet.from_payload(pairs, 0)
    incumbent = Incumbent()
    if cost is not None:
        incumbent.update(cost, solution)
    store.save(intervals, incumbent)
    return intervals


# ----------------------------------------------------------------------
# JournalRecord round-trip


def test_record_roundtrip_explored():
    rec = JournalRecord(3, "explored", (10, 25))
    back = JournalRecord.from_json(rec.to_json())
    assert back == rec


def test_record_roundtrip_push():
    rec = JournalRecord(1, "push", cost=1278.0, solution=(2, 0, 1))
    back = JournalRecord.from_json(rec.to_json())
    assert back == rec


def test_record_endpoints_survive_beyond_double_precision():
    begin = 2**77 + 1
    end = begin + 2**60 + 3
    rec = JournalRecord(0, "explored", (begin, end))
    back = JournalRecord.from_json(rec.to_json())
    assert back.interval == (begin, end)
    # Serialised as decimal strings, not JSON numbers: a reader that
    # round-trips numbers through doubles cannot corrupt them.
    assert f'"{begin}"' in rec.to_json()


@settings(max_examples=50, deadline=None)
@given(
    gen=st.integers(min_value=0, max_value=100),
    begin=st.integers(min_value=0, max_value=2**80),
    span=st.integers(min_value=0, max_value=2**80),
)
def test_record_roundtrip_hypothesis(gen, begin, span):
    rec = JournalRecord(gen, "explored", (begin, begin + span))
    assert JournalRecord.from_json(rec.to_json()) == rec


def test_malformed_record_raises():
    with pytest.raises(ValueError):
        JournalRecord.from_json('{"gen":1,"kind":"frobnicate"}')
    with pytest.raises(ValueError):
        JournalRecord.from_json('[1,2]')


# ----------------------------------------------------------------------
# CheckpointJournal: append / replay / torn tails


def test_append_replay_roundtrip(tmp_path):
    journal = CheckpointJournal(tmp_path / "journal.log")
    records = [
        JournalRecord(0, "explored", (0, 10)),
        JournalRecord(0, "push", cost=54.0, solution=(1, 0)),
        JournalRecord(0, "explored", (10, 20)),
    ]
    for rec in records:
        journal.append(rec)
    journal.close()
    assert journal.replay(0) == records


def test_replay_filters_other_generations(tmp_path):
    journal = CheckpointJournal(tmp_path / "journal.log")
    journal.append(JournalRecord(1, "explored", (0, 5)))
    journal.append(JournalRecord(2, "explored", (5, 9)))
    journal.append(JournalRecord(1, "explored", (9, 12)))
    journal.close()
    replayed = journal.replay(2)
    assert [r.interval for r in replayed] == [(5, 9)]


def test_replay_truncates_torn_tail(tmp_path):
    path = tmp_path / "journal.log"
    journal = CheckpointJournal(path)
    journal.append(JournalRecord(0, "explored", (0, 5)))
    journal.append(JournalRecord(0, "explored", (5, 8)))
    journal.close()
    intact = path.read_bytes()
    # A SIGKILL mid-append leaves a partial line with no newline.
    path.write_bytes(intact + b'aaaaaaaa {"gen":0,"kind":"exp')
    assert len(journal.replay(0)) == 2
    # The torn tail was excised so later appends cannot interleave.
    assert path.read_bytes() == intact


def test_replay_truncates_at_crc_mismatch(tmp_path):
    path = tmp_path / "journal.log"
    journal = CheckpointJournal(path)
    journal.append(JournalRecord(0, "explored", (0, 5)))
    journal.close()
    good = path.read_bytes()
    body = JournalRecord(0, "explored", (5, 9)).to_json().encode()
    bad_crc = format(zlib.crc32(body) ^ 1, "08x").encode()
    path.write_bytes(good + bad_crc + b" " + body + b"\n")
    assert [r.interval for r in journal.replay(0)] == [(0, 5)]
    assert path.read_bytes() == good


def test_replay_missing_file_is_empty(tmp_path):
    assert CheckpointJournal(tmp_path / "nope.log").replay(0) == []


def test_append_after_torn_replay_stays_parseable(tmp_path):
    path = tmp_path / "journal.log"
    journal = CheckpointJournal(path)
    journal.append(JournalRecord(0, "explored", (0, 5)))
    journal.close()
    path.write_bytes(path.read_bytes() + b"garbage")
    journal.replay(0)
    journal.append(JournalRecord(0, "explored", (5, 9)))
    journal.close()
    assert [r.interval for r in journal.replay(0)] == [(0, 5), (5, 9)]


def test_rotate_empties_the_journal(tmp_path):
    journal = CheckpointJournal(tmp_path / "journal.log")
    journal.append(JournalRecord(0, "explored", (0, 5)))
    journal.rotate()
    assert journal.replay(0) == []
    assert (tmp_path / "journal.log").read_bytes() == b""


# ----------------------------------------------------------------------
# Store integration: journaling + load_state


def test_load_state_replays_explored_and_push(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 100)], cost=90.0, solution=(0, 1))
    store.journal_explored(Interval(0, 30))
    store.journal_push(75.0, (1, 0))
    store.journal_explored(Interval(60, 80))

    fresh = make_store(tmp_path)
    state = fresh.load_state()
    assert state.replayed_records == 3
    assert state.replayed_leaves == 50
    assert state.intervals.to_payload() == [(30, 60), (80, 100)]
    assert state.incumbent.cost == 75.0
    assert state.incumbent.solution == (1, 0)
    assert state.generation == 1


def test_load_state_without_journal_replay(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 100)])
    store.journal_explored(Interval(0, 40))
    state = make_store(tmp_path).load_state(replay_journal=False)
    assert state.replayed_records == 0
    assert state.intervals.to_payload() == [(0, 100)]


def test_save_rotates_journal(tmp_path):
    store = make_store(tmp_path)
    intervals = snapshot(store, [(0, 100)])
    store.journal_explored(Interval(0, 99))
    store.save(intervals, Incumbent())  # new snapshot subsumes the journal
    state = make_store(tmp_path).load_state()
    assert state.replayed_records == 0
    assert state.intervals.to_payload() == [(0, 100)]


def test_load_state_ignores_stale_generation_records(tmp_path):
    store = make_store(tmp_path)
    intervals = snapshot(store, [(0, 100)])  # generation 1
    store.journal_explored(Interval(0, 10))  # stamped gen 1
    store.save(intervals, Incumbent())  # generation 2, rotates
    # Simulate a crash landing *between* the pair write and the
    # rotation: hand-append a record stamped for the old generation.
    store.journal.append(JournalRecord(1, "explored", (0, 50)))
    store.journal.close()
    state = make_store(tmp_path).load_state()
    assert state.replayed_records == 0
    assert state.intervals.to_payload() == [(0, 100)]


def test_load_state_replays_over_fresh_root_before_first_snapshot(tmp_path):
    store = make_store(tmp_path)
    store.journal_explored(Interval(0, 7))  # no snapshot yet: gen 0
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
    """A real explorer reports to a real coordinator over a real store,
    snapshotting every 3 slices, and crashes after 10 (one past the last
    snapshot).  Both recoveries prove the serial optimum; the one that
    replays the journal re-explores strictly fewer nodes."""
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
    lossless, _ = _finish(
        problem, [explorer.remaining_interval().as_tuple()], explorer.incumbent
    )
    re_explored = {}
    for replay in (True, False):
        state = make_store(tmp_path).load_state(root, replay_journal=replay)
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
    for path in (store.intervals_path, store.solution_path):
        payload = json.loads(path.read_text())
        assert "crc" in payload


def test_corrupted_snapshot_is_rejected(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 10)])
    payload = json.loads(store.intervals_path.read_text())
    payload["intervals"] = [["0", "5"]]  # tampered, crc now stale
    store.intervals_path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        make_store(tmp_path).load(0)


def test_legacy_snapshot_without_crc_still_loads(tmp_path):
    store = make_store(tmp_path)
    snapshot(store, [(0, 10)])
    for path in (store.intervals_path, store.solution_path):
        payload = json.loads(path.read_text())
        del payload["crc"]
        path.write_text(json.dumps(payload))
    intervals, _ = make_store(tmp_path).load(0)
    assert intervals.to_payload() == [(0, 10)]


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
