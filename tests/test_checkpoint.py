"""INTERVALS and SOLUTION (paper §4.1) as snapshot records of one log.

A job's checkpoint is a :class:`~repro.core.checkpoint.LoggedJob`: each
save appends one record holding both INTERVALS and SOLUTION to the
directory's ``service.log``, and a restarted process reads the latest
one back.  These tests pin that round trip, what the log refuses, and
a coordinator recovered over a damaged log.
"""

import json
import math
import zlib

import pytest

from repro.core import Incumbent, Interval, IntervalSet
from repro.core.checkpoint import MultiJobStore
from repro.exceptions import CheckpointError
from repro.grid.runtime import Coordinator
from repro.grid.runtime.protocol import Push, Request, Update

JOB = "job"


@pytest.fixture
def store(tmp_path):
    return MultiJobStore(tmp_path / "ckpt").job_store(JOB)


def reopened(store):
    """The job as a restarted process reads it back."""
    return MultiJobStore(store.log.directory).job_store(JOB)


def load(store, **kwargs):
    state = reopened(store).load_state(**kwargs)
    return state.intervals, state.incumbent


def framed(body):
    """One log line: ``<crc32-hex> <body>\\n``, its CRC valid."""
    return format(zlib.crc32(body), "08x").encode() + b" " + body + b"\n"


def rewrite_line(store, index, line):
    """Replace one line of the log, as damage on disk would."""
    lines = store.log.path.read_bytes().splitlines(keepends=True)
    lines[index] = line
    store.log.close()
    store.log.path.write_bytes(b"".join(lines))


def snapshot_doc(store):
    lines = store.log.path.read_bytes().splitlines()
    return json.loads(lines[-1][9:])


class TestIntervalsFile:
    def test_roundtrip(self, store):
        s = IntervalSet.initial(Interval(0, 1000))
        s.assign("w1")
        s.update("w1", Interval(123, 1000))
        s.assign("w2")
        store.save(s, Incumbent())
        restored, _ = load(store)
        assert restored.intervals() == s.intervals()
        assert restored.size == s.size

    def test_missing_file_returns_none(self, store):
        assert load(store) == (None, None)
        assert not store.log.path.exists()

    def test_bigints_survive_json(self, store):
        big = math.factorial(50)
        store.save(IntervalSet.initial(Interval(big - 7, big)), Incumbent())
        restored, _ = load(store)
        assert restored.intervals() == [Interval(big - 7, big)]
        # Decimal strings, not JSON numbers: no reader rounds them.
        assert snapshot_doc(store)["intervals"] == [[str(big - 7), str(big)]]

    def test_threshold_passed_through(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent())
        restored, _ = load(store, duplication_threshold=42)
        assert restored.duplication_threshold == 42

    def test_corrupt_json_raises(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent())
        store.journal_explored(Interval(0, 5))
        rewrite_line(store, 0, framed(b"{ not json"))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load(store)

    def test_wrong_version_raises(self, tmp_path):
        # A format this release does not read is refused, not restarted.
        (tmp_path / "intervals.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="earlier release"):
            MultiJobStore(tmp_path).job_store(JOB).load_state()

    def test_malformed_payload_raises(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent())
        doc = dict(snapshot_doc(store), intervals=[["x", "y"]])
        rewrite_line(store, 0, framed(json.dumps(doc).encode()))
        with pytest.raises(CheckpointError, match="malformed snapshot of job"):
            load(store)


class TestSolutionFile:
    def test_roundtrip(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent(3679.0, (14, 37, 3)))
        _, restored = load(store)
        assert restored.cost == 3679.0
        assert restored.solution == (14, 37, 3)

    def test_missing_file_returns_none(self, store):
        assert load(store)[1] is None

    def test_no_solution_yet(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent())
        _, restored = load(store)
        assert restored.cost == float("inf")
        assert restored.solution is None

    def test_integer_costs_preserved(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent(3679, (1, 2)))
        _, restored = load(store)
        assert restored.cost == 3679 and isinstance(restored.cost, int)
        store.journal_push(3001, (2, 1))
        _, pushed = load(store)
        assert pushed.cost == 3001 and isinstance(pushed.cost, int)


class TestCombined:
    def test_save_and_load_both(self, store):
        intervals = IntervalSet.initial(Interval(0, 720))
        incumbent = Incumbent(55.0, (2, 0, 1))
        store.save(intervals, incumbent)
        loaded_intervals, loaded_incumbent = load(store)
        assert loaded_intervals.size == 720
        assert loaded_incumbent.cost == 55.0

    def test_clear_removes_files(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent(1.0, (0,)))
        store.log.clear()
        assert load(store) == (None, None)
        assert store.log.path.read_bytes() == b""

    def test_clear_is_idempotent(self, store):
        store.log.clear()
        store.log.clear()
        assert load(store) == (None, None)

    def test_atomic_overwrite(self, store):
        # Saving twice keeps the latest consistent state.
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent())
        store.save(IntervalSet.initial(Interval(5, 10)), Incumbent())
        assert load(store)[0].intervals() == [Interval(5, 10)]


class TestGenerations:
    """One record per save; order in the log decides which is current."""

    def test_pair_saves_share_a_generation(self, store):
        # INTERVALS and SOLUTION land in one record: no save can leave
        # one of them a snapshot behind the other.
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent(1.0, (0,)))
        store.save(IntervalSet.initial(Interval(2, 10)), Incumbent(0.5, (1,)))
        assert len(store.log.path.read_bytes().splitlines()) == 2
        doc = snapshot_doc(store)
        assert (doc["intervals"], doc["cost"]) == ([["2", "10"]], 0.5)

    def test_generation_resumes_past_on_disk_state(self, store):
        store.save(IntervalSet.initial(Interval(0, 10)), Incumbent(1.0, (0,)))
        # A fresh store over the same directory (a recovered farmer)
        # appends after what is on disk, so its snapshot is the latest.
        reopened(store).save(IntervalSet.initial(Interval(3, 10)), Incumbent(1.0, (0,)))
        assert load(store)[0].intervals() == [Interval(3, 10)]

    def test_partial_pair_refused_intervals_only(self, tmp_path):
        (tmp_path / "intervals.json").write_text("{}")
        with pytest.raises(CheckpointError, match=r"layout \(intervals.json\)"):
            MultiJobStore(tmp_path).job_store(JOB).load_state()

    def test_partial_pair_refused_solution_only(self, tmp_path):
        (tmp_path / "solution.json").write_text("{}")
        with pytest.raises(CheckpointError, match=r"layout \(solution.json\)"):
            MultiJobStore(tmp_path).job_store(JOB).load_state()


class TestCoordinatorRecover:
    """Recovery against damaged checkpoints, not just the happy path."""

    def _checkpointed(self, store):
        """A snapshot (line 3 of the log) with a reconciliation after it."""
        coord = Coordinator(Interval(0, 720), store=store, checkpoint_period=0.0)
        coord.handle(Request("w0"))
        coord.handle(Update("w0", (100, 720), nodes=5, consumed=100))
        coord.handle(Push("w0", 99.0, (0, 1)))
        assert coord.maybe_checkpoint(force=True)
        coord.handle(Update("w0", (200, 720), nodes=5, consumed=100))
        return coord

    def _damage_snapshot(self, store, damage):
        lines = store.log.path.read_bytes().splitlines(keepends=True)
        assert json.loads(lines[2][9:])["kind"] == "snapshot"
        rewrite_line(store, 2, damage(lines[2]))

    def test_happy_path_still_works(self, store):
        self._checkpointed(store)
        recovered = Coordinator.recover(reopened(store), Interval(0, 720))
        assert recovered.intervals.size == 520
        assert recovered.solution.cost == 99.0

    def test_truncated_intervals_file_raises(self, store):
        self._checkpointed(store)
        self._damage_snapshot(store, lambda line: line[: len(line) // 2] + b"\n")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            Coordinator.recover(reopened(store), Interval(0, 720))

    def test_truncated_solution_file_raises(self, store):
        self._checkpointed(store)
        self._damage_snapshot(store, lambda line: line.replace(b"[0,1]", b"[0", 1))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            Coordinator.recover(reopened(store), Interval(0, 720))

    def test_corrupt_json_raises(self, store):
        self._checkpointed(store)
        self._damage_snapshot(store, lambda line: b"{ not json at all\n")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            Coordinator.recover(reopened(store), Interval(0, 720))

    def _without(self, key):
        def damage(line):
            doc = json.loads(line[9:])
            del doc[key]
            return framed(json.dumps(doc).encode())
        return damage

    def test_missing_intervals_file_raises(self, store):
        self._checkpointed(store)
        self._damage_snapshot(store, self._without("intervals"))
        with pytest.raises(CheckpointError, match="malformed snapshot"):
            Coordinator.recover(reopened(store), Interval(0, 720))

    def test_missing_solution_file_raises(self, store):
        self._checkpointed(store)
        self._damage_snapshot(store, self._without("solution"))
        with pytest.raises(CheckpointError, match="malformed snapshot"):
            Coordinator.recover(reopened(store), Interval(0, 720))

    def test_both_missing_starts_fresh(self, store):
        recovered = Coordinator.recover(store, Interval(0, 720))
        assert recovered.intervals.size == 720
        assert recovered.solution.cost == float("inf")
        assert not store.log.directory.exists()  # recovery writes nothing
