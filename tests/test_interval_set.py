"""Tests for the coordinator's INTERVALS set (paper §4.1–§4.3)."""

import pytest

from repro.core import Interval, IntervalSet
from repro.exceptions import IntervalError


def fresh(length=1000, threshold=0):
    return IntervalSet.initial(Interval(0, length), threshold)


class TestConstruction:
    def test_initial_contains_root_range(self):
        s = fresh(24)
        assert s.cardinality == 1
        assert s.size == 24
        assert s.intervals() == [Interval(0, 24)]

    def test_add_empty_rejected(self):
        with pytest.raises(IntervalError):
            fresh().add(Interval(5, 5))

    def test_negative_threshold_rejected(self):
        with pytest.raises(IntervalError):
            IntervalSet(duplication_threshold=-1)


class TestAssignment:
    def test_first_request_gets_everything(self):
        # Unassigned interval = virtual null-power holder => C == A.
        s = fresh(1000)
        a = s.assign("w1")
        assert a is not None
        assert a.interval == Interval(0, 1000)
        assert not a.duplicated

    def test_second_request_splits_the_holder(self):
        s = fresh(1000)
        s.assign("w1")
        a = s.assign("w2")
        assert a.interval == Interval(500, 1000)  # equal powers => half
        assert s.cardinality == 2
        assert s.size == 1000  # nothing lost

    def test_split_proportional_to_power(self):
        s = fresh(1000)
        s.assign("w1", requester_power=1.0)
        a = s.assign("w2", requester_power=3.0, holder_powers={"w1": 1.0})
        # holder keeps 1/4, requester takes 3/4
        assert a.interval == Interval(250, 1000)

    def test_selection_maximises_requester_share(self):
        # Two intervals: a long one held by a powerful worker and a
        # shorter unassigned one. The unassigned one gives the larger
        # share and must be selected.
        s = IntervalSet()
        s.add(Interval(0, 1000), owners=("strong",))
        s.add(Interval(2000, 2600))
        a = s.assign("w2", requester_power=1.0, holder_powers={"strong": 9.0})
        # splitting the held interval would yield 1000/10 = 100 numbers;
        # taking the orphan yields 600.
        assert a.interval == Interval(2000, 2600)

    def test_empty_set_returns_none(self):
        s = IntervalSet()
        assert s.assign("w1") is None

    def test_requester_never_splits_with_itself(self):
        s = fresh(100)
        s.assign("w1")
        # w1 asks again (it exhausted its work but the copy is stale):
        # its stale ownership must not make it a holder against itself.
        a = s.assign("w1")
        assert a.interval == Interval(0, 100)

    def test_allocation_counter(self):
        s = fresh(1000)
        s.assign("w1")
        s.assign("w2")
        assert s.allocations == 2


class TestDuplication:
    def test_short_interval_duplicated_not_split(self):
        s = IntervalSet.initial(Interval(0, 10), duplication_threshold=50)
        s.assign("w1")
        a = s.assign("w2")
        assert a.duplicated
        assert a.interval == Interval(0, 10)
        # only one coordinator copy survives
        assert s.cardinality == 1
        recs = list(s.records().values())
        assert recs[0].owners == {"w1", "w2"}

    def test_duplication_counter(self):
        s = IntervalSet.initial(Interval(0, 10), duplication_threshold=50)
        s.assign("w1")
        s.assign("w2")
        s.assign("w3")
        assert s.duplications == 2
        assert s.duplicated_length_assigned == 20

    def test_zero_threshold_never_duplicates(self):
        s = fresh(4)
        for w in ("a", "b", "c", "d"):
            s.assign(w)
        assert s.duplications == 0


class TestUpdate:
    def test_update_advances_begin(self):
        s = fresh(1000)
        s.assign("w1")
        merged = s.update("w1", Interval(300, 1000))
        assert merged == Interval(300, 1000)
        assert s.size == 700

    def test_update_applies_eq14_after_split(self):
        # After a split the coordinator copy is [0, C) while the worker
        # still believes [a, B): the reply clips it to [a, C).
        s = fresh(1000)
        s.assign("w1")
        s.assign("w2")  # w1's copy becomes [0, 500)
        merged = s.update("w1", Interval(100, 1000))
        assert merged == Interval(100, 500)

    def test_exhausted_interval_removed(self):
        s = fresh(100)
        s.assign("w1")
        merged = s.update("w1", Interval(100, 100))
        assert merged.is_empty()
        assert s.is_empty()

    def test_update_from_unknown_worker_with_no_match(self):
        s = fresh(100)
        s.assign("w1")
        merged = s.update("ghost", Interval(200, 300))
        assert merged.is_empty()

    def test_update_reclaims_unowned_record_after_recovery(self):
        # Farmer recovery loses ownership; the worker's next update
        # re-attaches it to the overlapping record.
        s = IntervalSet.from_payload([(0, 500), (500, 1000)])
        merged = s.update("w1", Interval(600, 1000))
        assert merged == Interval(600, 1000)
        assert s.record_for_worker("w1") is not None

    def test_recovery_reclaim_carves_not_shrinks(self):
        # After a farmer recovery the snapshot may be one stale record
        # covering several workers' pieces.  A worker's report must
        # claim only its piece; the leftovers stay as unowned work —
        # intersecting the whole record away would LOSE work (the bug
        # class the §4.1 guarantee forbids).
        s = IntervalSet.from_payload([(0, 1000)])
        merged = s.update("w1", Interval(200, 400))
        assert merged == Interval(200, 400)
        assert sorted(iv.as_tuple() for iv in s.intervals()) == [
            (0, 200), (200, 400), (400, 1000),
        ]
        # the other pre-crash worker reclaims its own piece next
        merged2 = s.update("w2", Interval(400, 1000))
        assert merged2 == Interval(400, 1000)
        assert s.covered_union_length() == 1000

    def test_recovery_reclaim_at_record_boundary(self):
        s = IntervalSet.from_payload([(0, 100)])
        merged = s.update("w1", Interval(0, 100))
        assert merged == Interval(0, 100)
        assert s.cardinality == 1  # no empty fragments created

    def test_update_counter(self):
        s = fresh(100)
        s.assign("w1")
        s.update("w1", Interval(10, 100))
        s.update("w1", Interval(20, 100))
        assert s.updates == 2


class TestTermination:
    def test_size_decreases_to_zero(self):
        s = fresh(100)
        s.assign("w1")
        sizes = [s.size]
        for begin in (25, 50, 75, 100):
            s.update("w1", Interval(begin, 100))
            sizes.append(s.size)
        assert sizes == [100, 75, 50, 25, 0]
        assert s.is_empty()

    def test_cardinality_tracks_worker_count(self):
        s = fresh(10**9)
        for w in range(8):
            s.assign(f"w{w}")
        assert s.cardinality == 8


class TestFaultTolerance:
    def test_release_orphans_the_interval(self):
        s = fresh(1000)
        s.assign("w1")
        assert s.release("w1") == 1
        # Interval survives, unowned...
        assert s.cardinality == 1
        # ...and the next requester takes all of it.
        a = s.assign("w2")
        assert a.interval == Interval(0, 1000)

    def test_release_unknown_worker_is_noop(self):
        s = fresh(10)
        assert s.release("nobody") == 0

    def test_no_work_lost_across_failures(self):
        s = fresh(1000)
        s.assign("w1")
        s.update("w1", Interval(100, 1000))
        s.assign("w2")  # splits w1's remainder
        s.release("w1")  # w1 dies
        s.assign("w3")  # w3 picks up the orphan
        # union of all intervals must still cover [100, 1000)
        assert s.covered_union_length() == 900

    def test_payload_roundtrip(self):
        s = fresh(1000)
        s.assign("w1")
        s.update("w1", Interval(250, 1000))
        s.assign("w2")
        restored = IntervalSet.from_payload(s.to_payload())
        assert restored.size == s.size
        assert restored.intervals() == s.intervals()

    def test_payload_skips_empty(self):
        restored = IntervalSet.from_payload([(5, 5), (1, 3)])
        assert restored.cardinality == 1


class TestOwnerIndex:
    """``record_for_worker`` is a dict lookup; it must agree with a scan
    of the ``owners`` sets after any mix of the set's operations."""

    @staticmethod
    def scan(s):
        return {w: rid for rid, rec in s.records().items() for w in rec.owners}

    def test_index_agrees_with_a_scan_under_random_operations(self):
        import random

        rng = random.Random(20)
        for threshold in (0, 64):
            s = fresh(100_000, threshold)
            position = {}
            for step in range(600):
                worker = f"w{rng.randrange(8)}"
                op = rng.random()
                if op < 0.35:
                    a = s.assign(worker, holder_powers={"w0": 0.0})
                    if a is not None:
                        position[worker] = a.interval.begin
                        for holder in a.cut:
                            assert holder != worker
                elif op < 0.8 and s.owned_record(worker) is not None:
                    rec = s.owned_record(worker)
                    position[worker] = min(
                        rec.interval.end + rng.randrange(-50, 20),
                        max(position[worker], rec.interval.begin)
                        + rng.randrange(1, 2000),
                    )
                    s.update(worker, Interval(position[worker], rec.interval.end))
                elif op < 0.9:
                    s.release(worker)
                else:
                    begin = rng.randrange(100_000)
                    s.subtract(Interval(begin, begin + rng.randrange(1, 3000)))
                index = {w: s.record_for_worker(w) for w in s.owners()}
                assert index == self.scan(s)
                assert all(
                    s.owned_record(w) is s.records()[rid] for w, rid in index.items()
                )

    def test_split_reports_the_holders_it_cut(self):
        s = fresh(1000)
        assert s.assign("w1").cut == ()  # unowned: handed over whole
        assert s.assign("w2").cut == ("w1",)  # w1 keeps [0, 500)
        s.release("w2")
        assert s.assign("w3").cut == ()  # w2's orphan, whole

    def test_a_duplicate_cuts_nobody_and_joins_the_copy(self):
        s = fresh(50, threshold=100)
        s.assign("w1")
        twin = s.assign("w2")
        assert twin.duplicated and twin.cut == ()
        assert s.record_for_worker("w1") == s.record_for_worker("w2")
        s.update("w1", Interval(50, 50))  # finished: the copy is gone
        assert s.record_for_worker("w2") is None and s.owners() == set()

    def test_subtract_through_the_middle_leaves_the_right_part_unowned(self):
        s = fresh(1000)
        s.assign("w1")
        s.subtract(Interval(400, 600))
        assert s.record_for_worker("w1") is not None
        assert s.owned_record("w1").interval == Interval(0, 400)
        assert s.owners() == {"w1"}
        assert s.intervals() == [Interval(0, 400), Interval(600, 1000)]
