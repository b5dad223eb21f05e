"""The worker core sans IO — no connection, thread or clock: replies, slice
outcomes and notices in, messages out; the unit is moved by hand."""

import math

from repro.core import Interval
from repro.grid.runtime import flowshop_spec
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Notice,
    Push,
    Reconciled,
    Update,
    spec_to_wire,
)
from repro.grid.runtime.worker import _JOB_CACHE_SIZE, WorkerCore
from repro.grid.simulator import SyntheticWorkload
from repro.problems.flowshop import random_instance

INF = math.inf
SPEC = spec_to_wire(flowshop_spec(random_instance(3, 2, seed=1)))
UNITS = SyntheticWorkload(1000, segments=1)


def take(core, grant):
    """Take ``grant`` on with a fresh unit; the re-inform Push, if any."""
    push = core.grant(grant)
    core.unit = UNITS.create_unit(Interval(*grant.interval), core.start_bound)
    return push


def granted(best=INF):
    core = WorkerCore("w0")
    take(core, GrantWork((0, 100), best))
    return core


def test_stale_best_is_reinformed_on_a_grant_and_on_a_reconciled():
    core = granted()
    core.found(90.0, "s")
    core.slice_done(nodes=5, consumed=0)
    # The coordinator recovered from a checkpoint older than the Push.
    assert core.reconciled(Reconciled((10, 50), 95.0)) == Push("w0", 90.0, "s")
    assert core.unit.remaining_interval() == Interval(10, 50)
    assert core.reconciled(Reconciled((10, 50), 90.0)) is None
    assert take(core, GrantWork((50, 100), 95.0)) == Push("w0", 90.0, "s")
    assert core.start_bound == 90.0  # explored from the local best
    assert take(core, GrantWork((50, 100), 80.0)) is None


def test_one_push_per_slice_of_its_best_then_the_update():
    core = granted()
    core.found(95.0, "a")
    core.found(93.0, "b")
    core.unit.position = 40
    messages, reconcile_now = core.slice_done(nodes=7, consumed=40)
    assert messages == [Push("w0", 93.0, "b"), Update("w0", (40, 100), 7, 40)]
    assert not reconcile_now
    core.acked(Ack(92.0))  # someone else's cost was better still
    assert core.unit.best_cost == 92.0
    # Nothing found; a new coordinator incarnation hears the best again.
    messages, reconcile_now = core.slice_done(nodes=3, consumed=0, resync=True)
    assert messages == [Push("w0", 93.0, "b"), Update("w0", (40, 100), 3, 0)]
    assert reconcile_now
    core.reconciled(Reconciled((100, 100), 92.0))
    assert not core.exploring  # finished: the driver Requests next
    assert core.bye().stats["improvements"] == core.stats["epoch_resyncs"] == 1


def test_a_new_incarnation_hears_of_the_nodes_it_answered_for_only():
    core = granted()
    core.slice_done(nodes=5, consumed=0)
    core.reconciled(Reconciled((0, 100), INF))  # the killed server counted 5
    core.slice_done(nodes=7, consumed=0)  # in flight when it died
    core.new_incarnation()  # the reply comes from its successor
    core.reconciled(Reconciled((0, 100), INF))
    core.slice_done(nodes=3, consumed=0, resync=True)
    core.reconciled(Reconciled((100, 100), INF))
    assert core.bye().stats["nodes"] == 7 + 3
    core.new_incarnation()  # and a third incarnation counts from zero again
    assert core.bye().stats["nodes"] == 0


def test_bound_notice_is_adopted_and_costs_no_update():
    core = granted(best=90.0)
    assert core.hear([Notice(85.0, False), Notice(80.0, False)]) == (80.0, False)
    assert core.hear([]) == (INF, False)
    assert not core.slice_done(nodes=5, consumed=0)[1]
    assert core.stats["notices"] == 2 and core.stats["early_yields"] == 0


def test_notice_for_another_job_is_ignored():
    core = WorkerCore("w0")
    take(core, GrantWork((0, 6), INF, job="job-1", spec=SPEC))
    assert core.hear([Notice(0.0, True, job="other-job"), Notice(0.0, True)]) == (INF, False)
    core.found(9.0, "s")  # nothing has said the job has another holder
    assert core.hear([]) == (INF, False)
    assert core.stats["notices"] == 0


def test_a_cut_notice_yields_and_the_update_is_reconciled_at_once():
    core = granted()
    assert core.hear([Notice(70.0, True)]) == (70.0, True)
    assert core.slice_done(nodes=9, consumed=0) == ([Update("w0", (0, 100), 9, 0)], True)
    assert not core.slice_done(nodes=9, consumed=0)[1]  # heard once


def test_improvements_are_pushed_at_the_next_poll_one_push_per_poll():
    core = granted()
    assert core.hear([Notice(INF, False)]) == (INF, False)  # another holder
    core.found(95.0, "a")
    core.found(93.0, "b")  # the same poll period: one Push
    assert core.hear([]) == (INF, True)
    assert core.slice_done(nodes=4, consumed=0)[0][0] == Push("w0", 93.0, "b")
    assert core.hear([]) == (INF, False)  # nothing left to push


def test_the_only_holder_of_a_job_pushes_at_its_slice_boundaries():
    core = granted()
    core.found(95.0, "a")
    assert core.hear([]) == (INF, False)  # nobody is waiting for its bound
    assert [type(m) for m in core.slice_done(4, 0)[0]] == [Push, Update]


def test_eviction_forgets_a_jobs_best():
    core = WorkerCore("w0")
    for n in range(_JOB_CACHE_SIZE + 1):
        take(core, GrantWork((0, 6), INF, job=f"j{n}", spec=SPEC))
        core.found(9.0, n)
        push, update = core.slice_done(nodes=1, consumed=0)[0]
        assert push == Push("w0", 9.0, n, job=f"j{n}") and update.job == f"j{n}"
    # j1 is still held: its best is re-informed; j0 went when j8 came.
    assert take(core, GrantWork((0, 6), INF, job="j1")) == Push("w0", 9.0, 1, job="j1")
    assert take(core, GrantWork((0, 6), INF, job="j0", spec=SPEC)) is None
    assert core.start_bound == INF
