"""Unit tests of the simulated farmer — the *driver* only.

What a message does to INTERVALS / SOLUTION is the runtime
``Coordinator``'s business and is tested there
(``tests/test_runtime.py::TestCoordinatorUnit``).  Here: the queue, the
virtual clock, the snapshots, the outages and the lease.
"""

import pytest

from repro.grid.runtime.protocol import Push, Reconciled, Request, Update
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.failures import FarmerFailurePlan
from repro.grid.simulator.farmer import FarmerConfig, SimFarmer
from repro.grid.simulator.metrics import MetricsCollector
from repro.grid.simulator.workload import SyntheticWorkload


def make_farmer(length=1000, failure_plan=None, **config_kw):
    clock = SimClock()
    farmer = SimFarmer(
        clock,
        SyntheticWorkload(length, optimum=98.0, initial_gap=2.0),  # starts at 100
        MetricsCollector(length),
        FarmerConfig(**config_kw),
        failure_plan=failure_plan,
    )
    return clock, farmer


def rpc(clock, farmer, message):
    """Deliver a message and drain the service event; return the reply."""
    box = []
    farmer.deliver(message, box.append)
    while clock.step() and not box:
        pass
    return box[0] if box else None


class TestHandlers:
    def test_update_reconciles_and_shares_solution(self):
        # the one end-to-end pass through the driver: the coordinator's
        # replies come back, with the context the sender attached
        clock, farmer = make_farmer()
        rpc(clock, farmer, Request("w0"))
        rpc(clock, farmer, Push("w1", 42.0, (0, 1)))
        box = []
        farmer.deliver(
            Update("w0", (250, 1000), nodes=9, consumed=250),
            lambda reply, tag: box.append((reply, tag)),
            "ctx",
        )
        clock.run(until=1.0)
        (reply, tag), = box
        assert isinstance(reply, Reconciled) and tag == "ctx"
        assert reply.interval == (250, 1000)
        assert reply.best_cost == 42.0
        assert farmer.metrics.improvements == [(pytest.approx(0.002), 42.0)]

    def test_service_time_accumulates_farmer_busy(self):
        clock, farmer = make_farmer(service_time=0.01)
        rpc(clock, farmer, Request("w0"))
        rpc(clock, farmer, Request("w1"))
        assert farmer.metrics.farmer_busy == pytest.approx(0.02)

    def test_queueing_serialises_service(self):
        # Two simultaneous deliveries: replies come at t=s and t=2s.
        clock, farmer = make_farmer(service_time=1.0)
        times = []
        farmer.deliver(Request("a"), lambda r: times.append(clock.now))
        farmer.deliver(Request("b"), lambda r: times.append(clock.now))
        # bounded horizon: the farmer's checkpoint timer reschedules
        # itself forever, so an unbounded run() would never drain
        clock.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_counters_survive_a_recovery(self):
        # the coordinator's counters are folded into the metrics before
        # a recovery replaces it, and once more at the end
        clock, farmer = make_farmer(failure_plan=FarmerFailurePlan([(10.0, 5.0)]))
        rpc(clock, farmer, Request("w0"))
        rpc(clock, farmer, Update("w0", (10, 1000), nodes=1, consumed=10))
        clock.run(until=16.0)
        rpc(clock, farmer, Request("w1"))
        farmer.flush_accounting()
        assert farmer.metrics.work_allocations == 2
        assert farmer.metrics.worker_checkpoint_ops == 1


class TestCheckpointAndFailure:
    def test_periodic_checkpoint_counts(self):
        clock, farmer = make_farmer(checkpoint_period=10.0)
        clock.run(until=35.0)
        assert farmer.checkpoints_taken == 3

    def test_crash_drops_messages(self):
        clock, farmer = make_farmer(
            failure_plan=FarmerFailurePlan([(10.0, 5.0)]), service_time=1.0
        )
        clock.run(until=9.5)
        box = []
        farmer.deliver(Request("w0"), box.append)  # served at 10.5: too late
        clock.run(until=12.0)  # farmer is now down
        farmer.deliver(Request("w1"), box.append)
        clock.run(until=20.0)
        assert box == []
        # one died in the queue with the epoch, one hit a dead farmer
        assert farmer.messages_dropped == 2

    def test_recovery_restores_snapshot(self):
        clock, farmer = make_farmer(
            failure_plan=FarmerFailurePlan([(12.0, 3.0)]), checkpoint_period=5.0
        )
        # worker takes everything and reports progress before the crash
        reply = rpc(clock, farmer, Request("w0"))
        assert reply.interval == (0, 1000)
        rpc(clock, farmer, Update("w0", (400, 1000), nodes=4, consumed=400))
        clock.run(until=11.0)  # checkpoints at 5 and 10 capture [400,1000)
        rpc(clock, farmer, Update("w0", (700, 1000), nodes=3, consumed=300))
        before = farmer.coordinator
        clock.run(until=16.0)  # crash at 12, recovery at 15
        assert farmer.recoveries == 1
        assert farmer.coordinator is not before  # a fresh one: ownership lost
        assert farmer.coordinator.intervals.size == 600
        assert farmer.coordinator.intervals.owners() == set()
        assert farmer.coordinator.solution.cost == 100.0

    def test_termination_checkpointed_eagerly(self):
        # A crash after termination must not resurrect stale work.
        clock, farmer = make_farmer(
            failure_plan=FarmerFailurePlan([(50.0, 10.0)]),
            checkpoint_period=1000.0,  # no periodic rescue
        )
        rpc(clock, farmer, Request("w0"))
        rpc(clock, farmer, Update("w0", (1000, 1000), nodes=1, consumed=1000))
        assert farmer.terminated
        clock.run(until=70.0)  # crash + recovery
        assert farmer.coordinator.intervals.is_empty()

    def test_death_timeout_releases_silent_workers(self):
        # death_timeout is the coordinator's lease, checked at each tick
        clock, farmer = make_farmer(checkpoint_period=10.0, death_timeout=15.0)
        rpc(clock, farmer, Request("w0"))
        clock.run(until=40.0)  # several checkpoint ticks, no contact
        assert farmer.coordinator.leases_expired == ["w0"]
        # the orphaned interval goes entirely to the next requester
        reply = rpc(clock, farmer, Request("w1"))
        assert reply.interval == (0, 1000)
