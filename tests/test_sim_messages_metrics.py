"""Unit tests for the simulator's wire sizes and the metrics collector."""

import math

import pytest

from repro.analysis.report import active_list_wire_size, interval_wire_size
from repro.core import Interval
from repro.grid.net.framing import encode_frame
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)
from repro.grid.simulator import (
    GridSimulation,
    SimulationConfig,
    SyntheticWorkload,
    small_platform,
)
from repro.grid.simulator.metrics import MetricsCollector
from repro.grid.simulator.network import frame_sizes


class TestWireSizes:
    ROOT = Interval(0, math.factorial(50))

    def test_interval_wire_size_constant(self):
        # The headline property, on measured frames: two integers,
        # however many leaves (or frontier nodes) lie between them.
        n = self.ROOT.end
        one_leaf = interval_wire_size(Interval(n - 1, n))
        half_the_tree = interval_wire_size(Interval(n // 2, n))
        assert one_leaf == half_the_tree == len(f"{n},{n}")

    def test_all_messages_have_sizes(self):
        # every size the simulator charges is a measured frame: the real
        # message, with root-sized leaf numbers, through the real encoder
        n = self.ROOT.end
        sizes = frame_sizes(self.ROOT, "c0/0007")
        assert sizes == {
            Request: len(encode_frame(Request("c0/0007"))),
            Update: len(encode_frame(Update("c0/0007", (n, n), 0, 0))),
            GrantWork: len(encode_frame(GrantWork((n, n), 0.0))),
            Reconciled: len(encode_frame(Reconciled((n, n), 0.0))),
            Ack: len(encode_frame(Ack(0.0))),
            Terminate: len(encode_frame(Terminate(0.0))),
        }

    def test_simulated_bytes_are_the_frames_sent(self):
        leaves = 10**6
        workload = SyntheticWorkload(
            leaves, seed=1, mean_leaf_rate=leaves / 600.0, segments=16,
            improvement_count=1,
        )
        sim = GridSimulation(SimulationConfig(
            platform=small_platform(workers=1, clusters=1),
            workload=workload, horizon=86400.0, always_on=True,
        ))
        report = sim.run()
        assert report.finished
        worker = sim.workers[0].id
        sizes = frame_sizes(Interval(0, leaves), worker)
        (position, cost), = workload._improvement_points
        push = Push(worker, cost, ("synthetic-solution", position))
        updates = sim.farmer.coordinator.worker_checkpoint_ops
        requests = report.messages - updates - 1
        assert requests == 1 and updates > 1  # the run ends at the emptying Update
        assert report.message_bytes == (
            requests * sizes[Request]
            + updates * sizes[Update]
            + len(encode_frame(push))
        )

    def test_terminate_reply_smaller_than_grant(self):
        sizes = frame_sizes(self.ROOT, "w")
        assert sizes[Terminate] < sizes[GrantWork]

    def test_solution_push_scales_with_solution(self):
        # a Push is not in the table: it is encoded as it comes
        assert Push not in frame_sizes(self.ROOT, "w")
        short = Push("w", 1.0, (1,))
        long = Push("w", 1.0, tuple(range(50)))
        assert len(encode_frame(long)) > len(encode_frame(short))

    def test_active_list_grows_with_cardinality(self):
        assert active_list_wire_size(10, 50) < active_list_wire_size(100, 50)
        assert active_list_wire_size(10, 5) < active_list_wire_size(10, 50)

    def test_interval_beats_active_list_for_real_frontiers(self):
        # a Ta056 frontier has ~P*branching/2 nodes; one node is enough
        assert interval_wire_size(self.ROOT) < active_list_wire_size(1, 50)


class TestMetricsCollector:
    def test_join_leave_series(self):
        m = MetricsCollector(total_leaves=100)
        m.worker_joined(1.0)
        m.worker_joined(2.0)
        m.worker_left(3.0)
        assert m.series == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 1)]

    def test_average_and_peak(self):
        m = MetricsCollector(100)
        m.worker_joined(0.0)   # 1 worker from 0
        m.worker_joined(5.0)   # 2 workers from 5
        avg, peak = m.average_and_peak_workers(horizon=10.0)
        assert avg == pytest.approx(1.5)
        assert peak == 2

    def test_exploitation_ratios(self):
        m = MetricsCollector(100)
        m.add_busy("w0", 97.0)
        m.add_available("w0", 100.0)
        m.add_farmer_busy(1.7)
        t2 = m.table2(wall_clock=100.0, best_cost=3679.0, optimum_proved=True)
        assert t2.worker_exploitation == pytest.approx(0.97)
        assert t2.coordinator_exploitation == pytest.approx(0.017)

    def test_redundancy_from_overlap(self):
        m = MetricsCollector(total_leaves=1000)
        m.add_exploration(nodes=10, consumed=1100)
        t2 = m.table2(10.0, 1.0, True)
        assert t2.redundant_node_rate == pytest.approx(100 / 1100)

    def test_no_redundancy_when_under_covered(self):
        m = MetricsCollector(total_leaves=1000)
        m.add_exploration(nodes=10, consumed=400)
        assert m.table2(10.0, 1.0, False).redundant_node_rate == 0.0

    def test_zero_division_guards(self):
        m = MetricsCollector(10)
        t2 = m.table2(wall_clock=0.0, best_cost=float("inf"), optimum_proved=False)
        assert t2.worker_exploitation == 0.0
        assert t2.coordinator_exploitation == 0.0
        assert t2.redundant_node_rate == 0.0

    def test_availability_series_resampled(self):
        m = MetricsCollector(10)
        m.worker_joined(1.0)
        m.worker_joined(2.0)
        samples = m.availability_series(sample_period=1.0, horizon=3.0)
        assert samples == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 2)]

    def test_message_accounting(self):
        m = MetricsCollector(10)
        m.message_sent(100)
        m.message_sent(50)
        assert m.messages == 2
        assert m.message_bytes == 150

    def test_solution_trajectory(self):
        m = MetricsCollector(10)
        m.solution_improved(1.0, 700.0)
        m.solution_improved(2.0, 650.0)
        assert m.improvements == [(1.0, 700.0), (2.0, 650.0)]
