"""Tests of the real multiprocessing runtime.

These spawn actual OS processes, so instances are tiny and every run
has a hard deadline.
"""

import itertools

import pytest

from repro.core import Incumbent, Interval, solve
from repro.core.checkpoint import CheckpointStore
from repro.exceptions import RuntimeProtocolError
from repro.grid.runtime import (
    Coordinator,
    RuntimeConfig,
    flowshop_spec,
    solve_parallel,
    tsp_spec,
)
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)
from repro.grid.service.store import DONE, JobStore
from repro.problems.flowshop import FlowShopProblem, random_instance
from repro.problems.tsp import TSPProblem, random_tsp


class TestCoordinatorUnit:
    """Message-level tests: no processes involved."""

    def make(self, length=1000, **kw):
        return Coordinator(Interval(0, length), **kw)

    def test_first_request_grants_everything(self):
        coord = self.make()
        reply = coord.handle(Request("w0"))
        assert isinstance(reply, GrantWork)
        assert reply.interval == (0, 1000)

    def test_second_request_splits(self):
        coord = self.make()
        coord.handle(Request("w0"))
        reply = coord.handle(Request("w1"))
        assert isinstance(reply, GrantWork)
        assert reply.interval == (500, 1000)

    def test_update_then_empty_terminates(self):
        coord = self.make()
        coord.handle(Request("w0"))
        reply = coord.handle(Update("w0", (1000, 1000), nodes=10, consumed=1000))
        assert isinstance(reply, Reconciled)
        assert coord.terminated
        assert isinstance(coord.handle(Request("w1")), Terminate)

    def test_push_improves_solution(self):
        coord = self.make()
        ack = coord.handle(Push("w0", 42.0, (1, 2, 3)))
        assert isinstance(ack, Ack)
        assert ack.best_cost == 42.0
        worse = coord.handle(Push("w1", 50.0, (3, 2, 1)))
        assert worse.best_cost == 42.0
        assert coord.improvements == 1

    def test_release_worker_orphans_interval(self):
        coord = self.make()
        coord.handle(Request("w0"))
        coord.release_worker("w0")
        reply = coord.handle(Request("w1"))
        assert reply.interval == (0, 1000)

    def test_update_past_the_granted_end_erases_nothing(self):
        # The past-the-cut subtraction takes a worker's word only as far
        # as the end of its last grant: a begin beyond it (stray retry,
        # worker bug, corrupt frame) must not erase unexplored leaves.
        coord = self.make()
        coord.handle(Request("w0"))  # [0, 1000)
        coord.handle(Request("w1"))  # [500, 1000); w0 keeps [0, 500)
        assert coord.handle(Request("w2")).interval == (250, 500)
        reply = coord.handle(Update("w2", (900, 1000), nodes=1, consumed=650))
        assert reply.interval[0] >= reply.interval[1]  # its own copy is gone
        assert coord.intervals.to_payload() == [(0, 250), (500, 1000)]

    def test_overrun_inside_the_grant_is_subtracted(self):
        coord = self.make()
        coord.handle(Request("w0"))  # granted [0, 1000), then cut at 500
        coord.handle(Request("w1"))
        coord.handle(Update("w0", (600, 1000), nodes=1, consumed=600))
        assert coord.intervals.to_payload() == [(600, 1000)]
        # ...but not once the grant is forgotten (released, then reclaimed)
        coord = self.make()
        coord.handle(Request("w0"))
        coord.release_worker("w0")
        coord.handle(Update("w0", (0, 1000), nodes=0, consumed=0))  # reclaim
        coord.handle(Request("w1"))
        coord.handle(Update("w0", (600, 1000), nodes=1, consumed=600))
        assert coord.intervals.to_payload() == [(500, 1000)]

    def test_unknown_message_rejected(self):
        with pytest.raises(RuntimeProtocolError):
            self.make().handle("banana")

    def test_checkpoint_and_recover(self, tmp_path):
        store = CheckpointStore(tmp_path)
        coord = Coordinator(Interval(0, 720), store=store, checkpoint_period=0.0)
        coord.handle(Request("w0"))
        coord.handle(Update("w0", (100, 720), nodes=5, consumed=100))
        coord.handle(Push("w0", 99.0, (0, 1)))
        assert coord.maybe_checkpoint(force=True)
        recovered = Coordinator.recover(store, Interval(0, 720))
        assert recovered.intervals.size == 620
        assert recovered.solution.cost == 99.0

    def test_recover_without_checkpoint_starts_fresh(self, tmp_path):
        store = CheckpointStore(tmp_path)
        coord = Coordinator.recover(store, Interval(0, 720))
        assert coord.intervals.size == 720

    def test_redundant_rate(self):
        coord = self.make(length=100)
        coord.handle(Request("w0"))
        coord.handle(Update("w0", (100, 100), nodes=1, consumed=130))
        assert coord.redundant_rate(100) == pytest.approx(30 / 130)


@pytest.fixture(scope="module")
def fs_instance():
    return random_instance(8, 4, seed=51)


@pytest.fixture(scope="module")
def fs_expected(fs_instance):
    return solve(FlowShopProblem(fs_instance)).cost


class TestParallelSolve:
    def test_matches_sequential(self, fs_instance, fs_expected):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(workers=3, update_nodes=500, deadline=120),
        )
        assert result.optimal
        assert result.cost == fs_expected
        assert sorted(result.solution) == list(range(8))

    def test_single_worker(self, fs_instance, fs_expected):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(workers=1, update_nodes=1000, deadline=120),
        )
        assert result.optimal
        assert result.cost == fs_expected

    def test_crash_recovery(self, fs_instance, fs_expected):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(
                workers=3,
                update_nodes=200,
                deadline=120,
                crash_workers={0: 2},  # worker 0 dies after 2 updates
            ),
        )
        assert result.optimal
        assert result.cost == fs_expected
        assert "worker-0" in result.crashed_workers

    def test_initial_upper_bound_respected(self, fs_instance, fs_expected):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(
                workers=2,
                update_nodes=500,
                deadline=120,
                initial_upper_bound=fs_expected,
                initial_solution=None,
            ),
        )
        assert result.optimal
        assert result.cost == fs_expected

    def test_checkpoints_written(self, fs_instance, tmp_path):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(
                workers=2,
                update_nodes=500,
                deadline=120,
                checkpoint_dir=tmp_path,
                checkpoint_period=0.0,
            ),
        )
        assert result.optimal
        # The service's layout: the run's job settled, and its meta.json
        # (all a settled job keeps) holds the proved result.
        (record,) = JobStore(tmp_path).recover()
        assert record.status == DONE and record.cost == result.cost

    def test_tsp_spec_roundtrip(self):
        inst = random_tsp(7, seed=5)
        expected = solve(TSPProblem(inst)).cost
        result = solve_parallel(
            tsp_spec(inst), RuntimeConfig(workers=2, update_nodes=500, deadline=120)
        )
        assert result.optimal
        assert result.cost == expected

    def test_worker_stats_collected(self, fs_instance):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(workers=2, update_nodes=500, deadline=120),
        )
        assert set(result.worker_stats) == {"worker-0", "worker-1"}
        assert result.nodes_explored > 0
        assert result.checkpoint_operations > 0

    def test_explore_vs_rpc_wait_breakdown_surfaced(self, fs_instance):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(workers=2, update_nodes=500, deadline=120),
        )
        for stats in result.worker_stats.values():
            assert stats["explore_seconds"] > 0.0
            assert stats["rpc_wait_seconds"] >= 0.0
        assert result.explore_seconds == pytest.approx(
            sum(s["explore_seconds"] for s in result.worker_stats.values())
        )
        assert result.rpc_wait_seconds == pytest.approx(
            sum(s["rpc_wait_seconds"] for s in result.worker_stats.values())
        )

    def test_legacy_coordination_mode_matches_sequential(
        self, fs_instance, fs_expected
    ):
        # Fixed slices — the pre-PR 3 slicing must stay available and
        # correct (synchronous collection now happens exactly when a
        # cut notice or an epoch change asks for it: test_notices.py).
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(
                workers=2,
                update_nodes=500,
                update_period=None,
                deadline=120,
            ),
        )
        assert result.optimal
        assert result.cost == fs_expected

    def test_pipelined_adaptive_shared_matches_sequential(
        self, fs_instance, fs_expected
    ):
        result = solve_parallel(
            flowshop_spec(fs_instance),
            RuntimeConfig(
                workers=3,
                update_nodes=100,
                update_period=0.05,
                bound_poll_nodes=32,
                deadline=120,
            ),
        )
        assert result.optimal
        assert result.cost == fs_expected

    def test_zero_workers_rejected(self, fs_instance):
        with pytest.raises(RuntimeProtocolError):
            solve_parallel(flowshop_spec(fs_instance), RuntimeConfig(workers=0))

    def test_a_root_interval_off_the_tree_is_refused(self, fs_instance):
        # The service refuses the job at admission; the forked workers go.
        off = (10**9, 10**9 + 5)  # 8! leaves: far past the last one
        with pytest.raises(RuntimeProtocolError, match="does not overlap"):
            solve_parallel(
                flowshop_spec(fs_instance),
                RuntimeConfig(workers=1, root_interval=off, deadline=30),
            )
