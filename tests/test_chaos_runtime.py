"""Chaos suite for the real multiprocessing runtime (§4.1 end to end).

Seeded fault schedules — coordinator crash-and-recover, message
drop/duplication/reordering, worker crashes and hangs, and every
combination — run over small flowshop and TSP instances.  Each run
must terminate and return the same proved optimum as the serial
engine: the interval-set invariant (the union of coordinator copies
always covers all unexplored work) makes every fault cost at worst
redundant exploration, never a lost or wrong answer.

Unit-level tests pin the hardening pieces individually: sequence-
number deduplication at the coordinator, lease expiry and carve-path
reclaim, lossy-channel conservation, and the launcher's coordinator
restart counter.
"""

import random
import time

import pytest

from repro.core import Interval, solve
from repro.grid.net.transport import Listener, TransportTimeout
from repro.grid.runtime import (
    ChannelFaults,
    Coordinator,
    CoordinatorCrash,
    FaultPlan,
    RuntimeConfig,
    WorkerHang,
    flowshop_spec,
    solve_parallel,
    tsp_spec,
)
from repro.grid.runtime.faults import FaultStats, FaultyListener
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Update,
)
from repro.problems.flowshop import FlowShopProblem, random_instance
from repro.problems.tsp import TSPProblem, random_tsp
from tests.helpers import exchange, one_job_core

CHAOS_SEEDS = list(range(20))
CHAOS_WORKERS = 3


@pytest.fixture(scope="module")
def fs_instance():
    # The warm start is not optimal here: ~320 nodes and 2 Pushes from
    # its bound.
    return random_instance(7, 4, seed=423)


@pytest.fixture(scope="module")
def fs_expected(fs_instance):
    return solve(FlowShopProblem(fs_instance)).cost


@pytest.fixture(scope="module")
def tsp_instance():
    return random_tsp(7, seed=13)


@pytest.fixture(scope="module")
def tsp_expected(tsp_instance):
    return solve(TSPProblem(tsp_instance)).cost


def chaos_config(plan: FaultPlan) -> RuntimeConfig:
    """Aggressive-but-bounded knobs so injected faults resolve fast.

    The hot-path machinery — pipelined updates, adaptive slicing,
    coordinator notices — is what every run uses, with the adaptive
    range clamped small so tiny instances still produce many slices
    (every fault needs boundaries to fire at).
    """
    return RuntimeConfig(
        workers=CHAOS_WORKERS,
        update_nodes=200,
        update_period=0.05,  # adaptive, but re-targeted every 50 ms
        max_slice_nodes=400,  # keep many boundaries on tiny instances
        checkpoint_period=0.0,  # every pump iteration persists
        deadline=90,
        reply_timeout=0.4,
        max_retries=6,
        lease_seconds=0.6,
        fault_plan=plan,
    )


class TestChaosSchedules:
    """≥20 randomized seeded schedules, flowshop and TSP alternating."""

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_schedule_matches_serial(
        self, seed, fs_instance, fs_expected, tsp_instance, tsp_expected
    ):
        plan = FaultPlan.chaos(seed, workers=CHAOS_WORKERS)
        assert not plan.is_empty()
        if seed % 2 == 0:
            spec, expected = flowshop_spec(fs_instance), fs_expected
        else:
            spec, expected = tsp_spec(tsp_instance), tsp_expected
        result = solve_parallel(spec, chaos_config(plan))
        print(
            f"chaos seed={seed} faults={result.faults_injected} "
            f"restarts={result.coordinator_restarts} "
            f"leases={result.leases_expired} "
            f"dup_ignored={result.duplicates_ignored} "
            f"redundant={result.redundant_rate:.2%}"
        )
        assert result.optimal
        assert result.cost == expected
        assert 0.0 <= result.redundant_rate < 1.0


class TestNoticeFaults:
    """The coordinator's notices are advisory: lose them all, or repeat
    and reorder them all, and the run is the pull-only protocol again —
    same proved optimum, no hang, at worst more redundant work."""

    NOTICE_SEEDS = [0, 1, 2, 3]

    def _run(self, seed, notices):
        plan = FaultPlan(channel=ChannelFaults(notices=notices), seed=seed)
        config = chaos_config(plan)
        config.bound_poll_nodes = 32  # polls inside the ≤ 400-node slices
        # Trees of several slices: the module's 7-job ones fit in the first
        # worker's first slice, and a run with nobody to cut sends no notice.
        spec = [flowshop_spec(random_instance(10, 5, seed=93)), tsp_spec(random_tsp(10, seed=13))]
        result = solve_parallel(spec[seed % 2], config)
        assert result.optimal
        assert result.cost == solve(spec[seed % 2].build()).cost
        return result

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", NOTICE_SEEDS)
    def test_every_notice_dropped_matches_serial(self, seed):
        result = self._run(seed, ChannelFaults(drop=1.0))
        assert result.notices_sent > 0
        assert result.faults_injected["dropped"] == result.notices_sent
        assert sum(s["notices"] for s in result.worker_stats.values()) == 0

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", NOTICE_SEEDS)
    def test_notices_duplicated_and_delayed_match_serial(self, seed):
        result = self._run(seed, ChannelFaults(duplicate=0.5, delay=0.5))
        faults = result.faults_injected
        assert faults["duplicated"] + faults["delayed"] == result.notices_sent > 0
        assert not result.crashed_workers


class TestTargetedFaults:
    """Deterministic schedules that force each recovery path."""

    @pytest.mark.timeout(120)
    def test_coordinator_crash_recovers_midrun(
        self, fs_instance, fs_expected, tmp_path
    ):
        plan = FaultPlan(
            coordinator_crashes=[
                CoordinatorCrash(after_messages=6, downtime=0.3),
                CoordinatorCrash(after_messages=20, downtime=0.2),
            ]
        )
        config = chaos_config(plan)
        config.checkpoint_dir = tmp_path
        result = solve_parallel(flowshop_spec(fs_instance), config)
        assert result.coordinator_restarts >= 1
        assert result.optimal
        assert result.cost == fs_expected

    @pytest.mark.timeout(120)
    def test_coordinator_crash_without_checkpoint_dir(
        self, fs_instance, fs_expected
    ):
        # The launcher provisions a temporary store on its own.
        plan = FaultPlan(
            coordinator_crashes=[CoordinatorCrash(after_messages=4, downtime=0.2)]
        )
        result = solve_parallel(flowshop_spec(fs_instance), chaos_config(plan))
        assert result.coordinator_restarts == 1
        assert result.optimal
        assert result.cost == fs_expected

    @pytest.mark.timeout(120)
    def test_hung_worker_lease_expires_and_run_completes(
        self, fs_instance, fs_expected
    ):
        # A single worker, so nobody can steal the hung interval by
        # splitting first: lease expiry is the only way it gets back
        # to the load balancer, and the late worker must then reclaim
        # its remaining piece through the carve path.
        plan = FaultPlan(
            worker_hangs={0: WorkerHang(after_updates=1, seconds=1.5)}
        )
        config = chaos_config(plan)
        config.workers = 1
        config.update_nodes = 50
        result = solve_parallel(flowshop_spec(fs_instance), config)
        assert result.optimal
        assert result.cost == fs_expected
        # The hang (1.5s) dwarfs the lease (0.6s): the silent worker's
        # interval must have been released to the load balancer.
        assert "worker-0" in result.leases_expired

    @pytest.mark.timeout(120)
    def test_coordinator_crash_with_pipelined_updates_in_flight(
        self, fs_instance, fs_expected
    ):
        # Tiny slices + pipelining mean each worker almost always has
        # an un-reconciled Update in flight; crashing the farmer early
        # (and again mid-run) lands the downtime exactly on those
        # pipelined replies.  The workers' same-seq retries must ride
        # out the downtime and reconcile against the recovered state.
        plan = FaultPlan(
            coordinator_crashes=[
                CoordinatorCrash(after_messages=3, downtime=0.3),
                CoordinatorCrash(after_messages=15, downtime=0.2),
            ],
            channel=ChannelFaults(drop=0.05, duplicate=0.05, delay=0.05),
            seed=31,
        )
        config = chaos_config(plan)
        config.update_nodes = 50
        config.max_slice_nodes = 100
        result = solve_parallel(flowshop_spec(fs_instance), config)
        assert result.coordinator_restarts >= 1
        assert result.optimal
        assert result.cost == fs_expected

    @pytest.mark.timeout(120)
    def test_lossy_channel_only(self, tsp_instance, tsp_expected):
        plan = FaultPlan(
            channel=ChannelFaults(drop=0.12, duplicate=0.12, delay=0.12),
            seed=7,
        )
        result = solve_parallel(tsp_spec(tsp_instance), chaos_config(plan))
        assert result.optimal
        assert result.cost == tsp_expected
        assert sum(result.faults_injected.values()) > 0

    @pytest.mark.timeout(180)
    def test_kitchen_sink(self, fs_instance, fs_expected):
        plan = FaultPlan(
            coordinator_crashes=[CoordinatorCrash(after_messages=10, downtime=0.3)],
            channel=ChannelFaults(drop=0.08, duplicate=0.08, delay=0.08),
            worker_crashes={1: 1},
            worker_hangs={2: WorkerHang(after_updates=1, seconds=1.0)},
            seed=23,
        )
        config = chaos_config(plan)
        config.update_nodes = 50  # many slices: every fault gets to fire
        result = solve_parallel(flowshop_spec(fs_instance), config)
        assert result.optimal
        assert result.cost == fs_expected
        assert result.coordinator_restarts == 1
        assert "worker-1" in result.crashed_workers


class TestSequenceNumbers:
    """Duplicated and reordered messages must be idempotent (unit level).

    The service core is the one layer that answers retries: these drive
    a core holding one job, as every production run and the simulator do.
    """

    def make(self, length=1000, **kw):
        core = one_job_core(length, **kw)
        return core, core.coordinators[""]

    def test_duplicate_update_is_idempotent(self):
        core, coord = self.make()
        exchange(core, Request("w0", seq=1))
        first, _ = exchange(core, Update("w0", (100, 1000), nodes=7, consumed=100, seq=2))
        snapshot = coord.intervals.intervals()
        nodes_before = coord.nodes_explored
        again, _ = exchange(core, Update("w0", (100, 1000), nodes=7, consumed=100, seq=2))
        assert isinstance(first, Reconciled) and isinstance(again, Reconciled)
        assert again.interval == first.interval
        assert coord.intervals.intervals() == snapshot
        assert coord.nodes_explored == nodes_before  # not double-counted
        assert core.duplicates_ignored == 1

    def test_reordered_stale_update_is_dropped(self):
        core, coord = self.make()
        exchange(core, Request("w0", seq=1))
        exchange(core, Update("w0", (200, 1000), nodes=5, consumed=200, seq=3))
        snapshot = coord.intervals.intervals()
        stale, _ = exchange(core, Update("w0", (100, 1000), nodes=5, consumed=100, seq=2))
        assert stale is None  # superseded: no reply, no state change
        assert coord.intervals.intervals() == snapshot
        assert core.duplicates_ignored == 1

    def test_duplicate_request_returns_same_grant(self):
        core, coord = self.make()
        first, _ = exchange(core, Request("w0", seq=1))
        again, _ = exchange(core, Request("w0", seq=1))
        assert isinstance(first, GrantWork)
        assert again.interval == first.interval
        assert coord.work_allocations == 1

    def test_duplicate_push_counts_one_improvement(self):
        core, coord = self.make()
        first, _ = exchange(core, Push("w0", 42.0, (1, 2), seq=1))
        again, _ = exchange(core, Push("w0", 42.0, (1, 2), seq=1))
        assert isinstance(first, Ack) and isinstance(again, Ack)
        assert coord.improvements == 1

    def test_replies_echo_seq(self):
        core, _ = self.make()
        grant, _ = exchange(core, Request("w0", seq=5))
        assert grant.seq == 5
        rec, _ = exchange(core, Update("w0", (10, 1000), nodes=1, consumed=10, seq=6))
        assert rec.seq == 6

    def test_duplicate_storm_keeps_union_invariant(self):
        core, coord = self.make(length=5000, duplication_threshold=50)
        rng = random.Random(3)
        replies = {}
        for seq in range(1, 60):
            worker = f"w{rng.randrange(3)}"
            if rng.random() < 0.4:
                replies[worker], _ = exchange(core, Request(worker, seq=seq))
                continue
            grant = replies.get(worker)
            if not isinstance(grant, (GrantWork, Reconciled)):
                continue
            iv = Interval.from_tuple(grant.interval)
            if iv.is_empty():
                continue
            step = rng.randrange(iv.length + 1)
            msg = Update(
                worker, (iv.begin + step, iv.end), nodes=1, consumed=step, seq=seq
            )
            reply, _ = exchange(core, msg)
            union = coord.intervals.covered_union_length()
            # channel duplicate: answered from the cache, no state change
            assert exchange(core, msg)[0] == reply
            # reordered stale duplicate: dropped outright
            stale = Update(worker, iv.as_tuple(), nodes=1, consumed=0, seq=seq - 1)
            assert exchange(core, stale)[0] is None
            assert coord.intervals.covered_union_length() == union
            if isinstance(reply, Reconciled):
                replies[worker] = reply


class TestLeases:
    def test_lease_expiry_releases_interval(self):
        coord = Coordinator(Interval(0, 1000), lease_seconds=10.0)
        t0 = time.monotonic()
        grant = coord.handle(Request("w0", seq=1), now=t0)
        assert isinstance(grant, GrantWork)  # handle() stamped the lease at t0
        assert coord.check_leases(now=t0) == []  # lease still fresh
        assert coord.check_leases(now=t0 + 11.0) == ["w0"]
        # the orphan is whole again for the next requester
        regrant = coord.handle(Request("w1", seq=1))
        assert regrant.interval == grant.interval

    def test_late_update_after_expiry_reclaims_via_carve(self):
        coord = Coordinator(Interval(0, 1000), lease_seconds=5.0)
        t0 = time.monotonic()
        coord.handle(Request("w0", seq=1), now=t0)
        coord.check_leases(now=t0 + 6.0)
        assert coord.leases_expired == ["w0"]
        late = coord.handle(Update("w0", (300, 1000), nodes=9, consumed=0, seq=2))
        assert isinstance(late, Reconciled)
        assert late.interval == (300, 1000)
        # the explored prefix [0, 300) stays as unowned work: the
        # coordinator cannot prove it was explored, so it keeps it
        # (redundancy, never loss)
        assert coord.intervals.covered_union_length() == 1000

    def test_lease_disabled_by_default(self):
        coord = Coordinator(Interval(0, 1000))
        coord.handle(Request("w0", seq=1))
        assert coord.check_leases(now=1e18) == []


class _ListListener(Listener):
    """Minimal list-backed listener double for channel-fault unit tests."""

    def __init__(self, items=()):
        self.items = list(items)
        self.out = []

    def recv(self, timeout=None):
        if not self.items:
            raise TransportTimeout("empty")
        return self.items.pop(0)

    def send(self, worker, reply):
        self.out.append(reply)

    def connected_workers(self):
        return []

    def close(self):
        pass


def _drain(listener):
    seen = []
    while True:
        try:
            seen.append(listener.recv(timeout=0))
        except TransportTimeout:
            # a drained listener has released its delay buffer too
            return seen


class TestLossyChannel:
    def test_receiver_conserves_undropped_messages(self):
        messages = list(range(200))
        stats = FaultStats()
        listener = FaultyListener(
            _ListListener(messages),
            ChannelFaults(drop=0.1, duplicate=0.1, delay=0.1),
            random.Random(5),
            stats,
        )
        seen = _drain(listener)
        assert stats.dropped > 0 and stats.duplicated > 0 and stats.delayed > 0
        # every message is either counted as dropped or delivered (≥ once)
        assert len(set(seen)) + stats.dropped == len(messages)

    def test_sender_flush_releases_delayed(self):
        inner = _ListListener()
        listener = FaultyListener(
            inner, ChannelFaults(delay=1.0), random.Random(0), FaultStats()
        )
        listener.send("w0", "a")
        assert inner.out == []  # held back
        listener.flush()
        assert inner.out == ["a"]

    def test_same_seed_same_faults(self):
        faults = ChannelFaults(drop=0.2, duplicate=0.2, delay=0.2)
        outcomes = []
        for _ in range(2):
            stats = FaultStats()
            listener = FaultyListener(
                _ListListener(range(100)), faults, random.Random(42), stats
            )
            outcomes.append((_drain(listener), stats.as_dict()))
        assert outcomes[0] == outcomes[1]

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            ChannelFaults(drop=0.6, duplicate=0.6)


class TestChaosPlans:
    def test_chaos_plans_are_reproducible_and_nonempty(self):
        for seed in CHAOS_SEEDS:
            a = FaultPlan.chaos(seed, workers=3)
            b = FaultPlan.chaos(seed, workers=3)
            assert a == b
            assert not a.is_empty()

    def test_chaos_plans_cover_every_fault_kind(self):
        plans = [FaultPlan.chaos(s, workers=3) for s in CHAOS_SEEDS]
        assert any(p.coordinator_crashes for p in plans)
        assert any(p.worker_crashes for p in plans)
        assert any(p.worker_hangs for p in plans)
        assert all(p.channel is not None for p in plans)
