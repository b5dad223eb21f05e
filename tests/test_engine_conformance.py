"""Conformance table: every engine configuration against the scalar oracle.

The contract is stated once, in the :class:`IntervalExplorer` docstring:
for every ``pool_size`` the optimum, the solution, the improvement
sequence and the proof of the pooled engine equal those of the
per-node path (``batched_bounds=False``) and the ledger reconciles; at
``pool_size=1`` the node counters are byte-identical to it as well.
Each row of the table checks that on a full tree and on a leaf-number
slice, run straight through and paused with ``step(k)``, folded and
resumed.

The second half pins what the engine hands the bound kernels — the
``Problem.prune_at`` hint, which may change no count, and families with
no survivor, which are never branched — and the third how it sizes its
waves: from how long ago the incumbent last moved, within the node
budget, within a bounded stack.
"""

import contextlib
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Incumbent,
    Interval,
    IntervalExplorer,
    ResumableSolver,
    seed_incumbent,
    solve,
)
from repro.core import engine
from repro.core.kernels import register_pool_factory
from repro.exceptions import EngineError, ProblemError
from repro.problems.flowshop import FlowShopProblem, random_instance
from repro.problems.flowshop.pool import FlowShopNumpyPool
from repro.problems.tsp import TSPProblem, random_tsp

PAIR_STRATEGIES = ("adjacent", "adjacent+ends", "all")


def _flowshop(bound):
    return lambda size, machines, seed, strategy: FlowShopProblem(
        random_instance(size, machines, seed=seed),
        bound=bound,
        pair_strategy=strategy,
    )


# kind -> problem from a hypothesis-drawn (size, machines, seed, strategy)
PROBLEMS = {
    "flowshop-lb1": _flowshop("lb1"),
    "flowshop-lb2": _flowshop("lb2"),
    "flowshop-combined": _flowshop("combined"),
    "tsp": lambda size, _machines, seed, _strategy: TSPProblem(
        random_tsp(size, seed=seed)
    ),
}
CASES = st.tuples(
    st.integers(5, 7),
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.sampled_from(PAIR_STRATEGIES),
)
POOL_SIZES = (1, 3, 64)
PAUSES = (1, 17, 80)


def _ledger_reconciles(stats):
    return stats.nodes_explored == (
        stats.nodes_pruned + stats.nodes_decomposed + stats.leaves_evaluated
    )


def _extents(problem):
    total = problem.total_leaves()
    return (None, Interval(total // 5, total - total // 7))


def _straight(make, interval, **options):
    improvements = []
    result = solve(
        make(),
        interval=interval,
        on_improvement=lambda cost, sol: improvements.append((cost, sol)),
        **options,
    )
    assert result.optimal and _ledger_reconciles(result.stats)
    return result, improvements


def _paused(make, interval, pause, **options):
    """``step(pause)`` three times, fold, resume the fold in a fresh
    explorer — the path a checkpoint restart or a reassigned work unit
    takes.  The resume re-decomposes a few internal nodes above the
    fold (redundant, never lost), so only the resolution is returned.
    """
    improvements = []

    def record(cost, sol):
        improvements.append((cost, sol))

    # Seeded as solve() seeds the oracle: the warm start inside the slice.
    problem = make()
    explorer = IntervalExplorer(
        problem,
        interval,
        incumbent=seed_incumbent(problem, Incumbent(), interval),
        on_improvement=record,
        **options,
    )
    for _ in range(3):
        explorer.step(pause)
        fold = explorer.remaining_interval()
        assert all(
            fold.begin <= entry.number < fold.end for entry in explorer._stack
        )
        covering = [node.number for node in explorer.active_list()]
        assert covering == sorted(covering)
        assert not covering or covering[0] == fold.begin
    resumed = IntervalExplorer(
        make(),
        explorer.remaining_interval(),
        incumbent=explorer.incumbent,
        on_improvement=record,
        **options,
    )
    resumed.run()
    assert _ledger_reconciles(explorer.stats)
    assert _ledger_reconciles(resumed.stats)
    return resumed.incumbent, improvements


@pytest.mark.parametrize("pool_size", POOL_SIZES)
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
@given(case=CASES)
@settings(max_examples=4, deadline=None)
def test_configuration_matches_scalar_oracle(kind, pool_size, case):
    def make():
        # Fresh problem per solve: the handoff caches must never be
        # the thing making two runs agree.
        return PROBLEMS[kind](*case)

    options = {"pool_size": pool_size}
    for interval in _extents(make()):
        oracle, improved = _straight(make, interval, batched_bounds=False)
        result, sequence = _straight(make, interval, **options)
        assert (result.cost, result.solution) == (
            oracle.cost,
            oracle.solution,
        )
        assert sequence == improved
        if pool_size == 1:
            assert vars(result.stats) == vars(oracle.stats)
        for pause in PAUSES:
            final, sequence = _paused(make, interval, pause, **options)
            assert (final.cost, final.solution) == (
                oracle.cost,
                oracle.solution,
            )
            assert sequence == improved


def test_resumable_solver_round_trip(tmp_path):
    instance = random_instance(7, 3, seed=34)  # 271 nodes from its warm start's bound
    oracle = solve(FlowShopProblem(instance), batched_bounds=False)
    solver = ResumableSolver(
        FlowShopProblem(instance), tmp_path, checkpoint_nodes=50
    )
    result = solver.run()
    assert solver.progress.checkpoints_written > 2
    assert (result.cost, result.optimal) == (oracle.cost, True)
    # A second solver over the same directory resumes-and-agrees.
    assert ResumableSolver(FlowShopProblem(instance), tmp_path).run().cost == (
        oracle.cost
    )


def test_bad_pool_size_rejected():
    problem = FlowShopProblem(random_instance(4, 2, seed=0))
    with pytest.raises(EngineError, match="pool_size"):
        IntervalExplorer(problem, pool_size=0)


# ----------------------------------------------------------------------
# The prune hint and dead families: cheaper, never different.
# ----------------------------------------------------------------------


class _Unhinted(FlowShopProblem):
    """A flow shop deaf to the engine's hint: ``prune_at`` pinned at
    ``inf``, so every bound it reports is the exact one."""

    prune_at = property(lambda self: math.inf, lambda self, value: None)


@pytest.mark.parametrize("pool_size", (1, 64))
@pytest.mark.parametrize("bound", ("lb1", "lb2", "combined"))
@given(case=CASES)
@settings(max_examples=5, deadline=None)
def test_prune_hint_changes_no_count(bound, pool_size, case):
    size, machines, seed, strategy = case
    instance = random_instance(size, machines, seed=seed)
    for interval in _extents(FlowShopProblem(instance)):
        hinted, pinned = (
            _straight(
                lambda: cls(instance, bound=bound, pair_strategy=strategy),
                interval,
                pool_size=pool_size,
            )
            for cls in (FlowShopProblem, _Unhinted)
        )
        assert vars(hinted[0].stats) == vars(pinned[0].stats)
        assert hinted[0].solution == pinned[0].solution
        assert hinted[1] == pinned[1]  # improvement sequences


class _CountingBranches(FlowShopProblem):
    """Counts ``branch`` calls and what the front handoff carries over."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.branched = 0
        self.leftovers = 0  # most rows parked beyond the wave just stored

    def branch(self, state, depth):
        self.branched += 1
        return super().branch(state, depth)

    def store_child_fronts(self, states, fronts):
        super().store_child_fronts(states, fronts)
        self.leftovers = max(
            self.leftovers, len(self._pool_fronts) - len(states)
        )


def test_families_with_no_survivor_are_counted_but_never_branched():
    # A `costly`-style work unit: a leaf-number slice of a 20x20 shop.
    instance = random_instance(20, 20, seed=4)
    begin = math.factorial(20) // 3
    interval = Interval(begin, begin + 10**8)
    oracle = solve(FlowShopProblem(instance), interval=interval, batched_bounds=False)
    for pool_size in (1, 64):
        problem = _CountingBranches(instance)
        explorer = IntervalExplorer(
            problem,
            interval,
            incumbent=seed_incumbent(problem, Incumbent(), interval),
            pool_size=pool_size,
        )
        unfolded = problem.branched
        result = explorer.run()
        assert _ledger_reconciles(result)
        assert explorer.incumbent.cost == oracle.cost
        # Some decomposed parents had every child pruned from the bound
        # row alone; none of those cost a branch() call.
        assert 0 < problem.branched - unfolded < result.nodes_decomposed
        if pool_size == 1:
            assert vars(result) == vars(oracle.stats)
        # Dead parents leave their rows unconsumed, yet the handoff
        # cache never holds more than the one wave just stored.
        assert problem.leftovers == 0


def test_wrong_sized_branch_still_raises_on_a_family_with_a_survivor():
    class Short(FlowShopProblem):
        def branch(self, state, depth):
            return super().branch(state, depth)[:-1]

    with pytest.raises(ProblemError, match="shape expects"):
        solve(Short(random_instance(6, 3, seed=1)))


# ----------------------------------------------------------------------
# Wave width: chosen from the live search, never from an option.
# ----------------------------------------------------------------------


class _Logged(FlowShopProblem):
    """A flow shop whose pool evaluator logs every wave it bounds."""

    log: list
    explorer: IntervalExplorer


def _logging_factory(problem):
    inner = FlowShopNumpyPool(problem)

    def evaluate(states, depth):
        problem.log.append(
            ("wave", problem.explorer.stats.nodes_decomposed, len(states))
        )
        return inner(states, depth)

    return evaluate


register_pool_factory("numpy", _Logged, _logging_factory)


def _logged_explorer(instance, **options):
    problem = _Logged(instance)
    problem.log = []
    problem.explorer = IntervalExplorer(
        problem,
        on_improvement=lambda cost, _: problem.log.append(
            ("moved", problem.explorer.stats.nodes_decomposed, cost)
        ),
        **options,
    )
    return problem.explorer, problem.log


def _assert_widths_follow_the_incumbent(log, pool_size):
    """No wave is wider than the parents decomposed between the last
    incumbent move and its own start allow (``// 4``, at least 1)."""
    moved_at = 0
    for kind, decomposed, value in log:
        if kind == "moved":
            moved_at = decomposed
            continue
        # ``decomposed`` already counts this wave's own parents.
        quiet_before_wave = decomposed - value - moved_at
        assert value <= min(pool_size, max(1, quiet_before_wave // 4))


class TestWaveWidth:
    INSTANCE = random_instance(9, 5, seed=3)
    OPTIMUM = 663

    @staticmethod
    def _run_until_width(explorer, log, width):
        while all(entry[2] != width for entry in log):
            assert not explorer.step(200).finished

    def test_collapses_on_leaf_improvements_and_fills_in_proof_phases(self):
        explorer, log = _logged_explorer(self.INSTANCE, pool_size=16)
        explorer.run()
        assert explorer.incumbent.cost == self.OPTIMUM
        _assert_widths_follow_the_incumbent(log, 16)
        assert max(v for kind, _, v in log if kind == "wave") == 16
        # Somewhere the width had grown past 1, a leaf improved the
        # incumbent, and the very next wave held a single parent.
        assert any(
            (before[0], moved[0], after[0]) == ("wave", "moved", "wave")
            and before[2] > 1
            and after[2] == 1
            for before, moved, after in zip(log, log[1:], log[2:])
        )

    def test_collapses_on_set_upper_bound(self):
        explorer, log = _logged_explorer(
            self.INSTANCE, incumbent=Incumbent(self.OPTIMUM), pool_size=8
        )
        self._run_until_width(explorer, log, 8)  # proof only: fills up
        assert explorer.set_upper_bound(self.OPTIMUM - 1)
        seen = len(log)
        explorer.step(50)
        assert log[seen][2] == 1

    def test_collapses_on_a_provider_poll_that_lowers_the_bound(self):
        shared = {"bound": math.inf}

        def provider():
            if shared["bound"] < explorer.incumbent.cost:
                log.append(("moved", explorer.stats.nodes_decomposed, None))
            return shared["bound"]

        explorer, log = _logged_explorer(
            self.INSTANCE,
            incumbent=Incumbent(self.OPTIMUM),
            bound_provider=provider,
            bound_poll_nodes=32,
            pool_size=8,
        )
        self._run_until_width(explorer, log, 8)
        shared["bound"] = self.OPTIMUM - 1
        explorer.run()
        (move,) = [i for i, entry in enumerate(log) if entry[0] == "moved"]
        assert log[move + 1][2] == 1
        _assert_widths_follow_the_incumbent(log, 8)

    def test_step_budget_bounds_the_wave(self):
        """``step(10)`` counts at most 10 nodes plus one sibling family,
        even in a proof-only phase where the width would be the cap."""
        explorer, log = _logged_explorer(
            self.INSTANCE, incumbent=Incumbent(self.OPTIMUM), pool_size=16
        )
        self._run_until_width(explorer, log, 16)
        while not explorer.is_finished():
            report = explorer.step(10)
            assert report.nodes_processed <= 10 + self.INSTANCE.jobs

    def test_without_a_pool_evaluator_width_stays_one(self):
        # No pool evaluator, as for a problem that registered no pool
        # kernels; or the scalar oracle, which never asks for one.
        unpooled = mock.patch.object(engine, "pool_evaluator_for", lambda problem: None)
        for context, batched in ((unpooled, True), (contextlib.nullcontext(), False)):
            with context:
                result = solve(
                    FlowShopProblem(self.INSTANCE),
                    initial_upper_bound=self.OPTIMUM,
                    batched_bounds=batched,
                )
            assert result.pool_occupancy == {}


def test_stack_stays_within_its_stated_bound_on_a_20x20_slice():
    """``pool_size * sum(children per depth)`` plus the initial unfold."""
    begin = math.factorial(20) // 3
    explorer = IntervalExplorer(
        FlowShopProblem(random_instance(20, 20, seed=4)),
        Interval(begin, begin + 10**9),
    )
    bound = explorer.pool_size * sum(range(1, 21)) + len(explorer._stack)
    deepest = 0
    while not explorer.is_finished():
        explorer.step(2000)
        deepest = max(deepest, len(explorer._stack))
    assert max(explorer.pool_occupancy) == explorer.pool_size  # went wide
    assert explorer.pool_size < deepest <= bound
