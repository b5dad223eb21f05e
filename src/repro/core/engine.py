"""Interval-constrained depth-first Branch and Bound engine.

This is the per-process exploration loop of the paper's approach: a
B&B process owns an interval ``[A, B)`` of node numbers and explores
exactly the leaves numbered inside it, depth first, leftmost first.
The engine is *resumable* — the grid layers drive it in slices with
:meth:`IntervalExplorer.step` so they can interleave exploration with
message handling — and at every pause its frontier folds back to the
remaining interval (``[position, B)``), which is what gets sent to the
coordinator for checkpointing (§4.1).

Correspondence with the paper's four operators (§2):

* **selection** — one loop over one number-sorted stack: each *wave*
  pops up to ``W`` same-depth decomposable parents off the top (the
  smallest-numbered entries), bounds all their children in one call
  and pushes the survivors.  ``W = 1`` is the paper's order exactly —
  the smallest node number is always explored next.  The engine picks
  ``W`` itself from how long ago one of its own leaves last improved
  the incumbent (see :meth:`IntervalExplorer.step`): narrow while its
  own improvements are arriving, so prune tests see the freshest
  incumbent; wide during proof-only phases, so the pool kernels
  receive full pools.  A bound heard from elsewhere
  (:meth:`IntervalExplorer.set_upper_bound`, a ``bound_provider``
  poll) tightens pruning at once but leaves ``W`` alone, and
  :meth:`IntervalExplorer.reaim` points the explorer at a new
  interval with its ``W`` intact — so a grid worker that explores
  grant after grant of one job keeps its pools full.  Waves
  always consume the top of the stack, so leaves are evaluated left to
  right, the stack stays number-sorted, and the fold is always the two
  integers ``[top, B)`` (:meth:`IntervalExplorer.remaining_interval`);
* **branching** — delegated to :meth:`Problem.branch`;
* **bounding** — delegated to :meth:`Problem.lower_bound`, or, when
  the problem registered a pool evaluator (:mod:`repro.core.kernels`),
  evaluated at decomposition time for the children of the whole wave
  in one call, a wave of one parent included (the batched-kernel
  structure of the GPU-B&B follow-on work).  The frontier an interval
  unfolds into is bounded the same way: its entries of one depth are
  children of at most two boundary parents, so one call per depth
  (none for a depth with no entry) bounds them all, and a pooled run calls ``lower_bound`` only for
  the root of a whole tree (and for rows the evaluator declines).  The
  engine writes the incumbent cost to :attr:`Problem.prune_at` before
  each call, so a staged bound can stop early on families it has
  already shown dead; every value that comes back is admissible, and
  it is the exact :meth:`Problem.lower_bound` value wherever it is
  below ``prune_at`` and for every child of a parent with such a
  child.  A value at or above ``prune_at`` is pruned whenever it is
  compared, because the incumbent never rises, so a bound cached on a
  stack entry decides exactly as ``lower_bound`` would; it is only
  *compared* against the then-current incumbent when the entry is
  popped;
* **elimination** — a node is eliminated when its bound reaches the
  incumbent cost *or* when its number falls outside the owned interval
  (the eq. 12 rule that makes work units independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.active_list import ActiveList
from repro.core.interval import Interval
from repro.core.kernels import PoolEvaluator, pool_evaluator_for
from repro.core.problem import Problem, seed_incumbent
from repro.core.stats import ExplorationStats, Incumbent
from repro.core.tree import TreeShape
from repro.core.unfold import unfold
from repro.exceptions import EngineError, ProblemError

__all__ = [
    "IntervalExplorer",
    "StepReport",
    "SolveResult",
    "solve",
    "brute_force_minimum",
]

#: Wave width gained per this many parents decomposed since the
#: explorer's own leaf last improved the incumbent.  A constant, not a
#: knob: ``//2 … //8`` measure within noise of each other on every
#: benchmark workload (CHANGES.md, PR 15).
_QUIET_PARENTS_PER_WIDTH = 4

ImprovementCallback = Callable[[float, Any], None]


@dataclass
class StepReport:
    """Outcome of one :meth:`IntervalExplorer.step` slice.

    ``consumed``: leaf numbers retired — how far the remaining interval's
    begin advanced (never past its end), or all of it once finished.
    """

    nodes_processed: int
    finished: bool
    improved: bool
    consumed: int


@dataclass
class SolveResult:
    """Result of a complete (proof-carrying) exploration."""

    cost: float
    solution: Any
    stats: ExplorationStats
    interval: Interval
    optimal: bool = True
    # Pool-evaluation telemetry (kept out of ExplorationStats so node
    # accounting stays byte-comparable with the unpooled paths): wave
    # width -> number of waves that bounded that many parents.  The
    # calls that bound an unfolded frontier are not waves and are not
    # counted.
    pool_occupancy: Dict[int, int] = field(default_factory=dict)


class _Entry:
    """One frontier node on the stack.

    ``bound`` caches the node's lower bound when a pool-evaluator call
    computed it: the wave that decomposed its parent, or the unfold
    that pushed it.  It is ``None`` without an evaluator (the scalar
    oracle), for leaves, for a row the evaluator declined and for a
    whole tree's root; those are bounded with ``lower_bound`` when
    popped.  A cached value below the incumbent it was computed
    against is exact, and one at or above it is pruned at any later
    comparison too (module docstring), so only the prune *comparison*
    is deferred to pop time.
    """

    __slots__ = ("ranks", "state", "number", "bound")

    def __init__(
        self,
        ranks: Tuple[int, ...],
        state: Any,
        number: int,
        bound: Optional[float] = None,
    ):
        self.ranks = ranks
        self.state = state
        self.number = number
        self.bound = bound


class IntervalExplorer:
    """Resumable B&B over one interval of node numbers.

    **Contract.**  The optimum, the optimal solution, the sequence of
    improvements and the proof are the same for every ``pool_size``
    and ``batched_bounds`` setting, pooled or not, and the ledger
    always reconciles: ``explored = pruned + decomposed + leaves``.
    At ``pool_size=1`` the explored / pruned / decomposed /
    bound-evaluation counters are additionally byte-identical to the
    scalar per-node path (``batched_bounds=False``) — with the
    :attr:`Problem.prune_at` hint live as well: a staged bound may
    report a weaker value only for a child that is pruned either way,
    so prune decisions are unchanged by construction.
    At wider caps prune tests meet the incumbent at different moments,
    so node counts may differ from the scalar path's and are reported
    as they happened.

    Parameters
    ----------
    problem:
        The problem to minimise.
    interval:
        Node numbers to own; defaults to the full range of the root.
        Clipped to ``[0, total_leaves)``.
    incumbent:
        Initial best solution (copied); exploration prunes against it.
        The paper initialises this from the coordinator's ``SOLUTION``
        (sharing rule 1, §4.4).
    on_improvement:
        Called ``(cost, solution)`` whenever the local best improves
        (sharing rule 2: "immediately informs the coordinator").
    batched_bounds:
        ``True`` (default) bounds every wave's children with the
        problem's pool evaluator when it registered one; ``False``
        forces the per-node path (the scalar oracle the conformance
        tests compare against).
    bound_provider:
        Optional zero-arg callable returning an advisory global upper
        bound (the grid worker's drain of its coordinator connection).
        Polled on entry to :meth:`step` and then every
        ``bound_poll_nodes`` processed nodes *inside* it, so a bound
        improvement found elsewhere tightens pruning mid-slice instead
        of waiting for the next coordination boundary (sharing rule 3,
        §4.4, without the round-trip).  The provider carries a cost
        only — adopting it never installs a solution.  It may call
        :meth:`yield_at_poll` to end the slice at that poll.
    bound_poll_nodes:
        How many nodes to explore between provider polls (default 256;
        ignored without a provider).
    pool_size:
        Cap on the wave width — how many parents one pool call may
        bound (default 64).  ``1`` is strict smallest-number-first
        order, the identity pin of the conformance tests.  Without a
        pool evaluator — the problem registered none
        (:mod:`repro.core.kernels`), or ``batched_bounds=False``, which
        keeps the scalar oracle pure — the width is 1 whatever this
        says.
    """

    def __init__(
        self,
        problem: Problem,
        interval: Optional[Interval] = None,
        *,
        incumbent: Optional[Incumbent] = None,
        on_improvement: Optional[ImprovementCallback] = None,
        batched_bounds: bool = True,
        bound_provider: Optional[Callable[[], float]] = None,
        bound_poll_nodes: int = 256,
        pool_size: int = 64,
    ):
        self.problem = problem
        if pool_size < 1:
            raise EngineError("pool_size must be >= 1")
        self.pool_size = pool_size
        #: Wave histogram: wave width -> number of waves that bounded
        #: that many parents in one pool-evaluator call (the calls of
        #: :meth:`_init_stack` are not waves).
        self.pool_occupancy: Dict[int, int] = {}
        self._pool_evaluator: Optional[PoolEvaluator] = (
            pool_evaluator_for(problem) if batched_bounds else None
        )
        self.shape: TreeShape = problem.tree_shape()
        self._weights = self.shape.weights()
        self.incumbent = incumbent.copy() if incumbent is not None else Incumbent()
        self.on_improvement = on_improvement
        self.bound_provider = bound_provider
        if bound_poll_nodes < 1:
            raise EngineError("bound_poll_nodes must be >= 1")
        self.bound_poll_nodes = bound_poll_nodes
        self._yield_requested = False
        self.stats = ExplorationStats()
        # ``stats.nodes_decomposed`` when a leaf of this explorer last
        # improved the incumbent; the distance from it is what the wave
        # width grows with.
        self._improved_at = 0
        # Stack ordered by DECREASING node number so list.pop() yields
        # the leftmost (smallest-numbered) frontier node.
        self._stack: List[_Entry] = []
        self._aim(interval)

    def _aim(self, interval: Optional[Interval]) -> None:
        """Own ``interval`` (clipped to the tree; ``None``: all of it)
        and push its bounded unfold onto the empty stack."""
        full = Interval(0, self.shape.total_leaves)
        interval = full if interval is None else interval.intersect(full)
        self._end = max(interval.end, interval.begin)
        if not interval.is_empty():
            self._init_stack(interval)

    # ------------------------------------------------------------------
    # initialisation: unfold the interval, materialise and bound states
    # ------------------------------------------------------------------
    def _init_stack(self, interval: Interval) -> None:
        """Push the unfold of ``interval`` (§3.5), its entries bounded.

        The walk goes depth by depth.  A node whose range straddles a
        boundary of the interval is decomposed — at most two per depth,
        one on each boundary path — and its children inside the
        interval become stack entries.  The entries of one depth are
        children of those parents, so one pool-evaluator call bounds
        them all (:meth:`_bound_families`), before the parents are
        branched: a flow shop's ``branch`` then reuses the child fronts
        that call parked.  A depth with no entry, where every
        overlapping child straddles (the upper levels of a narrow
        interval), makes no call.  Without an evaluator, for a row it
        declines and for leaves, entries keep ``bound=None``, bounded
        when popped.  A whole-tree interval unfolds to the root alone,
        which is bounded when popped too.
        """
        begin, end = interval.begin, interval.end
        weights = self._weights
        root = _Entry((), self.problem.root_state(), 0)
        if begin == 0 and end == weights[0]:
            self._stack.append(root)
            return
        entries: List[_Entry] = []
        parents = [root]
        depth = 0
        while parents:
            child_weight = weights[depth + 1]
            last_rank = self.shape.num_children(depth) - 1
            # (parent index, rank, number, inside) of every child that
            # overlaps the interval; only a family's first and last can
            # straddle a boundary.
            overlapping = []
            for index, parent in enumerate(parents):
                number = parent.number
                lo = max(0, (begin - number) // child_weight)
                hi = min(last_rank, (end - 1 - number) // child_weight)
                for rank in range(lo, hi + 1):
                    first = number + rank * child_weight
                    inside = begin <= first and first + child_weight <= end
                    overlapping.append((index, rank, first, inside))
            rows = None
            if any(inside for *_, inside in overlapping):
                rows = self._bound_families([p.state for p in parents], depth)
            # Branch after the call, which clears the fronts the
            # previous one parked, and before the next depth's call.
            families = [self._branch_checked(p.state, depth) for p in parents]
            straddling: List[_Entry] = []
            for index, rank, number, inside in overlapping:
                row = None if rows is None else rows[index]
                entry = _Entry(
                    parents[index].ranks + (rank,),
                    families[index][rank],
                    number,
                    None if row is None else row[rank],
                )
                (entries if inside else straddling).append(entry)
            parents = straddling
            depth += 1
        entries.sort(key=lambda entry: entry.number, reverse=True)
        self._stack.extend(entries)

    def _branch_checked(self, state: Any, depth: int) -> Tuple[Any, ...]:
        children = tuple(self.problem.branch(state, depth))
        expected = self.shape.num_children(depth)
        if len(children) != expected:
            raise ProblemError(
                f"{self.problem.name()}.branch returned {len(children)} "
                f"children at depth {depth}, shape expects {expected}"
            )
        return children

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    def is_finished(self) -> bool:
        return not self._stack

    @property
    def end(self) -> int:
        """Current right bound of the owned interval (may shrink)."""
        return self._end

    def remaining_interval(self) -> Interval:
        """Fold of the live frontier: what is left to explore.

        This is exactly what a worker reports to the coordinator during
        an interval update (§4.1).  Empty once exploration is done.
        """
        if not self._stack:
            return Interval(self._end, self._end)
        return Interval(self._stack[-1].number, self._end)

    def active_list(self) -> ActiveList:
        """The canonical *covering* frontier (increasing order): the
        unfold of :meth:`remaining_interval` — exactly the frontier a
        resume would reconstruct from the fold.

        The live stack is not a contiguous eq. 9 chain (pruned
        subtrees leave gaps between the surviving ones), so it is the
        covering list, not the stack, that has the paper's shape.
        """
        return unfold(self.shape, self.remaining_interval())

    # ------------------------------------------------------------------
    # coordination hooks (load balancing & solution sharing)
    # ------------------------------------------------------------------
    def restrict_end(self, new_end: int) -> None:
        """Give up the tail ``[new_end, end)`` — stolen by load balancing.

        Growing the interval is not part of the protocol and raises.
        """
        if new_end > self._end:
            raise EngineError(
                f"cannot extend interval end from {self._end} to {new_end}"
            )
        self._end = new_end
        # Entries are ordered by decreasing number: drop the out-of-range
        # prefix eagerly (index 0 side holds the largest numbers).
        cut = 0
        while cut < len(self._stack) and self._stack[cut].number >= new_end:
            cut += 1
        if cut:
            del self._stack[:cut]

    def apply_interval(self, interval: Interval) -> None:
        """Reconcile with a coordinator-side copy (intersection, eq. 14).

        Almost always this lowers ``end``: the coordinator gave the
        tail to a requester.  An empty intersection means all remaining
        work was reassigned: the frontier is dropped.  A raised
        ``begin`` means the coordinator knows the head explored (by a
        holder that ran past a cut before it heard of it); the frontier
        then restarts from the unfold of what is left, as a resume does.
        """
        remaining = self.remaining_interval()
        merged = remaining.intersect(interval)
        if merged.is_empty():
            # Fold to the empty interval at the position reached: the
            # next report then still says how far this process got.
            self._stack.clear()
            self._end = remaining.begin
            return
        self.restrict_end(merged.end)
        if merged.begin > remaining.begin:
            self._stack.clear()
            self._init_stack(merged)

    def set_upper_bound(self, cost: float, solution: Any = None) -> bool:
        """Adopt a better global bound (sharing rule 3, §4.4).

        It prunes from the next comparison on, but it is not a leaf of
        this explorer: the wave width is left as it is (:meth:`step`).
        """
        if cost < self.incumbent.cost:
            self.incumbent.cost = cost
            self.incumbent.solution = solution
            return True
        return False

    def reaim(self, interval: Interval, upper_bound: float = math.inf) -> None:
        """Explore ``interval`` next, from ``upper_bound`` or better.

        For a grid worker's next grant of the same job: the frontier is
        replaced by the unfold of ``interval`` (clipped to the tree), as
        a new explorer would build it, while the incumbent (lowered to
        ``upper_bound`` through :meth:`set_upper_bound`), the stats, the
        wave histogram and the wave width carry over — a proof-only
        phase that filled the pools on one grant fills them on the next.
        """
        self.set_upper_bound(upper_bound)
        self._yield_requested = False
        self._stack.clear()
        self._aim(interval)

    def yield_at_poll(self) -> None:
        """Make :meth:`step` return at its next provider poll.

        For the provider itself to call (the slice then ends at the poll
        that is running); a request made anywhere else waits for the
        next poll point — a slice never ends mid-wave.
        """
        self._yield_requested = True

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def step(self, max_nodes: float = math.inf) -> StepReport:
        """Explore up to ``max_nodes`` nodes; return what happened.

        One loop: while the stack top is a leaf, evaluate it; otherwise
        pop a *wave* — same-depth entries off the top, prune-checking
        each against the incumbent, until ``W`` decomposable parents
        are held — bound all their children in one call and push the
        survivors, highest-numbered first, so the stack stays sorted.

        ``W`` is not an option.  It is the number of parents
        decomposed since a leaf of *this* explorer last improved the
        incumbent ``// 4``, clamped to ``[1, pool_size]``: every parent
        of a wave is tested against the incumbent as it stood when the
        wave began, so a wide wave wastes work while improvements are
        arriving and costs nothing once they have stopped, which is
        also when the pool kernels have the most to gain from full
        pools.  Decompositions, not explored nodes, are counted
        because the children a wide wave prunes on the spot are
        explored nodes too — counting them lets one wide wave widen
        the next.  A bound heard from elsewhere —
        :meth:`set_upper_bound`, or a ``bound_provider`` poll that
        lowers the incumbent — prunes from the next comparison on but
        does not narrow ``W``: it says the incumbent has moved, not
        that improvements are arriving in this explorer's part of the
        tree, and narrowing on it left a grid worker's pools starved
        (docs/performance.md).  :meth:`reaim` keeps ``W`` too.
        Without a pool evaluator (the scalar oracle, problems with no
        pooled kernels) going wide buys nothing and ``W`` stays 1.

        One "node" is one frontier entry taken off the stack, matching
        the paper's explored-node accounting (pruned, decomposed and
        leaf nodes all count).  Children pruned at decomposition time
        (they never reach the stack) also count — they are the same
        nodes the per-node path would pop and prune.  A wave stops
        taking parents once ``max_nodes`` would not cover the families
        already held, so a step overshoots ``max_nodes`` by at most one
        family of siblings.

        With a ``bound_provider`` the loop polls it between waves — on
        entry, then every ``bound_poll_nodes`` nodes — and returns early
        at a poll during which :meth:`yield_at_poll` was asked for.
        """
        problem = self.problem
        stack = self._stack
        leaf_depth = self.shape.leaf_depth
        weights = self._weights
        stats = self.stats
        incumbent = self.incumbent
        widest = self.pool_size if self._pool_evaluator is not None else 1
        provider = self.bound_provider
        before = self.remaining_interval()
        next_poll = 0
        processed = 0
        improved = False

        while stack and processed < max_nodes:
            if provider is not None and processed >= next_poll:
                next_poll = processed + self.bound_poll_nodes
                self.set_upper_bound(provider())
                if self._yield_requested:
                    self._yield_requested = False
                    break
            if stack[-1].number >= self._end:
                # Sorted stack: the smallest-numbered entry is already
                # out of range, so everything else is too.
                stats.nodes_skipped_out_of_range += len(stack)
                stack.clear()
                break
            depth = len(stack[-1].ranks)
            if depth == leaf_depth:
                entry = stack.pop()
                processed += 1
                stats.nodes_explored += 1
                stats.leaves_evaluated += 1
                cost = problem.leaf_cost(entry.state)
                if cost < incumbent.cost:
                    incumbent.cost = cost
                    incumbent.solution = problem.leaf_solution(entry.state)
                    self._improved_at = stats.nodes_decomposed
                    stats.improvements += 1
                    improved = True
                    if self.on_improvement is not None:
                        self.on_improvement(cost, incumbent.solution)
                continue

            # Pop the wave.  No leaf is evaluated inside it, so the
            # incumbent cannot move under it.
            width = min(
                (stats.nodes_decomposed - self._improved_at)
                // _QUIET_PARENTS_PER_WIDTH,
                widest,
            )
            fanout = self.shape.num_children(depth)
            room = max_nodes - processed
            incumbent_cost = incumbent.cost
            parents: List[_Entry] = []
            while room > 0 and stack:
                cand = stack[-1]
                if len(cand.ranks) != depth or cand.number >= self._end:
                    break
                stack.pop()
                room -= 1
                processed += 1
                stats.nodes_explored += 1
                # A cached bound is the exact value lower_bound would
                # return; only the comparison happens now.
                stats.bound_evaluations += 1
                bound = cand.bound
                if bound is None:
                    bound = problem.lower_bound(cand.state, depth)
                if bound >= incumbent_cost:
                    stats.nodes_pruned += 1
                    continue
                stats.nodes_decomposed += 1
                parents.append(cand)
                if len(parents) >= width:
                    break
                room -= fanout  # its children may all be counted below
            if not parents:
                continue

            # Push children, highest-numbered parent first and highest
            # rank first, so the stack stays sorted by decreasing
            # number (subtree ranges are disjoint and ordered).  A
            # child whose bound already reaches the incumbent is
            # accounted explored+bounded+pruned here instead of being
            # pushed: the incumbent never worsens, so the per-node
            # path would pop and prune exactly that child later.  All
            # of that is decided from the bound row alone, so a family
            # with no survivor is never branched.
            child_weight = weights[depth + 1]
            families = self._bound_families([p.state for p in parents], depth)
            if families is None:
                families = [None] * len(parents)
            else:
                wide = len(parents)
                self.pool_occupancy[wide] = self.pool_occupancy.get(wide, 0) + 1
            pruned_unpushed = 0
            for entry, child_bounds in zip(reversed(parents), reversed(families)):
                number = entry.number
                survivors = []
                for rank in range(fanout - 1, -1, -1):
                    if number + rank * child_weight >= self._end:
                        stats.nodes_skipped_out_of_range += 1
                    elif (
                        child_bounds is not None
                        and child_bounds[rank] >= incumbent_cost
                    ):
                        pruned_unpushed += 1
                    else:
                        survivors.append(rank)
                if not survivors:
                    continue
                children = self._branch_checked(entry.state, depth)
                ranks = entry.ranks
                for rank in survivors:
                    stack.append(
                        _Entry(
                            ranks + (rank,),
                            children[rank],
                            number + rank * child_weight,
                            None if child_bounds is None else child_bounds[rank],
                        )
                    )
            processed += pruned_unpushed
            stats.nodes_explored += pruned_unpushed
            stats.bound_evaluations += pruned_unpushed
            stats.nodes_pruned += pruned_unpushed

        if stack:
            after = self.remaining_interval()
            consumed = max(0, min(after.begin, before.end) - before.begin)
        else:
            consumed = before.length
        return StepReport(
            processed, finished=not stack, improved=improved, consumed=consumed
        )

    def _bound_families(
        self, states: List[Any], depth: int
    ) -> Optional[List[Optional[List[float]]]]:
        """Child bounds of every parent state in ``states`` (all at
        ``depth``): one pool-evaluator call, made after writing the
        incumbent cost to :attr:`Problem.prune_at`.

        ``None`` when no call is made — there is no evaluator, or the
        children are leaves.  A row stays ``None`` for a parent the
        evaluator declined; those children get their bound when they
        are popped.
        """
        if self._pool_evaluator is None or depth + 1 >= self.shape.leaf_depth:
            return None
        self.problem.prune_at = self.incumbent.cost
        pooled = self._pool_evaluator(states, depth)
        rows: List[Optional[List[float]]] = [None] * len(states)
        if pooled is None:
            return rows
        expected = self.shape.num_children(depth)
        for index, row in enumerate(pooled):
            if row is None:
                continue
            if len(row) != expected:
                raise ProblemError(
                    f"{self.problem.name()} returned {len(row)} child "
                    f"bounds at depth {depth}, shape expects {expected}"
                )
            # One bulk conversion: comparing / storing plain Python
            # scalars is cheaper per child than ndarray scalar indexing.
            tolist = getattr(row, "tolist", None)
            rows[index] = tolist() if tolist is not None else list(row)
        return rows

    def run(self) -> ExplorationStats:
        """Explore the whole owned interval to completion."""
        while not self.is_finished():
            self.step(math.inf)
        return self.stats


# ----------------------------------------------------------------------
# one-shot conveniences
# ----------------------------------------------------------------------
def solve(
    problem: Problem,
    *,
    interval: Optional[Interval] = None,
    initial_upper_bound: float = math.inf,
    initial_solution: Any = None,
    on_improvement: Optional[ImprovementCallback] = None,
    batched_bounds: bool = True,
    pool_size: int = 64,
) -> SolveResult:
    """Sequentially solve ``problem`` (over ``interval``) with proof.

    This is the paper's algorithm on a single processor: the returned
    cost is the optimum over the explored interval and ``optimal`` is
    ``True`` because the exploration ran to exhaustion.  The paper
    initialised Ta056 with the best-known cost 3681 — pass it through
    ``initial_upper_bound`` for the same effect (note: with a pure
    bound and no solution, an instance whose optimum equals the bound
    reports ``solution=None``; pass ``initial_solution`` to keep it).
    ``pool_size`` caps the wave width (see :class:`IntervalExplorer`);
    problems that register pool kernels are pooled.

    A problem-supplied :meth:`Problem.warm_start` heuristic seeds the
    incumbent as well, with a solution inside ``interval``
    (:func:`seed_incumbent`); the incumbent is monotonic, so whichever
    of the warm start and ``initial_upper_bound`` is better wins, and a
    warm start can only speed the proof up, never change the optimum.
    """
    incumbent = seed_incumbent(
        problem, Incumbent(initial_upper_bound, initial_solution), interval
    )
    explorer = IntervalExplorer(
        problem,
        interval,
        incumbent=incumbent,
        on_improvement=on_improvement,
        batched_bounds=batched_bounds,
        pool_size=pool_size,
    )
    explorer.run()
    full = Interval(0, problem.total_leaves()) if interval is None else interval
    return SolveResult(
        cost=explorer.incumbent.cost,
        solution=explorer.incumbent.solution,
        stats=explorer.stats,
        interval=full,
        pool_occupancy=dict(explorer.pool_occupancy),
    )


def brute_force_minimum(problem: Problem) -> SolveResult:
    """Evaluate every leaf (no pruning) — ground truth for tests.

    Exponential; only call on tiny instances.
    """

    class _NoPruning(Problem):
        def tree_shape(self) -> TreeShape:
            return problem.tree_shape()

        def root_state(self) -> Any:
            return problem.root_state()

        def branch(self, state: Any, depth: int) -> Sequence[Any]:
            return problem.branch(state, depth)

        def lower_bound(self, state: Any, depth: int) -> float:
            return -math.inf

        def leaf_cost(self, state: Any) -> float:
            return problem.leaf_cost(state)

        def leaf_solution(self, state: Any) -> Any:
            return problem.leaf_solution(state)

    return solve(_NoPruning())


def iter_leaf_costs(problem: Problem) -> Iterator[Tuple[int, float]]:
    """Yield ``(leaf_number, cost)`` for every leaf, in number order.

    Test helper for exhaustive cross-checks of numbering and engine
    semantics on small trees.
    """
    shape = problem.tree_shape()
    weights = shape.weights()

    def walk(state: Any, depth: int, number: int) -> Iterator[Tuple[int, float]]:
        if depth == shape.leaf_depth:
            yield number, problem.leaf_cost(state)
            return
        child_weight = weights[depth + 1]
        for rank, child in enumerate(problem.branch(state, depth)):
            yield from walk(child, depth + 1, number + rank * child_weight)

    yield from walk(problem.root_state(), 0, 0)
