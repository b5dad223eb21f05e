"""A fleet worker keeps its kernel pools full across grants of one job.

The wave width of an :class:`~repro.core.engine.IntervalExplorer` grows
with the parents it decomposed since its own leaf last improved the
incumbent.  ``worker_main`` keeps one explorer per job and re-aims it
at the job's next grant, so the width a proof phase reached on one
grant is where the next grant starts; a new job gets a new explorer,
which starts at one parent per wave.  Driven through the real
``worker_main`` over a scripted connection.
"""

from __future__ import annotations

import math
from unittest import mock

from repro.core import solve
from repro.core.engine import IntervalExplorer
from repro.grid.runtime import bbprocess, flowshop_spec
from repro.grid.runtime.bbprocess import worker_main
from repro.grid.runtime.protocol import (
    Ack,
    Bye,
    GrantWork,
    Push,
    Reconciled,
    Request,
    Terminate,
    Update,
)
from repro.grid.runtime.worker import _JOB_CACHE_SIZE
from repro.problems.flowshop import FlowShopProblem, random_instance
from tests.test_notices import Fifo

instance = random_instance(9, 5, seed=3)
OPTIMUM = solve(FlowShopProblem(instance)).cost
TOTAL = math.factorial(instance.jobs)
SPEC = flowshop_spec(instance)


class _Watched(IntervalExplorer):
    """Logs ``(explorer, width allowed, parents)`` for every wave."""

    made: list = []
    waves: list = []
    _stepping = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Watched.made.append(self)

    def step(self, max_nodes=math.inf):
        self._stepping = True
        try:
            return super().step(max_nodes)
        finally:
            self._stepping = False

    def _bound_families(self, states, depth):
        if self._stepping:  # a wave, not the unfold of a grant
            # ``nodes_decomposed`` already counts this wave's parents.
            quiet = self.stats.nodes_decomposed - len(states) - self._improved_at
            allowed = min(self.pool_size, max(1, quiet // 4))
            _Watched.waves.append((self, allowed, len(states)))
        return super()._bound_families(states, depth)


def run_grants(grants):
    """Serve ``grants`` (job, interval) in turn, then Terminate; the
    waves of each grant, as ``(explorer, allowed, parents)`` lists."""
    pending = list(grants)
    per_grant = []

    def answer(message):
        if isinstance(message, Request):
            if pending:
                job, interval = pending.pop(0)
                reply = GrantWork(interval, OPTIMUM, job=job, spec=SPEC)
                per_grant.append(len(_Watched.waves))
            else:
                reply = Terminate(OPTIMUM)
        elif isinstance(message, Update):
            reply = Reconciled(message.interval, OPTIMUM)
        else:
            assert isinstance(message, (Push, Bye))
            reply = Ack(OPTIMUM)
        reply.seq = message.seq
        return [reply]

    _Watched.made, _Watched.waves = [], []
    with mock.patch.object(bbprocess, "IntervalExplorer", _Watched):
        assert worker_main("w0", Fifo(answer), update_nodes=200) == "terminate"
    bounds = per_grant + [len(_Watched.waves)]
    return [_Watched.waves[a:b] for a, b in zip(bounds, bounds[1:])]


def test_a_jobs_next_grant_starts_at_the_width_its_last_one_ended_with():
    half = TOTAL // 2
    first, second, other = run_grants(
        [("a", (0, half)), ("a", (half, TOTAL)), ("b", (0, TOTAL))]
    )
    # One explorer per job: job a's second grant re-aimed the first's.
    (explorer_a,) = {explorer for explorer, _, _ in first + second}
    (explorer_b,) = {explorer for explorer, _, _ in other}
    assert _Watched.made == [explorer_a, explorer_b]
    # A proof-only grant (the optimum is known) widened its waves ...
    assert first[0][1:] == (1, 1)
    assert first[-1][1] > 1
    # ... and the job's next grant carried the allowance on, where a
    # fresh explorer would have started again at one parent.
    assert second[0][1] >= first[-1][1]
    assert max(parents for _, _, parents in second[:4]) > 1
    # A new job starts at one parent per wave.
    assert other[0][1:] == (1, 1)


def test_a_job_whose_problem_was_rebuilt_gets_a_new_explorer():
    """Past the core's job cache a job's problem is rebuilt from its
    next grant's spec, and an explorer is never re-aimed at another
    problem object than its own."""
    jobs = [(f"j{n}", (0, TOTAL // 64)) for n in range(_JOB_CACHE_SIZE + 1)]
    run_grants(jobs + [("j0", (TOTAL // 64, TOTAL // 32))])
    assert len(_Watched.made) == len(jobs) + 1
    problems = [explorer.problem for explorer in _Watched.made]
    assert problems[0] is not problems[-1]
