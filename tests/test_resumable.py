"""Tests for the checkpointed sequential solver."""

import os

import pytest

from repro.core import solve
from repro.core.resumable import ResumableSolver
from repro.problems.flowshop import FlowShopProblem, random_instance

from tests.helpers import PermutationCostProblem, toy_cost_matrix


@pytest.fixture
def problem():
    return FlowShopProblem(random_instance(7, 3, seed=5))


class TestFreshRun:
    def test_matches_plain_solve(self, problem, tmp_path):
        expected = solve(problem)
        result = ResumableSolver(problem, tmp_path, checkpoint_nodes=50).run()
        assert result.cost == expected.cost
        assert result.optimal

    def test_checkpoints_written(self, problem, tmp_path):
        solver = ResumableSolver(problem, tmp_path, checkpoint_nodes=50)
        solver.run()
        assert solver.progress.checkpoints_written > 2
        # One snapshot record per checkpoint, in the directory's one log.
        assert os.listdir(tmp_path) == ["service.log"]
        log = (tmp_path / "service.log").read_bytes().splitlines()
        assert len(log) == solver.progress.checkpoints_written

    def test_initial_upper_bound_used(self, problem, tmp_path):
        expected = solve(problem).cost
        result = ResumableSolver(
            problem, tmp_path, checkpoint_nodes=50,
            initial_upper_bound=expected,
        ).run()
        assert result.cost == expected


class TestResume:
    def test_interrupted_run_resumes_to_same_optimum(self, problem, tmp_path):
        expected = solve(problem).cost
        first = ResumableSolver(problem, tmp_path, checkpoint_nodes=25)
        # interrupt after a few checkpoint periods
        for _ in range(3):
            if not first.step():
                break
        # "crash": throw the solver away, start over from the files
        second = ResumableSolver(problem, tmp_path, checkpoint_nodes=25)
        assert second.progress.resumed_from is not None
        result = second.run()
        assert result.cost == expected

    def test_resume_skips_completed_work(self, problem, tmp_path):
        first = ResumableSolver(problem, tmp_path, checkpoint_nodes=25)
        for _ in range(3):
            first.step()
        consumed_begin = first.remaining_interval().begin
        second = ResumableSolver(problem, tmp_path, checkpoint_nodes=25)
        assert second.remaining_interval().begin >= consumed_begin

    def test_resume_of_finished_run_is_noop(self, problem, tmp_path):
        expected = ResumableSolver(problem, tmp_path, checkpoint_nodes=50).run()
        again = ResumableSolver(problem, tmp_path, checkpoint_nodes=50)
        result = again.run()
        # incumbent survived; no re-exploration happened
        assert result.cost == expected.cost
        assert again.explorer.stats.nodes_explored == 0

    def test_incumbent_survives_restart(self, tmp_path):
        problem = PermutationCostProblem(toy_cost_matrix(6, 3))
        first = ResumableSolver(problem, tmp_path, checkpoint_nodes=30)
        first.step()
        found = first.explorer.incumbent.cost
        second = ResumableSolver(problem, tmp_path, checkpoint_nodes=30)
        assert second.explorer.incumbent.cost <= found

    def test_total_node_work_split_across_sessions(self, problem, tmp_path):
        # nodes(first session) + nodes(second session) ~ nodes(single
        # run) — resume must not restart from scratch.
        single = ResumableSolver(problem, tmp_path / "a", checkpoint_nodes=10**9)
        single_result = single.run()
        first = ResumableSolver(problem, tmp_path / "b", checkpoint_nodes=40)
        for _ in range(4):
            first.step()
        n1 = first.explorer.stats.nodes_explored
        second = ResumableSolver(problem, tmp_path / "b", checkpoint_nodes=10**9)
        second.run()
        n2 = second.explorer.stats.nodes_explored
        # pruning differences make this approximate, but a restart from
        # scratch would give n1 + n2 ~ 2x the single-run count.
        assert n1 + n2 < 1.5 * single_result.stats.nodes_explored
