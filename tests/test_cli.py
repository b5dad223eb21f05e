"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.jobs == 9
        assert args.workers == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    @pytest.mark.parametrize("value", ("0", "-3", "many"))
    def test_size_limits_must_be_positive_integers(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["grid", "service", "--max-running", value]
            )
        assert exc.value.code == 2
        expected = "invalid int" if value == "many" else "positive integer"
        assert expected in capsys.readouterr().err


class TestSolveCommand:
    def test_sequential_solve(self, capsys):
        assert main(["solve", "--jobs", "7", "--machines", "3", "--seed", "21"]) == 0
        out = capsys.readouterr().out
        assert "optimal makespan: 582" in out
        assert "proof: True" in out

    def test_ig_warm_start(self, capsys):
        assert main(
            ["solve", "--jobs", "8", "--machines", "3", "--seed", "2",
             "--ig-iterations", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "Iterated Greedy upper bound" in out
        assert "proof: True" in out

    def test_checkpointed_solve_and_resume(self, capsys, tmp_path):
        args = [
            "solve", "--jobs", "7", "--machines", "3", "--seed", "21",
            "--checkpoint-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "checkpoints written" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "resumed from" in second
        assert "optimal makespan: 582" in second

    def test_parallel_solve(self, capsys):
        assert main(
            [
                "solve", "--jobs", "7", "--machines", "3", "--seed", "21",
                "--workers", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal makespan: 582" in out
        assert "workers=2" in out


class TestOtherCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Total: 1889" in out
        assert "Sw24978" in out

    def test_taillard(self, capsys):
        assert main(
            ["taillard", "--jobs", "20", "--machines", "5", "--index", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Ta001" in out
        assert "trivial lower bound" in out

    def test_report_all_claims_hold(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "all 12 claims hold" in out
        assert "[FAIL]" not in out

    def test_simulate_small(self, capsys):
        assert main(
            [
                "simulate", "--workers", "8", "--days", "0.01",
                "--seed", "2", "--always-on",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 7" in out
        assert "proof: True" in out
