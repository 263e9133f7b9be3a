"""Tests for the ``python -m repro.bench`` command-line entry point."""

import pytest

from repro.bench.cli import DRIVERS, build_parser, run


class TestCli:
    def test_every_documented_experiment_has_a_driver(self):
        for name in ("table2", "fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig7b",
                     "fig7cd", "fig8ab", "fig8cd"):
            assert name in DRIVERS

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.experiments == ["fig6a"]
        # machines/seed resolve at run time: RunConfig defaults unless a
        # --config file or an explicit flag supplies them.
        assert args.machines is None
        assert args.seed is None
        assert args.config is None

    def test_config_file_feeds_machines_and_seed(self, tmp_path, capsys):
        from repro.api import RunConfig

        path = tmp_path / "run-config.json"
        path.write_text(RunConfig(machines=4, seed=2).to_json())
        reports = run(["fig6d", "--scale", "0.15", "--config", str(path)])
        assert len(reports) == 1
        out = capsys.readouterr().out
        assert "Fig. 6d" in out
        assert "ignoring" not in out  # machines/seed only: nothing to report

    def test_config_file_reports_ignored_fields(self, tmp_path, capsys):
        from repro.api import RunConfig

        path = tmp_path / "run-config.json"
        config = RunConfig(machines=4, seed=2, batching="per_tuple", epsilon=0.5)
        path.write_text(config.to_json())
        run(["fig6d", "--scale", "0.15", "--config", str(path)])
        out = capsys.readouterr().out
        assert "ignoring" in out and "batching" in out and "epsilon" in out

    def test_bad_config_file_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"machines": "not-a-count"}')
        with pytest.raises(SystemExit):
            run(["fig6d", "--config", str(path)])

    def test_run_single_experiment(self, capsys):
        reports = run(["fig6d", "--scale", "0.15", "--machines", "4", "--seed", "2"])
        assert len(reports) == 1
        assert reports[0].name == "fig6d"
        captured = capsys.readouterr()
        assert "Fig. 6d" in captured.out

    def test_run_multiple_experiments(self, capsys):
        reports = run(
            ["ablation-epsilon", "ablation-blocking", "--scale", "0.15", "--machines", "4"]
        )
        assert {report.name for report in reports} == {"ablation_epsilon", "ablation_blocking"}

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            run(["fig99", "--scale", "0.1"])
