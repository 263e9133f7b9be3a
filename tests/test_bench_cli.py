"""Tests for ``python -m repro.bench``, the command-line view of the scoreboard."""

import pytest

from repro.api import RunConfig
from repro.bench.claims import FIGURES
from repro.bench.cli import build_parser, format_table, run

#: The experiment names the CLI has always accepted.
LEGACY_NAMES = (
    "table2", "fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig7b", "fig7cd",
    "fig8ab", "fig8cd", "ablation-epsilon", "ablation-migration",
    "ablation-blocking", "recovery", "lossy-wire",
)


class TestCli:
    def test_every_legacy_name_is_a_figure(self):
        # run() rejects any name outside FIGURES (test_unknown_figure_errors).
        assert set(LEGACY_NAMES) <= set(FIGURES)
        rows = run(["thm3.1", "thm3.2"])
        assert {row["figure"] for row in rows} == {"thm3.1", "thm3.2"}

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.scale == 0.4
        # machines/seed resolve at run time: the base point unless a
        # --config file or an explicit flag supplies them.
        assert args.machines is None and args.seed is None and args.config is None

    def test_figure_prints_its_rows(self, capsys):
        rows = run(["ablation-blocking", "--scale", "0.15", "--machines", "4"])
        assert [row["figure"] for row in rows] == ["ablation-blocking"]
        out = capsys.readouterr().out
        assert "non-blocking / blocking time" in out and "4 machines, seed 1" in out

    def test_config_file_feeds_machines_and_seed(self, tmp_path, capsys):
        path = tmp_path / "run-config.json"
        path.write_text(RunConfig(machines=4, seed=2).to_json())
        run(["thm3.2", "--config", str(path)])
        out = capsys.readouterr().out
        assert "4 machines, seed 2" in out
        assert "ignoring" not in out  # machines/seed only: nothing to report
        run(["thm3.2", "--config", str(path), "--machines", "8"])
        assert "8 machines, seed 2" in capsys.readouterr().out

    def test_config_file_reports_ignored_fields(self, tmp_path, capsys):
        path = tmp_path / "run-config.json"
        config = RunConfig(machines=4, seed=2, batching="per_tuple", epsilon=0.5)
        path.write_text(config.to_json())
        run(["thm3.2", "--config", str(path)])
        out = capsys.readouterr().out
        assert "ignoring" in out and "batching" in out and "epsilon" in out

    def test_bad_config_file_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"machines": "not-a-count"}')
        with pytest.raises(SystemExit):
            run(["fig6d", "--config", str(path)])

    def test_unknown_figure_errors(self):
        with pytest.raises(SystemExit):
            run(["fig99", "--scale", "0.1"])

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yyy"}], title="T")
        assert text.splitlines()[0] == "T" and "22" in text and "yyy" in text
        assert format_table([], title="T").startswith("T")
