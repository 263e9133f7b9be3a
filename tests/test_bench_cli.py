"""Tests for ``python -m repro.bench``, the command-line view of the scoreboard."""

import pytest

from repro.bench.claims import BASE, FIGURES
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
        assert (args.scale, args.machines, args.seed) == BASE

    def test_options_are_the_base_point_only(self):
        # A run config is built in code; the CLI reads no config file.
        options = {action.dest for action in build_parser()._actions}
        assert options == {"help", "figures", "scale", "machines", "seed"}

    def test_figure_prints_its_rows(self, capsys):
        rows = run(["ablation-blocking", "--scale", "0.15", "--machines", "4"])
        assert [row["figure"] for row in rows] == ["ablation-blocking"]
        out = capsys.readouterr().out
        assert "non-blocking / blocking time" in out and "4 machines, seed 1" in out

    def test_flags_set_machines_and_seed(self, capsys):
        run(["thm3.2", "--machines", "4", "--seed", "2"])
        out = capsys.readouterr().out
        assert "4 machines, seed 2" in out
        assert "(bounds are calibrated at scale {:g}, {} machines, seed {})".format(*BASE) in out
        run(["thm3.2"])
        out = capsys.readouterr().out
        assert f"{BASE[1]} machines, seed {BASE[2]}" in out and "calibrated" not in out

    @pytest.mark.parametrize(
        "flag, value", [("--machines", "not-a-count"), ("--seed", "x"), ("--scale", "big")]
    )
    def test_bad_flag_value_errors(self, flag, value):
        with pytest.raises(SystemExit):
            run(["fig6d", flag, value])

    def test_unknown_figure_errors(self):
        with pytest.raises(SystemExit):
            run(["fig99", "--scale", "0.1"])

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yyy"}], title="T")
        assert text.splitlines()[0] == "T" and "22" in text and "yyy" in text
        assert format_table([], title="T").startswith("T")
