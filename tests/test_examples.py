"""The runnable examples under ``examples/`` run to completion.

Each example is executed in-process as ``__main__`` and its printed report
checked for the lines that show its flow did what it describes: the
quickstart's streaming run and crash recovery, the order book's two
operators agreeing on the matches, the fluctuating run's ratio samples.
"""

from __future__ import annotations

import re
import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_every_example_is_covered():
    assert sorted(path.name for path in EXAMPLES.glob("*.py")) == [
        "fluctuating_streams.py",
        "order_book_band_join.py",
        "quickstart.py",
    ]


def test_quickstart(capsys):
    out = _run_example("quickstart.py", capsys)
    assert "chunk 4:" in out
    streamed = int(re.search(r"final  : (\d+) outputs", out).group(1))
    crash = re.search(r"(\d+) crash\(es\), .* (\d+) outputs", out)
    assert crash.group(1) == "1"
    # Neither streaming nor a crash changes the join.
    assert int(crash.group(2)) == streamed > 0


def test_order_book_band_join(capsys):
    out = _run_example("order_book_band_join.py", capsys)
    matches = {
        row.split()[0]: int(row.split()[3])
        for row in out.splitlines()
        if row.startswith(("Dynamic ", "StaticMid "))
    }
    assert set(matches) == {"Dynamic", "StaticMid"}
    assert matches["Dynamic"] == matches["StaticMid"] > 0


def test_fluctuating_streams(capsys):
    out = _run_example("fluctuating_streams.py", capsys)
    assert "migrations performed" in out
    assert len(re.findall(r"\|R\|/\|S\| = \d+\.\d+", out)) >= 5

