"""The paper scoreboard at smoke scale: every claim row measures, every sweep
runs once per point, and a sweep measures the same alone as in the table."""

import contextlib
import dataclasses
import io
import itertools
import math

import pytest

from repro.bench.claims import CLAIMS, FIGURES, SWEEPS, Claim, Scoreboard
from repro.bench.cli import run
from repro.engine import stream

SMOKE = (0.15, 4, 2)


@pytest.fixture(scope="module")
def smoke():
    """``python -m repro.bench all`` at smoke scale, each sweep's runs counted."""
    calls = []

    def counted(sweep, name):
        def run_sweep(*point):
            calls.append((name, *point))
            return sweep.run(*point)
        return dataclasses.replace(sweep, run=run_sweep)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        for name, sweep in SWEEPS.items():
            patch.setitem(SWEEPS, name, counted(sweep, name))
        rows = run(["all", "--scale", "0.15", "--machines", "4", "--seed", "2"])
    return rows, calls, out.getvalue()


@pytest.mark.parametrize("index", range(len(CLAIMS)), ids=lambda i: CLAIMS[i].claim)
def test_every_claim_measures_at_smoke_scale(smoke, index):
    rows, _, _ = smoke
    row = rows[index]
    assert (row["figure"], row["claim"]) == (CLAIMS[index].figure, CLAIMS[index].claim)
    assert math.isfinite(float(row["measured"]))
    assert row["verdict"] in ("reproduced", "not reproduced", "FAIL")


def test_all_prints_the_scoreboard(smoke):
    _, _, out = smoke
    header = out.splitlines()[1]
    for column in ("figure", "claim", "paper", "measured", "bound", "verdict"):
        assert column in header
    assert "scale 0.15, 4 machines, seed 2" in out
    assert all(claim.claim in out for claim in CLAIMS)


def test_each_sweep_runs_once_per_point(smoke):
    _, calls, _ = smoke
    board = Scoreboard(*SMOKE)
    assert sorted(calls) == sorted({board.key(claim) for claim in CLAIMS})


def test_a_sweep_measures_the_same_alone_as_after_the_table(smoke, monkeypatch):
    """Tuple ids come from a process-wide counter, and the recovery sweep's
    checkpoint bytes grow with their pickled width: no row may see it."""
    rows, _, _ = smoke
    monkeypatch.setattr(stream, "_tuple_ids", itertools.count(2**40))
    for sweep in ("recovery", "recovery-paced", "fluctuations", "mapping"):
        board = Scoreboard(*SMOKE)
        for index, claim in enumerate(CLAIMS):
            if claim.sweep == sweep:
                assert f"{board.measure(claim):.4g}" == rows[index]["measured"], claim.claim
    assert next(stream._tuple_ids) == 2**40  # the sweeps left the counter alone


def test_7c_and_7d_do_not_share_a_sweep():
    board = Scoreboard()
    c7, d7 = (next(c for c in CLAIMS if c.claim.startswith(p)) for p in ("7c", "7d"))
    assert board.key(c7) == ("mapping", 0.4, 16, 1)
    assert board.key(d7) == ("mapping-reseeded", 0.4, 16, 2)
    assert SWEEPS[c7.sweep].run is SWEEPS[d7.sweep].run


def test_base_point_reproduces_the_calibrated_settings():
    board = Scoreboard()
    points = {claim.sweep: board.key(claim)[1:] for claim in CLAIMS}
    assert points["paced"] == (0.3, 16, 1)
    assert points["scaling"] == (0.2, 8, 1)
    assert points["fluctuations-reseeded"] == (0.4, 16, 3)
    assert points["recovery-paced"] == (1.0, 4, 1)
    assert points["lossy"] == (0.3, 8, 1)


def test_verdicts():
    claim = Claim("thm", "ratio", "geometry", lambda runs: 0.0, bound=2.0, paper=1.25)
    assert [claim.verdict(v) for v in (1.0, 1.5, 2.5)] == [
        "reproduced", "not reproduced", "FAIL",
    ]
    floor = dataclasses.replace(claim, at_least=True, bound=1.0, paper=None)
    assert [floor.verdict(v) for v in (0.5, 1.0)] == ["FAIL", "reproduced"]
    assert FIGURES == tuple(sorted({c.figure for c in CLAIMS}))
