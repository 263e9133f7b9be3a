"""Probe-engine micro-benchmarks: local join probe throughput by flavour.

Measures :meth:`LocalJoiner.probe_batch` throughput (tuples probed+inserted
per second) for the equi, band (int keys: the window is the match set),
float band (every window validated pair by pair) and composite-equi
flavours, comparing the ``vectorized`` engine against the ``scalar``
per-member reference path (the pre-vectorization probe semantics).  The
numbers feed the CI perf breadcrumb so probe-work trends are visible across
PRs.

Run standalone for the table:

    PYTHONPATH=src python benchmarks/bench_probe_engine.py

or via pytest for the regression assertions (no fixtures required).
"""

import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - direct-invocation convenience
    sys.path.insert(0, str(SRC))

from repro.engine.stream import StreamTuple  # noqa: E402
from repro.joins.local import make_local_joiner  # noqa: E402
from repro.joins.predicates import (  # noqa: E402
    BandPredicate,
    CompositePredicate,
    EquiPredicate,
)

FLAVOURS = ("equi", "band", "band_float", "composite")


def _predicate(flavour):
    if flavour == "equi":
        return EquiPredicate("k", "k")
    if flavour == "band":
        # Integer keys and width: the ordered-index window [key-width,
        # key+width] exactly decides the condition, so the vectorized engine
        # skips per-candidate re-validation.
        return BandPredicate("v", "v", width=40)
    if flavour == "band_float":
        # The same keys shifted by one half: same matches, every window
        # validated pair by pair.
        return BandPredicate("f", "f", width=40)
    return CompositePredicate(
        EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
    )


def _workload(stored, probes, keys, seed):
    rng = random.Random(seed)
    stored_items = [
        StreamTuple(relation="S", record={"k": rng.randrange(keys), "v": i, "f": i + 0.5})
        for i in range(stored)
    ]
    probe_items = [
        StreamTuple(relation="R", record={"k": rng.randrange(keys), "v": i, "f": i + 0.5})
        for i in range(probes)
    ]
    return stored_items, probe_items


def _measure(engine, flavour, stored_items, probe_items, batch, repetitions):
    best = None
    totals = None
    for _ in range(repetitions):
        joiner = make_local_joiner(_predicate(flavour), "R", "S", engine=engine)
        for item in stored_items:
            joiner.insert(item)
        work = 0.0
        matches = 0
        start = time.perf_counter()
        for position in range(0, len(probe_items), batch):
            for member_matches, member_work in joiner.probe_batch(
                probe_items[position:position + batch]
            ):
                work += member_work
                matches += len(member_matches)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
        totals = (work, matches)
    return best, totals


def probe_microbench(
    stored=3000, probes=3000, keys=200, batch=64, repetitions=3, seed=7
):
    """Run the probe micro-benchmark; returns one row per flavour.

    Each row reports scalar/vectorized probe throughput, their ratio, and the
    (engine-invariant) total work units and matches — the work/match totals
    double as a correctness check between engines.
    """
    rows = []
    for flavour in FLAVOURS:
        stored_items, probe_items = _workload(stored, probes, keys, seed)
        scalar_wall, scalar_totals = _measure(
            "scalar", flavour, stored_items, probe_items, batch, repetitions
        )
        vector_wall, vector_totals = _measure(
            "vectorized", flavour, stored_items, probe_items, batch, repetitions
        )
        assert scalar_totals == vector_totals, (
            f"{flavour}: engines disagree on work/matches: "
            f"{scalar_totals} vs {vector_totals}"
        )
        work, matches = vector_totals
        row = {
            "flavour": flavour,
            "scalar_tuples_per_sec": round(probes / scalar_wall),
            "vectorized_tuples_per_sec": round(probes / vector_wall),
            "speedup": round(scalar_wall / vector_wall, 2),
            "probe_work": work,
            "matches": matches,
        }
        rows.append(row)
    return rows


def test_probe_engine_microbench():
    """Engines agree on work/matches; the vectorized exact-key path is
    >=1.5x faster than per-member probes on the equi flavour."""
    rows = probe_microbench()
    by_flavour = {row["flavour"]: row for row in rows}
    for row in rows:
        print(row)
    # The exact-key fast path (skip per-candidate equality re-validation,
    # zero-copy buckets, pre-extracted keys) is the headline win.
    assert by_flavour["equi"]["speedup"] >= 1.5, by_flavour["equi"]
    # Composite residuals still run, but only the residuals.
    assert by_flavour["composite"]["speedup"] >= 1.0, by_flavour["composite"]
    # An integer band (integer keys, integer width) skips per-candidate
    # re-validation like the equi fast path — the window IS the match set,
    # so the win scales with candidate counts.
    assert by_flavour["band"]["speedup"] >= 1.5, by_flavour["band"]
    # Float keys validate every candidate; the batch path must at least not
    # regress.
    assert by_flavour["band_float"]["speedup"] >= 0.7, by_flavour["band_float"]
    # Exact window or not, the matches and charged work must be identical.
    assert by_flavour["band_float"]["matches"] == by_flavour["band"]["matches"]
    assert by_flavour["band_float"]["probe_work"] == by_flavour["band"]["probe_work"]


if __name__ == "__main__":
    for bench_row in probe_microbench():
        print(bench_row)
