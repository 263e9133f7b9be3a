"""Probe-engine micro-benchmarks: local join probe throughput by flavour.

Measures :meth:`LocalJoiner.probe_batch` throughput (tuples probed+inserted
per second) for the equi, band and composite-equi flavours, comparing the
``vectorized`` engine against the ``scalar`` per-member reference path (the
pre-vectorization probe semantics), plus — when NumPy is available — the
``columnar`` engine.  The numbers feed the CI perf breadcrumb so probe-work
trends are visible across PRs.

A caveat on reading the columnar rows: this harness measures the *probe call
alone* and discards the matches, which is exactly the slice where the
columnar engine pays its array overhead without collecting its payoff (the
cumsum cost commit).  Its rows are here for trend visibility and cross-engine
agreement; the end-to-end comparison of the engines is the dense-equi run in
``bench_fig7a_throughput.py::test_default_engine_keeps_up_with_columnar_on_dense_equi``.

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

from repro.engine.columns import HAS_NUMPY  # noqa: E402
from repro.engine.stream import StreamTuple  # noqa: E402
from repro.joins.local import make_local_joiner  # noqa: E402
from repro.joins.predicates import (  # noqa: E402
    BandPredicate,
    CompositePredicate,
    EquiPredicate,
)

FLAVOURS = ("equi", "band", "band_exact", "composite")


def _predicate(flavour):
    if flavour == "equi":
        return EquiPredicate("k", "k")
    if flavour == "band":
        return BandPredicate("v", "v", width=40)
    if flavour == "band_exact":
        # The workload's band keys are integers, so the predicate may
        # truthfully advertise range completeness: the ordered-index window
        # [key-width, key+width] exactly decides the condition and the
        # vectorized engine skips per-candidate re-validation.
        return BandPredicate("v", "v", width=40, range_complete=True)
    return CompositePredicate(
        EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
    )


def _workload(stored, probes, keys, seed):
    rng = random.Random(seed)
    stored_items = [
        StreamTuple(relation="S", record={"k": rng.randrange(keys), "v": i})
        for i in range(stored)
    ]
    probe_items = [
        StreamTuple(relation="R", record={"k": rng.randrange(keys), "v": i})
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
        if HAS_NUMPY:
            columnar_wall, columnar_totals = _measure(
                "columnar", flavour, stored_items, probe_items, batch, repetitions
            )
            assert scalar_totals == columnar_totals, (
                f"{flavour}: columnar disagrees with the scalar oracle: "
                f"{scalar_totals} vs {columnar_totals}"
            )
            row["columnar_tuples_per_sec"] = round(probes / columnar_wall)
            row["columnar_speedup"] = round(scalar_wall / columnar_wall, 2)
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
    # Default band probes validate every candidate (float band edges are not
    # exact-key decidable); the batch path must at least not regress.
    assert by_flavour["band"]["speedup"] >= 0.7, by_flavour["band"]
    # A range-complete band predicate (integer keys, integer width) skips
    # per-candidate re-validation like the equi fast path — the window IS the
    # match set, so the win scales with candidate counts.
    assert by_flavour["band_exact"]["speedup"] >= 1.5, by_flavour["band_exact"]
    # Fast path or not, the matches and charged work must be identical.
    assert by_flavour["band_exact"]["matches"] == by_flavour["band"]["matches"]
    assert by_flavour["band_exact"]["probe_work"] == by_flavour["band"]["probe_work"]
    # Columnar rows (when NumPy is present) are correctness-pinned inside
    # probe_microbench (work/match totals vs the scalar oracle); no speedup
    # floor here — probe-call-only timing structurally undersells the engine
    # (see the module docstring); the end-to-end engine comparison lives in
    # bench_fig7a_throughput.py::test_default_engine_keeps_up_with_columnar_on_dense_equi.
    if HAS_NUMPY:
        assert all("columnar_speedup" in row for row in rows)


if __name__ == "__main__":
    for bench_row in probe_microbench():
        print(bench_row)
