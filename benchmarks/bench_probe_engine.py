"""Probe micro-benchmarks: local join probe throughput by flavour.

Measures :meth:`LocalJoiner.probe_batch` throughput (tuples probed+inserted
per second) for the equi, band (int keys) and float band (the same keys
shifted by one half) flavours.  Every flavour's matches and
charged work are checked against :func:`repro.testing.reference_probe`
summed over the stream, and the float band must keep pace with the int band
in the same run: both take the edge-corrected slice as the match set.  CI
runs the regression assertions as its probe checks.

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
from repro.joins.predicates import BandPredicate, EquiPredicate  # noqa: E402
from repro.testing import reference_probe  # noqa: E402

FLAVOURS = ("equi", "band", "band_float")


def _predicate(flavour):
    if flavour == "equi":
        return EquiPredicate("k", "k")
    if flavour == "band":
        return BandPredicate("v", "v", width=40)
    # band_float: the same keys shifted by one half, the same matches and work.
    return BandPredicate("f", "f", width=40)


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


def _measure(flavour, stored_items, probe_items, batch):
    """One timed pass: ``(wall seconds, (work, matches))``."""
    joiner = make_local_joiner(_predicate(flavour), "R", "S")
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
    return time.perf_counter() - start, (work, matches)


def _reference_totals(flavour, stored_items, probe_items):
    """``(work, matches)`` of :func:`reference_probe` summed over the stream.

    Every probe is an R tuple, so earlier probes are never partners: each
    one's reference is taken over the stored S tuples alone.
    """
    predicate = _predicate(flavour)
    work = 0.0
    matches = 0
    for item in probe_items:
        found, charged = reference_probe(predicate, stored_items, item, left_relation="R")
        work += charged
        matches += len(found)
    return work, matches


def probe_microbench(
    stored=3000, probes=1000, keys=200, batch=64, repetitions=5, seed=7
):
    """Run the probe micro-benchmark; returns one row per flavour.

    Each row reports probe throughput (best of ``repetitions`` passes, the
    flavours interleaved so drift on a shared box biases none of them) and
    the total work units and matches, which must equal the brute-force
    reference summed over the stream.
    """
    stored_items, probe_items = _workload(stored, probes, keys, seed)
    best = {}
    totals = {}
    for _ in range(repetitions):
        for flavour in FLAVOURS:
            wall, totals[flavour] = _measure(flavour, stored_items, probe_items, batch)
            best[flavour] = min(wall, best.get(flavour, wall))
    rows = []
    for flavour in FLAVOURS:
        expected = _reference_totals(flavour, stored_items, probe_items)
        assert totals[flavour] == expected, (
            f"{flavour}: work/matches {totals[flavour]} differ from the reference {expected}"
        )
        work, matches = totals[flavour]
        rows.append(
            {
                "flavour": flavour,
                "tuples_per_sec": round(probes / best[flavour]),
                "probe_work": work,
                "matches": matches,
            }
        )
    return rows


def test_probe_microbench():
    """Every flavour matches the reference; a float band runs at the int
    band's pace on the same keys."""
    rows = probe_microbench()
    by_flavour = {row["flavour"]: row for row in rows}
    for row in rows:
        print(row)
    band, band_float = by_flavour["band"], by_flavour["band_float"]
    assert (band_float["matches"], band_float["probe_work"]) == (
        band["matches"], band["probe_work"]
    )
    # One same-run ratio, immune to runner speed: the float band's slice is
    # cut by the same edge search as the int band's and validates no pair.
    assert band_float["tuples_per_sec"] >= 0.7 * band["tuples_per_sec"], (band_float, band)


if __name__ == "__main__":
    for bench_row in probe_microbench():
        print(bench_row)
