"""Fig. 7a — average operator throughput for every query and operator."""

import time

from conftest import run_report

from repro.bench.experiments import fig7a_throughput
from repro.bench.harness import ExperimentConfig, build_query, run_single
from repro.testing import assert_run_equivalent


def test_fig7a_throughput(benchmark):
    report = run_report(benchmark, fig7a_throughput, scale=0.4, machines=16, seed=1)
    by_key = {(row["query"], row["operator"]): row["throughput"] for row in report.rows}
    for query in ("EQ5", "EQ7"):
        # Dynamic and StaticOpt are close; both clearly beat StaticMid and SHJ
        # (which suffers under the Z4 skew used for the equi-joins).
        assert by_key[(query, "Dynamic")] > by_key[(query, "StaticMid")]
        assert by_key[(query, "Dynamic")] > by_key[(query, "SHJ")]
        assert by_key[(query, "Dynamic")] >= 0.4 * by_key[(query, "StaticOpt")]
    assert by_key[("BNCI", "Dynamic")] > by_key[("BNCI", "StaticMid")]


def _fig7a_wall_clock(batching="adaptive", repetitions=3):
    """Best-of-N wall-clock of the four fig7a operators on EQ5/Z4."""
    best = None
    for _ in range(repetitions):
        config = ExperimentConfig(
            machines=16, scale=0.4, skew="Z4", seed=1, batching=batching
        )
        query = build_query("EQ5", config)
        start = time.perf_counter()
        outs = {}
        for kind in ("SHJ", "StaticMid", "Dynamic", "StaticOpt"):
            outs[kind] = run_single(kind, query, config).output_count
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, outs


def test_fig7a_adaptive_dataplane_wall_clock():
    """The default (adaptive) plane runs the fig7a workload >=1.5x faster
    wall-clock than the pinned per-tuple reference — at *reference
    semantics*: the results are bit-identical simulations (virtual times,
    migrations, latencies; pinned cell by cell in
    tests/test_adaptive_conformance.py), not merely equal output counts.

    The planes are measured interleaved (best-of-N each, after one untimed
    warm-up pass) so slow drift on shared runners biases neither of them.
    """
    _fig7a_wall_clock("per_tuple", repetitions=1)  # warm caches/imports
    _fig7a_wall_clock("adaptive", repetitions=1)
    per_tuple_wall = adaptive_wall = None
    for _ in range(5):
        wall, per_tuple_outs = _fig7a_wall_clock("per_tuple", repetitions=1)
        per_tuple_wall = wall if per_tuple_wall is None else min(per_tuple_wall, wall)
        wall, adaptive_outs = _fig7a_wall_clock("adaptive", repetitions=1)
        adaptive_wall = wall if adaptive_wall is None else min(adaptive_wall, wall)
    assert per_tuple_outs == adaptive_outs
    assert per_tuple_wall >= 1.5 * adaptive_wall, (
        f"expected >=1.5x wall-clock win at reference semantics, got per-tuple "
        f"{per_tuple_wall:.3f}s vs adaptive {adaptive_wall:.3f}s"
    )


def test_fig7a_merged_wire_heap_events():
    """The default (adaptive) plane, which runs on the merged wire, cuts heap
    events >=10x against the per-tuple reference plane (unmerged wire) while
    staying a bit-identical simulation: 923 vs 11,432 on this
    cell, where the merged run's heap holds nothing but the ticks that run
    its 923 handler invocations (the saturated input never leaves a machine
    waiting for a wake-up).

    Heap events are deterministic counters, so this gate is noise-free.
    """
    results = {}
    for label, batching in (("merged", "adaptive"), ("unmerged", "per_tuple")):
        config = ExperimentConfig(
            machines=16, scale=0.4, skew="Z4", seed=1, batching=batching
        )
        # Rebuilding the query per run re-draws identical datasets (same
        # seed); outputs are compared by count + timing here — id-level
        # output equality runs on shared arrival orders in
        # tests/test_adaptive_conformance.py.
        query = build_query("EQ5", config)
        results[label] = run_single("Dynamic", query, config)
    merged, unmerged = results["merged"], results["unmerged"]
    assert_run_equivalent(unmerged, merged, label="fig7a merged-vs-per-tuple")
    assert merged.heap_events * 10 <= unmerged.heap_events, (
        f"expected >=10x fewer heap events, got merged {merged.heap_events} "
        f"vs unmerged {unmerged.heap_events}"
    )
    assert merged.heap_events == merged.events_processed
    # The cut comes from the wire, not only from receiver draining: merged
    # runs carry many deliveries per heap event, and the unmerged wire
    # reports no runs at all.
    assert unmerged.wire_histogram is None
    assert merged.wire_histogram and max(merged.wire_histogram) > 8, (
        "merged run must report multi-member per-link runs"
    )


def test_fig7a_adaptive_reproduces_reference_figure():
    """fig7a on the default (adaptive) plane is the *same figure* as the
    per-tuple reference — every reported number matches exactly, which is
    what lets the paper-figure drivers run batched."""
    reference = fig7a_throughput(scale=0.2, machines=8, seed=1, batching="per_tuple")
    adaptive = fig7a_throughput(scale=0.2, machines=8, seed=1)
    assert adaptive.rows == reference.rows
