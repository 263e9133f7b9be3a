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


def test_fig7a_batched_dataplane_efficiency():
    """The operator-default batched data plane runs the fig7a workload with
    >=5x fewer simulator events than the per-tuple plane, at identical output
    counts per operator."""
    totals = {}
    outputs = {}
    for batch_size in (1, None):  # None = operator default (batched)
        config = ExperimentConfig(
            machines=16, scale=0.4, skew="Z4", seed=1, batch_size=batch_size
        )
        query = build_query("EQ5", config)
        events = 0
        outs = {}
        for kind in ("SHJ", "StaticMid", "Dynamic", "StaticOpt"):
            result = run_single(kind, query, config)
            events += result.events_processed
            outs[kind] = result.output_count
        totals[batch_size] = events
        outputs[batch_size] = outs
    assert outputs[1] == outputs[None]
    assert totals[1] >= 5 * totals[None], (
        f"expected >=5x fewer events, got {totals[1]} vs {totals[None]}"
    )


def _fig7a_wall_clock(batch_size, probe_engine, repetitions=3, batching="fixed"):
    """Best-of-N wall-clock of the four fig7a operators on EQ5/Z4."""
    best = None
    for _ in range(repetitions):
        config = ExperimentConfig(
            machines=16, scale=0.4, skew="Z4", seed=1, batch_size=batch_size,
            batching=batching, operator_kwargs={"probe_engine": probe_engine},
        )
        query = build_query("EQ5", config)
        start = time.perf_counter()
        outs = {}
        for kind in ("SHJ", "StaticMid", "Dynamic", "StaticOpt"):
            outs[kind] = run_single(kind, query, config).output_count
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, outs


def test_fig7a_vectorized_probe_wall_clock():
    """The batched (batch_size=64) fig7a workload with the vectorized probe
    engine runs >=1.5x faster wall-clock than the PR 1 baseline plane.

    The per-tuple plane with per-member scalar probes is the in-tree stand-in
    for the PR 1 reference; the batched scalar run isolates the probe-engine
    contribution on top of transport batching.  (On the development machine
    the batched+vectorized run also measured ~1.7x the recorded PR 1 *batched*
    wall-clock; the CI breadcrumb tracks the absolute numbers across PRs.)

    Note this end-to-end gate would pass on transport batching alone; the
    probe-engine-specific >=1.5x gate is bench_probe_engine.py's equi
    micro-bench, which CI runs in the same step — simulator bookkeeping
    dominates the end-to-end wall, so the engine ratio is only robustly
    assertable where probe work dominates.
    """
    per_tuple_wall, per_tuple_outs = _fig7a_wall_clock(1, "scalar")
    batched_scalar_wall, batched_scalar_outs = _fig7a_wall_clock(64, "scalar")
    batched_vector_wall, batched_vector_outs = _fig7a_wall_clock(64, "vectorized")
    # Identical results on every plane/engine combination.
    assert per_tuple_outs == batched_scalar_outs == batched_vector_outs
    assert per_tuple_wall >= 1.5 * batched_vector_wall, (
        f"expected >=1.5x wall-clock win, got per-tuple {per_tuple_wall:.3f}s "
        f"vs batched+vectorized {batched_vector_wall:.3f}s"
    )
    # The vectorized engine must not substantially regress the batched plane
    # (generous margin: this runs as a CI gate on noisy shared runners; the
    # breadcrumb tracks the actual ratio).
    assert batched_vector_wall <= 1.3 * batched_scalar_wall, (
        f"vectorized probes slower than per-member probes: "
        f"{batched_vector_wall:.3f}s vs {batched_scalar_wall:.3f}s"
    )


def test_fig7a_adaptive_dataplane_wall_clock():
    """The adaptive plane runs the fig7a workload >=1.5x faster wall-clock
    than the pinned per-tuple reference — at *reference semantics*: unlike
    the fixed batched plane, the results are not merely equal output counts
    but bit-identical simulations (virtual times, migrations, latencies;
    pinned cell by cell in tests/test_adaptive_conformance.py).

    With wire-level delivery merging (this plane's default) the adaptive
    plane must additionally reach *parity with the fixed plane* — the
    sender-side batcher that trades virtual-time exactness for speed — within
    a noise band: the fixed plane's remaining edge is bounded, so "fastest
    plane" and "reference semantics" are no longer a trade-off.  (On the
    development machine the suite measures per-tuple 0.24s / adaptive 0.15s /
    fixed 0.14s — adaptive ~1.6x the reference and within ~10% of fixed, vs
    the ~1.5x/~1.7x split recorded by the previous release: the merged
    adaptive plane is ~1.7x the wall of its unmerged predecessor.  The CI
    breadcrumb tracks the absolute walls across releases.)

    The planes are measured interleaved (best-of-N each, after one untimed
    warm-up pass) so slow drift on shared runners biases none of them.
    """
    _fig7a_wall_clock(1, "vectorized", repetitions=1)  # warm caches/imports
    _fig7a_wall_clock(None, "vectorized", repetitions=1, batching="adaptive")
    _fig7a_wall_clock(64, "vectorized", repetitions=1)
    per_tuple_wall = adaptive_wall = fixed_wall = None
    for _ in range(5):
        wall, per_tuple_outs = _fig7a_wall_clock(1, "vectorized", repetitions=1)
        per_tuple_wall = wall if per_tuple_wall is None else min(per_tuple_wall, wall)
        wall, adaptive_outs = _fig7a_wall_clock(
            None, "vectorized", repetitions=1, batching="adaptive"
        )
        adaptive_wall = wall if adaptive_wall is None else min(adaptive_wall, wall)
        wall, fixed_outs = _fig7a_wall_clock(64, "vectorized", repetitions=1)
        fixed_wall = wall if fixed_wall is None else min(fixed_wall, wall)
    assert per_tuple_outs == adaptive_outs == fixed_outs
    assert per_tuple_wall >= 1.5 * adaptive_wall, (
        f"expected >=1.5x wall-clock win at reference semantics, got per-tuple "
        f"{per_tuple_wall:.3f}s vs adaptive {adaptive_wall:.3f}s"
    )
    assert adaptive_wall <= 1.25 * fixed_wall, (
        f"adaptive plane lost parity with the fixed plane: adaptive "
        f"{adaptive_wall:.3f}s vs fixed {fixed_wall:.3f}s"
    )


def test_fig7a_merged_wire_heap_events():
    """The adaptive plane, which runs on the merged wire, cuts heap events
    >=2x against the per-tuple reference plane (``batch_size=1``, unmerged
    wire) while staying a bit-identical simulation.

    Heap events are deterministic counters, so this gate is noise-free.
    """
    results = {}
    for label, plane in (
        ("merged", {"batch_size": None, "batching": "adaptive"}),
        ("unmerged", {"batch_size": 1}),
    ):
        config = ExperimentConfig(machines=16, scale=0.4, skew="Z4", seed=1, **plane)
        # Rebuilding the query per run re-draws identical datasets (same
        # seed); outputs are compared by count + timing here — id-level
        # output equality runs on shared arrival orders in
        # tests/test_adaptive_conformance.py.
        query = build_query("EQ5", config)
        results[label] = run_single("Dynamic", query, config)
    merged, unmerged = results["merged"], results["unmerged"]
    assert_run_equivalent(unmerged, merged, label="fig7a merged-vs-per-tuple")
    assert merged.heap_events * 2 <= unmerged.heap_events, (
        f"expected >=2x fewer heap events, got merged {merged.heap_events} "
        f"vs unmerged {unmerged.heap_events}"
    )
    # The cut comes from the wire, not only from receiver draining: merged
    # runs carry many deliveries per heap event, and the unmerged wire
    # reports no runs at all.
    assert unmerged.wire_histogram is None
    assert merged.wire_histogram and max(merged.wire_histogram) > 8, (
        "merged run must report multi-member per-link runs"
    )


def test_fig7a_adaptive_reproduces_reference_figure():
    """fig7a on the adaptive plane is the *same figure* as the per-tuple
    reference — every reported number matches exactly, which is what finally
    lets the paper-figure drivers run batched."""
    reference = fig7a_throughput(scale=0.2, machines=8, seed=1)
    adaptive = fig7a_throughput(scale=0.2, machines=8, seed=1, batching="adaptive")
    assert adaptive.rows == reference.rows
