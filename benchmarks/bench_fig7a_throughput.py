"""Fig. 7a — average operator throughput for every query and operator."""

import random
import time

import pytest
from conftest import run_report

from repro.api import JoinSession, RunConfig
from repro.bench.experiments import fig7a_throughput
from repro.bench.harness import ExperimentConfig, build_query, run_single
from repro.data.queries import JoinQuery
from repro.engine.columns import HAS_NUMPY
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.predicates import EquiPredicate
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


def test_fig7a_delivery_merging_heap_events():
    """Wire-level delivery merging cuts the adaptive plane's heap events
    >=2x (vs the same plane with merging disabled — the previous release's
    wire) while staying a bit-identical simulation.

    Heap events are deterministic counters, so this gate is noise-free.
    """
    results = {}
    for label, merging in (("merged", None), ("unmerged", False)):
        kwargs = {} if merging is None else {"operator_kwargs": {"delivery_merging": merging}}
        config = ExperimentConfig(
            machines=16, scale=0.4, skew="Z4", seed=1, batch_size=None,
            batching="adaptive", **kwargs,
        )
        # Rebuilding the query per run re-draws identical datasets (same
        # seed); outputs are compared by count + timing here — id-level
        # output equality runs on shared arrival orders in
        # tests/test_adaptive_conformance.py.
        query = build_query("EQ5", config)
        results[label] = run_single("Dynamic", query, config)
    merged, unmerged = results["merged"], results["unmerged"]
    assert_run_equivalent(merged, unmerged, label="fig7a merged-vs-unmerged")
    assert merged.heap_events * 2 <= unmerged.heap_events, (
        f"expected >=2x fewer heap events, got merged {merged.heap_events} "
        f"vs unmerged {unmerged.heap_events}"
    )
    # Handler invocations are untouched by wire merging (receiver draining
    # owns that axis) — a drop would mean lost work.
    assert merged.events_processed == unmerged.events_processed
    assert merged.wire_histogram, "merged run must report per-link run lengths"


SEED_DENSE = 5


def _dense_equi_wall(probe_engine, repetitions=3, tuples=3000, keys=12):
    """Best-of-N wall-clock of a match-dense equi join on the adaptive plane.

    The fig7a suite is output-sparse (wall-clock is dominated by routing,
    migration protocol and simulator bookkeeping), so it cannot separate
    probe *engines* — that is why the vectorized gate above measures plane
    vs plane.  This workload is the opposite regime: ``tuples`` x ``tuples``
    records over ``keys`` distinct keys means every probe walks a huge bucket
    and emits hundreds of matches, putting candidate handling and match
    emission — the axes the columnar engine vectorises — in charge of the
    wall.  StaticMid keeps the run migration-free so the measured ratio is
    the engine's, not the protocol's.
    """
    best = None
    result = None
    for _ in range(repetitions):
        # Rebuild records and arrival order per run (identical draws from the
        # fixed seeds) so no engine ever sees tuples another run touched.
        rng = random.Random(11)
        left = [{"k": rng.randrange(keys), "v": i} for i in range(tuples)]
        right = [{"k": rng.randrange(keys), "v": i} for i in range(tuples)]
        query = JoinQuery(
            name="DENSE_EQ",
            left_relation="R",
            right_relation="S",
            left_records=left,
            right_records=right,
            predicate=EquiPredicate("k", "k"),
            description="match-dense equi join (dense buckets, huge output)",
        )
        order_rng = random.Random(SEED_DENSE)
        order = interleave_streams(
            make_tuples("R", left, order_rng, query.left_tuple_size),
            make_tuples("S", right, order_rng, query.right_tuple_size),
            order_rng,
        )
        session = JoinSession(
            query,
            operator="StaticMid",
            config=RunConfig(
                machines=16, seed=SEED_DENSE, batching="adaptive",
                probe_engine=probe_engine,
            ),
        )
        start = time.perf_counter()
        result = session.run(arrival_order=order)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, result


@pytest.mark.skipif(not HAS_NUMPY, reason="the columnar engine requires NumPy")
def test_default_engine_keeps_up_with_columnar_on_dense_equi():
    """On the match-dense equi workload the *default* probe engine is within
    1.25x of the columnar engine's wall, same run, end to end on the adaptive
    plane — both remaining the same bit-identical simulation (the full
    observable pin, event plumbing included, runs per cell in
    tests/test_adaptive_conformance.py; here the deterministic counters
    guard the measurement itself).

    History of this cell: with one retained sample object per join result
    the stdlib engine needed 1.37 s against columnar's 0.34 s and this gate
    read "columnar >= 3x faster".  Since match groups feed the run-length
    latency ledger (no per-result object on any engine) the same cell reads
    default 0.21 s vs columnar 0.30 s: emission was what the columnar engine
    vectorised, and the default engine no longer pays it.  The gate therefore
    guards ROADMAP item 2 — the default plane is the fastest plane — instead
    of a columnar advantage that no longer exists here.
    """
    default_engine = RunConfig().probe_engine
    _dense_equi_wall("columnar", repetitions=1)  # warm caches/imports
    default_wall, default_result = _dense_equi_wall(default_engine)
    columnar_wall, columnar_result = _dense_equi_wall("columnar")
    # Same simulation: deterministic counters must agree exactly.
    assert columnar_result.output_count == default_result.output_count
    assert columnar_result.probe_work == default_result.probe_work
    assert columnar_result.execution_time == default_result.execution_time
    assert columnar_result.output_count > 500_000, (
        "workload lost its match density; the gate would be measuring noise"
    )
    assert default_wall <= 1.25 * columnar_wall, (
        f"the default engine ({default_engine}) fell behind columnar on the "
        f"dense workload: {default_wall:.3f}s vs {columnar_wall:.3f}s"
    )


def test_fig7a_adaptive_reproduces_reference_figure():
    """fig7a on the adaptive plane is the *same figure* as the per-tuple
    reference — every reported number matches exactly, which is what finally
    lets the paper-figure drivers run batched."""
    reference = fig7a_throughput(scale=0.2, machines=8, seed=1)
    adaptive = fig7a_throughput(scale=0.2, machines=8, seed=1, batching="adaptive")
    assert adaptive.rows == reference.rows
