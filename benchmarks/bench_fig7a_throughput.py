"""Engine gates on the Fig. 7a cell: the adaptive plane reproduces the
per-tuple reference figure, and the merged wire cuts heap events >= 10x.

The figure's claims themselves are rows of :mod:`repro.bench.claims`
(``benchmarks/bench_claims.py``).
"""

import functools

import repro.bench.claims as claims
import repro.core.operator as operator_module
from repro.api import JoinSession, RunConfig
from repro.data.queries import make_query
from repro.data.tpch import generate_dataset
from repro.testing import UnmergedWireSimulator, assert_run_equivalent


def test_fig7a_merged_wire_heap_events(monkeypatch):
    """The default (adaptive) plane cuts heap events >=10x against the
    per-tuple reference on the unmerged wire
    (:class:`repro.testing.UnmergedWireSimulator`) while staying a
    bit-identical simulation: 923 vs 11,432 on this cell, where the merged
    run's heap holds nothing but the ticks that run its 923 handler
    invocations (the saturated input never leaves a machine waiting for a
    wake-up).

    Heap events are deterministic counters, so this gate is noise-free.
    """
    results = {}
    for label, batching in (("merged", "adaptive"), ("unmerged", "per_tuple")):
        if label == "unmerged":
            monkeypatch.setattr(operator_module, "Simulator", UnmergedWireSimulator)
        # Rebuilding the query per run re-draws identical datasets (same
        # seed); outputs are compared by count + timing here — id-level
        # output equality runs on shared arrival orders in
        # tests/test_adaptive_conformance.py.
        query = make_query("EQ5", generate_dataset(scale=0.4, skew="Z4", seed=1))
        config = RunConfig(machines=16, seed=1, batching=batching)
        results[label] = JoinSession(query, config=config).run()
    merged, unmerged = results["merged"], results["unmerged"]
    assert_run_equivalent(unmerged, merged, label="fig7a merged-vs-per-tuple")
    assert merged.heap_events * 10 <= unmerged.heap_events, (
        f"expected >=10x fewer heap events, got merged {merged.heap_events} "
        f"vs unmerged {unmerged.heap_events}"
    )
    assert unmerged.heap_events == 11_432
    assert merged.heap_events == merged.events_processed
    # The cut comes from the wire, not only from receiver draining: merged
    # runs carry many deliveries per heap event.
    assert merged.wire_histogram and max(merged.wire_histogram) > 8, (
        "merged run must report multi-member per-link runs"
    )


def test_fig7a_adaptive_reproduces_reference_figure(monkeypatch):
    """The Figs. 6/7a sweep on the default (adaptive) plane is the *same
    figure* as on the per-tuple reference: every run is equivalent and every
    claim reading its scalar results measures the same value, which is what
    lets the scoreboard run batched."""
    adaptive = claims.SWEEPS["operators"].run(0.2, 8, 1)
    monkeypatch.setattr(claims, "RunConfig", functools.partial(RunConfig, batching="per_tuple"))
    reference = claims.SWEEPS["operators"].run(0.2, 8, 1)
    assert adaptive.keys() == reference.keys()
    for key, result in adaptive.items():
        assert result.batch_histogram is not None
        assert reference[key].batch_histogram is None
        assert_run_equivalent(reference[key], result, label=f"fig7a {key}")
    for claim in claims.CLAIMS:
        if claim.figure in ("fig6a", "fig6b", "fig6c", "fig6d", "fig7a"):
            assert claim.metric(adaptive) == claim.metric(reference), claim.claim
