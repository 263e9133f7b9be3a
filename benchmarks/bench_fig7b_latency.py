"""Engine gate on the Fig. 7b sweep: the adaptive plane's latencies are the
per-tuple reference's, and its batch-size trace shows the paced collapse.

The figure's claims themselves are rows of :mod:`repro.bench.claims`
(``benchmarks/bench_claims.py``).
"""

import functools

import repro.bench.claims as claims
from repro.api import RunConfig


def test_fig7b_adaptive_latency_and_trace(monkeypatch):
    """The default (adaptive) plane reports *identical* latencies to the
    per-tuple plane (bit-identical simulations) and its batch-size trace
    shows the paced collapse: under the figure's paced arrivals the
    controller must process the overwhelming majority of runs per-tuple, not
    queue tuples into deep batches."""
    adaptive = claims.SWEEPS["paced"].run(0.2, 8, 1)
    monkeypatch.setattr(claims, "RunConfig", functools.partial(RunConfig, batching="per_tuple"))
    reference = claims.SWEEPS["paced"].run(0.2, 8, 1)
    assert {key: run.average_latency for key, run in adaptive.items()} == {
        key: run.average_latency for key, run in reference.items()
    }
    for key, result in adaptive.items():
        histogram = result.batch_histogram
        assert histogram, f"{key}: adaptive runs must report their trace"
        runs = sum(histogram.values())
        shallow = sum(count for size, count in histogram.items() if size <= 8)
        # Paced arrivals keep backlogs shallow: the controller must process
        # the overwhelming majority of runs at (near-)per-tuple depth, and
        # per-tuple runs must be the single most common size.
        assert shallow >= 0.8 * runs, (
            f"paced workload should keep runs shallow, got {histogram} for {key}"
        )
        assert histogram.get(1, 0) == max(histogram.values()), (
            f"per-tuple runs should dominate a paced trace, got {histogram} for {key}"
        )
