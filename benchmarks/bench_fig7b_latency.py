"""Fig. 7b — average tuple latency for every query and operator."""

from conftest import run_report

from repro.bench.experiments import fig7b_latency


def test_fig7b_latency(benchmark):
    report = run_report(benchmark, fig7b_latency, scale=0.3, machines=16, seed=1)
    by_key = {(row["query"], row["operator"]): row["avg_latency"] for row in report.rows}
    for query in ("EQ5", "EQ7", "BNCI"):
        dynamic = by_key[(query, "Dynamic")]
        static_mid = by_key[(query, "StaticMid")]
        # Adaptivity does not blow up latency: Dynamic stays within the same
        # order of magnitude as the static operators (paper: +5..20 ms).
        assert dynamic <= 3.0 * max(static_mid, 1e-9) + 5.0
    # Every row reports the batch-size trace next to the latency so
    # batching-induced latency artefacts are visible in review.
    assert all(row["batch_trace"] != "-" for row in report.rows)


def test_fig7b_adaptive_latency_and_trace():
    """The default (adaptive) plane reports *identical* latencies to the
    per-tuple plane (bit-identical simulations) and its batch-size trace
    shows the paced collapse: under the figure's paced arrivals the
    controller must process the overwhelming majority of runs per-tuple, not
    queue tuples into deep batches."""
    reference = fig7b_latency(scale=0.2, machines=8, seed=1, batching="per_tuple")
    adaptive = fig7b_latency(scale=0.2, machines=8, seed=1)
    ref_latency = {(r["query"], r["operator"]): r["avg_latency"] for r in reference.rows}
    ada_latency = {(r["query"], r["operator"]): r["avg_latency"] for r in adaptive.rows}
    assert ada_latency == ref_latency
    for row in adaptive.rows:
        trace = row["batch_trace"]
        assert trace != "-", "adaptive rows must report their trace"
        histogram = {
            int(entry.split("*")[0]): int(entry.split("*")[1])
            for entry in trace.split()
        }
        runs = sum(histogram.values())
        shallow = sum(count for size, count in histogram.items() if size <= 8)
        # Paced arrivals keep backlogs shallow: the controller must process
        # the overwhelming majority of runs at (near-)per-tuple depth, and
        # per-tuple runs must be the single most common size.
        assert shallow >= 0.8 * runs, (
            f"paced workload should keep runs shallow, got {trace} "
            f"for {row['query']}/{row['operator']}"
        )
        assert histogram.get(1, 0) == max(histogram.values()), (
            f"per-tuple runs should dominate a paced trace, got {trace}"
        )
