"""Quickstart: the session API on a skewed TPC-H-like workload.

This reproduces, at laptop scale, the headline comparison of the paper — the
adaptive operator (Dynamic) against the static square-grid operator
(StaticMid), the omniscient static operator (StaticOpt) and the
content-sensitive parallel symmetric hash join (SHJ) on the EQ5 equi-join
under heavy key skew — and then re-runs the winner in *streaming* mode,
pushing the input in chunks through the same session facade.

Everything goes through :mod:`repro.api`: one validated
:class:`~repro.api.RunConfig` carries every knob, and one
:class:`~repro.api.JoinSession` runs any registered operator kind.

Run with::

    python examples/quickstart.py
"""

from repro import generate_dataset, make_query
from repro.api import JoinSession, RunConfig, crash


def main() -> None:
    # 1. Generate a skewed dataset (Z4 = Zipf parameter 1.0) and build EQ5:
    #    (REGION ⋈ NATION ⋈ SUPPLIER) ⋈ LINEITEM on suppkey.
    dataset = generate_dataset(scale=0.5, skew="Z4", seed=7)
    query = make_query("EQ5", dataset)
    print(query.summary())
    print()

    # 2. One config, one session; the operator kind is a per-run choice.
    #    batching="adaptive" runs the batched data plane at reference
    #    semantics: flipping this one line changes wall-clock and simulator
    #    event counts, but not a single reported number (results and virtual
    #    times are bit-identical to the per-tuple plane — see
    #    tests/test_adaptive_conformance.py).
    #
    #    probe_engine picks how joiners evaluate the predicate — also purely
    #    a wall-clock choice, never a results choice:
    #      * "vectorized" (default): batch-aware pure-stdlib kernels.
    #      * "scalar": the per-member reference loop; the differential oracle
    #        the other engines are pinned against. Slowest, zero surprises.
    #      * "columnar": set-at-a-time NumPy kernels (needs the `columnar`
    #        extra: pip install repro[columnar]). No faster than the default
    #        since no engine pays a Python object per join result any more
    #        (ARCHITECTURE.md, "Output path").
    config = RunConfig(machines=16, seed=7, batching="adaptive")
    session = JoinSession(query, config=config)

    header = f"{'operator':<12} {'exec time':>10} {'throughput':>11} {'max ILF':>9} {'storage':>9} {'migrations':>11} {'mapping':>9}"
    print(header)
    print("-" * len(header))
    for kind in ("SHJ", "StaticMid", "Dynamic", "StaticOpt"):
        result = session.run(operator=kind)
        print(
            f"{result.operator:<12} {result.execution_time:>10.1f} {result.throughput:>11.2f} "
            f"{result.max_ilf:>9.1f} {result.total_storage:>9.1f} {result.migrations:>11d} "
            f"{str(result.final_mapping):>9}"
        )

    print()
    print(
        "Expected shape (cf. Table 2 / Fig. 6): Dynamic tracks StaticOpt, both "
        "clearly beat StaticMid, and SHJ collapses under skew."
    )

    # 3. Streaming mode: the same workload pushed in chunks.  The session
    #    feeds each chunk into a live, resumable simulation and reports
    #    mid-run metrics after every push — the ingestion style of an
    #    unbounded/live-stream deployment, which the materialised path
    #    cannot express.
    print()
    print("streaming the same workload in 4 chunks (Dynamic):")
    streaming = JoinSession(query, config=config)
    left, right = query.left_records, query.right_records
    chunks = 4
    for i in range(chunks):
        snap = streaming.push(
            left=left[i * len(left) // chunks:(i + 1) * len(left) // chunks],
            right=right[i * len(right) // chunks:(i + 1) * len(right) // chunks],
        )
        print(
            f"  chunk {i + 1}: {snap.tuples_pushed:>5d} tuples in, "
            f"{snap.output_count:>6d} outputs, {snap.migrations} migration(s), "
            f"mapping {snap.mapping}, virtual time {snap.virtual_time:.1f}"
        )
    final = streaming.finish()
    print(
        f"  final  : {final.output_count} outputs, mapping {final.final_mapping}, "
        f"execution time {final.execution_time:.1f}"
    )

    # 4. Fault tolerance: crash a joiner mid-run and let epoch-aligned
    #    checkpointing recover it.  The recovered run produces exactly the
    #    same join output as the fault-free one above — recovery is replayed
    #    through the real migration handlers, so correctness never depends
    #    on the crash schedule (see tests/test_fault_recovery.py).
    print()
    print("crashing joiner 3 at t=40 (Dynamic, checkpointing every 50 entries):")
    faulty = JoinSession(
        query,
        config=config.with_overrides(
            fault_schedule=[crash(3, 40.0)], checkpoint_interval=50
        ),
    )
    result = faulty.run(operator="Dynamic")
    print(
        f"  {result.faults_injected} crash(es), recovery time "
        f"{result.recovery_time:.1f}, {result.tuples_replayed} tuples replayed, "
        f"{result.checkpoint_overhead / 1024:.0f} KiB checkpointed, "
        f"{result.output_count} outputs"
    )


if __name__ == "__main__":
    main()
