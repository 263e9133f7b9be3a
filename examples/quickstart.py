"""Quickstart: the session API on a skewed TPC-H-like workload.

This reproduces, at laptop scale, the headline comparison of the paper — the
adaptive operator (Dynamic) against the static square-grid operator
(StaticMid), the omniscient static operator (StaticOpt) and the
content-sensitive parallel symmetric hash join (SHJ) on the EQ5 equi-join
under heavy key skew — and then re-runs the winner in *streaming* mode,
pushing the input in chunks through the same session facade.

Everything goes through :mod:`repro.api`: one validated
:class:`~repro.api.RunConfig` carries every knob, and a
:class:`~repro.api.JoinSession` runs one query with one operator kind under
one config.

Run with::

    python examples/quickstart.py
"""

import dataclasses
import random

from repro import generate_dataset, make_query
from repro.api import JoinSession, RunConfig, crash_after_events
from repro.engine.stream import interleave_streams, make_tuples


def main() -> None:
    # 1. Generate a skewed dataset (Z4 = Zipf parameter 1.0) and build EQ5:
    #    (REGION ⋈ NATION ⋈ SUPPLIER) ⋈ LINEITEM on suppkey.
    dataset = generate_dataset(scale=0.5, skew="Z4", seed=7)
    query = make_query("EQ5", dataset)
    print(query.summary())
    print()

    # 2. One config, one session per operator kind.  The default data
    #    plane drains inbox backlogs in batches at reference semantics:
    #    batching="per_tuple" would change wall-clock and simulator event
    #    counts, but not a single reported number (results and virtual
    #    times are bit-identical — see tests/test_adaptive_conformance.py).
    #
    #    Joiners take the index's word for the match set: a hash bucket is
    #    the equi match set, and a band's slice of the ordered index is cut
    #    by the predicate's own |l - r| <= w at its edges, for int and float
    #    keys alike — only a theta join checks its candidates per pair.
    config = RunConfig(machines=16, seed=7)

    header = f"{'operator':<12} {'exec time':>10} {'throughput':>11} {'max ILF':>9} {'storage':>9} {'migrations':>11} {'mapping':>9}"
    print(header)
    print("-" * len(header))
    for kind in ("SHJ", "StaticMid", "Dynamic", "StaticOpt"):
        result = JoinSession(query, operator=kind, config=config).run()
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
    #    cannot express.  A push takes stream tuples in arrival order:
    #    make_tuples wraps each relation's records (with its routing salts),
    #    interleave_streams merges the two streams.
    print()
    print("streaming the same workload in 4 chunks (Dynamic):")
    streaming = JoinSession(query, config=config)
    rng = random.Random(7)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    order = interleave_streams(left, right, rng)
    chunks = 4
    for i in range(chunks):
        snap = streaming.push(order[i * len(order) // chunks:(i + 1) * len(order) // chunks])
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
    #    on the crash schedule (see tests/test_fault_recovery.py).  A crash
    #    is anchored on the simulator's event count.
    print()
    print("crashing joiner 3 after 600 events (Dynamic, checkpointing every 50 entries):")
    faulty = JoinSession(
        query,
        config=dataclasses.replace(
            config, fault_schedule=[crash_after_events(3, 600)], checkpoint_interval=50
        ),
    )
    result = faulty.run()
    print(
        f"  {result.faults_injected} crash(es), recovery time "
        f"{result.recovery_time:.1f}, {result.tuples_replayed} tuples replayed, "
        f"{result.checkpoint_overhead / 1024:.0f} KiB checkpointed, "
        f"{result.output_count} outputs"
    )


if __name__ == "__main__":
    main()
