"""Differential-testing helpers for operator runs.

The repository leans on differential testing throughout: the scalar probe
engine is the oracle for the vectorized one, and the per-tuple data plane is
the oracle for the adaptive one.  :func:`assert_run_equivalent` is the shared
assertion those suites (and third-party components registered through
:mod:`repro.api`) compare :class:`~repro.core.results.RunResult`\\ s with.
"""

from __future__ import annotations

#: Timing fields the ``timing=False`` coarse switch skips as a group.
TIMING_FIELDS = frozenset(
    {
        "execution_time",
        "average_latency",
        "machine_busy",
        "probe_work",
        "max_ilf",
        "migration_timing",
        "spilled",
    }
)

#: Event-plumbing fields gated behind ``events=True``.
EVENT_FIELDS = frozenset({"heap_events", "wire_histogram"})

#: Traffic fields the ``network=False`` coarse switch skips as a group.
#: Includes the reliable-wire degradation counters: two runs under the same
#: network fault schedule must lose/retransmit/reorder identically (they are
#: deterministic), while a faulty run compared against its fault-free twin
#: skips them along with the volumes the retransmits inflate.
NETWORK_FIELDS = frozenset(
    {
        "routing_volume",
        "migration_volume",
        "total_network_volume",
        "messages_dropped",
        "messages_duplicated",
        "messages_retransmitted",
        "messages_reordered",
        "retransmit_histogram",
        "wire_counters",
    }
)

#: Every field name ``ignore=`` accepts.  The semantic baseline — join
#: outputs, output count, the migration sequence and the final mapping — is
#: deliberately absent: two runs that disagree on those are not "equivalent
#: modulo stats", they are different joins, and no comparison mode may wave
#: that away.
IGNORABLE_FIELDS = TIMING_FIELDS | EVENT_FIELDS | NETWORK_FIELDS


def assert_run_equivalent(
    result_a,
    result_b,
    *,
    timing=True,
    network=True,
    events=False,
    ignore=(),
    label="",
):
    """Assert two :class:`~repro.core.results.RunResult`\\ s are equivalent.

    The baseline comparison (always on, never skippable) pins the
    *semantics*: join output (as sorted tuple-id pairs, when collected),
    output count, the migration sequence (epochs and mappings) and the final
    mapping.

    ``timing=True`` additionally pins exact virtual-time and work accounting:
    execution time, average latency, per-machine busy chains, charged probe
    work, peak ILF, the spill flag and the migration decision/completion
    times.  Use it when the two runs are meant to be *bit-identical*
    simulations (probe-engine pairs at one batch size, adaptive vs per-tuple
    plane); drop it when only the results must agree (fixed-plane runs
    across batch sizes, where virtual-time compression legitimately shifts
    the epoch edge).

    ``network=True`` pins the traffic volumes per category.

    ``events=True`` additionally pins the *event plumbing*: global heap
    events and the per-link wire-merge histogram.  Same-plane comparisons
    only (e.g. probe-engine pairs on one data plane) — comparing across
    planes (merged vs unmerged wire, batched vs per-tuple) legitimately
    changes both.

    ``ignore=`` names individual fields to skip, for comparisons that are
    exact *except* for a known, bounded delta — e.g. fixed-plane runs across
    batch sizes naming the timing and per-category volume fields while
    keeping everything else strict.  Names must come from
    :data:`IGNORABLE_FIELDS`; unknown names
    raise ``ValueError`` so a typo cannot silently weaken a suite, and the
    semantic baseline is not ignorable at all.  The coarse ``timing`` /
    ``network`` / ``events`` switches compose with ``ignore`` (each switch is
    shorthand for ignoring its whole field group).
    """
    ignored = set(ignore)
    unknown = ignored - IGNORABLE_FIELDS
    if unknown:
        raise ValueError(
            f"unknown ignore field(s): {', '.join(sorted(unknown))}; "
            f"ignorable fields: {', '.join(sorted(IGNORABLE_FIELDS))} "
            f"(the semantic baseline is never skippable)"
        )
    if not timing:
        ignored |= TIMING_FIELDS
    if not events:
        ignored |= EVENT_FIELDS
    if not network:
        ignored |= NETWORK_FIELDS

    prefix = f"{label}: " if label else ""
    if result_a.outputs is not None and result_b.outputs is not None:
        assert sorted(result_a.outputs) == sorted(result_b.outputs), (
            f"{prefix}join outputs differ"
        )
    assert result_a.output_count == result_b.output_count, f"{prefix}output_count"
    assert result_a.migrations == result_b.migrations, f"{prefix}migration count"
    mapping_seq_a = [(e[0], e[1], e[2]) for e in result_a.migration_events]
    mapping_seq_b = [(e[0], e[1], e[2]) for e in result_b.migration_events]
    assert mapping_seq_a == mapping_seq_b, f"{prefix}migration sequence"
    assert result_a.final_mapping == result_b.final_mapping, f"{prefix}final mapping"

    def check(name, value_a, value_b, what):
        if name not in ignored:
            assert value_a == value_b, f"{prefix}{what}"

    check(
        "execution_time",
        result_a.execution_time,
        result_b.execution_time,
        f"execution_time {result_a.execution_time} != {result_b.execution_time}",
    )
    check(
        "average_latency",
        result_a.average_latency,
        result_b.average_latency,
        "average_latency",
    )
    check(
        "machine_busy",
        result_a.machine_busy,
        result_b.machine_busy,
        "per-machine busy times",
    )
    check("probe_work", result_a.probe_work, result_b.probe_work, "probe_work")
    check("max_ilf", result_a.max_ilf, result_b.max_ilf, "max_ilf")
    check(
        "migration_timing",
        result_a.migration_events,
        result_b.migration_events,
        "migration timing",
    )
    check("spilled", result_a.spilled, result_b.spilled, "spill flag")
    check("heap_events", result_a.heap_events, result_b.heap_events, "heap_events")
    check(
        "wire_histogram",
        result_a.wire_histogram,
        result_b.wire_histogram,
        "wire_histogram",
    )
    check(
        "routing_volume",
        result_a.routing_volume,
        result_b.routing_volume,
        "routing volume",
    )
    check(
        "migration_volume",
        result_a.migration_volume,
        result_b.migration_volume,
        "migration volume",
    )
    check(
        "total_network_volume",
        result_a.total_network_volume,
        result_b.total_network_volume,
        "total network volume",
    )
    check(
        "messages_dropped",
        result_a.messages_dropped,
        result_b.messages_dropped,
        "messages_dropped",
    )
    check(
        "messages_duplicated",
        result_a.messages_duplicated,
        result_b.messages_duplicated,
        "messages_duplicated",
    )
    check(
        "messages_retransmitted",
        result_a.messages_retransmitted,
        result_b.messages_retransmitted,
        "messages_retransmitted",
    )
    check(
        "messages_reordered",
        result_a.messages_reordered,
        result_b.messages_reordered,
        "messages_reordered",
    )
    check(
        "retransmit_histogram",
        result_a.retransmit_histogram,
        result_b.retransmit_histogram,
        "retransmit_histogram",
    )
    check(
        "wire_counters",
        result_a.wire_counters,
        result_b.wire_counters,
        "wire_counters",
    )
