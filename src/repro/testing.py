"""Reference evaluations and differential-testing helpers.

Three kinds of oracle back the test suites:

* **brute force** — :func:`reference_join` evaluates ``predicate.matches``
  over every pair of two record lists (:func:`reference_outputs` maps it
  onto a run's tuple ids), and :func:`reference_probe` states what one
  local probe must return: its matches and its work, in closed form.  They share no code with the indexes they check.
* **the per-tuple data plane** — :func:`assert_run_equivalent` compares
  :class:`~repro.core.results.RunResult`\\ s, e.g. an adaptive run against
  its ``batching="per_tuple"`` twin.
* **the unmerged wire** — :class:`UnmergedWireSimulator` delivers every
  send through the global heap as its own event, the timing reference the
  production wire's channel runs and wake-ups must reproduce.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable, Sequence

from repro.engine.simulator import Simulator
from repro.engine.stream import StreamTuple
from repro.joins.predicates import JoinPredicate, Record


class UnmergedWireSimulator(Simulator):
    """A :class:`~repro.engine.simulator.Simulator` whose wire never merges.

    Each send that would open or extend a channel run goes onto the global
    heap as its own ``(time, rank, task, message)`` delivery instead, and
    the channel never opens, so every inbox-bound delivery is one heap event
    that appends to the inbox when it pops.  Tests install it with
    ``monkeypatch.setattr(repro.core.operator, "Simulator",
    UnmergedWireSimulator)`` for operator runs, or construct it directly
    for toy topologies.
    """

    def _open_run(self, channel, time, rank, message) -> None:
        heapq.heappush(self._queue, (time, rank, channel.task, message))


def reference_join(
    left_records: Sequence[Record],
    right_records: Sequence[Record],
    predicate: JoinPredicate,
) -> list[tuple[int, int]]:
    """Nested-loop evaluation: the ``(left index, right index)`` pairs whose
    records satisfy ``predicate.matches``.

    Used to verify that every operator produces exactly the matching pairs
    (result completeness, Definition 4.4) regardless of partitioning,
    arrival order or migrations.
    """
    return [
        (left_index, right_index)
        for left_index, left in enumerate(left_records)
        for right_index, right in enumerate(right_records)
        if predicate.matches(left, right)
    ]


def reference_outputs(query, order: Sequence[StreamTuple]) -> Counter:
    """:func:`reference_join` of the tuples in ``order`` as the multiset of
    ``(left_tuple_id, right_tuple_id)`` pairs a run's ``outputs`` must hold."""
    left = [item for item in order if item.relation == query.left_relation]
    right = [item for item in order if item.relation == query.right_relation]
    return Counter(
        (left[i].tuple_id, right[j].tuple_id)
        for i, j in reference_join(
            [item.record for item in left],
            [item.record for item in right],
            query.predicate,
        )
    )


def reference_probe(
    predicate: JoinPredicate,
    stored: Iterable[StreamTuple],
    item: StreamTuple,
    *,
    left_relation: str,
) -> tuple[list[StreamTuple], float]:
    """What probing ``item`` against ``stored`` must return: ``(matches, work)``.

    ``matches`` are the stored tuples of the opposite relation satisfying
    ``predicate.matches`` with ``item`` (in ``stored`` order); ``work``
    counts the candidates an index inspects — the matches of an equi or band
    join (its hash bucket or band), every opposite tuple of a theta scan —
    floored at 1.  ``left_relation`` orients each pair.
    """
    item_is_left = item.relation == left_relation
    scan = predicate.kind == "theta"
    matches = []
    work = 0
    for other in stored:
        if other.relation == item.relation:
            continue
        left, right = (item, other) if item_is_left else (other, item)
        matched = predicate.matches(left.record, right.record)
        if matched:
            matches.append(other)
        if matched or scan:
            work += 1
    return matches, float(max(work, 1))

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
#: Includes the reliable-wire counters: two runs under the same network
#: fault schedule must lose/retransmit/reorder identically (they are
#: deterministic), while a faulty run compared against its fault-free twin
#: skips them along with the volumes the retransmits inflate.
NETWORK_FIELDS = frozenset(
    {
        "routing_volume",
        "migration_volume",
        "total_network_volume",
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
    simulations (adaptive vs per-tuple plane, a checkpointed run vs its
    plain twin); drop it when only the results must agree (e.g. a chunked
    streaming run against its materialised twin, whose drains between
    pushes legitimately shift virtual-time micro-timing).

    ``network=True`` pins the traffic volumes per category.

    ``events=True`` additionally pins the *event plumbing*: global heap
    events and the per-link wire-merge histogram.  Same-plane comparisons
    only (e.g. two runs of one plane under different layers) — comparing across
    planes (adaptive vs per-tuple) or wires (against
    :class:`UnmergedWireSimulator`) legitimately changes both.

    ``ignore=`` names individual fields to skip, for comparisons that are
    exact *except* for a known, bounded delta — e.g. a faulty run against its
    fault-free twin naming the reliable-wire counters while keeping
    everything else strict.  Names must come from
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
        "wire_counters",
        result_a.wire_counters,
        result_b.wire_counters,
        "wire_counters",
    )
