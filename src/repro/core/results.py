"""Uniform result record returned by every operator run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mapping import Mapping


@dataclass
class RunResult:
    """Outcome of running one operator on one workload in the simulator.

    Every quantity the paper's evaluation section reports is available here,
    so the benchmark harness only formats, never recomputes.

    Attributes:
        operator: operator name ("Dynamic", "StaticMid", "StaticOpt", "SHJ").
        query: workload name (EQ5, EQ7, BCI, BNCI, FLUCT, ...).
        machines: number of joiners used.
        execution_time: virtual completion time of the run.
        throughput: input tuples routed per unit of virtual time.
        output_count: number of join results produced.
        output_throughput: output tuples per unit of virtual time.
        average_latency: mean output-tuple latency (§5.2 definition).
        max_ilf: largest per-machine *received* size — the measured input-load
            factor (storage + replicated messages per machine).
        final_max_storage: largest per-machine stored size at the end.
        total_storage: total cluster storage at the end (Fig. 6b right axis).
        routing_volume / migration_volume / total_network_volume: network
            traffic split by cause.
        migrations: number of mapping changes performed.
        spilled: whether any machine exceeded its memory budget.
        max_competitive_ratio: largest observed ILF/ILF* ratio (Fig. 8c).
        final_mapping: the (n, m) mapping in force when the run ended.
        events_processed: simulator handler invocations during the run — the
            data-plane overhead receiver draining amortises away.
        batch_histogram: drained-run size → count on the adaptive plane
            (None on the per-tuple plane, so it also says which plane ran) —
            the batch-size trace showing how the controller sized runs under
            the workload's backlog.
        heap_events: events popped from the simulator's global heap —
            machine ticks (superseded wake-ups included), control messages
            and fault-plane events.  The quantity the
            merged wire collapses; contrast with ``events_processed``
            (handler invocations), which receiver draining collapses.
        wire_histogram: merged delivery-run length → count per FIFO link,
            on both planes — localises coalescing changes to the wire (this)
            versus the receiver (``batch_histogram``).
        migration_events: the full migration sequence as
            ``(epoch, old_mapping, new_mapping, decided_at, completed_at)``
            tuples — pinned identical across data planes by the adaptive
            conformance suite.
        machine_busy: per-machine ``(busy_until, busy_time)`` — the per-task
            virtual times; bit-identical across the adaptive/per-tuple planes.
        probe_work: total joiner probe work units charged (index candidates
            inspected, floored at one per probe) — exact between batch and
            per-member handling, pinned by the adaptive conformance suite.
        ilf_series: (fraction of input processed, max per-machine ILF) samples.
        ratio_series: (tuples processed, ILF/ILF*) samples.
        cardinality_series: (tuples processed, |R|/|S|) samples.
        progress_series: (fraction of input processed, virtual time) samples.
        outputs: matched (left_tuple_id, right_tuple_id) pairs when output
            collection was requested (tests only).
        wall_time: real seconds spent inside the simulator's event loop.
        faults_injected: number of machine crashes the fault schedule injected.
        recovery_time: total virtual time spent recovering — per crash, the
            outage window (crash to restart) plus the restore cost of
            re-materialising the checkpoint and replaying the journal.
        tuples_replayed: data/µ tuples replayed through the real handlers
            during restores (the delta-log length recovery paid for).
        checkpoint_overhead: bytes written to the durable checkpoint store
            (snapshots + delta journal) over the run.
        wire_counters: the reliable-wire counters as a plain dict; None
            without network faults (the reliable-delivery sublayer is
            installed only when a network fault schedule is present).
            ``sent``: frame instances put on the wire; ``delivered``: those
            that arrived; ``dropped``: original sends the drop specs lost;
            ``duplicated``: frames the wire delivered twice;
            ``retransmitted``: retransmits sent, one per dropped frame;
            ``reordered``: frames that arrived ahead of a gap and waited in
            the receiver's in-order release buffer; ``deduped``: duplicate
            arrivals discarded; ``applied``: frames released to the task
            layer.  They reconcile as ``sent == delivered + dropped`` and
            ``applied == delivered - deduped``.
    """

    operator: str
    query: str
    machines: int
    execution_time: float
    throughput: float
    output_count: int
    output_throughput: float
    average_latency: float
    max_ilf: float
    final_max_storage: float
    total_storage: float
    routing_volume: float
    migration_volume: float
    total_network_volume: float
    migrations: int
    spilled: bool
    max_competitive_ratio: float
    final_mapping: Mapping
    events_processed: int = 0
    batch_histogram: dict[int, int] | None = None
    heap_events: int = 0
    wire_histogram: dict[int, int] | None = None
    migration_events: list[tuple] = field(default_factory=list)
    machine_busy: list[tuple[float, float]] = field(default_factory=list)
    probe_work: float = 0.0
    ilf_series: list[tuple[float, float]] = field(default_factory=list)
    ratio_series: list[tuple[int, float]] = field(default_factory=list)
    cardinality_series: list[tuple[int, float]] = field(default_factory=list)
    progress_series: list[tuple[float, float]] = field(default_factory=list)
    outputs: list[tuple[int, int]] | None = None
    wall_time: float = 0.0
    faults_injected: int = 0
    recovery_time: float = 0.0
    tuples_replayed: int = 0
    checkpoint_overhead: float = 0.0
    wire_counters: dict[str, int] | None = None

    def summary_row(self) -> dict[str, float | int | str | bool]:
        """Flat dictionary used by the benchmark reports."""
        return {
            "operator": self.operator,
            "query": self.query,
            "machines": self.machines,
            "execution_time": round(self.execution_time, 2),
            "throughput": round(self.throughput, 4),
            "output_count": self.output_count,
            "avg_latency": round(self.average_latency, 3),
            "max_ilf": round(self.max_ilf, 2),
            "total_storage": round(self.total_storage, 2),
            "migration_volume": round(self.migration_volume, 2),
            "migrations": self.migrations,
            "spilled": self.spilled,
            "final_mapping": str(self.final_mapping),
            "events_processed": self.events_processed,
        }
