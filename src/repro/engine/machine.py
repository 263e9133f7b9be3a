"""Machines and CPU/storage cost models.

Each machine in the simulated shared-nothing cluster hosts one reshuffler task
and one joiner task (Fig. 1c of the paper).  A machine accumulates *busy
time*: every message handled by one of its tasks charges processing cost to
the machine, and the machine can only start handling the next message after it
finished the previous one.  This reproduces the paper's observation that the
input-load factor (amount of data a machine receives and stores) directly
drives per-machine processing time and, through the slowest machine, operator
completion time.

Storage is tracked in abstract units (tuple sizes).  When a machine's stored
state exceeds ``CostModel.memory_capacity``, subsequent storage-touching work
is multiplied by ``CostModel.spill_penalty``, modelling the BerkeleyDB
out-of-core behaviour of §5: overflowing machines become an order of magnitude
slower and dominate execution time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Abstract per-operation costs, in virtual time units.

    The defaults are calibrated so that receiving/storing an input tuple
    dominates probe cost per *comparison* but not per *match*, matching the
    paper's discussion in §3.3 of input-side overhead (demarshalling, index
    maintenance, probing) being the mapping-dependent cost.

    Attributes:
        receive_cost: cost to demarshal and ingest one incoming tuple.
        store_cost: cost to append a tuple to local storage and its index.
        probe_cost: cost per index probe of the opposite relation.
        match_cost: cost per produced output tuple.
        migration_cost: cost to ingest one migrated tuple.  The paper
            processes migrated tuples at twice the rate of new tuples, hence
            the default of half the receive+store cost.
        reshuffle_cost: cost for a reshuffler to route one tuple.
        memory_capacity: per-machine storage budget (in tuple size units)
            before the spill penalty applies; ``None`` means unbounded.
        spill_penalty: multiplier applied to storage-touching costs once a
            machine exceeds its memory capacity.
        network_latency: one-way message latency.
        per_tuple_network_cost: network transfer cost per unit of tuple size.
    """

    receive_cost: float = 1.0
    store_cost: float = 0.5
    probe_cost: float = 0.02
    match_cost: float = 0.05
    migration_cost: float = 0.75
    reshuffle_cost: float = 0.05
    memory_capacity: float | None = None
    spill_penalty: float = 10.0
    network_latency: float = 0.25
    per_tuple_network_cost: float = 0.01


@dataclass
class Machine:
    """One physical machine of the simulated cluster.

    Attributes:
        machine_id: index of the machine within the cluster.
        cost_model: the cluster-wide cost model.
        busy_until: virtual time until which the machine's CPU is occupied.
        busy_time: total accumulated processing time.
        stored_size: total size of tuples currently stored on the machine.
        peak_stored_size: maximum of ``stored_size`` over the run — this is
            the measured per-machine input-load factor.
        received_size: total size of tuples ever received (inputs and
            migrations), which corresponds to the paper's ILF definition of
            "input size = semi-perimeter of the region".
        spilled: whether the machine ever exceeded its memory capacity.
    """

    machine_id: int
    cost_model: CostModel
    busy_until: float = 0.0
    busy_time: float = 0.0
    stored_size: float = 0.0
    peak_stored_size: float = 0.0
    received_size: float = 0.0
    spilled: bool = field(default=False)
    #: Member-completion boundaries of the most recent *drained* handler run
    #: (adaptive data plane), or None, with the run's start time.  See
    #: :meth:`priority_start`.
    drain_boundaries: list[float] | None = field(default=None, repr=False)
    drain_window_start: float = field(default=0.0, repr=False)

    @property
    def is_over_memory(self) -> bool:
        """True once the machine's stored state exceeds its memory budget."""
        capacity = self.cost_model.memory_capacity
        return capacity is not None and self.stored_size > capacity

    def storage_factor(self) -> float:
        """Cost multiplier for storage-touching work (1.0 in memory, else spill penalty)."""
        if self.is_over_memory:
            self.spilled = True
            return self.cost_model.spill_penalty
        return 1.0

    def add_stored(self, size: float) -> None:
        """Account for ``size`` units of newly stored tuple data.

        NOTE: inlined in ``JoinerTask.handle_drained``'s member loop and in
        ``JoinerTask._handle_one`` (adaptive data plane hot paths) — keep
        the three in sync.
        """
        self.stored_size += size
        self.received_size += size
        self.peak_stored_size = max(self.peak_stored_size, self.stored_size)

    def remove_stored(self, size: float) -> None:
        """Account for ``size`` units of discarded tuple data."""
        self.stored_size = max(0.0, self.stored_size - size)

    def occupy(self, start: float, duration: float) -> float:
        """Charge ``duration`` of work starting no earlier than ``start``.

        Returns the completion time.  Work is serialised per machine: if the
        machine is still busy at ``start`` the work begins when it frees up.
        """
        begin = max(start, self.busy_until)
        end = begin + duration
        self.busy_until = end
        self.busy_time += duration
        return end

    def record_drain_window(self, start: float, boundaries: list[float]) -> None:
        """Remember the member boundaries of the drained run that just executed.

        ``boundaries`` are the per-member completion times (ascending); they
        replace any previous record — by the time a later run executes, every
        event dated inside the earlier window has already left the queue.
        ``start`` bounds the window from below: a later event dated *before*
        the run must not be mapped into it.  That happens only across
        streaming pushes: a push dates its arrivals ``pushed × inter_arrival``,
        which falls before the clock whenever the previous drain ran past it.
        """
        self.drain_window_start = start
        self.drain_boundaries = boundaries

    def clear_drain_window(self) -> None:
        """Invalidate the drain window (a plain single-message handler ran)."""
        if self.drain_boundaries is not None:
            self.drain_boundaries = None

    def priority_start(self, time: float) -> float:
        """Start time of a control-plane handler delivered at ``time``.

        On the per-tuple plane this is ``max(time, busy_until)``.  When the
        last work on this machine was a *drained* run, ``busy_until`` already
        covers the whole run even though the per-tuple plane would only have
        processed the members whose ticks precede ``time`` — so a delivery
        dated inside the drained window starts at the first member boundary
        after it, exactly where the per-tuple plane would have slotted it.
        """
        boundaries = self.drain_boundaries
        if boundaries and self.drain_window_start <= time <= boundaries[-1]:
            return boundaries[bisect_left(boundaries, time)]
        return max(time, self.busy_until)
