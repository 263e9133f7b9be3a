"""Run-wide metrics collection.

The collector gathers everything the paper's evaluation reports:

* output cardinality and (optionally) the full output for correctness checks,
* per-output tuple latency (output time minus arrival of the newer input),
* a time series of the maximum per-machine stored size (the ILF of Fig. 6a),
* migration events with their start/end times and traffic,
* the ILF competitive-ratio series of Fig. 8c.

Output path: joiners hand results over as one :class:`MatchGroup` per probing
tuple, and the collector turns each group into :class:`LatencyLedger`
entries — float64 array slots, never a Python object per join result.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter

from repro.engine.stream import StreamTuple

_arrival_of = attrgetter("arrival_time")


class MatchGroup:
    """Every join result one probing tuple produced, as one object.

    ``partners`` are the stored tuples ``item`` matched; ``item_is_left``
    says which side of each emitted pair ``item`` is.  The partner list is
    the one the probe built and is *owned* by the group — never a live index
    bucket, which later inserts would mutate.

    ``bound`` is an upper bound on every partner's ``arrival_time``: the
    probed store's ``newest_arrival`` (captured as a float) when all
    partners came from one probe of one store, ``inf`` — no bound — for
    groups gathered across epoch partitions.

    ``len()`` / truthiness serve the per-result ``match_cost`` charge;
    iteration yields the oriented ``(left, right)`` pairs lazily, so only
    consumers that want pairs (``collect_outputs=True``, tests) pay for them.
    """

    __slots__ = ("item", "item_is_left", "partners", "bound")

    def __init__(
        self,
        item: StreamTuple,
        item_is_left: bool,
        partners: list[StreamTuple],
        bound: float = math.inf,
    ) -> None:
        self.item = item
        self.item_is_left = item_is_left
        self.partners = partners
        self.bound = bound

    def __len__(self) -> int:
        return len(self.partners)

    def __iter__(self):
        item = self.item
        if self.item_is_left:
            return ((item, partner) for partner in self.partners)
        return ((partner, item) for partner in self.partners)


class LatencyLedger:
    """Run-length store of every output latency of a run.

    A result's latency is ``max(0, output_time - newer_arrival)``.  All
    results of one group share the output time, and whenever no partner
    arrived after the probing tuple they share the newer arrival too: the
    whole group is then *one* ``(latency, count)`` run in the parallel
    ``run_values`` / ``run_counts`` arrays.  Only groups with a partner newer
    than the probing tuple spill one float64 per result into ``values``.
    Nothing stored here is a Python object, so the ledger is invisible to
    the garbage collector however many results a run produces.

    Iteration yields the same multiset of float64 values as one sample per
    result would (runs expanded lazily at C level), which is what keeps
    :meth:`mean` bit-identical to per-result storage.
    """

    __slots__ = ("values", "run_values", "run_counts")

    def __init__(self) -> None:
        self.values = array("d")
        self.run_values = array("d")
        self.run_counts = array("q")

    def __len__(self) -> int:
        return len(self.values) + sum(self.run_counts)

    def __iter__(self):
        return chain(
            self.values,
            chain.from_iterable(map(repeat, self.run_values, self.run_counts)),
        )

    def mean(self) -> float:
        """Mean latency (0 when empty), exactly rounded.

        One *single* :func:`math.fsum` pass over every value: fsum returns
        the correctly rounded sum of its input multiset, so the mean depends
        neither on the order groups were recorded in (joiners on different
        machines interleave differently across data planes)
        nor on how values are split between runs and singles.  A sum of
        per-group partial sums would be neither.
        """
        count = len(self)
        if not count:
            return 0.0
        return math.fsum(self) / count


@dataclass
class MigrationEvent:
    """One adaptivity event (mapping change) and its observed cost."""

    epoch: int
    decided_at: float
    old_mapping: tuple[int, int]
    new_mapping: tuple[int, int]
    completed_at: float | None = None
    migrated_volume: float = 0.0


@dataclass
class MetricsCollector:
    """Accumulates observations during a simulation run."""

    collect_outputs: bool = False
    output_count: int = 0
    outputs: list[tuple[int, int]] = field(default_factory=list)
    #: Every output latency of the run (see :class:`LatencyLedger`).
    latency_ledger: LatencyLedger = field(default_factory=LatencyLedger)
    ilf_series: list[tuple[float, float]] = field(default_factory=list)
    competitive_series: list[tuple[int, float]] = field(default_factory=list)
    ratio_series: list[tuple[int, float]] = field(default_factory=list)
    migrations: list[MigrationEvent] = field(default_factory=list)
    processed_inputs: int = 0
    finish_time: float = 0.0
    #: Virtual time at which the k-th input tuple was routed, at index k - 1.
    progress_times: array = field(default_factory=lambda: array("d"))
    probe_work: float = 0.0
    #: Drained-run size → count (adaptive data plane only; empty otherwise).
    drain_histogram: dict[int, int] = field(default_factory=dict)
    #: Per-link merged delivery-run length → count (wire-level delivery
    #: merging only; empty otherwise).  Complements drain_histogram: this one
    #: localises coalescing wins/regressions to the *wire* (sender-side run
    #: lengths per FIFO link) versus the *receiver* (drained-run sizes).
    #: Written inline by ``Simulator._settle`` when a run is exhausted (the
    #: settle loop is the hottest merged-wire path, so there is no
    #: ``record_*`` wrapper — keep any future writers consistent with it).
    wire_histogram: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------ recording

    def record_output(
        self, left: StreamTuple, right: StreamTuple, output_time: float
    ) -> None:
        """Record one join result: a one-member :class:`MatchGroup`."""
        self.record_outputs(MatchGroup(left, True, [right]), output_time)

    def record_outputs(self, matches: MatchGroup, output_time: float) -> None:
        """Record the join results of one probing tuple, emitted at one instant.

        Each result's latency is ``max(0, output_time - max(left.arrival_time,
        right.arrival_time))``.  When no partner arrived after the probing
        tuple that is the same float64 for the whole group, stored as one
        ledger run; otherwise one float64 per result is appended.  The
        group's ``bound`` settles the question without touching the partners
        whenever it is no newer than the probing tuple (every group of a
        saturated run); only the rest pay one C-level ``max`` over the
        partner arrivals.
        """
        partners = matches.partners
        self.output_count += len(partners)
        if self.collect_outputs:
            self.outputs.extend(
                [(left.tuple_id, right.tuple_id) for left, right in matches]
            )
        ledger = self.latency_ledger
        arrival = matches.item.arrival_time
        if matches.bound <= arrival or max(map(_arrival_of, partners)) <= arrival:
            ledger.run_values.append(max(0.0, output_time - arrival))
            ledger.run_counts.append(len(partners))
        else:
            ledger.values.extend(
                [
                    max(0.0, output_time - (newer if newer > arrival else arrival))
                    for newer in map(_arrival_of, partners)
                ]
            )

    def record_probe_work(self, amount: float) -> None:
        """Accumulate joiner probe work units (index candidates inspected,
        floored at one unit per probe — see ``LocalJoiner.probe``)."""
        self.probe_work += amount

    def record_drained_run(self, size: int) -> None:
        """Count one drain-eligible run of ``size`` coalesced messages."""
        histogram = self.drain_histogram
        histogram[size] = histogram.get(size, 0) + 1

    def record_input_processed(self, now: float) -> None:
        """Count an input tuple having been routed by a reshuffler."""
        self.processed_inputs += 1
        self.progress_times.append(now)

    def record_ilf(self, now: float, max_machine_ilf: float) -> None:
        """Append one point to the ILF-versus-time series (Fig. 6a)."""
        self.ilf_series.append((now, max_machine_ilf))

    def record_competitive_ratio(self, processed: int, ratio: float) -> None:
        """Append one point to the ILF/ILF* ratio series (Fig. 8c)."""
        self.ratio_series.append((processed, ratio))

    def record_cardinality_ratio(self, processed: int, ratio: float) -> None:
        """Append one |R|/|S| sample (also plotted in Fig. 8c)."""
        self.competitive_series.append((processed, ratio))

    def start_migration(
        self,
        epoch: int,
        now: float,
        old_mapping: tuple[int, int],
        new_mapping: tuple[int, int],
    ) -> MigrationEvent:
        """Open a migration event record."""
        event = MigrationEvent(
            epoch=epoch, decided_at=now, old_mapping=old_mapping, new_mapping=new_mapping
        )
        self.migrations.append(event)
        return event

    def complete_migration(self, epoch: int, now: float) -> None:
        """Mark the migration that opened epoch ``epoch`` as completed."""
        for event in reversed(self.migrations):
            if event.epoch == epoch and event.completed_at is None:
                event.completed_at = now
                return

    # ------------------------------------------------------- derived series

    def progress_fraction_series(
        self, total_inputs: int, max_points: int = 200
    ) -> list[tuple[float, float]]:
        """The progress series as (fraction of input processed, virtual time).

        The raw ``progress_times`` series has one point per input tuple;
        it is downsampled to at most ~``max_points`` evenly spaced points so
        results stay small on large runs.
        """
        total = max(total_inputs, 1)
        times = self.progress_times
        step = max(1, len(times) // max_points)
        return [
            ((index + 1) / total, times[index]) for index in range(0, len(times), step)
        ]

    def ilf_fraction_series(self, total_inputs: int) -> list[tuple[float, float]]:
        """The ILF series re-indexed by fraction of input processed.

        The controller samples every ``sample_every`` of *its own* tuples and
        stores the global processed count as the x coordinate, so this only
        rescales x to a fraction (clamped at 1.0 for late samples).
        """
        total = max(total_inputs, 1)
        return [(min(1.0, count / total), value) for count, value in self.ilf_series]

    # ------------------------------------------------------------ summaries

    def average_latency(self) -> float:
        """Mean output-tuple latency (0 when no output was produced)."""
        return self.latency_ledger.mean()

    def throughput(self) -> float:
        """Input tuples processed per unit of virtual time."""
        if self.finish_time <= 0:
            return 0.0
        return self.processed_inputs / self.finish_time

    def output_throughput(self) -> float:
        """Output tuples produced per unit of virtual time."""
        if self.finish_time <= 0:
            return 0.0
        return self.output_count / self.finish_time

    def max_competitive_ratio(self) -> float:
        """Largest observed ILF/ILF* ratio (1.0 when never recorded)."""
        if not self.ratio_series:
            return 1.0
        return max(ratio for _, ratio in self.ratio_series)

    def migration_count(self) -> int:
        """Number of mapping changes triggered during the run."""
        return len(self.migrations)
