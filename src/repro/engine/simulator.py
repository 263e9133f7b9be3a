"""Deterministic discrete-event simulator.

The simulator owns the cluster (machines + network), the task registry and a
priority queue of pending events.  Two kinds of events exist:

* **deliveries** — a message arrives at a task.  For tasks hosted on a
  machine the message is appended to the machine's FIFO inbox (a machine
  handles one message at a time); off-cluster tasks (sources, collectors)
  handle it immediately.  Small control-plane messages (mapping changes,
  migration acks, resume signals) bypass the data backlog, reflecting the
  dedicated control channel of real deployments; data-plane ordering per link
  is still FIFO, which the epoch protocol relies on.
* **machine ticks** — a machine becomes free and handles the next message in
  its inbox.  The handler's CPU charge extends the machine's busy time and
  any messages it sends are scheduled after the work completes plus network
  latency/transfer time.

This yields the two quantities the paper's evaluation is built on:

* **execution time** — the virtual time at which the last piece of work
  finishes, dominated by the most loaded machine, and
* **tuple latency** — output emission time minus the arrival time of the more
  recent matching input tuple.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time as _time
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterable

from repro.engine.faults import UnreachableLinkError
from repro.engine.machine import CostModel, Machine
from repro.engine.metrics import MetricsCollector
from repro.engine.network import Network, TrafficCategory
from repro.engine.stream import ArrivalSchedule, StreamTuple, TupleBatch
from repro.engine.task import Context, DataEnvelope, Message, MessageKind, Task

#: Control-plane message kinds that are not queued behind the data backlog.
PRIORITY_KINDS = frozenset(
    {MessageKind.MAPPING_CHANGE, MessageKind.MIGRATION_ACK, MessageKind.RESUME}
)

#: Kinds the wire-level delivery-merging layer may coalesce into a
#: :class:`DeliveryRun`: every inbox-bound kind, i.e. everything except the
#: priority control plane (which executes at delivery rather than queueing).
#: Merging is exact — a run's members settle into the receiving inbox in
#: per-tuple ``(time, rank)`` order — so eligibility is purely about *where*
#: a delivery lands, not what it carries.
MERGEABLE_KINDS = frozenset(MessageKind) - PRIORITY_KINDS

# Pending events are plain ``(time, rank, target, message)`` tuples so the
# heap compares at C speed.  A delivery carries the destination Task and its
# Message; a machine tick carries the machine id with ``message=None``.
#
# ``rank`` breaks time ties *plane-invariantly*: equal-time events order as
# source-feed deliveries (in feed order) < task sends (by sender machine,
# destination machine, then the per-link FIFO sequence) < machine ticks (by
# machine id).  Because the rank is a pure function of the message flow —
# never of the wall-clock order in which handlers happened to run — the event
# order, and with it every virtual-time quantity, is identical whether
# handlers execute one message per event or as coalesced drained runs (the
# adaptive data plane's bit-exactness relies on this).
_SEND_RANK_BASE = 1 << 59
_TICK_RANK_BASE = 1 << 62
_LINK_SPAN = 1 << 34
_MACHINE_SPAN = 1 << 12  # > max machines + off-cluster sentinel

# Fault-plane events (crash / restart / link retry) rank above machine ticks:
# at an equal instant every ordinary event of that time completes first, so a
# crash always lands *between* handler events (fail-stop at handler
# boundaries, see repro.engine.faults).  Within the band, restarts order
# before retries — a retry popping at the restart instant must see the
# machine alive — and a per-simulator serial breaks remaining ties so heap
# entries never compare the _FaultEvent payloads themselves.  The unreliable
# wire's frame arrivals and retransmit timers ride the same band (offsets 3
# and 4): they too land between handler events.
_FAULT_RANK_BASE = 1 << 63
_FAULT_ACTION_OFFSETS = {"crash": 0, "restart": 1, "retry": 2, "frame": 3, "retransmit": 4}

#: Heap marker distinguishing a DeliveryRun event from a plain delivery
#: (``message`` slot) — identity-checked once per pop, like the tick's None.
_DELIVERY_RUN = object()


class DeliveryRun:
    """A merged sequence of same-channel inbox deliveries — one heap event.

    One run carries the open traffic of one wire channel: a (sender machine,
    destination task) FIFO link.  It enters the global event heap once, keyed
    by its *first* member's ``(delivery time, rank)``, and stays open — later
    sends on the same channel (from subsequent handler invocations of the
    sending machine) append to the parallel ``times``/``ranks``/``messages``
    arrays, never creating another heap event.  Appends are always dated
    beyond every settle bound the receiver has already passed (a send created
    at virtual time ``T`` delivers no earlier than ``T`` plus the network
    latency, and the link itself is FIFO), so the run's members still settle
    into the receiving inbox in exact per-tuple ``(time, rank)`` order (see
    ``Simulator._settle``).  ``start`` is the cursor of the next unsettled
    member; when the receiver exhausts the run it is ``closed`` and the next
    send on the channel arms a fresh one.
    """

    __slots__ = ("task", "times", "ranks", "messages", "start", "closed")

    def __init__(self, task: Task, times: list, ranks: list, messages: list) -> None:
        self.task = task
        self.times = times
        self.ranks = ranks
        self.messages = messages
        self.start = 0
        self.closed = False


class SettledSegment:
    """A settled multi-member slice of a :class:`DeliveryRun` — one inbox entry.

    The settle pass used to append one ``(task, message)`` tuple per member;
    a segment instead hands the run's message list to the consumer with a
    ``[index, end)`` cursor window — no per-member allocation on the settle
    path.  Inbox entries are therefore either ``(task, message)`` tuples or
    segments (``entry.__class__ is tuple`` distinguishes them); consumers
    (the tick loop and every ``Task.handle_drained`` implementation) take the
    member at ``index``, advance it in place, and drop the segment once
    ``index`` reaches ``end``.  Per-tuple inbox order is preserved because
    the settle pass cuts segments exactly at the ``(time, rank)`` boundaries
    where per-member appends would have interleaved other deliveries.
    """

    __slots__ = ("task", "messages", "index", "end")

    def __init__(self, task: Task, messages: list, index: int, end: int) -> None:
        self.task = task
        self.messages = messages
        self.index = index
        self.end = end


class _FaultEvent:
    """Heap payload of one fault-plane action targeting a machine id.

    ``action`` is ``"crash"`` (carries the originating
    :class:`~repro.engine.faults.FaultSpec`), ``"restart"`` or ``"retry"``
    for the crash plane, or ``"frame"`` / ``"retransmit"`` (carrying a
    :class:`_WireFrame`) for the unreliable-wire plane.
    """

    __slots__ = ("action", "fault")

    def __init__(self, action: str, fault=None) -> None:
        self.action = action
        self.fault = fault


class _WireFrame:
    """One link-layer frame: a message instance in flight on the unreliable wire.

    The reliable-delivery sublayer never mutates the wrapped message (data
    envelopes are shared across fan-out destinations), so the per-link
    sequence number, original send rank and retransmit state live on this
    wrapper instead.  ``rank`` is the send-band rank the message was assigned
    at its original send — the receiver releases with it, so crashed-machine
    diversion and pending-heap ordering behave exactly as a direct delivery
    would have.
    """

    __slots__ = ("link", "seq", "task", "message", "category", "rank", "units", "attempts")

    def __init__(self, link, seq, task, message, category, rank, units) -> None:
        self.link = link
        self.seq = seq
        self.task = task
        self.message = message
        self.category = category
        self.rank = rank
        self.units = units
        self.attempts = 0


class Simulator:
    """Discrete-event simulation of a shared-nothing cluster.

    Args:
        num_machines: number of machines in the cluster.
        cost_model: the CPU/network/storage cost model shared by all machines.
        seed: seed of the simulation's random sources.  Every machine gets
            its own stream, derived deterministically from
            ``(seed, machine_id)`` — see :meth:`machine_rng`.
        collect_outputs: if True, the metrics collector retains every output
            pair (needed for correctness tests; disabled for large benchmark
            runs to bound memory).
    """

    def __init__(
        self,
        num_machines: int,
        cost_model: CostModel | None = None,
        seed: int = 0,
        collect_outputs: bool = False,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        if num_machines + 2 >= _MACHINE_SPAN:
            raise ValueError(
                f"at most {_MACHINE_SPAN - 3} machines are supported: the "
                "plane-invariant event rank packs machine ids into "
                f"{_MACHINE_SPAN}-wide bands"
            )
        self.machines = [Machine(machine_id=i, cost_model=self.cost_model) for i in range(num_machines)]
        self.network = Network(cost_model=self.cost_model)
        self.metrics = MetricsCollector(collect_outputs=collect_outputs)
        self.seed = seed
        # Per-machine RNG streams (index [machine_id + 1]; slot 0 is the
        # shared off-cluster stream).  String seeding hashes through SHA-512,
        # so the streams are deterministic across processes and independent
        # of each other — each machine's draws depend only on (seed,
        # machine_id) and its own handler sequence, never on what other
        # machines drew in between.
        self._machine_rngs = [random.Random(f"{seed}/off-cluster")] + [
            random.Random(f"{seed}/{i}") for i in range(num_machines)
        ]
        self.tasks: dict[str, Task] = {}
        self._queue: list[tuple] = []
        self._schedule_rank = itertools.count()
        # Per-link FIFO sequence counters, owned by the *sender* machine
        # (index [sender_machine + 1], keyed by destination machine id): a
        # machine's sends touch only its own counter dict, so a send's rank
        # depends only on its own link's traffic.
        self._link_rank: list[dict[int, int]] = [
            {} for _ in range(num_machines + 1)
        ]
        self._started: set[str] = set()
        self._inboxes: list[deque] = [deque() for _ in range(num_machines)]
        # Members queued per inbox — a settled segment counts every member it
        # still holds — kept in step with every inbox mutation, so a tick
        # sizes its drained run without walking the backlog.
        self._inbox_members: list[int] = [0] * num_machines
        self._tick_scheduled: list[bool] = [False] * num_machines
        self._drain_controllers: list | None = None
        # In-flight control-plane (priority) delivery times per machine;
        # drained runs on the adaptive plane use them to stop before the
        # point where a control message would take effect (drain horizon).
        self._pending_priority: list[list[float]] = [[] for _ in range(num_machines)]
        # Wire-level delivery merging (see enable_delivery_merging): the open
        # channel runs, indexed [sender machine + 1] → {destination task:
        # DeliveryRun}, and the per-machine heaps of delivered-but-unsettled
        # run cursors / singles.
        self._merge_wire = False
        self._open_channels: list[dict[Task, DeliveryRun]] = [
            {} for _ in range(num_machines + 1)
        ]
        self._pending_wire: list[list] = [[] for _ in range(num_machines)]
        # Fault plane (install_faults): the recovery manager, the machines
        # currently down, their buffered-during-outage deliveries, and the
        # link-layer retry state.  All empty/None on fault-free runs.
        self._recovery = None
        self._crashed: set[int] = set()
        self._crashed_count = 0
        self._outage: dict[int, list] = {}
        self._retry_attempts: dict[int, int] = {}
        self._after_event_faults: list = []
        self._fault_serial = itertools.count()
        # Unreliable-wire plane (install_network_faults): the ReliableWire
        # policy object, or None.  Every wire hook below is strictly gated on
        # it, so fault-free runs take the exact pre-existing code paths —
        # zero extra heap events, allocations or counter touches.
        self._wire = None
        self.now = 0.0
        self.events_processed = 0
        self.heap_events = 0
        # Cumulative real seconds spent inside run() — the only wall-clock
        # quantity the simulator reports.  Pure stats: never read by handlers.
        self.wall_time = 0.0

    def install_batching(self, controllers: list) -> None:
        """Enable the adaptive data plane: one drain controller per machine.

        Each controller sizes the runs of drainable inbox messages (see
        :meth:`repro.engine.task.Task.drain_key`) its machine may coalesce
        per tick.  Without this call every message is handled individually —
        the fixed/per-tuple planes.
        """
        if len(controllers) != len(self.machines):
            raise ValueError(
                f"need one batch controller per machine: got {len(controllers)} "
                f"for {len(self.machines)} machines"
            )
        self._drain_controllers = list(controllers)

    def enable_delivery_merging(self) -> None:
        """Enable wire-level delivery merging.

        Inbox-bound messages (:data:`MERGEABLE_KINDS`) merge per FIFO channel
        — (sender machine, destination task) — into :class:`DeliveryRun` heap
        events: a channel's run is armed in the heap at its first member and
        absorbs every later send on the channel until the receiver exhausts
        it, instead of one heap event per message.  A run's members are
        *settled* into the receiving machine's inbox strictly in per-tuple
        ``(delivery time, rank)`` order — the per-machine pending heap
        interleaves runs, competing links and individual messages exactly as
        the unmerged heap would — so every observable quantity stays
        bit-identical to the unmerged wire while the global event heap
        processes a fraction of the events.
        """
        self._merge_wire = True

    def install_faults(self, recovery) -> None:
        """Attach the fault-tolerant plane: a recovery manager plus the
        crash schedule it carries (see :mod:`repro.core.recovery`).

        Time-anchored crashes become heap events in the fault rank band;
        event-anchored crashes are watched against ``events_processed`` in
        the run loop.  Installing a manager with an empty schedule is valid —
        it enables journaling/checkpointing without injecting any fault.
        """
        self._recovery = recovery
        after = []
        for fault in recovery.schedule:
            if fault.at_time is not None:
                self._schedule_fault(fault.at_time, "crash", fault.machine, fault)
            else:
                after.append((fault.after_events, fault))
        after.sort(key=lambda pair: pair[0])
        self._after_event_faults = after

    def install_network_faults(self, wire) -> None:
        """Attach the unreliable-wire plane: a :class:`~repro.engine.network.ReliableWire`.

        Every on-cluster task send is then framed with a per-link sequence
        number and routed through the wire's fault schedule (drop, duplicate,
        delay, partition) before the receiver's dedup/in-order sublayer
        releases it to the normal delivery path.  Frame arrivals and
        retransmit timers are heap events in the fault rank band, so the
        faulty run stays fully deterministic under its seed.
        """
        self._wire = wire

    # ------------------------------------------------------------------ setup

    def register(self, task: Task) -> Task:
        """Add ``task`` to the topology.  Task names must be unique."""
        if task.name in self.tasks:
            raise ValueError(f"duplicate task name: {task.name}")
        if task.machine_id >= len(self.machines):
            raise ValueError(
                f"task {task.name} placed on machine {task.machine_id} "
                f"but the cluster has only {len(self.machines)} machines"
            )
        task.hosted_machine = (
            self.machines[task.machine_id] if task.machine_id >= 0 else None
        )
        self.tasks[task.name] = task
        return task

    def register_all(self, tasks: Iterable[Task]) -> None:
        """Register every task in ``tasks``."""
        for task in tasks:
            self.register(task)

    def machine_of(self, task_name: str) -> Machine | None:
        """The machine hosting ``task_name`` (None for off-cluster tasks)."""
        return self.tasks[task_name].hosted_machine

    def machine_rng(self, machine_id: int) -> random.Random:
        """The RNG stream owned by ``machine_id``.

        Derived deterministically from ``(seed, machine_id)``; off-cluster
        tasks (``machine_id < 0``) share one dedicated stream.  Handlers
        reach it through :attr:`repro.engine.task.Context.rng`, so a task's
        draws are a pure function of its own machine's handler sequence,
        independent of how other machines' handlers interleave with it.
        """
        return self._machine_rngs[machine_id + 1 if machine_id >= 0 else 0]

    # ------------------------------------------------------------- scheduling

    def schedule(self, time: float, destination: str, message: Message) -> None:
        """Schedule ``message`` for delivery to ``destination`` at ``time``."""
        task = self.tasks.get(destination)
        if task is None:
            raise KeyError(f"unknown task: {destination}")
        if message.kind in PRIORITY_KINDS and task.machine_id >= 0:
            self._pending_priority[task.machine_id].append(time)
        heapq.heappush(self._queue, (time, next(self._schedule_rank), task, message))

    def _send_rank(self, sender_machine: int, dest_machine: int) -> int:
        """Plane-invariant rank of one task send (see the module comment)."""
        links = self._link_rank[sender_machine + 1]
        sequence = links.get(dest_machine, 0)
        links[dest_machine] = sequence + 1
        return (
            _SEND_RANK_BASE
            + ((sender_machine + 2) * _MACHINE_SPAN + dest_machine + 2) * _LINK_SPAN
            + sequence
        )

    def _schedule_tick(self, machine_id: int, time: float) -> None:
        heapq.heappush(self._queue, (time, _TICK_RANK_BASE + machine_id, machine_id, None))

    def feed_schedule(
        self, schedule: ArrivalSchedule, destination_picker, batch_size: int = 1
    ) -> None:
        """Feed an arrival schedule into the topology.

        Args:
            schedule: the interleaved input streams.
            destination_picker: callable ``tuple -> task name`` choosing the
                reshuffler each tuple is sent to (the paper routes incoming
                tuples to a random reshuffler).
            batch_size: with ``batch_size=1`` (the legacy data plane) every
                tuple becomes one SOURCE message; larger values coalesce up to
                ``batch_size`` consecutive same-destination arrivals into one
                BATCH message.  The picker is still called once per tuple in
                arrival order, so routing decisions are identical either way.
        """
        if batch_size > 1:
            for emit_time, destination, batch in schedule.batched_arrivals(
                batch_size, destination_picker
            ):
                message = Message(
                    kind=MessageKind.BATCH,
                    sender="__source__",
                    payload=batch,
                    size=batch.size,
                    meta={"inner": MessageKind.SOURCE},
                )
                self.schedule_data(emit_time, destination, message)
            return
        tasks = self.tasks
        queue = self._queue
        schedule_rank = self._schedule_rank
        source_kind = MessageKind.SOURCE
        if self._merge_wire:
            # Merged feed: one DeliveryRun per reshuffler covers the whole
            # schedule (members keep their exact arrival times/ranks).  The
            # feed channels cannot have open runs mid-schedule interference
            # (nothing settles before run()), so the runs are built with
            # plain list appends and armed once per destination.
            feed_channels = self._open_channels[0]
            channel_get = feed_channels.get
            heappush = heapq.heappush
            queue = self._queue
            for arrival_time, item in schedule.arrivals():
                item.arrival_time = arrival_time
                task = tasks[destination_picker(item)]
                rank = next(schedule_rank)
                envelope = DataEnvelope(source_kind, "__source__", item, 0, item.size)
                run = channel_get(task)
                if run is None or run.closed:
                    run = feed_channels[task] = DeliveryRun(
                        task, [arrival_time], [rank], [envelope]
                    )
                    heappush(queue, (arrival_time, rank, run, _DELIVERY_RUN))
                else:
                    run.times.append(arrival_time)
                    run.ranks.append(rank)
                    run.messages.append(envelope)
            return
        for arrival_time, item in schedule.arrivals():
            item.arrival_time = arrival_time
            message = DataEnvelope(source_kind, "__source__", item, 0, item.size)
            heapq.heappush(
                queue,
                (arrival_time, next(schedule_rank), tasks[destination_picker(item)], message),
            )

    def schedule_data(self, time: float, destination: str, message) -> None:
        """Schedule a data-plane message, merging consecutive same-destination
        sends into the feed channel's :class:`DeliveryRun` when delivery
        merging is enabled (streaming ingestion, batched feeds).

        Non-mergeable kinds and off-cluster destinations fall back to
        :meth:`schedule`.
        """
        task = self.tasks.get(destination)
        if task is None:
            raise KeyError(f"unknown task: {destination}")
        if (
            not self._merge_wire
            or task.hosted_machine is None
            or message.kind not in MERGEABLE_KINDS
        ):
            self.schedule(time, destination, message)
            return
        self._buffer_send(
            self._open_channels[0], task, time, next(self._schedule_rank), message
        )

    def _buffer_send(
        self, channels: dict, task: Task, time: float, rank: int, message
    ) -> None:
        """Append one send to its channel's open run, arming a fresh run
        (= one heap event, keyed by this first member) when the channel has
        none open."""
        run = channels.get(task)
        if run is None or run.closed:
            run = channels[task] = DeliveryRun(task, [time], [rank], [message])
            heapq.heappush(self._queue, (time, rank, run, _DELIVERY_RUN))
        else:
            run.times.append(time)
            run.ranks.append(rank)
            run.messages.append(message)

    def post(
        self,
        sender_task: Task,
        destination: str,
        message: Message,
        category: TrafficCategory,
        ctx: Context,
    ) -> None:
        """Send a message from a task while it is processing (called via Context)."""
        departure = ctx.now + ctx.charged
        dest_task = self.tasks[destination]
        sender_machine = sender_task.machine_id
        dest_machine = dest_task.machine_id
        if self._wire is not None and sender_machine >= 0 and dest_machine >= 0:
            # Unreliable wire installed: on-cluster sends become link-layer
            # frames (off-cluster endpoints — sources, collectors — keep the
            # ideal wire: they model ingest/egress, not the cluster fabric).
            units = len(message.payload) if isinstance(message.payload, TupleBatch) else 1
            self._wire_send(sender_machine, dest_task, message, category, departure, units)
            return
        if sender_machine < 0 or dest_machine < 0:
            delivery = departure + self.cost_model.network_latency
        else:
            units = len(message.payload) if isinstance(message.payload, TupleBatch) else 1
            delivery = self.network.transfer(
                sender_machine, dest_machine, message.size, category, departure, units=units
            )
        if message.kind in PRIORITY_KINDS and dest_machine >= 0:
            self._pending_priority[dest_machine].append(delivery)
        rank = self._send_rank(sender_machine, dest_machine)
        # Off-cluster endpoints are excluded from merging (as in post_fanout):
        # their deliveries skip the link-FIFO clamp, so an open channel's key
        # arrays could lose the sortedness _settle's bisects rely on.
        if (
            self._merge_wire
            and sender_machine >= 0
            and dest_machine >= 0
            and message.kind in MERGEABLE_KINDS
        ):
            self._buffer_send(
                self._open_channels[sender_machine + 1],
                dest_task,
                delivery,
                rank,
                message,
            )
            return
        heapq.heappush(self._queue, (delivery, rank, dest_task, message))

    def post_fanout(
        self,
        sender_task: Task,
        destinations,
        message: Message,
        category: TrafficCategory,
        ctx: Context,
    ) -> None:
        """Replicate one data message to several destinations (routing fan-out).

        Equivalent to calling :meth:`post` once per destination — the shared
        departure time, sender machine and per-link transfers are identical —
        with the per-send bookkeeping hoisted out of the loop.  Data plane
        only: single-tuple payloads, non-priority kinds.
        """
        departure = ctx.now + ctx.charged
        tasks = self.tasks
        transfer = self.network.transfer
        queue = self._queue
        sender_machine = sender_task.machine_id
        link_rank = self._link_rank[sender_machine + 1]
        size = message.size
        latency = self.cost_model.network_latency
        sender_base = _SEND_RANK_BASE + (sender_machine + 2) * _MACHINE_SPAN * _LINK_SPAN
        heappush = heapq.heappush
        if self._wire is not None:
            # Unreliable wire installed: each on-cluster replica becomes its
            # own link-layer frame (fan-out is data plane, single-tuple,
            # non-priority); off-cluster replicas keep the ideal wire.
            for destination in destinations:
                dest_task = tasks[destination]
                dest_machine = dest_task.machine_id
                if sender_machine < 0 or dest_machine < 0:
                    heappush(queue, (
                        departure + latency,
                        self._send_rank(sender_machine, dest_machine),
                        dest_task,
                        message,
                    ))
                else:
                    self._wire_send(
                        sender_machine, dest_task, message, category, departure, 1
                    )
            return
        if self._merge_wire:
            # One shared envelope, one open-channel append per destination;
            # the per-link delivery times and ranks are computed exactly as
            # below.  The channel-append bookkeeping is inlined (this is the
            # hottest send path of the merged wire).
            channels = self._open_channels[sender_machine + 1]
            channel_get = channels.get
            for destination in destinations:
                dest_task = tasks[destination]
                dest_machine = dest_task.machine_id
                if sender_machine < 0 or dest_machine < 0:
                    heappush(queue, (
                        departure + latency,
                        self._send_rank(sender_machine, dest_machine),
                        dest_task,
                        message,
                    ))
                    continue
                delivery = transfer(sender_machine, dest_machine, size, category, departure)
                sequence = link_rank.get(dest_machine, 0)
                link_rank[dest_machine] = sequence + 1
                rank = sender_base + (dest_machine + 2) * _LINK_SPAN + sequence
                run = channel_get(dest_task)
                if run is None or run.closed:
                    run = channels[dest_task] = DeliveryRun(
                        dest_task, [delivery], [rank], [message]
                    )
                    heappush(queue, (delivery, rank, run, _DELIVERY_RUN))
                else:
                    run.times.append(delivery)
                    run.ranks.append(rank)
                    run.messages.append(message)
            return
        for destination in destinations:
            dest_task = tasks[destination]
            dest_machine = dest_task.machine_id
            if sender_machine < 0 or dest_machine < 0:
                delivery = departure + latency
            else:
                delivery = transfer(sender_machine, dest_machine, size, category, departure)
            sequence = link_rank.get(dest_machine, 0)
            link_rank[dest_machine] = sequence + 1
            rank = sender_base + (dest_machine + 2) * _LINK_SPAN + sequence
            heappush(queue, (delivery, rank, dest_task, message))

    # ---------------------------------------------------------------- running

    def _execute(self, task: Task, message: Message, start: float) -> None:
        """Run one handler at logical time ``start`` and account its work."""
        ctx = Context(self, task, start)
        if task.name not in self._started:
            self._started.add(task.name)
            task.on_start(ctx)
        task.handle(message, ctx)
        machine = task.hosted_machine
        if machine is not None and ctx.charged > 0:
            machine.occupy(start, ctx.charged)
            machine.clear_drain_window()
        self.events_processed += 1

    def _drain_horizon(self, machine_id: int, event_time: float) -> float:
        """Earliest virtual time a control-plane message could land on ``machine_id``.

        In-flight priority deliveries are known exactly; any priority message
        not yet sent must be created by an event popping no earlier than the
        current tick, so its delivery is at least one network latency away.
        A drained run that stops before this horizon can never swallow a
        member the per-tuple plane would have processed *after* a control
        message took effect.
        """
        horizon = event_time + self.cost_model.network_latency
        pending = self._pending_priority[machine_id]
        if pending:
            earliest = min(pending)
            if earliest < horizon:
                horizon = earliest
        return horizon

    def _execute_drained(
        self,
        task: Task,
        first: Message,
        inbox: deque,
        limit: int,
        key,
        start: float,
        event_time: float,
        machine_id: int,
    ) -> None:
        """Run one drained run of same-key messages in a single invocation.

        The task pulls same-key followers straight off its inbox (up to
        ``limit``) and closes every member with :meth:`Context.boundary`, so
        the machine's busy chain, every member's send departure and every
        output timestamp are bit-identical to per-tuple delivery; the
        recorded boundaries let later control-plane messages dated inside
        this window start exactly where the per-tuple plane would have
        slotted them.  Tasks that must re-check the control-plane horizon
        between members (adaptive reshufflers) simply stop pulling.
        """
        ctx = Context(self, task, start)
        ctx.drain_boundaries = []
        ctx.drain_horizon = lambda: self._drain_horizon(machine_id, event_time)
        if task.name not in self._started:
            self._started.add(task.name)
            task.on_start(ctx)
        count = task.handle_drained(first, inbox, limit, key, ctx)
        # The tick already took ``first``; the task pulled the other members.
        self._inbox_members[machine_id] -= count - 1
        machine = task.hosted_machine
        if ctx.charged > 0:  # defensive: close a run whose tail was not rotated
            machine.occupy(ctx.now, ctx.charged)
            ctx.drain_boundaries.append(machine.busy_until)
        machine.record_drain_window(start, ctx.drain_boundaries)
        self.metrics.record_drained_run(count)
        self.events_processed += 1

    # ------------------------------------------------------------ fault plane

    def _schedule_fault(
        self, time: float, action: str, machine_id: int, fault=None
    ) -> None:
        rank = _FAULT_RANK_BASE + (
            (_FAULT_ACTION_OFFSETS[action] * _MACHINE_SPAN + machine_id) * (1 << 30)
            + next(self._fault_serial)
        )
        heapq.heappush(
            self._queue, (time, rank, machine_id, _FaultEvent(action, fault))
        )

    def _process_fault(self, machine_id: int, event: _FaultEvent, time: float) -> None:
        action = event.action
        if action == "crash":
            self._crash_machine(machine_id, event.fault, time)
        elif action == "restart":
            self._restart_machine(machine_id, time)
        elif action == "frame":
            self._wire_arrive(event.fault, time)
        elif action == "retransmit":
            self._wire_retransmit(event.fault, time)
        else:
            self._retry_machine(machine_id, time)

    def _crash_machine(self, machine_id: int, fault, time: float) -> None:
        """Fail-stop ``machine_id``: drop its volatile state, start the outage.

        The inbox (including members inside settled segments) moves to the
        outage buffer for redelivery at restart; pending wire entries and open
        channels stay put — the restart tick settles them — and work already
        accepted (``busy_until``) counts as completed, per the
        handler-boundary crash model.
        """
        if machine_id in self._crashed:
            raise RuntimeError(
                f"machine {machine_id} crashed while already down "
                "(overlapping faults in the schedule)"
            )
        self._crashed.add(machine_id)
        self._crashed_count += 1
        buffer = self._outage.setdefault(machine_id, [])
        inbox = self._inboxes[machine_id]
        for entry in inbox:
            if entry.__class__ is tuple:
                buffer.append(("d", entry[0], entry[1]))
            else:
                for index in range(entry.index, entry.end):
                    buffer.append(("d", entry.task, entry.messages[index]))
        inbox.clear()
        self._inbox_members[machine_id] = 0
        # Suppress tick scheduling for the duration of the outage; the
        # restart pushes its own tick.
        self._tick_scheduled[machine_id] = True
        recovery = self._recovery
        recovery.on_crash(machine_id, time)
        delay = fault.restart_after
        if delay is None:
            # Coordinator detects the failure at the ack timeout and brings
            # up the blank replacement immediately.
            delay = recovery.ack_timeout
        self._schedule_fault(time + delay, "restart", machine_id)
        self._retry_attempts[machine_id] = 0
        self._schedule_fault(time + recovery.ack_timeout, "retry", machine_id)

    def _restart_machine(self, machine_id: int, time: float) -> None:
        """Blank replacement up: restore from the checkpoint store, replay the
        journal, redeliver the outage buffer, resume normal ticking."""
        self._crashed.discard(machine_id)
        self._crashed_count -= 1
        machine = self.machines[machine_id]
        restore_cost, _replayed = self._recovery.on_restart(machine_id, time)
        if restore_cost > 0:
            machine.occupy(time, restore_cost)
        buffer = self._outage.get(machine_id)
        if buffer:
            inbox = self._inboxes[machine_id]
            for kind, task, message in buffer:
                if kind == "p":
                    # Buffered control-plane messages execute first (they
                    # never queue behind data), serialized after the restore
                    # work via the machine's busy chain.
                    self._execute(task, message, max(time, machine.busy_until))
                else:
                    inbox.append((task, message))
                    self._inbox_members[machine_id] += 1
            buffer.clear()
        # _tick_scheduled stayed True through the outage; this tick settles
        # any wire traffic dated <= now and restarts the normal cycle.
        self._schedule_tick(machine_id, time)

    def _retry_machine(self, machine_id: int, time: float) -> None:
        """Link-layer retry timer for traffic addressed to a dead machine."""
        if machine_id not in self._crashed:
            return  # machine came back; the timer dissolves
        attempts = self._retry_attempts.get(machine_id, 0) + 1
        self._retry_attempts[machine_id] = attempts
        recovery = self._recovery
        waiting = bool(self._outage.get(machine_id)) or bool(
            self._pending_wire[machine_id]
        )
        if attempts > recovery.max_retries and waiting:
            raise RuntimeError(
                f"machine {machine_id} unreachable after "
                f"{recovery.max_retries} retries"
            )
        self._schedule_fault(
            time + recovery.ack_timeout * (2 ** attempts), "retry", machine_id
        )

    def _divert_crashed(
        self, task: Task, message: Message, time: float, rank: int, machine_id: int
    ) -> None:
        """Buffer a delivery addressed to a crashed machine.

        Priority kinds wait in the outage buffer (redelivered first at
        restart); in-band kinds keep their exact ``(time, rank)`` position —
        on the merged wire by joining the pending heap next to any parked
        runs, on the unmerged wire by outage-buffer order, which *is* global
        ``(time, rank)`` pop order.
        """
        if message.kind in PRIORITY_KINDS:
            self._pending_priority[machine_id].remove(time)
            self._outage[machine_id].append(("p", task, message))
        elif self._merge_wire:
            heapq.heappush(
                self._pending_wire[machine_id], (time, rank, None, task, message)
            )
        else:
            self._outage[machine_id].append(("d", task, message))

    # -------------------------------------------------------- unreliable wire

    def _wire_send(
        self,
        sender_machine: int,
        dest_task: Task,
        message: Message,
        category: TrafficCategory,
        departure: float,
        units: int,
    ) -> None:
        """Frame one on-cluster send and push it through the fault schedule.

        The frame gets the link's next monotone sequence number and the
        message's normal send-band rank (so its eventual release orders like
        a direct delivery).  A dropped or partitioned frame never charges the
        network — its bytes were lost before crossing — and instead arms the
        sender's retransmit timer.  A duplicated frame is charged and
        scheduled twice with the *same* frame object: the receiver dedups on
        the shared sequence number.
        """
        wire = self._wire
        dest_machine = dest_task.machine_id
        link = (sender_machine, dest_machine)
        seq, dropped, duplicated, delay_by = wire.on_send(link)
        rank = self._send_rank(sender_machine, dest_machine)
        frame = _WireFrame(link, seq, dest_task, message, category, rank, units)
        wire.frames_sent += 1
        if dropped or wire.partitioned(sender_machine, dest_machine, departure):
            wire.frames_dropped += 1
            self._wire_arm_retransmit(frame, departure)
            return
        arrival = self.network.transfer(
            sender_machine, dest_machine, message.size, category, departure, units=units
        )
        # The per-send delay is added *after* the link's FIFO clamp, so later
        # sends can genuinely overtake the delayed frame on the wire; the
        # receiver's in-order sublayer restores release order.
        self._schedule_fault(arrival + delay_by, "frame", dest_machine, frame)
        if duplicated:
            wire.frames_sent += 1
            wire.frames_duplicated += 1
            dup_arrival = self.network.transfer(
                sender_machine, dest_machine, message.size, category, departure, units=units
            )
            # Same frame object = same sequence number: the copy that loses
            # the race (the fault serial orders the original first at equal
            # times) is discarded by the receiver's dedup.
            self._schedule_fault(dup_arrival + delay_by, "frame", dest_machine, frame)

    def _wire_arm_retransmit(self, frame: _WireFrame, now: float) -> None:
        """Arm the sender's retransmit timer for a lost frame.

        Exponential backoff from ``retry_base``; once ``retry_max_attempts``
        transmissions have been lost the link is declared dead with a named
        error — the faulty run terminates either way, never hangs.  Timers
        are armed only for frames known lost (a deterministic-simulation
        shortcut: behaviourally equivalent to per-frame ack timeouts without
        modelling the ack traffic).
        """
        wire = self._wire
        if frame.attempts >= wire.retry_max_attempts:
            raise UnreachableLinkError(frame.link, frame.attempts)
        frame.attempts += 1
        backoff = wire.retry_base * (2 ** (frame.attempts - 1))
        self._schedule_fault(now + backoff, "retransmit", frame.link[1], frame)

    def _wire_retransmit(self, frame: _WireFrame, time: float) -> None:
        """A retransmit timer fired: resend the frame unless it got through."""
        wire = self._wire
        link = frame.link
        if frame.seq < wire.recv_next.get(link, 0) or frame.seq in wire.reorder.get(
            link, ()
        ):
            return  # a copy already reached the receiver; the timer dissolves
        wire.frames_sent += 1
        wire.frames_retransmitted += 1
        wire.retransmit_histogram[frame.attempts] = (
            wire.retransmit_histogram.get(frame.attempts, 0) + 1
        )
        if wire.partitioned(link[0], link[1], time):
            # Still dark: this attempt is lost too.  Re-arming chains the
            # backoff until the window heals or the budget raises.
            wire.frames_dropped += 1
            self._wire_arm_retransmit(frame, time)
            return
        arrival = self.network.transfer(
            link[0], link[1], frame.message.size, frame.category, time, units=frame.units
        )
        self._schedule_fault(arrival, "frame", link[1], frame)

    def _wire_arrive(self, frame: _WireFrame, time: float) -> None:
        """A frame reached its receiver: dedup, reorder-buffer or release.

        Release is strictly in sequence order per link — equal to send order,
        so the fault-free wire's per-link FIFO (which the epoch protocol
        relies on) is preserved under any fault mix.  Dedup state is *not*
        reset when the receiving machine crashes: the sequencer is durable
        (MillWheel-style), so a retransmitted-then-crashed message is either
        discarded here or redelivered exactly once from the outage buffer.
        """
        wire = self._wire
        link = frame.link
        wire.frames_delivered += 1
        expected = wire.recv_next.get(link, 0)
        if frame.seq < expected:
            wire.frames_deduped += 1
            return
        if frame.seq > expected:
            buffer = wire.reorder.setdefault(link, {})
            if frame.seq in buffer:
                wire.frames_deduped += 1
            else:
                wire.frames_reordered += 1
                buffer[frame.seq] = frame
            return
        next_seq = expected + 1
        wire.recv_next[link] = next_seq
        self._wire_release(frame, time)
        buffer = wire.reorder.get(link)
        if buffer:
            # Cascade: the gap just closed may free buffered successors.
            while next_seq in buffer:
                follower = buffer.pop(next_seq)
                next_seq += 1
                wire.recv_next[link] = next_seq
                self._wire_release(follower, time)

    def _wire_release(self, frame: _WireFrame, time: float) -> None:
        """Hand a frame to the normal delivery path, in sequence order.

        Priority-kind bookkeeping is done here (not at send) because only
        now is the effective delivery instant known; ``_deliver`` and
        ``_divert_crashed`` remove the same ``time`` they always have.
        """
        wire = self._wire
        wire.frames_applied += 1
        message = frame.message
        if message.kind in PRIORITY_KINDS:
            self._pending_priority[frame.link[1]].append(time)
        self._deliver(frame.task, message, time, frame.rank)

    def _deliver(self, task: Task, message: Message, time: float, rank: int = 0) -> None:
        machine = task.hosted_machine
        if machine is None:
            # Off-cluster tasks are handled at delivery time.
            self._execute(task, message, time)
            return
        if self._crashed_count and machine.machine_id in self._crashed:
            self._divert_crashed(task, message, time, rank, machine.machine_id)
            return
        if message.kind in PRIORITY_KINDS:
            # Control-plane messages skip the data backlog but still need the
            # CPU: they start once the machine finishes the handler it is
            # currently running — on the adaptive plane, the per-tuple-
            # equivalent boundary of the last drained run.
            self._pending_priority[machine.machine_id].remove(time)
            self._execute(task, message, machine.priority_start(time))
            return
        machine_id = machine.machine_id
        if self._merge_wire:
            pending = self._pending_wire[machine_id]
            if pending:
                # Unsettled run members exist for this machine; enqueue the
                # single behind/between them by its own (time, rank) key so
                # the settle pass reproduces the per-tuple inbox order.
                heapq.heappush(pending, (time, rank, None, task, message))
                if not self._tick_scheduled[machine_id]:
                    self._tick_scheduled[machine_id] = True
                    self._schedule_tick(machine_id, max(time, machine.busy_until))
                return
        self._inboxes[machine_id].append((task, message))
        self._inbox_members[machine_id] += 1
        if not self._tick_scheduled[machine_id]:
            self._tick_scheduled[machine_id] = True
            self._schedule_tick(machine_id, max(time, machine.busy_until))

    def _deliver_run(self, run: DeliveryRun, time: float) -> None:
        """A :class:`DeliveryRun` popped: park it on the receiver's pending heap.

        Members do not enter the inbox yet — they *settle* in exact
        ``(time, rank)`` order when the machine next ticks — so the run pop is
        O(1) regardless of length.  Tick scheduling mirrors what the first
        member's individual delivery would have done.
        """
        machine = run.task.hosted_machine
        machine_id = machine.machine_id
        heapq.heappush(
            self._pending_wire[machine_id], (time, run.ranks[run.start], run)
        )
        if not self._tick_scheduled[machine_id]:
            self._tick_scheduled[machine_id] = True
            self._schedule_tick(machine_id, max(time, machine.busy_until))

    def _settle(self, machine_id: int, time: float) -> None:
        """Move pending wire deliveries dated ``<= time`` into the inbox.

        Called at the start of a tick popped at ``time``: on the per-tuple
        wire, exactly the deliveries with ``(delivery, rank) < (time,
        tick rank)`` would have been appended before this tick — and message
        ranks are always below the tick band, so the bound reduces to the
        delivery time.  Members are drained in global ``(time, rank)`` order
        across runs, competing links and singles (the pending heap is the
        per-machine merge front), reproducing the unmerged inbox exactly.
        """
        pending = self._pending_wire[machine_id]
        inbox = self._inboxes[machine_id]
        heappop = heapq.heappop
        heappush = heapq.heappush
        wire_histogram = self.metrics.wire_histogram
        settled = 0
        while pending and pending[0][0] <= time:
            entry = heappop(pending)
            run = entry[2]
            if run is None:
                inbox.append((entry[3], entry[4]))
                settled += 1
                continue
            times = run.times
            task = run.task
            index = run.start
            count = len(times)
            # Settle-bound cut: members dated <= the tick time.  Within a run
            # both times and ranks are strictly increasing, so the segment
            # boundaries are binary searches instead of per-member compares.
            end = bisect_right(times, time, index, count)
            if pending:
                # A competing pending delivery may cut the segment short: only
                # members strictly below the head's (time, rank) key settle now.
                head = pending[0]
                head_time = head[0]
                if head_time <= time:
                    below = bisect_left(times, head_time, index, end)
                    ties_end = bisect_right(times, head_time, below, end)
                    end = (
                        bisect_left(run.ranks, head[1], below, ties_end)
                        if ties_end > below
                        else below
                    )
            # The popped entry was the pending minimum and is inside the
            # bound, so at least one member always settles (progress).
            if end - index == 1:
                inbox.append((task, run.messages[index]))
            else:
                inbox.append(SettledSegment(task, run.messages, index, end))
            settled += end - index
            if end < count:
                run.start = end
                heappush(pending, (times[end], run.ranks[end], run))
            else:
                # Exhausted: close the channel's run (the next send on the
                # channel arms a fresh one) and record its final length.
                run.start = end
                run.closed = True
                wire_histogram[count] = wire_histogram.get(count, 0) + 1
        self._inbox_members[machine_id] += settled

    def _rearm_wire(self, machine_id: int) -> None:
        """Return the earliest pending wire delivery to the global heap.

        Reached when a tick leaves the inbox empty while future-dated members
        remain pending: their runs already left the heap, so nothing else
        would wake the machine.  The re-armed entry pops at its own key and
        re-enters the normal delivery path (scheduling the wake-up tick at
        ``max(time, busy_until)`` exactly as its individual delivery would).
        """
        entry = heapq.heappop(self._pending_wire[machine_id])
        run = entry[2]
        if run is None:
            heapq.heappush(self._queue, (entry[0], entry[1], entry[3], entry[4]))
        else:
            heapq.heappush(self._queue, (entry[0], entry[1], run, _DELIVERY_RUN))

    def _tick(self, machine_id: int, time: float) -> None:
        if self._crashed_count and machine_id in self._crashed:
            # Stale tick popping during an outage: swallow it and leave
            # _tick_scheduled True — the restart pushes the reviving tick.
            return
        merging = self._merge_wire
        if merging and self._pending_wire[machine_id]:
            self._settle(machine_id, time)
        inbox = self._inboxes[machine_id]
        if not inbox:
            if merging and self._pending_wire[machine_id]:
                self._rearm_wire(machine_id)
            self._tick_scheduled[machine_id] = False
            return
        machine = self.machines[machine_id]
        start = max(time, machine.busy_until)
        entry = inbox.popleft()
        if entry.__class__ is tuple:
            task, message = entry
        else:
            task = entry.task
            message = entry.messages[entry.index]
            entry.index += 1
            if entry.index < entry.end:
                inbox.appendleft(entry)
        members = self._inbox_members
        members[machine_id] -= 1
        key = (
            task.drain_key(message) if self._drain_controllers is not None else None
        )
        if key is None:
            self._execute(task, message, start)
        else:
            # Backlog estimate for the drain controller: this member plus
            # every member still queued (inside settled segments too) —
            # identical to the unmerged plane's per-member inbox length.
            limit = self._drain_controllers[machine_id].next_batch_size(
                1 + members[machine_id]
            )
            if limit > 1 and inbox:
                self._execute_drained(
                    task, message, inbox, limit, key, start, time, machine_id
                )
            else:
                self.metrics.record_drained_run(1)
                self._execute(task, message, start)
        if inbox:
            self._schedule_tick(machine_id, max(machine.busy_until, start))
        else:
            if merging and self._pending_wire[machine_id]:
                self._rearm_wire(machine_id)
            self._tick_scheduled[machine_id] = False

    def run(self, max_events: int | None = None) -> float:
        """Run until the event queue drains.  Returns the completion time.

        Completion time is the larger of the last event's time and the
        busiest machine's final ``busy_until``.
        """
        queue = self._queue
        heap_events = self.heap_events
        after_faults = self._after_event_faults
        wall_start = _time.perf_counter()
        try:
            while queue:
                time, rank, target, message = heapq.heappop(queue)
                heap_events += 1
                if time > self.now:
                    self.now = time
                if message is None:
                    self._tick(target, time)
                elif message is _DELIVERY_RUN:
                    self._deliver_run(target, time)
                elif message.__class__ is _FaultEvent:
                    self._process_fault(target, message, time)
                else:
                    self._deliver(target, message, time, rank)
                if after_faults and self.events_processed >= after_faults[0][0]:
                    while after_faults and self.events_processed >= after_faults[0][0]:
                        fault = after_faults.pop(0)[1]
                        self._crash_machine(fault.machine, fault, self.now)
                if max_events is not None and self.events_processed > max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; possible signalling loop"
                    )
        finally:
            # Written back even when a handler raises, so the counter stays
            # consistent with events_processed on error paths.
            self.heap_events = heap_events
            self.wall_time += _time.perf_counter() - wall_start
        finish = self.now
        for machine in self.machines:
            finish = max(finish, machine.busy_until)
        self.metrics.finish_time = finish
        return finish

    # ---------------------------------------------------------------- results

    def execution_time(self) -> float:
        """Virtual completion time of the run."""
        return self.metrics.finish_time

    def max_machine_storage(self) -> float:
        """Peak stored size over all machines (the measured per-machine ILF)."""
        return max((machine.peak_stored_size for machine in self.machines), default=0.0)

    def total_storage(self) -> float:
        """Total stored size across the cluster at the end of the run."""
        return sum(machine.stored_size for machine in self.machines)

    def any_spilled(self) -> bool:
        """Whether any machine exceeded its memory budget during the run."""
        return any(machine.spilled for machine in self.machines)
