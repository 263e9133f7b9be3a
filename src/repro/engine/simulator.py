"""Deterministic discrete-event simulator.

The simulator owns the cluster (machines + network), the task registry and a
priority queue of pending events.  Two kinds of events exist:

* **deliveries** — a message arrives at a task.  Every task lives on a
  machine, and the message is appended to that machine's FIFO inbox (a
  machine handles one message at a time).  The source feed is the one
  sender outside the cluster; it is not a task.  Small control-plane
  messages (mapping changes, migration acks, resume signals) bypass the
  data backlog, reflecting the dedicated control channel of real
  deployments; data-plane ordering per link is still FIFO, which the epoch
  protocol relies on.
* **machine ticks** — a machine becomes free and handles the next message in
  its inbox.  The handler's CPU charge extends the machine's busy time and
  any messages it sends are scheduled after the work completes plus network
  latency/transfer time.  Each machine has at most one valid tick at a time.

Inbox-bound traffic between machines never enters the global heap: sends on
one FIFO :class:`Channel` merge into a run on the receiving machine's pending
heap, whose members settle into the inbox in exact per-delivery ``(time,
rank)`` order, and the send that opens a run wakes the receiver at exactly
the tick time its own delivery would have scheduled (``Simulator._wake``).
A tick that finds its inbox empty and exactly one pending member due skips
the settle pass and hands that member straight to its handler: it is the
pending minimum, the next delivery in ``(time, rank)`` order, so the handler
sees exactly what the settle-then-pop sequence would have given it (see
``Simulator._tick``).  The global heap holds ticks, priority control
messages and fault-plane events.
:class:`repro.testing.UnmergedWireSimulator` keeps the
one-heap-event-per-delivery wire as the reference the tests pin this against.

Two fault planes plug in behind ``install_faults`` and
``install_network_faults``.  A crash only suspends its machine's ticks:
deliveries keep landing in its inbox and pending heap, control-plane
messages are parked, and the restart, ``ACK_TIMEOUT`` after the crash, arms
the tick that takes them up (the parked ones first).  The unreliable wire is
:class:`~repro.engine.network.ReliableWire`, which the simulator hands every
machine-to-machine send and the frame and retransmit events it scheduled.

This yields the two quantities the paper's evaluation is built on:

* **execution time** — the virtual time at which the last piece of work
  finishes, dominated by the most loaded machine, and
* **tuple latency** — output emission time minus the arrival time of the more
  recent matching input tuple.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterable

from repro.engine.collector import paused_collector
from repro.engine.faults import ACK_TIMEOUT, OverlappingFaultError
from repro.engine.machine import CostModel, Machine
from repro.engine.metrics import MetricsCollector
from repro.engine.network import Link, Network, TrafficCategory, _WireFrame
from repro.engine.stream import PRIORITY_KINDS, ArrivalSchedule
from repro.engine.task import Context, Message, Task

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
_MACHINE_SPAN = 1 << 12  # > max machines + the feed's sender slot

# Fault-plane events (restarts) rank above machine ticks: at an equal
# instant every ordinary event of that time completes first, so a restart
# always lands *between* handler events.  A per-simulator serial breaks
# remaining ties so heap entries never compare their payloads themselves.
# The reliable wire's frame arrivals and retransmit timers ride the same
# band (offsets 1 and 2): they too land between handler events.
_FAULT_RANK_BASE = 1 << 63
_FAULT_SERIAL_SPAN = 1 << 30
_FAULT_ACTION_OFFSETS = {"restart": 0, "frame": 1, "retransmit": 2}
_FRAME_RANK_BASE = (
    _FAULT_RANK_BASE + _FAULT_ACTION_OFFSETS["frame"] * _MACHINE_SPAN * _FAULT_SERIAL_SPAN
)


class Channel:
    """One FIFO wire channel — (sender machine, destination task) — as one record.

    Everything a send on the channel touches: the destination ``task``, the
    machine-to-machine :class:`~repro.engine.network.Link` it rides (FIFO
    delivery clamp and send sequence, shared with the channels to the
    destination machine's other tasks), the channel's send-rank base, and
    its open delivery run: the parallel ``times`` /
    ``ranks`` / ``messages`` arrays of the sends not yet settled into the
    receiver's inbox, ``start`` being the cursor of the next unsettled one.

    A run opens with the first send after the previous run was exhausted and
    goes straight onto the receiving machine's pending heap, keyed by that
    member's ``(delivery time, rank)``; later sends on the channel append to
    the arrays without touching any heap.  Appends are always dated beyond
    every settle bound the receiver has already passed (a send created at
    virtual time ``T`` delivers no earlier than ``T`` plus the network
    latency, and the link itself is FIFO), so the members still settle into
    the inbox in exact per-tuple ``(time, rank)`` order (see
    ``Simulator._settle``).  Once the receiver has settled the last member
    the run closes: the channel drops its three arrays (``messages is None``
    marks a closed channel), so a run's bookkeeping lives no longer than its
    unsettled members, and the next send opens a fresh one.  A
    :class:`SettledSegment` cut from the run keeps its ``messages`` list
    alive until that segment is consumed.
    """

    __slots__ = ("task", "link", "rank_base", "times", "ranks", "messages", "start")

    def __init__(self, task: Task, link: Link, rank_base: int) -> None:
        self.task = task
        self.link = link
        self.rank_base = rank_base
        self.times: list[float] | None = None
        self.ranks: list[int] | None = None
        self.messages: list | None = None
        self.start = 0


def _next_rank(channel: Channel) -> int:
    """The plane-invariant rank of the next send on ``channel``'s link."""
    link = channel.link
    sequence = link.sequence
    link.sequence = sequence + 1
    return channel.rank_base + sequence


class SettledSegment:
    """Consecutive inbox members of one task — one inbox entry.

    A segment hands its consumer a message list with an ``[index, end)``
    cursor window.  Inbox entries are either ``(task, message)`` singles or
    segments (``entry.__class__ is tuple`` distinguishes them); consumers
    (the tick loop and every ``Task.handle_drained`` implementation) take the
    member at ``index``, advance it in place, and drop the segment once
    ``index`` reaches ``end``.  A segment's list is one of two kinds:

    * a **view** of a :class:`Channel`'s run — a multi-member settle cut —
      whose list the run keeps appending to while it is open (so ``end`` stays
      below the list's length), and
    * a **batch** it owns: same-task members queued one after another at
      the inbox tail (see :func:`_enqueue`), or the last cut of a run, whose
      list the channel released when the run closed.  Its ``end`` is the
      list's length, and later same-task members extend it in place.

    A backlogged member therefore costs one list slot, not a
    ``(task, message)`` tuple.  Per-tuple inbox order is preserved because
    the settle pass cuts runs exactly at the ``(time, rank)`` boundaries where
    per-member appends would have interleaved other deliveries, and only
    members that follow each other in that order share a segment.
    """

    __slots__ = ("task", "messages", "index", "end")

    def __init__(self, task: Task, messages: list, index: int, end: int) -> None:
        self.task = task
        self.messages = messages
        self.index = index
        self.end = end


def _enqueue(inbox: deque, task: Task, messages, index: int, end: int) -> None:
    """Queue ``task``'s members ``messages[index:end]`` at the tail of ``inbox``.

    The inbox's one append rule.  When the tail entry is the same task's
    and is not the inbox head, the members join it: a ``(task, message)``
    single becomes a batch :class:`SettledSegment` on the second member, and
    a batch grows in place.  The head never grows, so a segment stops
    growing once a consumer reaches it and its consumed prefix is freed
    with it.  Otherwise the members become one new entry: a single, or a
    view segment over ``messages``.  ``messages`` is any sequence when
    ``end - index`` is 1 (a pending single passes its own heap entry).
    """
    if len(inbox) > 1:
        tail = inbox[-1]
        if tail.__class__ is tuple and tail[0] is task:
            tail = inbox[-1] = SettledSegment(task, [tail[1]], 0, 1)
        if tail.__class__ is not tuple and tail.task is task:
            batch = tail.messages
            if tail.end == len(batch):
                if end - index == 1:
                    batch.append(messages[index])
                else:
                    batch += messages[index:end]
                tail.end = len(batch)
                return
    if end - index == 1:
        inbox.append((task, messages[index]))
    else:
        inbox.append(SettledSegment(task, messages, index, end))


class _FaultEvent:
    """Heap payload of one fault-plane action targeting a machine id.

    ``action`` is ``"restart"`` for the crash plane, or ``"retransmit"``
    (carrying the reliable wire's lost frame) for the unreliable-wire plane.
    A frame arrival needs no event object: the
    :class:`~repro.engine.network._WireFrame` is its own heap payload (see
    ``Simulator._schedule_frame``).
    """

    __slots__ = ("action", "frame")

    def __init__(self, action: str, frame=None) -> None:
        self.action = action
        self.frame = frame


class Simulator:
    """Discrete-event simulation of a shared-nothing cluster.

    Args:
        num_machines: number of machines in the cluster.
        cost_model: the CPU/network/storage cost model shared by all machines.
        collect_outputs: if True, the metrics collector retains every output
            pair (needed for correctness tests; disabled for large benchmark
            runs to bound memory).
    """

    def __init__(
        self,
        num_machines: int,
        cost_model: CostModel | None = None,
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
        self.tasks: dict[str, Task] = {}
        self._queue: list[tuple] = []
        self._schedule_rank = itertools.count()
        # Wire channels, owned by the *sender* machine (index [sender_machine
        # + 1], slot 0 for the feed) and keyed by
        # destination task.  A channel's link sequence is the sender's own,
        # so a send's rank depends only on its own link's traffic.
        self._channels: list[dict[Task, Channel]] = [
            {} for _ in range(num_machines + 1)
        ]
        # One handler Context per task, built at registration and reused by
        # every handler of the task (no handler keeps its context past
        # returning).
        self._contexts: dict[Task, Context] = {}
        self._inboxes: list[deque] = [deque() for _ in range(num_machines)]
        # Members queued per inbox — a settled segment counts every member it
        # still holds — kept in step with every inbox mutation, so a tick
        # sizes its drained run without walking the backlog.
        self._inbox_members: list[int] = [0] * num_machines
        # Each machine has at most one valid tick: its time (None while the
        # machine idles or is down) and, for a wake-up armed ahead of the
        # pending delivery it waits for, that delivery's pending-heap entry
        # (see _wake).  A tick entry popping at any other time is stale and
        # at most queues the valid tick (see _arm).  ``_queued_ticks`` holds
        # the times of each machine's tick entries still in the heap, so
        # re-arming at one reuses it.
        self._tick_at: list[float | None] = [None] * num_machines
        self._wake_for: list[tuple | None] = [None] * num_machines
        self._queued_ticks: list[set[float]] = [set() for _ in range(num_machines)]
        self._drain_controllers: list | None = None
        # In-flight control-plane (priority) delivery times per machine;
        # drained runs on the adaptive plane use them to stop before the
        # point where a control message would take effect (drain horizon).
        self._pending_priority: list[list[float]] = [[] for _ in range(num_machines)]
        # The per-machine heaps of the channel runs and single deliveries
        # addressed to the machine but not yet settled into its inbox.
        self._pending_wire: list[list] = [[] for _ in range(num_machines)]
        # Fault plane (install_faults): the recovery manager, the machines
        # currently down and the control-plane messages parked for them until
        # their restart.  All empty/None on fault-free runs.
        self._recovery = None
        self._crashed: set[int] = set()
        self._parked: dict[int, list] = {}
        self._after_event_faults: list = []
        self._fault_serial = itertools.count()
        # Unreliable-wire plane (install_network_faults): the ReliableWire,
        # or None.  Every wire hook below is strictly gated on it, so
        # fault-free runs take the exact pre-existing code paths — zero extra
        # heap events, allocations or counter touches.
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
        the per-tuple plane.
        """
        if len(controllers) != len(self.machines):
            raise ValueError(
                f"need one batch controller per machine: got {len(controllers)} "
                f"for {len(self.machines)} machines"
            )
        self._drain_controllers = list(controllers)

    def install_faults(self, recovery) -> None:
        """Attach the fault-tolerant plane: a recovery manager plus the
        crash schedule it carries (see :mod:`repro.core.recovery`).

        Crashes are watched against ``events_processed`` in the run loop.
        Installing a manager with an empty schedule is valid — it enables
        journaling/checkpointing without injecting any fault.
        """
        self._recovery = recovery
        self._after_event_faults = sorted(
            ((fault.after_events, fault.machine) for fault in recovery.schedule),
            key=lambda pair: pair[0],
        )

    def install_network_faults(self, wire) -> None:
        """Attach the unreliable-wire plane: a :class:`~repro.engine.network.ReliableWire`.

        Every on-cluster task send then goes to :meth:`ReliableWire.send`,
        which frames it, routes it through the fault schedule (drop,
        duplicate, delay) and releases it, in per-link send order, to the
        normal delivery path.  Frame arrivals and retransmit
        timers are heap events in the fault rank band, so the faulty run
        stays fully deterministic under its seed.
        """
        self._wire = wire
        wire.simulator = self

    # ------------------------------------------------------------------ setup

    def register(self, task: Task) -> Task:
        """Add ``task`` to the topology, on one of the cluster's machines.
        Task names must be unique."""
        if task.name in self.tasks:
            raise ValueError(f"duplicate task name: {task.name}")
        if not 0 <= task.machine_id < len(self.machines):
            raise ValueError(
                f"task {task.name} placed on machine {task.machine_id}; "
                f"choices: 0..{len(self.machines) - 1}"
            )
        task.hosted_machine = self.machines[task.machine_id]
        self.tasks[task.name] = task
        self._contexts[task] = Context(self, task)
        return task

    def register_all(self, tasks: Iterable[Task]) -> None:
        """Register every task in ``tasks``."""
        for task in tasks:
            self.register(task)

    # ------------------------------------------------------------- scheduling

    def schedule(self, time: float, destination: str, message: Message) -> None:
        """Schedule ``message`` for delivery to ``destination`` at ``time``."""
        task = self.tasks.get(destination)
        if task is None:
            raise KeyError(f"unknown task: {destination}")
        if message.kind in PRIORITY_KINDS:
            self._pending_priority[task.machine_id].append(time)
        heapq.heappush(self._queue, (time, next(self._schedule_rank), task, message))

    def _channel(self, sender_machine: int, task: Task) -> Channel:
        """The channel ``sender_machine -> task`` (created on first use)."""
        channels = self._channels[sender_machine + 1]
        channel = channels.get(task)
        if channel is None:
            dest_machine = task.machine_id
            channel = channels[task] = Channel(
                task,
                self.network.link(sender_machine, dest_machine),
                _SEND_RANK_BASE
                + ((sender_machine + 2) * _MACHINE_SPAN + dest_machine + 2) * _LINK_SPAN,
            )
        return channel

    def channels(self, sender_task: Task, destinations: Iterable[str]) -> list[Channel]:
        """The channels from ``sender_task``'s machine to the named tasks.

        Channels live as long as the simulator, so a sender may cache them —
        the reshuffler's per-partition destination cache does — and hand them
        to :meth:`post_fanout`.
        """
        tasks = self.tasks
        sender_machine = sender_task.machine_id
        return [self._channel(sender_machine, tasks[name]) for name in destinations]

    def _arm(self, machine_id: int, at: float) -> None:
        """Make ``at`` the machine's one valid tick, reusing a tick entry
        already queued at that time.

        While an earlier tick entry of the machine is queued the push is
        deferred: that entry pops first, finds itself stale and queues the
        valid tick then (see :meth:`_tick`).  A wake-up that priority
        handlers push later and later therefore costs one heap entry, not
        one per move.
        """
        self._tick_at[machine_id] = at
        queued = self._queued_ticks[machine_id]
        if at not in queued and not (queued and min(queued) < at):
            queued.add(at)
            heapq.heappush(self._queue, (at, _TICK_RANK_BASE + machine_id, machine_id, None))

    def _wake(self, machine_id: int, entry: tuple) -> None:
        """Wake ``machine_id`` for the pending-heap ``entry`` (a run, or the
        earliest delivery left after a tick), which is not yet due.

        ``entry`` leads with its ``(delivery time, rank)``.  On the
        unmerged reference wire that delivery schedules the
        machine's tick at ``max(time, busy_until)`` when it pops, unless a
        tick is scheduled by then — so the send arms that tick now, unless
        the machine's valid tick already serves it: a tick for a non-empty
        inbox, or a wake-up for an earlier pending delivery.  A wake-up for
        a later delivery is superseded (no later than before; its entry goes
        stale).  Until the delivery is due, ``busy_until`` can still rise
        only through a priority handler, which re-computes the wake-up (see
        :meth:`_deliver`).  A crashed machine gets no wake-up: its restart
        arms its own tick.
        """
        if self._crashed and machine_id in self._crashed:
            return
        tick = self._tick_at[machine_id]
        if tick is not None:
            waiting = self._wake_for[machine_id]
            if waiting is None or waiting < entry:
                return
        self._wake_for[machine_id] = entry
        time = entry[0]
        busy_until = self.machines[machine_id].busy_until
        at = time if time >= busy_until else busy_until
        if tick is None or at < tick:
            self._arm(machine_id, at)

    def _rest(self, machine_id: int) -> None:
        """A tick left the inbox empty: wake the machine for its earliest
        pending delivery, or let it idle."""
        self._tick_at[machine_id] = None
        pending = self._pending_wire[machine_id]
        if pending:
            self._wake(machine_id, pending[0])

    def _open_run(self, channel: Channel, time: float, rank: int, message) -> None:
        """Open ``channel``'s next run with its first member: straight onto
        the receiver's pending heap, waking the receiver for it."""
        channel.times = [time]
        channel.ranks = [rank]
        channel.messages = [message]
        channel.start = 0
        machine_id = channel.task.machine_id
        entry = (time, rank, channel)
        heapq.heappush(self._pending_wire[machine_id], entry)
        self._wake(machine_id, entry)

    def _send_merged(self, channel: Channel, time: float, rank: int, message) -> None:
        """Append one send to ``channel``'s open run, opening one if needed."""
        messages = channel.messages
        if messages is not None:
            channel.times.append(time)
            channel.ranks.append(rank)
            messages.append(message)
        else:
            self._open_run(channel, time, rank, message)

    def feed_schedule(self, schedule: ArrivalSchedule, destination_picker) -> None:
        """Feed an arrival schedule into the topology, one message per tuple.

        One feed run per reshuffler covers the whole schedule (members keep
        their exact arrival times and ranks), waking its reshuffler for the
        first member.

        Args:
            schedule: the interleaved input streams.
            destination_picker: callable ``tuple -> task name`` choosing the
                reshuffler each tuple is sent to (the paper routes incoming
                tuples to a random reshuffler); called once per tuple in
                arrival order.
        """
        tasks = self.tasks
        schedule_rank = self._schedule_rank
        channel_get = self._channels[0].get
        for arrival_time, item in schedule.arrivals():
            item.arrival_time = arrival_time
            task = tasks[destination_picker(item)]
            rank = next(schedule_rank)
            channel = channel_get(task) or self._channel(-1, task)
            messages = channel.messages
            if messages is not None:
                # The channel append of _send_merged, inlined.
                channel.times.append(arrival_time)
                channel.ranks.append(rank)
                messages.append(item)
            else:
                self._open_run(channel, arrival_time, rank, item)

    def schedule_data(self, time: float, destination: str, message) -> None:
        """Schedule a data message for an on-cluster ``destination`` onto the
        feed channel's run (streaming ingestion)."""
        task = self.tasks.get(destination)
        if task is None:
            raise KeyError(f"unknown task: {destination}")
        channel = self._channels[0].get(task) or self._channel(-1, task)
        self._send_merged(channel, time, next(self._schedule_rank), message)

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
        sender_machine = sender_task.machine_id
        channel = self._channel(sender_machine, self.tasks[destination])
        if self._wire is not None:
            # Unreliable wire installed: every send becomes a link-layer frame.
            self._wire.send(sender_machine, channel, message, category, departure)
            return
        delivery = self.network.carry(channel.link, message.size, category, departure)
        rank = _next_rank(channel)
        if message.kind in PRIORITY_KINDS:
            # Priority kinds execute at delivery rather than queueing, so they
            # go onto the global heap, not into the channel's run.
            dest_task = channel.task
            self._pending_priority[dest_task.machine_id].append(delivery)
            heapq.heappush(self._queue, (delivery, rank, dest_task, message))
        else:
            self._send_merged(channel, delivery, rank, message)

    def post_fanout(
        self,
        sender_task: Task,
        channels,
        message: Message,
        category: TrafficCategory,
        ctx: Context,
    ) -> None:
        """Replicate one data message over several channels (routing fan-out).

        ``channels`` come from :meth:`channels`.  Equivalent to calling
        :meth:`post` once per destination — the shared departure time,
        sender machine and per-link transfers are identical, and the traffic
        counters add up send by send in the same order — with the per-send
        bookkeeping hoisted out of the loop.  Data plane only: non-priority
        kinds.
        """
        departure = ctx.now + ctx.charged
        sender_machine = sender_task.machine_id
        if self._wire is not None:
            # Unreliable wire installed: each replica becomes its own
            # link-layer frame (fan-out is data plane, non-priority).
            for channel in channels:
                self._wire.send(sender_machine, channel, message, category, departure)
            return
        size = message.size
        volume = self.network.volume
        carried = volume.get(category, 0.0)
        sent = 0
        for channel in channels:
            link = channel.link
            sequence = link.sequence
            link.sequence = sequence + 1
            rank = channel.rank_base + sequence
            if not link.local:
                sent += 1
                carried += size
            delivery = link.deliver(departure, size)
            messages = channel.messages
            if messages is not None:
                # The hottest send path: the channel append of _send_merged,
                # inlined.
                channel.times.append(delivery)
                channel.ranks.append(rank)
                messages.append(message)
            else:
                self._open_run(channel, delivery, rank, message)
        if sent:
            self.network.messages[category] += sent
            volume[category] = carried

    # ---------------------------------------------------------------- running

    def _context(self, task: Task, start: float) -> Context:
        """``task``'s handler context, reset to logical time ``start``.

        One context per task serves all of its handlers (handlers never run
        nested, and none keeps its context).
        """
        ctx = self._contexts[task]
        ctx.now = start
        ctx.charged = 0.0
        return ctx

    def _execute(self, task: Task, message: Message, start: float) -> None:
        """Run one handler at logical time ``start`` and account its work."""
        ctx = self._context(task, start)
        task.handle(message, ctx)
        if ctx.charged > 0:
            machine = task.hosted_machine
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
        ctx = self._context(task, start)
        boundaries = ctx.drain_boundaries = []
        ctx.drain_horizon = lambda: self._drain_horizon(machine_id, event_time)
        count = task.handle_drained(first, inbox, limit, key, ctx)
        ctx.drain_boundaries = ctx.drain_horizon = None
        # The tick already took ``first``; the task pulled the other members.
        self._inbox_members[machine_id] -= count - 1
        machine = task.hosted_machine
        if ctx.charged > 0:  # defensive: close a run whose tail was not rotated
            machine.occupy(ctx.now, ctx.charged)
            boundaries.append(machine.busy_until)
        machine.record_drain_window(start, boundaries)
        self.metrics.record_drained_run(count)
        self.events_processed += 1

    # ------------------------------------------------------------ fault plane

    def _schedule_fault(
        self, time: float, action: str, machine_id: int, frame=None
    ) -> None:
        rank = _FAULT_RANK_BASE + (
            (_FAULT_ACTION_OFFSETS[action] * _MACHINE_SPAN + machine_id) * _FAULT_SERIAL_SPAN
            + next(self._fault_serial)
        )
        heapq.heappush(
            self._queue, (time, rank, machine_id, _FaultEvent(action, frame))
        )

    def _schedule_frame(self, time: float, machine_id: int, frame: _WireFrame) -> None:
        """Schedule the arrival of a reliable-wire ``frame`` at ``machine_id``:
        ``_schedule_fault(time, "frame", ...)``'s rank, with the frame itself
        as the heap payload."""
        rank = _FRAME_RANK_BASE + machine_id * _FAULT_SERIAL_SPAN + next(self._fault_serial)
        heapq.heappush(self._queue, (time, rank, machine_id, frame))

    def _process_fault(self, machine_id: int, event: _FaultEvent, time: float) -> None:
        if event.action == "restart":
            self._restart_machine(machine_id, time)
        else:
            self._wire.retransmit(event.frame, time)

    def _crash_machine(self, machine_id: int, time: float) -> None:
        """Fail-stop ``machine_id``: drop its volatile state, suspend its ticks.

        Its inbox, pending wire entries and open channel runs stay where they
        are — deliveries keep arriving there, and the restart's reviving tick
        picks them all up — and work already accepted (``busy_until``) counts
        as completed, per the handler-boundary crash model.  The coordinator
        detects the failure at the ack timeout and brings up the blank
        replacement immediately.
        """
        if machine_id in self._crashed:
            raise OverlappingFaultError(machine_id, time)
        self._crashed.add(machine_id)
        # No tick and no wake-up for the duration of the outage (tick entries
        # still queued pop as stale); the restart arms the reviving tick.
        self._tick_at[machine_id] = None
        self._wake_for[machine_id] = None
        self._recovery.on_crash(machine_id, time)
        self._schedule_fault(time + ACK_TIMEOUT, "restart", machine_id)

    def _restart_machine(self, machine_id: int, time: float) -> None:
        """Blank replacement up: restore from the checkpoint store, replay the
        journal, run the parked control-plane messages, resume ticking."""
        self._crashed.discard(machine_id)
        # The reviving tick: it handles the traffic that waited for the
        # machine and restarts the normal cycle (armed first, so sends of the
        # handlers below find the machine's tick already scheduled).
        self._arm(machine_id, time)
        machine = self.machines[machine_id]
        restore_cost, _replayed = self._recovery.on_restart(machine_id, time)
        if restore_cost > 0:
            machine.occupy(time, restore_cost)
        for task, message in self._parked.pop(machine_id, ()):
            # Parked control-plane messages execute first (they never queue
            # behind data), serialized after the restore work via the
            # machine's busy chain.
            self._execute(task, message, max(time, machine.busy_until))

    def _deliver(self, task: Task, message: Message, time: float, rank: int = 0) -> None:
        machine = task.hosted_machine
        machine_id = machine.machine_id
        if message.kind in PRIORITY_KINDS:
            self._pending_priority[machine_id].remove(time)
            if self._crashed and machine_id in self._crashed:
                # Parked until the restart, which runs it first.
                self._parked.setdefault(machine_id, []).append((task, message))
                return
            # Control-plane messages skip the data backlog but still need the
            # CPU: they start once the machine finishes the handler it is
            # currently running — on the adaptive plane, the per-tuple-
            # equivalent boundary of the last drained run.
            self._execute(task, message, machine.priority_start(time))
            waiting = self._wake_for[machine_id]
            if waiting is not None and (time, rank) < waiting:
                # The delivery the machine's wake-up waits for is still to
                # come, and on the unmerged wire it schedules the tick
                # against the busy_until this handler just raised.
                busy_until = machine.busy_until
                at = waiting[0] if waiting[0] >= busy_until else busy_until
                if at != self._tick_at[machine_id]:
                    self._arm(machine_id, at)
            return
        pending = self._pending_wire[machine_id]
        if pending and pending[0] < (time, rank):
            # Unsettled run members precede this single; enqueue it
            # behind/between them by its own (time, rank) key so the settle
            # pass reproduces the per-tuple inbox order.  (Everything already
            # in the inbox precedes it, and pending deliveries after it
            # settle after it, so otherwise it joins the inbox directly.)
            heapq.heappush(pending, (time, rank, None, task, message))
        else:
            _enqueue(self._inboxes[machine_id], task, (message,), 0, 1)
            self._inbox_members[machine_id] += 1
        tick = self._tick_at[machine_id]
        waiting = self._wake_for[machine_id]
        if tick is not None and (waiting is None or waiting < (time, rank)):
            return  # the tick was already scheduled when this delivery came
        if self._crashed and machine_id in self._crashed:
            return  # a down machine ticks again from its restart
        # The machine's first delivery since its inbox ran empty schedules
        # its tick — earlier than a wake-up still waiting for a later one.
        self._wake_for[machine_id] = None
        busy_until = machine.busy_until
        at = time if time >= busy_until else busy_until
        if tick is None or at < tick:
            self._arm(machine_id, at)

    def _settle(self, machine_id: int, time: float) -> None:
        """Move pending wire deliveries dated ``<= time`` into the inbox.

        Called at the start of a tick popped at ``time``: on the unmerged
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
        settled = 0
        while pending and pending[0][0] <= time:
            entry = heappop(pending)
            channel = entry[2]
            if channel is None:
                # A single parked by _deliver: its message is entry[4].
                _enqueue(inbox, entry[3], entry, 4, 5)
                settled += 1
                continue
            times = channel.times
            index = channel.start
            count = len(times)
            end = index + 1  # a run's last member settles alone, unsearched
            if end < count:
                # Settle-bound cut: members dated <= the tick time.  Within
                # a run both times and ranks are strictly increasing, so the
                # segment boundaries are binary searches instead of
                # per-member compares.
                end = bisect_right(times, time, index, count)
                if pending:
                    # A competing pending delivery may cut the segment short:
                    # only members strictly below the head's (time, rank) key
                    # settle now.
                    head = pending[0]
                    head_time = head[0]
                    if head_time <= time:
                        below = bisect_left(times, head_time, index, end)
                        ties_end = bisect_right(times, head_time, below, end)
                        end = (
                            bisect_left(channel.ranks, head[1], below, ties_end)
                            if ties_end > below
                            else below
                        )
            # The popped entry was the pending minimum and is inside the
            # bound, so at least one member always settles (progress).
            _enqueue(inbox, channel.task, channel.messages, index, end)
            settled += end - index
            if end < count:
                channel.start = end
                heappush(pending, (times[end], channel.ranks[end], channel))
            else:
                self._close_run(channel, count)
        self._inbox_members[machine_id] += settled

    def _close_run(self, channel: Channel, count: int) -> None:
        """``channel``'s run of ``count`` members is exhausted: release its
        arrays (the next send opens a fresh run) and record its length."""
        channel.times = channel.ranks = channel.messages = None
        histogram = self.metrics.wire_histogram
        histogram[count] = histogram.get(count, 0) + 1

    def _tick(self, machine_id: int, time: float) -> None:
        queued = self._queued_ticks[machine_id]
        queued.discard(time)
        valid = self._tick_at[machine_id]
        if time != valid:
            # Stale: superseded by another tick of the machine, or the
            # machine went down after arming it.  An arm deferred behind
            # this entry (see _arm) queues the valid tick now.
            if valid is not None and valid not in queued:
                queued.add(valid)
                heapq.heappush(
                    self._queue, (valid, _TICK_RANK_BASE + machine_id, machine_id, None)
                )
            return
        self._wake_for[machine_id] = None
        pending = self._pending_wire[machine_id]
        inbox = self._inboxes[machine_id]
        members = self._inbox_members
        task = None
        if pending and pending[0][0] <= time:
            # The lone member: with the inbox empty and no second pending
            # member due (neither the head run's next one nor the heap
            # root's children), the pending minimum is the one delivery the
            # settle pass would append, so the tick takes it straight off
            # the pending heap — exactly the member the unmerged wire hands
            # this tick, in (time, rank) order.
            size = len(pending)
            if not (
                inbox
                or (size > 1 and pending[1][0] <= time)
                or (size > 2 and pending[2][0] <= time)
            ):
                head = pending[0]
                channel = head[2]
                if channel is None:
                    heapq.heappop(pending)
                    task, message = head[3], head[4]
                else:
                    times = channel.times
                    index = channel.start
                    end = index + 1
                    count = len(times)
                    if end == count or times[end] > time:
                        task = channel.task
                        message = channel.messages[index]
                        channel.start = end
                        if end < count:
                            heapq.heapreplace(
                                pending, (times[end], channel.ranks[end], channel)
                            )
                        else:
                            heapq.heappop(pending)
                            self._close_run(channel, count)
            if task is None:
                self._settle(machine_id, time)
        if task is None:
            if not inbox:
                self._rest(machine_id)
                return
            entry = inbox.popleft()
            if entry.__class__ is tuple:
                task, message = entry
            else:
                task = entry.task
                message = entry.messages[entry.index]
                entry.index += 1
                if entry.index < entry.end:
                    inbox.appendleft(entry)
            members[machine_id] -= 1
        machine = self.machines[machine_id]
        busy_until = machine.busy_until
        start = time if time >= busy_until else busy_until
        controllers = self._drain_controllers
        key = task.drain_key(message) if controllers is not None else None
        if key is None:
            self._execute(task, message, start)
        else:
            # Backlog estimate for the drain controller: this member plus
            # every member still queued (inside settled segments too) —
            # identical to the unmerged wire's per-member inbox length.
            behind = members[machine_id]
            if behind:
                limit = controllers[machine_id].next_batch_size(1 + behind)
            else:
                # Nothing else queued: next_batch_size(1)'s collapse, inlined.
                controllers[machine_id].size = limit = 1
            if limit > 1 and inbox:
                self._execute_drained(
                    task, message, inbox, limit, key, start, time, machine_id
                )
            else:
                # A run of one, a paced machine's usual tick: the task's
                # drained handler takes it (at limit 1 it pulls nothing)
                # and, like a single handler, leaves no drain window.  The
                # histogram count is record_drained_run(1), inlined like
                # _settle's wire_histogram write: this is the hottest tick.
                histogram = self.metrics.drain_histogram
                histogram[1] = histogram.get(1, 0) + 1
                ctx = self._contexts[task]  # _context, inlined
                ctx.now = start
                ctx.charged = 0.0
                task.handle_drained(message, inbox, 1, key, ctx)
                machine.drain_boundaries = None
                self.events_processed += 1
        busy_until = machine.busy_until
        if inbox:
            at = busy_until if busy_until >= start else start
        elif pending:
            # _rest, inlined: wake the machine for its earliest pending
            # delivery (a ticking machine is up, and its inbox just ran dry).
            entry = pending[0]
            self._wake_for[machine_id] = entry
            at = entry[0]
            if busy_until > at:
                at = busy_until
        else:
            self._tick_at[machine_id] = None
            return
        # _arm, inlined.
        self._tick_at[machine_id] = at
        if at not in queued and not (queued and min(queued) < at):
            queued.add(at)
            heapq.heappush(self._queue, (at, _TICK_RANK_BASE + machine_id, machine_id, None))

    def run(self, max_events: int | None = None) -> float:
        """Run until the event queue drains.  Returns the completion time.

        Completion time is the larger of the last event's time and the
        busiest machine's final ``busy_until``.

        The loop runs with the cyclic garbage collector paused: a run makes
        no reference cycles (reference counting frees everything it drops,
        retired epoch sub-stores included), so a collection inside the loop
        could only walk the live heap and reclaim nothing.  The caller's
        collector state is restored on every exit — the queue drained, the
        ``max_events`` guard tripped or a handler raised.  A closure over
        ``self`` stored on something ``self`` owns breaks this contract;
        ``tests/test_gc_pause.py`` catches it.
        """
        queue = self._queue
        heappop = heapq.heappop
        tick = self._tick
        heap_events = self.heap_events
        now = self.now
        after_faults = self._after_event_faults
        limit = math.inf if max_events is None else max_events + 1
        # The one per-event check: the event count at which the next
        # event-anchored crash fires or the max_events guard trips.
        watch = min(after_faults[0][0], limit) if after_faults else limit
        arrive = self._wire.arrive if self._wire is not None else None
        with paused_collector():
            wall_start = _time.perf_counter()
            try:
                while queue:
                    time, rank, target, message = heappop(queue)
                    heap_events += 1
                    if time > now:
                        now = time
                    if message is None:
                        tick(target, time)
                    elif message.__class__ is _WireFrame:
                        arrive(message, time)
                    elif message.__class__ is _FaultEvent:
                        self._process_fault(target, message, time)
                    else:
                        self._deliver(target, message, time, rank)
                    if self.events_processed >= watch:
                        while after_faults and self.events_processed >= after_faults[0][0]:
                            self._crash_machine(after_faults.pop(0)[1], now)
                        if self.events_processed >= limit:
                            raise RuntimeError(
                                f"simulation exceeded {max_events} events; "
                                "possible signalling loop"
                            )
                        watch = min(after_faults[0][0], limit) if after_faults else limit
            finally:
                # Written back even when a handler raises, so the counters stay
                # consistent with events_processed on error paths.
                self.heap_events = heap_events
                self.now = now
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
