"""Network model and traffic accounting.

The network connects every pair of machines.  Each message incurs a fixed
latency plus a size-proportional transfer cost, and all traffic is counted per
category so that experiments can report routing traffic, replicated storage
traffic and migration (adaptivity) traffic separately — the quantities behind
Fig. 6b and the amortised-communication claims of §4.2.

:class:`ReliableWire` is the reliable-delivery sublayer of the unreliable
wire (``RunConfig.network_faults``): it frames each machine-to-machine send,
injects the scheduled drops, duplicates and delays, sends each dropped frame
once more and releases arrivals to the simulator in per-link send order.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from repro.engine.faults import RETRANSMIT_BASE
from repro.engine.machine import CostModel
from repro.engine.stream import PRIORITY_KINDS


class TrafficCategory(enum.Enum):
    """Categories of simulated network traffic."""

    # Identity hashing: members are singletons and the per-message traffic
    # counters key dicts on them (see MessageKind for the same pattern).
    __hash__ = object.__hash__

    ROUTING = "routing"          # reshuffler -> joiner data tuples
    MIGRATION = "migration"      # joiner -> joiner state relocation
    CONTROL = "control"          # signals, acks, mapping changes
    SOURCE = "source"            # source -> reshuffler ingest
    OUTPUT = "output"            # joiner -> collector results


class Link:
    """One directed link between two machines: the record every send on it touches.

    The feed's channels (sender machine ``-1``) carry a link too, which no
    send touches: the feed dates and ranks its arrivals itself.

    Attributes:
        local: sender and receiver are the same machine.  Local messages
            still pay the (small) local-delivery latency — Storm delivers
            through queues either way — but no transfer cost, and they are
            not counted in network volume.
        last_delivery: the latest delivery time handed out so far (the FIFO
            clamp, see :meth:`deliver`).
        sequence: sends on the link so far; the simulator derives each
            send's plane-invariant event rank from it, and the reliable
            wire uses it as the send's frame sequence number.
    """

    __slots__ = ("local", "latency", "unit_cost", "last_delivery", "sequence")

    def __init__(self, local: bool, cost_model: CostModel) -> None:
        self.local = local
        self.latency = cost_model.network_latency
        self.unit_cost = 0.0 if local else cost_model.per_tuple_network_cost
        self.last_delivery = 0.0
        self.sequence = 0

    def deliver(self, now: float, size: float) -> float:
        """Delivery time of a message of ``size`` units departing at ``now``.

        Latency plus the size-proportional transfer cost, clamped so the
        link stays FIFO: a message never overtakes an earlier message on the
        same link, which the epoch protocol of §4.3.1 relies on (epoch-change
        signals must not be overtaken by tuples sent before them).  The clamp
        is load-bearing for the merged wire too: a channel's delivery times
        never decrease, so its open run's parallel arrays stay sorted for the
        simulator's bisect-based settling.
        """
        delivery = now + self.latency + self.unit_cost * size
        if delivery < self.last_delivery:
            delivery = self.last_delivery
        self.last_delivery = delivery
        return delivery


@dataclass
class Network:
    """Cluster interconnect with per-category traffic counters.

    Attributes:
        cost_model: supplies latency and per-size transfer costs.
        messages: number of messages sent per category (every data message
            is one tuple).
        volume: total size units transferred per category.
    """

    cost_model: CostModel
    messages: dict[TrafficCategory, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    volume: dict[TrafficCategory, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _links: dict[tuple[int, int], Link] = field(default_factory=dict)

    def link(self, sender: int, receiver: int) -> Link:
        """The :class:`Link` record of ``sender -> receiver`` (created on first use)."""
        link = self._links.get((sender, receiver))
        if link is None:
            link = self._links[(sender, receiver)] = Link(sender == receiver, self.cost_model)
        return link

    def transfer(
        self,
        sender: int,
        receiver: int,
        size: float,
        category: TrafficCategory,
        now: float,
    ) -> float:
        """Record a message from ``sender`` to ``receiver`` and return its
        delivery time (see :meth:`carry`)."""
        return self.carry(self.link(sender, receiver), size, category, now)

    def carry(
        self, link: Link, size: float, category: TrafficCategory, now: float
    ) -> float:
        """Record a message on ``link`` and return its delivery time.

        A message between two machines counts once in ``messages`` and its
        ``size`` in ``volume`` of its category; local messages are not
        counted.  The delivery time is :meth:`Link.deliver`'s.
        """
        if not link.local:
            self.messages[category] += 1
            self.volume[category] += size
        return link.deliver(now, size)

    def total_volume(self) -> float:
        """Total size units moved over the network (all categories)."""
        return float(sum(self.volume.values()))

    def migration_volume(self) -> float:
        """Size units moved due to state relocation (adaptivity cost)."""
        return float(self.volume[TrafficCategory.MIGRATION])

    def routing_volume(self) -> float:
        """Size units moved by regular tuple routing."""
        return float(self.volume[TrafficCategory.ROUTING])

    def snapshot(self) -> dict[str, float]:
        """A plain-dict summary of traffic volumes, keyed by category name."""
        return {category.value: float(self.volume[category]) for category in TrafficCategory}


class _WireFrame:
    """One link-layer frame: a message instance in flight on the unreliable wire.

    The wire never mutates the wrapped message (a routed tuple is shared
    across fan-out destinations), so the sequence number lives on this
    wrapper.  ``seq`` is the link's :attr:`Link.sequence` at the
    original send, so ``channel.rank_base + seq`` is the send-band rank the
    receiver releases the message with — exactly a direct delivery's.

    A frame is also the global-heap payload of its own arrival event (a
    duplicated frame is pushed twice): the simulator's run loop recognises
    it by class and hands it to :meth:`ReliableWire.arrive`.
    """

    __slots__ = ("link", "seq", "channel", "message", "category")

    def __init__(self, link, seq, channel, message, category) -> None:
        self.link = link
        self.seq = seq
        self.channel = channel
        self.message = message
        self.category = category


#: The fault table of a link with no fault scheduled.
_NO_FAULTS: dict = {}


class ReliableWire:
    """Reliable-delivery sublayer over an unreliable (fault-injected) wire.

    Owns the whole algorithm: the fault schedule (indexed for O(1) per-send
    lookup), the framing of each on-cluster send, the sender's retransmit
    timers, the receiver's dedup/in-order release, and the degradation
    counters.  The simulator it is installed on (:attr:`simulator`, set by
    ``Simulator.install_network_faults``) calls :meth:`send` from its send
    points.  Each frame instance in flight is its own global-heap payload in
    the fault rank band, which the simulator hands to :meth:`arrive` when it
    pops; a retransmit timer is a ``"retransmit"`` fault event, handed to
    :meth:`retransmit`.  A send with no fault scheduled skips the fault
    lookup (:meth:`on_send`), and an in-order arrival on a link with nothing
    buffered goes straight to the simulator's delivery path.

    Sequencing model (MillWheel-style sequencer/dedup): every original send
    on a directed link carries the link's send sequence number; the receiver
    releases frames to the task layer strictly in sequence order, buffering
    early arrivals and discarding duplicates.  Because sequence order equals
    send order, release order equals the fault-free wire's per-link FIFO
    order — the epoch protocol's FIFO assumption survives any fault mix.

    Counter invariants (asserted by the conformance suite):
    ``frames_sent == frames_delivered + frames_dropped`` (every frame
    instance either arrives or is dropped) and
    ``frames_applied == frames_delivered - frames_deduped`` (every arrival
    is either released to the task layer — possibly after reorder
    buffering — or discarded as a duplicate).
    """

    def __init__(self, faults) -> None:
        self.simulator = None
        # link -> {nth: specs}: per-send faults, looked up on each send by
        # link, then by the send's number, with no key tuple built per send.
        self._actions: dict[tuple, dict[int, tuple]] = {}
        for spec in faults:
            by_nth = self._actions.setdefault(spec.link, {})
            by_nth[spec.nth] = by_nth.get(spec.nth, ()) + (spec,)
        # Receiver-side dedup/in-order state, per (sender, receiver) machine
        # link: `recv_next[link]` is the next sequence number the receiver
        # will release; `reorder[link]` buffers early arrivals by sequence.
        self.recv_next: dict[tuple, int] = {}
        self.reorder: dict[tuple, dict] = {}
        # Degradation counters: frame *instances* (a duplicate or retransmit
        # counts as another sent frame).
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_retransmitted = 0
        self.frames_reordered = 0
        self.frames_deduped = 0
        self.frames_applied = 0

    def on_send(self, link: tuple, seq: int) -> tuple[bool, bool, float]:
        """Look up the faults of the original send ``seq`` on ``link``.

        Returns ``(dropped, duplicated, delay_by)``; ``seq`` is 0-based, so
        spec ``nth`` (1-based) matches ``seq + 1``.  :meth:`send` calls it
        only for a send that has a fault scheduled.
        """
        dropped = duplicated = False
        delay_by = 0.0
        for spec in self._actions.get(link, _NO_FAULTS).get(seq + 1, ()):
            if spec.kind == "drop":
                dropped = True
            elif spec.kind == "duplicate":
                duplicated = True
            else:
                delay_by += spec.by
        return dropped, duplicated, delay_by

    def send(self, sender_machine: int, channel, message, category, departure: float) -> None:
        """Frame one on-cluster send on ``channel`` and push it through the
        fault schedule.

        The frame takes the link's next send sequence number (its rank
        follows from it), so every send on an on-cluster link must come
        through here: the receiver releases sequence numbers without gaps.
        A dropped frame never charges the network — its bytes were lost
        before crossing — and instead arms the sender's retransmit timer.
        A duplicated frame is charged and scheduled twice with the *same*
        frame object: the receiver dedups on the shared sequence number.
        """
        simulator = self.simulator
        dest_machine = channel.task.machine_id
        link = (sender_machine, dest_machine)
        wire_link = channel.link
        seq = wire_link.sequence
        wire_link.sequence = seq + 1
        frame = _WireFrame(link, seq, channel, message, category)
        self.frames_sent += 1
        if seq + 1 not in self._actions.get(link, _NO_FAULTS):
            # No fault scheduled for this send: it crosses the wire once.
            arrival = simulator.network.carry(wire_link, message.size, category, departure)
            simulator._schedule_frame(arrival, dest_machine, frame)
            return
        dropped, duplicated, delay_by = self.on_send(link, seq)
        if dropped:
            self.frames_dropped += 1
            # Timers are armed only for frames known lost (a deterministic-
            # simulation shortcut: behaviourally equivalent to per-frame ack
            # timeouts without modelling the ack traffic).
            simulator._schedule_fault(
                departure + RETRANSMIT_BASE, "retransmit", dest_machine, frame
            )
            return
        carry = simulator.network.carry
        arrival = carry(wire_link, message.size, category, departure)
        # The per-send delay is added *after* the link's FIFO clamp, so later
        # sends can genuinely overtake the delayed frame on the wire; the
        # receiver's in-order release restores send order.
        simulator._schedule_frame(arrival + delay_by, dest_machine, frame)
        if duplicated:
            self.frames_sent += 1
            self.frames_duplicated += 1
            dup_arrival = carry(wire_link, message.size, category, departure)
            # Same frame object = same sequence number: the copy that loses
            # the race (the fault serial orders the original first at equal
            # times) is discarded by the receiver's dedup.
            simulator._schedule_frame(dup_arrival + delay_by, dest_machine, frame)

    def retransmit(self, frame: _WireFrame, time: float) -> None:
        """A retransmit timer fired: send the lost frame again.

        Only an original send can be dropped, so the one retransmit always
        arrives.
        """
        self.frames_sent += 1
        self.frames_retransmitted += 1
        link = frame.link
        simulator = self.simulator
        arrival = simulator.network.transfer(
            link[0], link[1], frame.message.size, frame.category, time
        )
        simulator._schedule_frame(arrival, link[1], frame)

    def arrive(self, frame: _WireFrame, time: float) -> None:
        """A frame reached its receiver: dedup, reorder-buffer or release.

        Release is strictly in sequence order per link — equal to send order,
        so the fault-free wire's per-link FIFO (which the epoch protocol
        relies on) is preserved under any fault mix.  Dedup state is *not*
        reset when the receiving machine crashes: the sequencer is durable
        (MillWheel-style), so a retransmitted-then-crashed message is either
        discarded here or still waits, once, at its receiver for the restart.
        """
        link = frame.link
        self.frames_delivered += 1
        seq = frame.seq
        expected = self.recv_next.get(link, 0)
        reorder = self.reorder
        if seq == expected and link not in reorder:
            # In order with nothing buffered behind it (a drained buffer is
            # deleted): straight to the delivery path — _release, inlined.
            self.recv_next[link] = seq + 1
            self.frames_applied += 1
            simulator = self.simulator
            message = frame.message
            channel = frame.channel
            task = channel.task
            if message.kind in PRIORITY_KINDS:
                simulator._pending_priority[task.machine_id].append(time)
            simulator._deliver(task, message, time, channel.rank_base + seq)
            return
        if seq < expected:
            self.frames_deduped += 1
            return
        if seq > expected:
            buffer = reorder.setdefault(link, {})
            if seq in buffer:
                self.frames_deduped += 1
            else:
                self.frames_reordered += 1
                buffer[seq] = frame
            return
        # In order, and the gap it closes may free buffered successors.
        next_seq = expected + 1
        self.recv_next[link] = next_seq
        self._release(frame, time)
        buffer = reorder[link]
        while next_seq in buffer:
            follower = buffer.pop(next_seq)
            next_seq += 1
            self.recv_next[link] = next_seq
            self._release(follower, time)
        if not buffer:
            del reorder[link]

    def _release(self, frame: _WireFrame, time: float) -> None:
        """Hand a frame to the simulator's normal delivery path, in sequence order.

        Priority-kind bookkeeping is done here (not at send) because only
        now is the effective delivery instant known; the delivery removes the
        same ``time`` again.  The frame keeps its send rank, although its
        arrival event sits in the fault band after every delivery dated
        ``time``: the two order alike against the only runs a machine can
        wait for under the unreliable wire — feed runs, whose ranks lie below
        the send band (on-cluster sends are never merged there).
        """
        self.frames_applied += 1
        simulator = self.simulator
        message = frame.message
        channel = frame.channel
        task = channel.task
        if message.kind in PRIORITY_KINDS:
            simulator._pending_priority[task.machine_id].append(time)
        simulator._deliver(task, message, time, channel.rank_base + frame.seq)

    def counters(self) -> dict[str, int]:
        """The degradation counters as a plain dict (RunResult.wire_counters)."""
        return {
            "sent": self.frames_sent,
            "delivered": self.frames_delivered,
            "dropped": self.frames_dropped,
            "duplicated": self.frames_duplicated,
            "retransmitted": self.frames_retransmitted,
            "reordered": self.frames_reordered,
            "deduped": self.frames_deduped,
            "applied": self.frames_applied,
        }
