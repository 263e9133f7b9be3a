"""Network model and traffic accounting.

The network connects every pair of machines.  Each message incurs a fixed
latency plus a size-proportional transfer cost, and all traffic is counted per
category so that experiments can report routing traffic, replicated storage
traffic and migration (adaptivity) traffic separately — the quantities behind
Fig. 6b and the amortised-communication claims of §4.2.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from repro.engine.machine import CostModel


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

    Links from or to an off-cluster endpoint (machine ``-1``) exist too, for
    their send sequence only: such traffic models ingest and egress, not the
    cluster fabric, so it pays the plain latency without clamp or counters.

    Attributes:
        local: sender and receiver are the same machine.  Local messages
            still pay the (small) local-delivery latency — Storm delivers
            through queues either way — but no transfer cost, and they are
            not counted in network volume.
        last_delivery: the latest delivery time handed out so far (the FIFO
            clamp, see :meth:`deliver`).
        sequence: sends on the link so far; the simulator derives each
            send's plane-invariant event rank from it.
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

    def data_volume(self) -> float:
        """Size units of data traffic (routing + migration), excluding control/output."""
        return float(
            self.volume[TrafficCategory.ROUTING] + self.volume[TrafficCategory.MIGRATION]
        )

    def migration_volume(self) -> float:
        """Size units moved due to state relocation (adaptivity cost)."""
        return float(self.volume[TrafficCategory.MIGRATION])

    def routing_volume(self) -> float:
        """Size units moved by regular tuple routing."""
        return float(self.volume[TrafficCategory.ROUTING])

    def snapshot(self) -> dict[str, float]:
        """A plain-dict summary of traffic volumes, keyed by category name."""
        return {category.value: float(self.volume[category]) for category in TrafficCategory}


class ReliableWire:
    """Reliable-delivery sublayer over an unreliable (fault-injected) wire.

    Holds the fault schedule (indexed for O(1) per-send lookup), the
    per-link sequencer/dedup state, and the degradation counters.  The
    simulator owns the event mechanics (frame arrival events, retransmit
    timers); this object owns the *policy*: which sends fault, what the
    receiver's expected sequence number is, and how the counters reconcile.

    Sequencing model (MillWheel-style sequencer/dedup): every original send
    on a directed link gets the next monotone sequence number; the receiver
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
        # (link, nth) -> [specs]: per-send faults, looked up on each send.
        self._actions: dict[tuple, list] = {}
        # (frozenset_a, frozenset_b, from_time, until_time) partition windows.
        self._partitions: list[tuple] = []
        for spec in faults:
            if spec.kind == "partition":
                self._partitions.append(
                    (
                        frozenset(spec.machines_a),
                        frozenset(spec.machines_b),
                        spec.from_time,
                        spec.until_time,
                    )
                )
            else:
                self._actions.setdefault((spec.link, spec.nth), []).append(spec)
        # Per-link sequencer (sender side) and dedup/in-order state (receiver
        # side).  `recv_next[link]` is the next sequence number the receiver
        # will release; `reorder[link]` buffers early arrivals by sequence.
        self._send_seq: dict[tuple, int] = {}
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
        # attempts -> count: how many retransmits fired on their nth attempt.
        self.retransmit_histogram: dict[int, int] = {}

    def on_send(self, link: tuple) -> tuple[int, bool, bool, float]:
        """Assign the next sequence number and look up per-send faults.

        Returns ``(seq, dropped, duplicated, delay_by)`` for the original
        send; ``seq`` is 0-based, so spec ``nth`` (1-based) matches
        ``seq + 1``.
        """
        seq = self._send_seq.get(link, 0)
        self._send_seq[link] = seq + 1
        if not self._actions:
            return seq, False, False, 0.0
        dropped = duplicated = False
        delay_by = 0.0
        for spec in self._actions.get((link, seq + 1), ()):
            if spec.kind == "drop":
                dropped = True
            elif spec.kind == "duplicate":
                duplicated = True
            else:
                delay_by += spec.by
        return seq, dropped, duplicated, delay_by

    def partitioned(self, sender: int, receiver: int, now: float) -> bool:
        """True when a partition window currently severs ``sender -> receiver``."""
        if not self._partitions:
            return False
        for side_a, side_b, from_time, until_time in self._partitions:
            if not from_time <= now < until_time:
                continue
            if (sender in side_a and receiver in side_b) or (
                sender in side_b and receiver in side_a
            ):
                return True
        return False

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
