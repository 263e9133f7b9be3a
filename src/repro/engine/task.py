"""Task (actor) abstraction and message types.

The operator of Fig. 1c is composed of *reshuffler* tasks and *joiner* tasks,
one of each per machine, plus the data sources feeding the operator and a
collector consuming its output.  Tasks communicate exclusively through
messages; the engine delivers messages in virtual-time order and charges the
processing cost to the hosting machine.

Concrete task implementations live next to the operators that use them
(``repro.core.operator`` and ``repro.core.baselines``); this module provides
the base class, the message vocabulary and the :class:`Context` handed to a
task while it processes a message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from repro.engine.network import TrafficCategory
from repro.engine.stream import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.engine.simulator import Simulator


class MessageKind(enum.Enum):
    """The kinds of messages exchanged by tasks."""

    # Members are singletons; identity hashing keeps the hot per-message
    # dict/set operations (priority checks, traffic counters) at C speed
    # instead of going through Enum.__hash__.
    __hash__ = object.__hash__

    DATA = "data"                      # a stream tuple routed to a joiner
    SOURCE = "source"                  # a stream tuple arriving at a reshuffler
    MIGRATION = "migration"            # a relocated tuple during migration
    BATCH = "batch"                    # a TupleBatch; meta["inner"] is the member kind
    MIGRATION_END = "migration_end"    # sender finished relocating state to receiver
    MAPPING_CHANGE = "mapping_change"  # controller -> reshufflers: new mapping/epoch
    EPOCH_SIGNAL = "epoch_signal"      # reshuffler -> joiners: epoch change notice
    MIGRATION_ACK = "migration_ack"    # joiner -> controller: finished migration
    RESUME = "resume"                  # controller -> reshufflers: unblock buffered input
    FLUSH = "flush"                    # end-of-stream marker


@dataclass(slots=True)
class Message:
    """A message in flight between two tasks.

    Attributes:
        kind: message type.
        sender: name of the sending task.
        payload: a :class:`StreamTuple` for data/migration messages, a
            :class:`~repro.engine.stream.TupleBatch` for BATCH messages, or an
            arbitrary structure for control messages.
        epoch: epoch tag (meaningful for data, migration and control traffic).
        size: size units used for network accounting.  For BATCH messages this
            is the sum of the member sizes, so volume accounting stays exact.
        meta: extra key/value context (e.g. the new mapping of a
            MAPPING_CHANGE message, or ``"inner"`` — the per-member
            :class:`MessageKind` — of a BATCH message).
    """

    kind: MessageKind
    sender: str
    payload: Any = None
    epoch: int = 0
    size: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)


#: Shared immutable empty meta of every :class:`DataEnvelope` — data-plane
#: handlers never read per-message meta, so one read-only mapping serves all.
_EMPTY_META: Any = MappingProxyType({})


class DataEnvelope:
    """Slim envelope for hot-path data messages (DATA / SOURCE wire traffic).

    Duck-type compatible with :class:`Message` for everything the data plane
    reads (``kind``, ``sender``, ``payload``, ``epoch``, ``size``, and a
    read-only empty ``meta``), but without the dataclass machinery and —
    crucially — without allocating a fresh ``meta`` dict per tuple: on the
    per-tuple wire every input tuple becomes at least one envelope, so the
    saved allocation is paid once per tuple per hop.  Control-plane and batch
    messages (which do carry meta) keep using :class:`Message`.
    """

    __slots__ = ("kind", "sender", "payload", "epoch", "size")

    meta = _EMPTY_META

    def __init__(
        self,
        kind: MessageKind,
        sender: str,
        payload: Any,
        epoch: int = 0,
        size: float = 0.0,
    ) -> None:
        self.kind = kind
        self.sender = sender
        self.payload = payload
        self.epoch = epoch
        self.size = size


class Context:
    """Per-delivery context given to ``Task.handle``.

    It exposes the current virtual time, lets the task charge CPU work to its
    machine and send messages to other tasks, and gives access to the shared
    metrics collector.
    """

    __slots__ = ("_simulator", "_task", "now", "charged", "drain_boundaries", "drain_horizon")

    def __init__(self, simulator: "Simulator", task: "Task", now: float) -> None:
        self._simulator = simulator
        self._task = task
        self.now = now
        self.charged = 0.0
        # Member-completion times of a drained run (adaptive data plane);
        # allocated by the simulator before Task.handle_drained runs.
        self.drain_boundaries: list[float] | None = None
        # Zero-argument callable returning the current control-plane drain
        # horizon (see Simulator._drain_horizon); set for drained runs only.
        self.drain_horizon = None

    @property
    def metrics(self):
        """The run-wide :class:`repro.engine.metrics.MetricsCollector`."""
        return self._simulator.metrics

    @property
    def rng(self):
        """The deterministic random stream owned by the hosting machine.

        Streams are derived from ``(seed, machine_id)`` (see
        :meth:`repro.engine.simulator.Simulator.machine_rng`), so a task's
        draws depend only on its own machine's handler sequence — never on
        how handler executions of *other* machines interleave.
        """
        return self._simulator.machine_rng(self._task.machine_id)

    @property
    def machine(self):
        """The machine hosting the current task (None for off-cluster tasks)."""
        return self._task.hosted_machine

    def cluster_peak_stored(self) -> float:
        """Largest peak per-machine stored size observed so far (measured ILF)."""
        return self._simulator.max_machine_storage()

    def cluster_current_max_stored(self) -> float:
        """Largest current per-machine stored size."""
        return max(
            (machine.stored_size for machine in self._simulator.machines), default=0.0
        )

    def charge(self, cost: float) -> None:
        """Charge ``cost`` units of CPU work to the hosting machine."""
        self.charged += cost

    def send(
        self,
        destination: str,
        message: Message,
        category: TrafficCategory = TrafficCategory.ROUTING,
    ) -> None:
        """Send ``message`` to the task named ``destination``."""
        self._simulator.post(self._task, destination, message, category, self)

    def send_fanout(
        self,
        destinations,
        message: Message,
        category: TrafficCategory = TrafficCategory.ROUTING,
    ) -> None:
        """Send one data message to every task name in ``destinations``.

        Identical to calling :meth:`send` per destination (same departures,
        same per-link transfers, same delivery order); data plane only.
        """
        self._simulator.post_fanout(self._task, destinations, message, category, self)

    def emit_output(self, left: StreamTuple, right: StreamTuple) -> None:
        """Record one join result tuple.

        The latency of the result follows the §5.2 definition: output time
        minus the arrival time of the more recent of the two matching inputs.

        Args:
            left: the R-side tuple of the match.
            right: the S-side tuple of the match.
        """
        self._simulator.metrics.record_output(left, right, self.now + self.charged)

    def emit_outputs(self, matches) -> None:
        """Record the join results of one handled tuple, emitted at one instant.

        ``matches`` is the tuple's :class:`~repro.engine.metrics.MatchGroup`:
        every result shares the output time
        ``now + charged`` — the per-result ``match_cost`` is charged *before*
        emission — so one collector call per probing tuple records them all.
        """
        self._simulator.metrics.record_outputs(matches, self.now + self.charged)

    def boundary(self) -> None:
        """Close the current member of a drained run (adaptive data plane).

        Commits the member's accumulated charge to the hosting machine —
        exactly the ``occupy`` a per-tuple handler completion performs — and
        starts the next member at the resulting busy time, so a drained run
        reproduces the per-tuple busy chain float-for-float.  The completion
        time is appended to :attr:`drain_boundaries` for control-plane
        message scheduling (see :meth:`repro.engine.machine.Machine.priority_start`).
        """
        if self.charged > 0:
            machine = self._task.hosted_machine
            self.now = machine.occupy(self.now, self.charged)
            self.charged = 0.0
        if self.drain_boundaries is not None:
            self.drain_boundaries.append(self.now)


class Task:
    """Base class for all actors in the dataflow.

    Attributes:
        name: globally unique task name.
        machine_id: machine hosting the task (``-1`` for off-cluster tasks
            such as sources and collectors, which are not charged CPU time).
    """

    def __init__(self, name: str, machine_id: int = -1) -> None:
        self.name = name
        self.machine_id = machine_id
        # The hosting Machine object, resolved once at registration by the
        # simulator (None for off-cluster tasks); avoids per-message lookups.
        self.hosted_machine = None

    def handle(self, message: Message, ctx: Context) -> None:
        """Process one message.  Implemented by subclasses."""
        raise NotImplementedError

    def drain_key(self, message: Message):
        """Coalescing key of ``message`` on the adaptive data plane.

        The simulator drains consecutive inbox messages for the same task
        while their keys are equal and not None; a ``None`` marks the message
        as per-tuple-only.  Keys must only be returned for messages whose
        handling (a) sends nothing over the network and charges work
        identically when processed back-to-back, or (b) is a pure function of
        the task's own state — so that draining cannot perturb the virtual
        clock or cross-machine message interleaving.  The default is
        conservative: nothing is drainable.
        """
        return None

    def handle_drained(self, first: Message, inbox, limit: int, key, ctx: Context) -> int:
        """Process one drained run: ``first`` plus same-key followers pulled
        from the head of ``inbox`` (up to ``limit`` members total).

        Implementations MUST call :meth:`Context.boundary` after each member
        so per-member charges land on the machine's busy chain exactly as
        per-tuple handling would, MUST only pull inbox heads belonging to
        this task whose :meth:`drain_key` equals ``key``, and return the
        member count.  Inbox entries are either ``(task, message)`` tuples or
        ``SettledSegment`` cursor windows over a merged delivery run (see the
        simulator module); implementations must consume both shapes.  The
        default processes members through :meth:`handle` one by one —
        bit-identical to per-tuple delivery, saving only simulator events;
        subclasses may batch the member work itself (see ``JoinerTask``) or
        stop pulling early (e.g. at the control-plane drain horizon, see
        ``ReshufflerTask``) as long as per-member accounting is preserved.
        """
        self.handle(first, ctx)
        ctx.boundary()
        count = 1
        while count < limit and inbox:
            head = inbox[0]
            if head.__class__ is tuple:
                task, message = head
                if task is not self or self.drain_key(message) != key:
                    break
                inbox.popleft()
            else:
                if head.task is not self:
                    break
                message = head.messages[head.index]
                if self.drain_key(message) != key:
                    break
                head.index += 1
                if head.index == head.end:
                    inbox.popleft()
            self.handle(message, ctx)
            ctx.boundary()
            count += 1
        return count

    def on_start(self, ctx: Context) -> None:
        """Hook invoked once before the first message is delivered."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} on machine {self.machine_id}>"
