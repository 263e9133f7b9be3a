"""Task (actor) abstraction and message types.

The operator of Fig. 1c is composed of *reshuffler* tasks and *joiner* tasks,
one of each per machine, fed by one source (the simulator's feed, which is
not a task).  Tasks communicate exclusively through messages; the engine
delivers messages in virtual-time order and charges the processing cost to
the hosting machine.

Concrete task implementations live next to the operators that use them
(``repro.core.operator`` and ``repro.core.baselines``); this module provides
the base class, the message vocabulary and the :class:`Context` handed to a
task while it processes a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.engine.network import TrafficCategory
# MessageKind and EMPTY_META live next to StreamTuple (a tuple is its own
# data message); re-exported here with the rest of the message vocabulary.
from repro.engine.stream import EMPTY_META, MessageKind, StreamTuple  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.engine.simulator import Simulator


@dataclass(slots=True)
class Message:
    """A message in flight between two tasks.

    A single data tuple travels as the :class:`StreamTuple` itself (it speaks
    this protocol through class attributes); :class:`Message` carries
    everything else — µ relocations and the control plane.

    Attributes:
        kind: message type.
        sender: name of the sending task.
        payload: a :class:`StreamTuple` for migration messages, or an
            arbitrary structure for control messages.
        epoch: epoch tag (meaningful for data, migration and control traffic).
        size: size units used for network accounting.
        meta: extra key/value context (e.g. the new mapping of a
            MAPPING_CHANGE message).
    """

    kind: MessageKind
    sender: str
    payload: Any = None
    epoch: int = 0
    size: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)


class Context:
    """Per-delivery context given to ``Task.handle``.

    It exposes the current virtual time, lets the task charge CPU work to its
    machine and send messages to other tasks, and gives access to the shared
    metrics collector.
    """

    __slots__ = (
        "simulator", "_task", "metrics", "machine", "now", "charged",
        "drain_boundaries", "drain_horizon",
    )

    def __init__(self, simulator: "Simulator", task: "Task") -> None:
        #: The :class:`~repro.engine.simulator.Simulator` running the task;
        #: the reshuffler's routing fan-out posts to it directly
        #: (:meth:`~repro.engine.simulator.Simulator.post_fanout`).
        self.simulator = simulator
        self._task = task
        #: The run-wide :class:`repro.engine.metrics.MetricsCollector`.
        self.metrics = simulator.metrics
        #: The :class:`~repro.engine.machine.Machine` hosting the task.
        self.machine = task.hosted_machine
        self.now = 0.0
        self.charged = 0.0
        # Member-completion times of a drained run (adaptive data plane);
        # allocated by the simulator before Task.handle_drained runs.
        self.drain_boundaries: list[float] | None = None
        # Zero-argument callable returning the current control-plane drain
        # horizon (see Simulator._drain_horizon); set for drained runs only.
        self.drain_horizon = None

    def cluster_peak_stored(self) -> float:
        """Largest peak per-machine stored size observed so far (measured ILF)."""
        return self.simulator.max_machine_storage()

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
        self.simulator.post(self._task, destination, message, category, self)

    def channels(self, destinations) -> list:
        """The wire channels from this task's machine to the task names in
        ``destinations``, for
        :meth:`~repro.engine.simulator.Simulator.post_fanout`.

        A channel lives as long as the simulation, so callers may cache the
        list (see :meth:`repro.engine.simulator.Simulator.channels`).
        """
        return self.simulator.channels(self._task, destinations)

    def emit_outputs(self, matches) -> None:
        """Record the join results of one handled tuple, emitted at one instant.

        ``matches`` is the tuple's :class:`~repro.engine.metrics.MatchGroup`:
        every result shares the output time
        ``now + charged`` — the per-result ``match_cost`` is charged *before*
        emission — so one collector call per probing tuple records them all.
        """
        self.metrics.record_outputs(matches, self.now + self.charged)

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
            self.now = self.machine.occupy(self.now, self.charged)
            self.charged = 0.0
        if self.drain_boundaries is not None:
            self.drain_boundaries.append(self.now)


class Task:
    """Base class for all actors in the dataflow.

    Attributes:
        name: globally unique task name.
        machine_id: the cluster machine hosting the task, ``0..J-1``.
    """

    def __init__(self, name: str, machine_id: int) -> None:
        self.name = name
        self.machine_id = machine_id
        # The hosting Machine object, resolved once at registration by the
        # simulator; avoids per-message lookups.
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
        member count.  Inbox entries are either ``(task, message)`` singles
        or ``SettledSegment`` cursor windows of one task's consecutive
        members — a view of a merged delivery run, or a batch of members
        queued one after another (see the simulator module's ``_enqueue``);
        implementations must consume both shapes, taking a segment's member
        at ``index`` and popping it once ``index`` reaches ``end``.  The
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} on machine {self.machine_id}>"
