"""Reshuffler, controller and joiner tasks of the dataflow operator (Fig. 1c).

These are the actors that run inside the simulated cluster.  Each machine
hosts one reshuffler and one joiner.  One reshuffler is additionally the
*controller*: it maintains the decentralised statistics of Algorithm 1,
runs the migration decision of Algorithm 2 and coordinates the epoch changes
of Algorithm 3.  The joiners run a local non-blocking join wrapped in the
:class:`~repro.core.epochs.EpochJoinerState` protocol state machine.
"""

from __future__ import annotations

import datetime
import zlib
from dataclasses import dataclass, field

from repro.core.decision import MigrationController
from repro.core.epochs import EpochJoinerState, JoinerPhase, TupleActions
from repro.core.mapping import GridPlacement, Mapping
from repro.core.migration import MigrationPlan, plan_migration
from repro.engine.network import TrafficCategory
from repro.engine.stream import StreamTuple
from repro.engine.task import Context, Message, MessageKind, Task
from repro.joins.local import make_local_joiner
from repro.joins.predicates import JoinPredicate

# The enum members the per-message drain paths test, bound once: on CPython
# 3.11 every ``MessageKind.DATA``-style lookup is a metaclass attribute access
# costing as much as a small function call.
_DATA = MessageKind.DATA
_MIGRATION = MessageKind.MIGRATION
_NORMAL = JoinerPhase.NORMAL
_ROUTING = TrafficCategory.ROUTING

#: The controller records an ILF sample every this many of its own tuples.
SAMPLE_EVERY = 200


@dataclass
class Topology:
    """Shared, static description of the operator's topology.

    The mutable ``plan_cache`` only memoises deterministic computations
    (every joiner derives the same plan from the same pair of mappings), so
    sharing it across tasks does not leak run-time state between machines.
    """

    machines: int
    left_relation: str
    right_relation: str
    predicate: JoinPredicate
    layout: str = "dyadic"
    joiner_names: list[str] = field(default_factory=list)
    reshuffler_names: list[str] = field(default_factory=list)
    controller_name: str = ""
    plan_cache: dict[tuple[tuple[int, int], tuple[int, int]], MigrationPlan] = field(
        default_factory=dict
    )
    placement_cache: dict[tuple[int, int], GridPlacement] = field(default_factory=dict)

    def joiner(self, machine_id: int) -> str:
        """Name of the joiner task hosted on ``machine_id``."""
        return self.joiner_names[machine_id]

    def placement(self, mapping: Mapping) -> GridPlacement:
        """Grid placement for ``mapping`` over this topology's machines."""
        key = (mapping.n, mapping.m)
        if key not in self.placement_cache:
            self.placement_cache[key] = GridPlacement(
                mapping=mapping,
                machine_ids=tuple(range(self.machines)),
                layout=self.layout,
            )
        return self.placement_cache[key]

    def plan(self, old_mapping: Mapping, new_mapping: Mapping) -> MigrationPlan:
        """Locality-aware migration plan between two mappings (memoised)."""
        key = ((old_mapping.n, old_mapping.m), (new_mapping.n, new_mapping.m))
        if key not in self.plan_cache:
            self.plan_cache[key] = plan_migration(
                self.placement(old_mapping), self.placement(new_mapping)
            )
        return self.plan_cache[key]


class ReshufflerTask(Task):
    """Routes incoming tuples to joiners; the controller instance also adapts.

    Args:
        name: task name.
        machine_id: hosting machine.
        topology: shared topology description.
        initial_mapping: the (n, m) scheme in force at start-up.
        controller: the Algorithm 2 state — only the controller reshuffler
            carries one; ``None`` for the others.
        adaptive: when False the mapping never changes (static operators).
        blocking: when True, models the blocking actuation protocol the paper
            argues against (§4.3): input is buffered while a migration runs.
    """

    def __init__(
        self,
        name: str,
        machine_id: int,
        topology: Topology,
        initial_mapping: Mapping,
        controller: MigrationController | None = None,
        adaptive: bool = True,
        blocking: bool = False,
    ) -> None:
        super().__init__(name, machine_id)
        self.topology = topology
        self.mapping = initial_mapping
        self.controller = controller
        self.adaptive = adaptive
        self.blocking = blocking

        self.epoch = 0
        self.migration_in_flight = False
        self.acks_received = 0
        self.buffering = False
        self._buffer: list[StreamTuple] = []
        self._seen = 0
        # The fan-out table of ``_table_mapping``: per side (left, right), a
        # list indexed by partition whose entries are the wire channels of
        # that row or column, resolved on first use (None until then).
        self._table: tuple[list, list] = ([], [])
        self._table_mapping: Mapping | None = None

    #: Recovery journal (fault-tolerant plane only; see repro.core.recovery).
    #: Protocol-critical transitions are journaled as deltas so a restored
    #: reshuffler resumes with the exact epoch/mapping/ack state.
    _journal = None

    # -------------------------------------------------------------- handling

    @property
    def is_controller(self) -> bool:
        return self.controller is not None

    def handle(self, message: Message, ctx: Context) -> None:
        if message.kind is MessageKind.DATA:
            self._handle_source(message.payload, ctx)
        elif message.kind is MessageKind.MAPPING_CHANGE:
            self._handle_mapping_change(message, ctx)
        elif message.kind is MessageKind.MIGRATION_ACK:
            self._handle_ack(message, ctx)
        elif message.kind is MessageKind.RESUME:
            self._handle_resume(ctx)
        else:
            raise ValueError(f"reshuffler {self.name} cannot handle {message.kind}")
        if self._journal is not None:
            self._journal.maybe_snapshot(self)

    # ---------------------------------------------------- adaptive data plane

    def drain_key(self, message: Message):
        """Source-tuple (DATA) runs are drainable whenever the reshuffler is
        not buffering.

        Static operators (``adaptive=False``) never change mappings, so their
        reshufflers drain source backlogs without any protocol interaction.
        An adaptive operator's reshufflers receive MAPPING_CHANGE control
        messages whose effect (epoch/mapping switch) must land *between* two
        source tuples exactly where the per-tuple plane puts it — their
        drained runs are therefore truncated at the control-plane drain
        horizon (see :meth:`handle_drained`), behind which no control message
        can exist yet.  The blocking protocol's buffered-resume path charges
        CPU from a control handler and stays per-tuple.
        """
        if message.kind is _DATA and not self.blocking:
            return -1  # any non-None constant: all source tuples coalesce
        return None

    def handle_drained(self, first: Message, inbox, limit: int, key, ctx: Context) -> int:
        """Route one drained run of source tuples with hoisted lookups.

        Per-member semantics are identical to :meth:`_handle_source`: every
        member still sends its own per-tuple DATA messages at its own
        boundary-rotated departure time, keeping the wire identical to
        per-tuple handling.  On an adaptive operator the pull stops at the
        control-plane drain horizon, re-checked before every member: a member
        may only be coalesced if its start precedes every virtual time at
        which a mapping change or migration ack could land on this machine,
        so the mapping/epoch/in-flight state any member observes — and the
        point in the stream where a control message takes effect — match the
        per-tuple plane exactly.

        A run of one (``limit`` 1: a paced machine's usual tick, see
        ``Simulator._tick``) takes the loop body once, written out without
        the hoisted lookups.
        """
        machine = ctx.machine
        if limit == 1:
            item = first.payload
            ctx.charged = machine.cost_model.reshuffle_cost
            is_left = item.relation == self.topology.left_relation
            self._seen += 1
            ctx.metrics.record_input_processed(ctx.now)
            if self.controller is not None:
                self._controller_duties(item, is_left, ctx)
            self._route(item, is_left, ctx)
            charged = ctx.charged
            end = ctx.now + charged
            machine.busy_until = end
            machine.busy_time += charged
            ctx.now = end
            ctx.charged = 0.0
            if ctx.drain_boundaries is not None:
                ctx.drain_boundaries.append(end)
            if self._journal is not None:
                self._journal.maybe_snapshot(self)
            return 1
        reshuffle_cost = machine.cost_model.reshuffle_cost
        record_input = ctx.metrics.record_input_processed
        left_relation = self.topology.left_relation
        is_controller = self.is_controller
        route = self._route
        boundaries = ctx.drain_boundaries
        horizon_fn = ctx.drain_horizon if self.adaptive else None
        # Only the controller can create new control-plane messages while
        # this run executes (its own members may trigger a migration); for
        # every other reshuffler the horizon is constant over the run.
        horizon = None
        if horizon_fn is not None and not is_controller:
            horizon, horizon_fn = horizon_fn(), None
        data_kind = _DATA
        count = 0
        message = first
        while True:
            item = message.payload
            # Members start with a clean charge (the boundary commit resets
            # it), so the member's routing charge is a direct store.
            ctx.charged = reshuffle_cost
            is_left = item.relation == left_relation
            self._seen += 1
            record_input(ctx.now)
            if is_controller:
                self._controller_duties(item, is_left, ctx)
            route(item, is_left, ctx)
            # Inline Context.boundary: commit the member's charge to the busy
            # chain with exactly the per-tuple occupy arithmetic.
            end = ctx.now + ctx.charged
            machine.busy_until = end
            machine.busy_time += ctx.charged
            ctx.now = end
            ctx.charged = 0.0
            if boundaries is not None:
                boundaries.append(end)
            count += 1
            if count >= limit or not inbox:
                break
            if horizon_fn is not None:
                horizon = horizon_fn()
            if horizon is not None and end >= horizon:
                break
            head = inbox[0]
            # Inline drain_key: same task + DATA kind is the whole key
            # (blocking cannot flip inside a run — RESUME is control-plane).
            if head.__class__ is tuple:
                task, message = head
                if task is not self or message.kind is not data_kind:
                    break
                inbox.popleft()
            else:
                if head.task is not self:
                    break
                message = head.messages[head.index]
                if message.kind is not data_kind:
                    break
                head.index += 1
                if head.index == head.end:
                    inbox.popleft()
        if self._journal is not None:
            self._journal.maybe_snapshot(self)
        return count

    def _handle_source(self, item: StreamTuple, ctx: Context) -> None:
        ctx.charge(ctx.machine.cost_model.reshuffle_cost)
        if self.blocking and self.buffering:
            self._buffer.append(item)
            return
        self._process_tuple(item, ctx)

    def _process_tuple(self, item: StreamTuple, ctx: Context) -> None:
        is_left = item.relation == self.topology.left_relation
        self._seen += 1
        ctx.metrics.record_input_processed(ctx.now)

        if self.is_controller:
            self._controller_duties(item, is_left, ctx)

        self._route(item, is_left, ctx)

    def _controller_duties(self, item: StreamTuple, is_left: bool, ctx: Context) -> None:
        assert self.controller is not None
        # Scaled increment (Alg. 1 lines 3/5): this task sees ~1/J of the input.
        self.controller.observe(is_left, increment=float(self.topology.machines))

        if self._seen % SAMPLE_EVERY == 0:
            # x coordinate: global count of tuples processed so far, converted
            # to a fraction of the input stream by the result collector.
            ctx.metrics.record_ilf(float(ctx.metrics.processed_inputs), ctx.cluster_peak_stored())
        if self.controller.total >= self.controller.warmup_tuples:
            # The ILF/ILF* ratio and the cardinality ratio are cheap to compute
            # and drive Fig. 8c, so they are sampled on every controller tuple.
            ctx.metrics.record_competitive_ratio(
                int(self.controller.total), self.controller.competitive_ratio(self.mapping)
            )
            if self.controller.total_s > 0:
                ctx.metrics.record_cardinality_ratio(
                    int(self.controller.total),
                    self.controller.total_r / self.controller.total_s,
                )

        if not self.adaptive or self.migration_in_flight:
            return
        decision = self.controller.check(self.mapping)
        if decision is None or not decision.migrate:
            return
        self._trigger_migration(decision.new_mapping, ctx)

    def _trigger_migration(self, new_mapping: Mapping, ctx: Context) -> None:
        old_mapping = self.mapping
        self.migration_in_flight = True
        self.acks_received = 0
        if self._journal is not None:
            self._journal.log(("rtrig",))
        next_epoch = self.epoch + 1
        ctx.metrics.start_migration(
            next_epoch, ctx.now, (old_mapping.n, old_mapping.m), (new_mapping.n, new_mapping.m)
        )
        # One message for every reshuffler: no handler writes a message it
        # receives, so the fan-out shares one object and one meta dict.
        change = Message(
            kind=MessageKind.MAPPING_CHANGE,
            sender=self.name,
            meta={
                "epoch": next_epoch,
                "new_mapping": (new_mapping.n, new_mapping.m),
                "old_mapping": (old_mapping.n, old_mapping.m),
            },
        )
        for reshuffler in self.topology.reshuffler_names:
            ctx.send(reshuffler, change, category=TrafficCategory.CONTROL)

    def _handle_mapping_change(self, message: Message, ctx: Context) -> None:
        new_mapping = Mapping(*message.meta["new_mapping"])
        old_mapping = Mapping(*message.meta["old_mapping"])
        epoch = message.meta["epoch"]
        if epoch <= self.epoch:
            return
        self.epoch = epoch
        self.mapping = new_mapping
        if self._journal is not None:
            self._journal.log(
                ("rmap", epoch, (new_mapping.n, new_mapping.m), (old_mapping.n, old_mapping.m))
            )
        if self.blocking:
            self.buffering = True
        # One signal for every joiner (at J=64, 64 per reshuffler): shared
        # as the controller shares its mapping change.
        signal = Message(
            kind=MessageKind.EPOCH_SIGNAL,
            sender=self.name,
            epoch=epoch,
            meta={
                "epoch": epoch,
                "new_mapping": (new_mapping.n, new_mapping.m),
                "old_mapping": (old_mapping.n, old_mapping.m),
            },
        )
        for machine_id in range(self.topology.machines):
            ctx.send(self.topology.joiner(machine_id), signal, category=TrafficCategory.CONTROL)

    def _handle_ack(self, message: Message, ctx: Context) -> None:
        if not self.is_controller:
            raise ValueError(f"non-controller reshuffler {self.name} received an ack")
        if self._journal is not None:
            self._journal.log(("rack",))
        self.acks_received += 1
        if self.acks_received < self.topology.machines:
            return
        self.migration_in_flight = False
        ctx.metrics.complete_migration(message.meta.get("epoch", self.epoch), ctx.now)
        if self.blocking:
            for reshuffler in self.topology.reshuffler_names:
                ctx.send(
                    reshuffler,
                    Message(kind=MessageKind.RESUME, sender=self.name),
                    category=TrafficCategory.CONTROL,
                )

    def _handle_resume(self, ctx: Context) -> None:
        self.buffering = False
        pending, self._buffer = self._buffer, []
        for item in pending:
            ctx.charge(ctx.machine.cost_model.reshuffle_cost)
            self._process_tuple(item, ctx)

    # ---------------------------------------------------------------- routing

    def _route(self, item: StreamTuple, is_left: bool, ctx: Context) -> None:
        # Tag with the current epoch in place: this is the tuple's single
        # delivery to a reshuffler and it has not been fanned out yet, so no
        # joiner (and no journal entry) can hold it.
        item.epoch = self.epoch
        # The tuple is its own DATA message, shared by every destination of
        # the fan-out (receivers never mutate messages).
        table = self._fanout_tables()[0 if is_left else 1]
        partition = item.partition(len(table))
        channels = table[partition] or self._resolve(is_left, partition, ctx)
        ctx.simulator.post_fanout(self, channels, item, _ROUTING, ctx)

    def _fanout_tables(self) -> tuple[list, list]:
        """The fan-out table of the mapping in force: per side (left, right),
        the wire channels of each row or column partition, indexed by
        partition (None until :meth:`_resolve` fills an entry).  A mapping
        change starts an empty table, so each partition resolves its grid
        placement into channels once for as long as its mapping is in force.
        """
        mapping = self.mapping
        if self._table_mapping is not mapping:
            self._table_mapping = mapping
            self._table = ([None] * mapping.n, [None] * mapping.m)
        return self._table

    def _resolve(self, is_left: bool, partition: int, ctx: Context) -> list:
        """Fill and return the table entry of one side's ``partition``: the
        channels to the joiners of :meth:`_destinations`."""
        joiner = self.topology.joiner
        channels = ctx.channels(
            [joiner(machine_id) for machine_id in self._destinations((is_left, partition))]
        )
        self._fanout_tables()[0 if is_left else 1][partition] = channels
        return channels

    def _destinations(self, key: tuple[bool, int]) -> tuple[int, ...]:
        """Machines of the row (left side) or column (right side) partition
        ``key`` under the current mapping."""
        is_left, partition = key
        placement = self.topology.placement(self.mapping)
        if is_left:
            return placement.machines_for_row(partition)
        return placement.machines_for_col(partition)


def route_hash(key) -> int:
    """The SHJ routing hash of a join key, the same in every process.

    ``hash()`` of a ``str`` or ``bytes`` is salted per interpreter
    (``PYTHONHASHSEED``), so text is digested with CRC-32 instead, and every
    tuple or frozenset key — all-number ones too — by CRC-32 over its
    members' routing hashes.  A naive ``date``, ``datetime`` or ``time``
    hashes its bytes with the same salt, so it is digested from its fields
    (an aware ``datetime`` from its UTC instant, as equality compares it);
    ``None`` and a float NaN hash by address before Python 3.12, so each is
    one constant.  Keys that compare equal digest alike.  So keys that are
    ``str``, ``bytes``, numbers, ``None``, dates and times, or tuples and
    frozensets of these route the same in every process; any other key
    type keeps ``hash()`` and does only as far as its ``hash()`` does.
    """
    if key.__class__ is int:
        return hash(key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, (tuple, frozenset)):
        digests = [route_hash(member) for member in key]
        if isinstance(key, frozenset):
            digests.sort()
        return zlib.crc32(
            b"".join(digest.to_bytes(8, "little", signed=True) for digest in digests)
        )
    if key is None or (key.__class__ is float and key != key):
        return zlib.crc32(repr(key).encode())
    if isinstance(key, datetime.datetime):
        offset = key.utcoffset()
        if offset is not None:
            key = (key - offset).replace(tzinfo=None)
        return route_hash((key.toordinal(), key.hour, key.minute, key.second, key.microsecond))
    if isinstance(key, datetime.date):
        return route_hash(key.toordinal())
    if isinstance(key, datetime.time) and key.utcoffset() is None:
        return route_hash((key.hour, key.minute, key.second, key.microsecond))
    return hash(key)


class HashReshufflerTask(ReshufflerTask):
    """Content-sensitive routing used by the parallel symmetric hash join (SHJ).

    Tuples are partitioned on the join key: each tuple goes to exactly one
    joiner, chosen by hashing its key with :func:`route_hash`, so a run
    routes alike under every ``PYTHONHASHSEED``.  This is the classic
    equi-join partitioning the paper compares against — efficient without
    skew, but a few overloaded joiners absorb most of the input once the key
    distribution is skewed.  The predicate kind is checked once, here.
    """

    def __init__(self, name: str, machine_id: int, topology: Topology, **kwargs) -> None:
        if topology.predicate.kind != "equi":
            raise ValueError("the SHJ operator only supports equi-join predicates")
        super().__init__(name, machine_id, topology, **kwargs)
        predicate = topology.predicate
        self._left_key = predicate.left_key
        self._right_key = predicate.right_key

    def _route(self, item: StreamTuple, is_left: bool, ctx: Context) -> None:
        record = item.record
        key = self._left_key(record) if is_left else self._right_key(record)
        machine_id = route_hash(key) % self.topology.machines
        item.epoch = self.epoch  # in place, as in ReshufflerTask._route
        ctx.send(self.topology.joiner(machine_id), item, category=_ROUTING)


class JoinerTask(Task):
    """A joiner: local non-blocking join wrapped in the epoch protocol.

    Drained runs of data tuples go through
    ``EpochJoinerState.handle_data_batch`` (a NORMAL-phase run of one
    straight through ``EpochJoinerState.handle_current``) →
    ``LocalJoiner.probe_insert`` per member, or, for a Δ' run during a
    migration, one ``LocalJoiner.probe_batch`` over the epoch partitions.
    """

    def __init__(self, name: str, machine_id: int, topology: Topology) -> None:
        super().__init__(name, machine_id)
        self.topology = topology
        store = make_local_joiner(
            topology.predicate, topology.left_relation, topology.right_relation
        )
        self.state = EpochJoinerState(
            machine_id=machine_id,
            store=store,
            num_reshufflers=len(topology.reshuffler_names) or topology.machines,
            left_relation=topology.left_relation,
        )
        self._ends_sent_for: int | None = None

    #: Recovery journal (fault-tolerant plane only; see repro.core.recovery).
    #: Every state-mutating input — data/µ tuples, signals, end markers,
    #: finalizes — is journaled as one replayable delta.  Under the
    #: unreliable wire (RunConfig.network_faults) the reliable-delivery
    #: sublayer dedups duplicated/retransmitted frames *before* they reach
    #: handle(), so each logical message is journaled at most once and
    #: replay stays exactly-once without any task-level dedup.
    _journal = None

    # -------------------------------------------------------------- handling

    def handle(self, message: Message, ctx: Context) -> None:
        journal = self._journal
        if message.kind is MessageKind.DATA:
            if journal is not None:
                journal.log(("data", message.payload))
            actions = self.state.handle_data(message.payload)
            self._apply(actions, message.payload, ctx, migrated=False)
        elif message.kind is MessageKind.MIGRATION:
            if journal is not None:
                journal.log(("mu", message.payload))
            actions = self.state.handle_migrated(message.payload)
            self._apply(actions, message.payload, ctx, migrated=True)
        elif message.kind is MessageKind.EPOCH_SIGNAL:
            self._handle_signal(message, ctx)
        elif message.kind is MessageKind.MIGRATION_END:
            if journal is not None:
                journal.log(("end", message.meta["sender_machine"]))
            self.state.register_migration_end(message.meta["sender_machine"])
            ctx.charge(0.01)
            self._maybe_finalize(ctx)
        else:
            raise ValueError(f"joiner {self.name} cannot handle {message.kind}")
        if journal is not None:
            journal.maybe_snapshot(self)

    # ---------------------------------------------------- adaptive data plane

    #: Drain key of µ (MIGRATION) runs; distinct from every DATA epoch key.
    _MU_DRAIN_KEY = "mu"

    def drain_key(self, message: Message):
        """Pure probe-and-store runs are drainable; everything else is not.

        Three paths of the epoch protocol send nothing, relocate nothing and
        charge the same costs whether handled alone or as a member of a
        coalesced run — so draining them cannot perturb the virtual clock or
        the cross-machine message interleaving:

        * NORMAL-phase DATA tuples of the current epoch (HandleTuple1's
          degenerate path),
        * Δ' tuples — pending-epoch DATA during a migration (Alg. 3 lines
          12-14/24-26), which probe the µ ∪ Δ' and Keep(τ ∪ Δ) partitions and
          store locally, and
        * µ tuples — MIGRATION relocations received from other joiners,
          which probe Δ' and store into the µ partition (or, before the
          first signal, are buffered) — in every phase a charge-and-store
          with no sends, so they drain per-member through the base
          :meth:`Task.handle_drained` loop.

        Old-epoch Δ tuples mid-migration relocate state (``migrate_to``) and
        must stay per-tuple, as must every other kind.  The epoch is part of
        the DATA key, so a run is force-flushed at the epoch edge; µ runs use
        a dedicated key and therefore never mix with DATA runs.
        """
        kind = message.kind
        if kind is _DATA:
            state = self.state
            epoch = message.payload.epoch
            if state.phase is _NORMAL:
                if epoch == state.current_epoch:
                    return epoch
            elif epoch == state.pending_epoch:
                return epoch
            return None
        if kind is _MIGRATION:
            return self._MU_DRAIN_KEY
        return None

    def handle_drained(self, first: Message, inbox, limit: int, key, ctx: Context) -> int:
        """Probe-and-store one drained run of pure same-epoch data tuples.

        The run is pulled off the inbox head up front (batch probes need the
        member list), its per-member ``(matches, probe_work)`` come from
        :meth:`EpochJoinerState.handle_data_batch` (pinned identical to
        per-tuple ``handle_data``; every member is stored and relocates
        nothing), and every member's cost is charged with the exact `_apply`
        arithmetic before :meth:`Context.boundary` commits it to the busy
        chain — so output timestamps and machine times are bit-identical to
        per-tuple delivery.  Probe work is integer-valued, so the single
        deferred metrics record is exact.

        A run of one (``limit`` 1: a paced machine's usual tick, see
        ``Simulator._tick``) pulls nothing: in the NORMAL phase its one
        member goes straight to :meth:`EpochJoinerState.handle_current` —
        one ``probe_insert`` — and the charge loop's arithmetic follows,
        written out for the one member.
        """
        if key is self._MU_DRAIN_KEY:
            # µ runs: per-member handling through the base-class loop —
            # bit-identical to per-tuple delivery (handle + boundary per
            # member), saving only simulator events.
            return Task.handle_drained(self, first, inbox, limit, key, ctx)
        if limit == 1:
            return self._handle_one(first.payload, ctx)
        items = [first.payload]
        data_kind = _DATA
        while len(items) < limit and inbox:
            head = inbox[0]
            # Inline drain_key: the phase cannot change inside one
            # invocation, so same task + DATA kind + the key epoch is the
            # whole eligibility check.
            if head.__class__ is tuple:
                task, message = head
                if (
                    task is not self
                    or message.kind is not data_kind
                    or message.payload.epoch != key
                ):
                    break
                inbox.popleft()
                items.append(message.payload)
            else:
                if head.task is not self:
                    break
                message = head.messages[head.index]
                if message.kind is not data_kind or message.payload.epoch != key:
                    break
                head.index += 1
                if head.index == head.end:
                    inbox.popleft()
                items.append(message.payload)
        journal = self._journal
        if journal is not None:
            for item in items:
                journal.log(("data", item))
        state = self.state
        if len(items) == 1 and state.phase is _NORMAL:
            # The drain key is the current epoch in the NORMAL phase.
            probed = (state.handle_current(items[0]),)
        else:
            probed = state.handle_data_batch(items)
        if journal is not None:
            # The joiner state is fully mutated at this point (the remaining
            # work is cost accounting), so this is a valid snapshot point.
            journal.maybe_snapshot(self)
        machine = ctx.machine
        cost_model = machine.cost_model
        receive_cost = cost_model.receive_cost
        store_cost = cost_model.store_cost
        probe_cost = cost_model.probe_cost
        match_cost = cost_model.match_cost
        # With an unbounded memory budget the storage factor is identically
        # 1.0 and never flags a spill, so the per-member call is hoisted.
        unbounded = cost_model.memory_capacity is None
        storage_factor = machine.storage_factor
        record_outputs = ctx.metrics.record_outputs
        boundaries = ctx.drain_boundaries
        probe_total = 0.0
        # Pure probe-and-store members never send, so the per-member charge
        # commit (Context.boundary + Machine.occupy) and the storage
        # accounting (Machine.add_stored) are inlined: ``now`` walks the busy
        # chain with exactly the per-tuple float arithmetic (member start ==
        # busy_until, end = start + member cost).
        now = ctx.now
        for item, (matches, work) in zip(items, probed):
            probe_total += work
            # Same arithmetic and accumulation order as _apply for a stored
            # tuple (every drained member is stored).
            factor = 1.0 if unbounded else storage_factor()
            cost = 0.0
            cost += receive_cost
            cost += store_cost * factor
            cost += work * probe_cost * factor
            cost += len(matches) * match_cost
            size = item.size
            machine.stored_size = stored = machine.stored_size + size
            machine.received_size += size
            if stored > machine.peak_stored_size:
                machine.peak_stored_size = stored
            end = now + cost
            if matches:
                record_outputs(matches, end)
            machine.busy_until = end
            machine.busy_time += cost
            now = end
            if boundaries is not None:
                boundaries.append(end)
        ctx.now = now
        ctx.charged = 0.0
        if probe_total:
            ctx.metrics.record_probe_work(probe_total)
        return len(items)

    def _handle_one(self, item: StreamTuple, ctx: Context) -> int:
        """:meth:`handle_drained` for a run of one: the same journaling,
        probe and per-member charge arithmetic as its loop, for one member."""
        journal = self._journal
        if journal is not None:
            journal.log(("data", item))
        state = self.state
        if state.phase is _NORMAL:
            # The drain key is the current epoch in the NORMAL phase.
            matches, work = state.handle_current(item)
        else:
            ((matches, work),) = state.handle_data_batch([item])
        if journal is not None:
            journal.maybe_snapshot(self)
        machine = ctx.machine
        cost_model = machine.cost_model
        factor = 1.0 if cost_model.memory_capacity is None else machine.storage_factor()
        cost = 0.0
        cost += cost_model.receive_cost
        cost += cost_model.store_cost * factor
        cost += work * cost_model.probe_cost * factor
        cost += len(matches) * cost_model.match_cost
        size = item.size
        machine.stored_size = stored = machine.stored_size + size
        machine.received_size += size
        if stored > machine.peak_stored_size:
            machine.peak_stored_size = stored
        end = ctx.now + cost
        if matches:
            ctx.metrics.record_outputs(matches, end)
        machine.busy_until = end
        machine.busy_time += cost
        ctx.now = end
        ctx.charged = 0.0
        if ctx.drain_boundaries is not None:
            ctx.drain_boundaries.append(end)
        ctx.metrics.record_probe_work(work)
        return 1

    def _handle_signal(self, message: Message, ctx: Context) -> None:
        epoch = message.meta["epoch"]
        new_mapping = Mapping(*message.meta["new_mapping"])
        old_mapping = Mapping(*message.meta["old_mapping"])
        plan = self.topology.plan(old_mapping, new_mapping)
        if self._journal is not None:
            # One delta reproduces the whole signal effect on replay: the
            # handler internally re-drains any buffered early messages.
            self._journal.log(
                (
                    "signal",
                    epoch,
                    (old_mapping.n, old_mapping.m),
                    (new_mapping.n, new_mapping.m),
                    message.sender,
                )
            )
        migrations, replayed = self.state.handle_signal(epoch, plan, reshuffler=message.sender)
        ctx.charge(0.01)
        # Relocations leave before any MIGRATION_END below: link FIFO then
        # guarantees receivers see every migrated tuple before the marker.
        self._send_migrations(migrations, ctx)
        for replayed_item, actions in replayed:
            self._apply(actions, replayed_item, ctx, migrated=False, charge_receive=False)
        if self.state.phase is JoinerPhase.DRAINED and self._ends_sent_for != epoch:
            self._ends_sent_for = epoch
            if self._journal is not None:
                # Replay must not resend the END fanout (the markers are
                # durably on the wire): restore the sent-for latch instead.
                self._journal.log(("ends_sent", epoch))
            for receiver in plan.receivers_from(self.machine_id):
                ctx.send(
                    self.topology.joiner(receiver),
                    Message(
                        kind=MessageKind.MIGRATION_END,
                        sender=self.name,
                        meta={"sender_machine": self.machine_id, "epoch": epoch},
                    ),
                    category=TrafficCategory.CONTROL,
                )
            self._maybe_finalize(ctx)

    def _maybe_finalize(self, ctx: Context) -> None:
        if not self.state.can_finalize():
            return
        if self._journal is not None:
            self._journal.log(("final",))
        result = self.state.finalize()
        for item in result.discarded:
            ctx.machine.remove_stored(item.size)
        ctx.charge(0.01 * max(1, len(result.discarded)))
        ctx.send(
            self.topology.controller_name,
            Message(
                kind=MessageKind.MIGRATION_ACK,
                sender=self.name,
                meta={"machine": self.machine_id, "epoch": result.epoch},
            ),
            category=TrafficCategory.CONTROL,
        )

    # -------------------------------------------------------------- internals

    def _send_migrations(
        self, migrations: list[tuple[int, StreamTuple]], ctx: Context
    ) -> None:
        reshuffle_cost = ctx.machine.cost_model.reshuffle_cost
        for destination, item in migrations:
            ctx.charge(reshuffle_cost)
            ctx.send(
                self.topology.joiner(destination),
                Message(
                    kind=MessageKind.MIGRATION,
                    sender=self.name,
                    payload=item,
                    size=item.size,
                    meta={"sender_machine": self.machine_id},
                ),
                category=TrafficCategory.MIGRATION,
            )

    def _apply(
        self,
        actions: TupleActions,
        item: StreamTuple | None,
        ctx: Context,
        migrated: bool,
        charge_receive: bool = True,
    ) -> None:
        machine = ctx.machine
        cost_model = machine.cost_model
        if actions.probe_work:
            ctx.metrics.record_probe_work(actions.probe_work)
        factor = machine.storage_factor()
        cost = 0.0
        if charge_receive:
            # Migrated tuples are processed faster than new input tuples
            # (§4.3.2 processes them at twice the rate); the cost model's
            # migration_cost encodes that ratio.
            cost += cost_model.migration_cost if migrated else cost_model.receive_cost
        if actions.stored:
            cost += cost_model.store_cost * factor
        cost += actions.probe_work * cost_model.probe_cost * factor
        cost += len(actions.matches) * cost_model.match_cost
        ctx.charge(cost)
        if actions.stored and item is not None:
            machine.add_stored(item.size)
        if actions.matches:
            ctx.emit_outputs(actions.matches)
        if actions.migrate_to:
            self._send_migrations(actions.migrate_to, ctx)
