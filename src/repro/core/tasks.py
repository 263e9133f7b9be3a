"""Reshuffler, controller and joiner tasks of the dataflow operator (Fig. 1c).

These are the actors that run inside the simulated cluster.  Each machine
hosts one reshuffler and one joiner.  One reshuffler is additionally the
*controller*: it maintains the decentralised statistics of Algorithm 1,
runs the migration decision of Algorithm 2 and coordinates the epoch changes
of Algorithm 3.  The joiners run a local non-blocking join wrapped in the
:class:`~repro.core.epochs.EpochJoinerState` protocol state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.registry import probe_engines
from repro.core.decision import MigrationController
from repro.core.epochs import EpochJoinerState, JoinerPhase, TupleActions
from repro.core.mapping import GridPlacement, Mapping
from repro.core.migration import MigrationPlan, plan_migration
from repro.engine.network import TrafficCategory
from repro.engine.stream import StreamTuple, TupleBatch
from repro.engine.task import Context, DataEnvelope, Message, MessageKind, Task
from repro.joins.local import make_local_joiner
from repro.joins.predicates import JoinPredicate

#: Per-destination send groups accumulated while one handler invocation
#: processes a micro-batch.  Reshufflers key groups by (machine, epoch) so a
#: batch is split at the epoch edge; joiner migration groups key by machine.
RouteGroups = dict[tuple[int, int], list[StreamTuple]]


def _envelope(
    items: list[StreamTuple],
    inner: MessageKind,
    sender: str,
    epoch: int = 0,
    meta: dict | None = None,
) -> Message:
    """Wrap grouped tuples for one destination: a plain per-tuple message for
    a singleton, a BATCH carrying a :class:`TupleBatch` otherwise."""
    if len(items) == 1:
        if not meta:
            # Meta-free singletons (routed DATA) ride the slim envelope.
            return DataEnvelope(inner, sender, items[0], epoch, items[0].size)
        return Message(
            kind=inner,
            sender=sender,
            payload=items[0],
            epoch=epoch,
            size=items[0].size,
            meta=dict(meta),
        )
    batch = TupleBatch(items=items)
    full_meta = {"inner": inner}
    if meta:
        full_meta.update(meta)
    return Message(
        kind=MessageKind.BATCH,
        sender=sender,
        payload=batch,
        epoch=epoch,
        size=batch.size,
        meta=full_meta,
    )


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
    left_size: float = 1.0
    right_size: float = 1.0
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
        sample_every: record ILF / ratio samples every this many tuples seen
            by this task (controller only).
        expected_inputs: total number of input tuples (for progress metrics).
        batch_size: size of the micro-batches of the batched data plane;
            ``1`` selects the legacy per-tuple message path.
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
        sample_every: int = 200,
        expected_inputs: int = 0,
        batch_size: int = 1,
    ) -> None:
        super().__init__(name, machine_id)
        self.topology = topology
        self.mapping = initial_mapping
        self.controller = controller
        self.adaptive = adaptive
        self.blocking = blocking
        self.sample_every = max(1, sample_every)
        self.expected_inputs = expected_inputs
        self.batch_size = max(1, batch_size)

        self.epoch = 0
        self.migration_in_flight = False
        self.acks_received = 0
        self.buffering = False
        self._buffer: list[StreamTuple] = []
        self._seen = 0

    #: Recovery journal (fault-tolerant plane only; see repro.core.recovery).
    #: Protocol-critical transitions are journaled as deltas so a restored
    #: reshuffler resumes with the exact epoch/mapping/ack state.
    _journal = None

    # -------------------------------------------------------------- handling

    @property
    def is_controller(self) -> bool:
        return self.controller is not None

    def handle(self, message: Message, ctx: Context) -> None:
        if message.kind is MessageKind.BATCH:
            self._handle_source_batch(message, ctx)
        elif message.kind is MessageKind.SOURCE:
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

    def _handle_source_batch(self, message: Message, ctx: Context) -> None:
        if message.meta.get("inner") is not MessageKind.SOURCE:
            raise ValueError(
                f"reshuffler {self.name} can only handle SOURCE batches, "
                f"got inner kind {message.meta.get('inner')}"
            )
        routes: RouteGroups = {}
        # Destination-grouped emission: the mapping and epoch are fixed for
        # the whole invocation, so each (side, partition) resolves its grid
        # placement and per-destination route lists once; subsequent members
        # of the same partition append straight into those lists.
        dest_cache: dict = {}
        for item in message.payload:
            self._handle_source(item, ctx, routes, dest_cache)
        self._flush_routes(routes, ctx)

    # ---------------------------------------------------- adaptive data plane

    def drain_key(self, message: Message):
        """SOURCE runs are drainable whenever the reshuffler is not buffering.

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
        if message.kind is MessageKind.SOURCE and not self.blocking:
            return -1  # any non-None constant: all source tuples coalesce
        return None

    def handle_drained(self, first: Message, inbox, limit: int, key, ctx: Context) -> int:
        """Route one drained run of source tuples with hoisted lookups.

        Per-member semantics are identical to :meth:`_handle_source`: every
        member still sends its own per-tuple DATA messages at its own
        boundary-rotated departure time, keeping the wire identical to
        per-tuple handling, and each (side, partition) resolves its
        destinations once (the mapping cannot change inside a run — see
        below).  On an adaptive operator the pull stops at the control-plane
        drain horizon, re-checked before every member: a member may only be
        coalesced if its start precedes every virtual time at which a
        mapping change or migration ack could land on this machine, so the
        mapping/epoch/in-flight state any member observes — and the point in
        the stream where a control message takes effect — match the
        per-tuple plane exactly.
        """
        machine = ctx.machine
        reshuffle_cost = machine.cost_model.reshuffle_cost if machine else 0.0
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
        dest_cache: dict = {}
        source_kind = MessageKind.SOURCE
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
            route(item, is_left, ctx, None, dest_cache)
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
            # Inline drain_key: same task + SOURCE kind is the whole key
            # (blocking cannot flip inside a run — RESUME is control-plane).
            if head.__class__ is tuple:
                task, message = head
                if task is not self or message.kind is not source_kind:
                    break
                inbox.popleft()
            else:
                if head.task is not self:
                    break
                message = head.messages[head.index]
                if message.kind is not source_kind:
                    break
                head.index += 1
                if head.index == head.end:
                    inbox.popleft()
        if self._journal is not None:
            self._journal.maybe_snapshot(self)
        return count

    def _handle_source(
        self,
        item: StreamTuple,
        ctx: Context,
        routes: RouteGroups | None = None,
        dest_cache: dict | None = None,
    ) -> None:
        ctx.charge(ctx.machine.cost_model.reshuffle_cost if ctx.machine else 0.0)
        if self.blocking and self.buffering:
            self._buffer.append(item)
            return
        self._process_tuple(item, ctx, routes, dest_cache)

    def _process_tuple(
        self,
        item: StreamTuple,
        ctx: Context,
        routes: RouteGroups | None = None,
        dest_cache: dict | None = None,
    ) -> None:
        is_left = item.relation == self.topology.left_relation
        self._seen += 1
        ctx.metrics.record_input_processed(ctx.now)

        if self.is_controller:
            self._controller_duties(item, is_left, ctx)

        self._route(item, is_left, ctx, routes, dest_cache)

    def _controller_duties(self, item: StreamTuple, is_left: bool, ctx: Context) -> None:
        assert self.controller is not None
        # Scaled increment (Alg. 1 lines 3/5): this task sees ~1/J of the input.
        self.controller.observe(is_left, increment=float(self.topology.machines))

        if self._seen % self.sample_every == 0:
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
        meta = {
            "epoch": next_epoch,
            "new_mapping": (new_mapping.n, new_mapping.m),
            "old_mapping": (old_mapping.n, old_mapping.m),
        }
        for reshuffler in self.topology.reshuffler_names:
            ctx.send(
                reshuffler,
                Message(kind=MessageKind.MAPPING_CHANGE, sender=self.name, meta=dict(meta)),
                category=TrafficCategory.CONTROL,
            )

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
        for machine_id in range(self.topology.machines):
            ctx.send(
                self.topology.joiner(machine_id),
                Message(
                    kind=MessageKind.EPOCH_SIGNAL,
                    sender=self.name,
                    epoch=epoch,
                    meta={
                        "epoch": epoch,
                        "new_mapping": (new_mapping.n, new_mapping.m),
                        "old_mapping": (old_mapping.n, old_mapping.m),
                    },
                ),
                category=TrafficCategory.CONTROL,
            )

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
        routes: RouteGroups | None = {} if self.batch_size > 1 else None
        dest_cache: dict | None = {} if routes is not None else None
        for item in pending:
            ctx.charge(ctx.machine.cost_model.reshuffle_cost if ctx.machine else 0.0)
            self._process_tuple(item, ctx, routes, dest_cache)
        if routes is not None:
            self._flush_routes(routes, ctx)

    # ---------------------------------------------------------------- routing

    def _route(
        self,
        item: StreamTuple,
        is_left: bool,
        ctx: Context,
        routes: RouteGroups | None = None,
        dest_cache: dict | None = None,
    ) -> None:
        # Tag with the current epoch; the common case (tag already current —
        # epoch 0 before any migration) reuses the tuple object outright.
        tagged = item if item.epoch == self.epoch else item.with_epoch(self.epoch)
        if dest_cache is not None:
            # Destination-grouped routing: the caller guarantees a fixed
            # mapping/epoch for its whole invocation, so each (side,
            # partition) resolves its grid placement once.  With ``routes``
            # the cache holds the per-destination route lists themselves
            # (fixed-plane micro-batches); without it, the destination ids
            # for per-tuple sends (adaptive-plane drained runs).
            key = (is_left, item.partition(self.mapping.n if is_left else self.mapping.m))
            cached = dest_cache.get(key)
            if cached is None:
                placement = self.topology.placement(self.mapping)
                destinations = (
                    placement.machines_for_row(key[1])
                    if is_left
                    else placement.machines_for_col(key[1])
                )
                if routes is not None:
                    cached = [
                        routes.setdefault((machine_id, self.epoch), [])
                        for machine_id in destinations
                    ]
                else:
                    cached = [self.topology.joiner(m) for m in destinations]
                dest_cache[key] = cached
            if routes is not None:
                for group in cached:
                    group.append(tagged)
                return
            # One immutable DATA envelope shared by every destination of the
            # fan-out: receivers never mutate messages, so replicating the
            # envelope object per destination buys nothing.
            message = DataEnvelope(
                MessageKind.DATA, self.name, tagged, self.epoch, item.size
            )
            ctx.send_fanout(cached, message, category=TrafficCategory.ROUTING)
            return
        placement = self.topology.placement(self.mapping)
        if is_left:
            row = item.partition(self.mapping.n)
            destinations = placement.machines_for_row(row)
        else:
            col = item.partition(self.mapping.m)
            destinations = placement.machines_for_col(col)
        if routes is not None:
            for machine_id in destinations:
                routes.setdefault((machine_id, self.epoch), []).append(tagged)
            return
        message = DataEnvelope(
            MessageKind.DATA, self.name, tagged, self.epoch, item.size
        )
        joiner_names = self.topology.joiner_names
        ctx.send_fanout(
            [joiner_names[machine_id] for machine_id in destinations],
            message,
            category=TrafficCategory.ROUTING,
        )

    def _flush_routes(self, routes: RouteGroups, ctx: Context) -> None:
        """Send the per-(joiner, epoch) groups gathered from one micro-batch.

        Grouping by epoch as well as destination means a mapping change
        arriving mid-stream splits batches at the epoch edge, so every BATCH
        message carries a single, exact epoch tag for the protocol.
        """
        for (machine_id, epoch), items in routes.items():
            ctx.send(
                self.topology.joiner(machine_id),
                _envelope(items, MessageKind.DATA, self.name, epoch=epoch),
                category=TrafficCategory.ROUTING,
            )


class HashReshufflerTask(ReshufflerTask):
    """Content-sensitive routing used by the parallel symmetric hash join (SHJ).

    Tuples are partitioned on the join key: each tuple goes to exactly one
    joiner, chosen by hashing its key.  This is the classic equi-join
    partitioning the paper compares against — efficient without skew, but a
    few overloaded joiners absorb most of the input once the key distribution
    is skewed.
    """

    def _route(
        self,
        item: StreamTuple,
        is_left: bool,
        ctx: Context,
        routes: RouteGroups | None = None,
        dest_cache: dict | None = None,
    ) -> None:
        predicate = self.topology.predicate
        if predicate.kind != "equi":
            raise ValueError("the SHJ operator only supports equi-join predicates")
        key = (
            predicate.left_key(item.record) if is_left else predicate.right_key(item.record)
        )
        machine_id = hash(key) % self.topology.machines
        tagged = item if item.epoch == self.epoch else item.with_epoch(self.epoch)
        if routes is not None:
            routes.setdefault((machine_id, self.epoch), []).append(tagged)
            return
        ctx.send(
            self.topology.joiner(machine_id),
            DataEnvelope(MessageKind.DATA, self.name, tagged, self.epoch, item.size),
            category=TrafficCategory.ROUTING,
        )


class JoinerTask(Task):
    """A joiner: local non-blocking join wrapped in the epoch protocol.

    Args:
        probe_engine: name of a registered probe engine.  Engines advertising
            ``batch_aware`` (the built-in ``"vectorized"`` default) route DATA
            batches through ``EpochJoinerState.handle_data_batch`` →
            ``LocalJoiner.probe_batch``; others (the built-in ``"scalar"``
            reference) keep the per-member dispatch with full per-candidate
            predicate re-validation, used by differential tests and the
            probe-engine benchmarks.
    """

    def __init__(
        self,
        name: str,
        machine_id: int,
        topology: Topology,
        migration_rate_factor: float = 2.0,
        batch_size: int = 1,
        probe_engine: str = "vectorized",
    ) -> None:
        super().__init__(name, machine_id)
        self.topology = topology
        store = make_local_joiner(
            topology.predicate,
            topology.left_relation,
            topology.right_relation,
            engine=probe_engine,
        )
        self.state = EpochJoinerState(
            machine_id=machine_id,
            store=store,
            num_reshufflers=len(topology.reshuffler_names) or topology.machines,
            left_relation=topology.left_relation,
        )
        self.migration_rate_factor = migration_rate_factor
        self.batch_size = max(1, batch_size)
        self.batch_aware = probe_engines.get(probe_engine).batch_aware
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
        if message.kind is MessageKind.BATCH:
            self._handle_batch(message, ctx)
        elif message.kind is MessageKind.DATA:
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
        if kind is MessageKind.DATA:
            state = self.state
            epoch = message.payload.epoch
            if state.phase is JoinerPhase.NORMAL:
                if epoch == state.current_epoch:
                    return epoch
            elif epoch == state.pending_epoch:
                return epoch
            return None
        if kind is MessageKind.MIGRATION:
            return self._MU_DRAIN_KEY
        return None

    def handle_drained(self, first: Message, inbox, limit: int, key, ctx: Context) -> int:
        """Probe-and-store one drained run of pure same-epoch data tuples.

        The run is pulled off the inbox head up front (batch probes need the
        member list), its actions come from
        :meth:`EpochJoinerState.handle_data_batch` (one grouped index pass;
        per-member matches and work pinned identical to per-tuple
        ``handle_data``), and every member's cost is charged with the exact
        `_apply` arithmetic before :meth:`Context.boundary` commits it to
        the busy chain — so output timestamps and machine times are
        bit-identical to per-tuple delivery.  Probe work is integer-valued,
        so the single deferred metrics record is exact.
        """
        if key is self._MU_DRAIN_KEY:
            # µ runs: per-member handling through the base-class loop —
            # bit-identical to per-tuple delivery (handle + boundary per
            # member), saving only simulator events.
            return Task.handle_drained(self, first, inbox, limit, key, ctx)
        items = [first.payload]
        data_kind = MessageKind.DATA
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
        actions_list = self.state.handle_data_batch(items)
        if journal is not None:
            # The joiner state is fully mutated at this point (the remaining
            # work is cost accounting), so this is a valid snapshot point.
            journal.maybe_snapshot(self)
        machine = ctx.machine
        if machine is None:  # pragma: no cover - joiners are always hosted
            for item, actions in zip(items, actions_list):
                self._apply(actions, item, ctx, migrated=False)
                ctx.boundary()
            return len(items)
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
        for item, actions in zip(items, actions_list):
            work = actions.probe_work
            probe_total += work
            # Same arithmetic and accumulation order as _apply.
            factor = 1.0 if unbounded else storage_factor()
            cost = 0.0
            cost += receive_cost
            if actions.stored:
                cost += store_cost * factor
            cost += work * probe_cost * factor
            matches = actions.matches
            cost += len(matches) * match_cost
            if actions.stored:
                size = item.size
                machine.stored_size = stored = machine.stored_size + size
                machine.received_size += size
                if stored > machine.peak_stored_size:
                    machine.peak_stored_size = stored
            end = now + cost
            if matches:
                record_outputs(matches, end)
            if actions.migrate_to:  # pragma: no cover - excluded by drain_key
                raise RuntimeError(
                    f"joiner {self.name} drained a relocating tuple; "
                    "drain_key must keep migrating paths per-tuple"
                )
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

    def _handle_batch(self, message: Message, ctx: Context) -> None:
        """Process every member of a routed or migrated micro-batch.

        Members are handled in order within one simulator event; costs are
        charged per tuple, so outputs emitted by later members carry the
        cumulative charge of earlier ones (per-tuple cost attribution).  On
        the batch-aware DATA path the bookkeeping is aggregated over the
        whole batch (:meth:`_apply_data_batch`) — charged virtual times stay
        bit-identical to the per-member path.  Relocations produced along the
        way are regrouped per destination and flushed as batches at the end
        of the invocation.
        """
        inner = message.meta.get("inner")
        sink: RouteGroups = {}
        apply = self._apply
        journal = self._journal
        if inner is MessageKind.DATA:
            if journal is not None:
                for item in message.payload:
                    journal.log(("data", item))
            if self.batch_aware:
                items = list(message.payload)
                self._apply_data_batch(items, self.state.handle_data_batch(items), ctx, sink)
            else:
                handle_data = self.state.handle_data
                for item in message.payload:
                    apply(handle_data(item), item, ctx, migrated=False, sink=sink)
        elif inner is MessageKind.MIGRATION:
            handle_migrated = self.state.handle_migrated
            for item in message.payload:
                if journal is not None:
                    journal.log(("mu", item))
                apply(handle_migrated(item), item, ctx, migrated=True, sink=sink)
        else:
            raise ValueError(
                f"joiner {self.name} can only handle DATA or MIGRATION batches, "
                f"got inner kind {inner}"
            )
        self._flush_migrations(sink, ctx)

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
        sink: RouteGroups | None = {} if self.batch_size > 1 else None
        self._send_migrations(migrations, ctx, sink)
        for replayed_item, actions in replayed:
            self._apply(actions, replayed_item, ctx, migrated=False, charge_receive=False, sink=sink)
        if sink is not None:
            # Flush relocations before any MIGRATION_END below: link FIFO then
            # guarantees receivers see every migrated tuple before the marker.
            self._flush_migrations(sink, ctx)
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
        machine = ctx.machine
        if machine is not None:
            for item in result.discarded:
                machine.remove_stored(item.size)
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
        self,
        migrations: list[tuple[int, StreamTuple]],
        ctx: Context,
        sink: RouteGroups | None = None,
    ) -> None:
        cost_model = ctx.machine.cost_model if ctx.machine else None
        for destination, item in migrations:
            if cost_model is not None:
                ctx.charge(cost_model.reshuffle_cost)
            if sink is not None:
                sink.setdefault((destination, 0), []).append(item)
                continue
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

    def _flush_migrations(self, sink: RouteGroups, ctx: Context) -> None:
        """Send relocations gathered during one handler invocation, batched
        per destination joiner (the epoch component of the key is unused —
        µ tuples are interpreted via the receiver's migration plan)."""
        for (destination, _epoch), items in sink.items():
            ctx.send(
                self.topology.joiner(destination),
                _envelope(
                    items,
                    MessageKind.MIGRATION,
                    self.name,
                    meta={"sender_machine": self.machine_id},
                ),
                category=TrafficCategory.MIGRATION,
            )

    def _apply_data_batch(
        self,
        items: list[StreamTuple],
        actions_list: list[TupleActions],
        ctx: Context,
        sink: RouteGroups | None,
    ) -> None:
        """Apply one micro-batch of routed-data actions with aggregated bookkeeping.

        Semantically identical to calling :meth:`_apply` per member
        (``migrated=False``): per-member cost attribution is preserved — each
        member's cost is computed with the same float arithmetic and added to
        the running charge in the same order, so outputs of later members
        still carry the cumulative charge of earlier ones and virtual times
        are bit-identical (pinned by the scalar-engine equality assertions in
        ``test_batching_equivalence.py``).  What is aggregated is the
        *bookkeeping overhead*: cost-model fields and machine methods are
        resolved once per batch instead of per member, and probe work is
        recorded in one metrics call (probe-work units are integer-valued, so
        the deferred sum is exact).
        """
        machine = ctx.machine
        if machine is None:
            for item, actions in zip(items, actions_list):
                self._apply(actions, item, ctx, migrated=False, sink=sink)
            return
        cost_model = machine.cost_model
        receive_cost = cost_model.receive_cost
        store_cost = cost_model.store_cost
        probe_cost = cost_model.probe_cost
        match_cost = cost_model.match_cost
        storage_factor = machine.storage_factor
        add_stored = machine.add_stored
        emit_outputs = ctx.emit_outputs
        probe_total = 0.0
        for item, actions in zip(items, actions_list):
            work = actions.probe_work
            probe_total += work
            # Same per-member arithmetic and accumulation order as _apply.
            factor = storage_factor()
            cost = 0.0
            cost += receive_cost
            if actions.stored:
                cost += store_cost * factor
            cost += work * probe_cost * factor
            matches = actions.matches
            cost += len(matches) * match_cost
            ctx.charged += cost
            if actions.stored:
                add_stored(item.size)
            if matches:
                emit_outputs(matches)
            if actions.migrate_to:
                self._send_migrations(actions.migrate_to, ctx, sink)
        if probe_total:
            ctx.metrics.record_probe_work(probe_total)

    def _apply(
        self,
        actions: TupleActions,
        item: StreamTuple | None,
        ctx: Context,
        migrated: bool,
        charge_receive: bool = True,
        sink: RouteGroups | None = None,
    ) -> None:
        machine = ctx.machine
        cost_model = machine.cost_model if machine else None
        if actions.probe_work:
            ctx.metrics.record_probe_work(actions.probe_work)
        if cost_model is not None:
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
            self._send_migrations(actions.migrate_to, ctx, sink)
