"""Crash recovery for the join plane: journaling, checkpoints and restore.

The fault-tolerant plane has three moving parts:

* **Journals** — thin per-task wrappers (:class:`JoinerJournal`,
  :class:`ReshufflerJournal`) that tasks call at every state mutation.  Each
  entry is one replayable delta in the run's
  :class:`~repro.storage.checkpoint_store.CheckpointStore`, which buffers the
  entry objects and writes them as pickled *blocks* (entries are never
  mutated after they are logged, so pickling late is safe).  At epoch-aligned
  safe points (joiners: NORMAL phase; reshufflers: between tuples) a snapshot
  row is written.  Reshuffler snapshots (a few hundred bytes) are always
  full.  A joiner's is an *extending* header — "previous snapshot ⊕ the
  deltas since it", a few dozen bytes — whenever every delta since its
  previous snapshot was a plain NORMAL-phase ``store.insert``; the store is
  re-pickled in full only at the first safe point after the epoch protocol
  rewrote it (a migration), which the paper's doubling argument (§4.2) makes
  amortised-linear in the input.  The store keeps the newest two snapshot
  rows with the full snapshots they extend and every block back to the older
  base: one corrupt snapshot row is masked by the previous one (longer
  replay), a torn tail block is truncated, and a corrupt block inside the
  chain is never masked — it raises
  :class:`~repro.storage.checkpoint_store.CheckpointCorruptionError`.
* **Crash handling** — the simulator calls :meth:`RecoveryManager.on_crash`
  when a scheduled fault fires: the delta buffers are force-flushed (the
  on-disk journal is complete before recovery reads it) and the machine's
  volatile storage accounting is zeroed.
* **Restore** — :meth:`RecoveryManager.on_restart` rebuilds the machine's
  joiner and reshuffler from snapshot + delta replay, *through the real
  protocol handlers*.  Replayed handlers return output/migration actions that
  are discarded: every output the dead machine emitted before the crash is
  already in the global metrics collector, and every migration it sent is
  durably on the wire (fail-stop at handler boundaries, see
  :mod:`repro.engine.faults`) — so replay restores state without duplicating
  effects, giving exactly-once output semantics.

Recovery is framed as an **involuntary migration**: the crash log records the
dead machine's :class:`~repro.core.migration.StateAssignment` under the
mapping in force — precisely the state intervals a voluntary migration plan
would have relocated — and the restore replays the relocation from the
durable journal instead of from peer machines.

What recovery pins, and what it does not: a fault-free run with journaling
enabled is bit-identical to the reference plane (journaling touches no heap,
rng, charge or metric).  A crashed run pins the *output multiset* against its
fault-free twin (Theorem 4.5 holds under any migration sequence, including
the involuntary one), while timings and the migration sequence may diverge;
replaying the same crashed run twice is bit-identical.

Handlers journal on the thread that drives the simulator, through the
checkpoint store's single SQLite connection behind its store-wide lock.

Composition with the unreliable wire (``RunConfig.network_faults``): the
reliable-delivery sublayer dedups *below* the task layer — a message is
released to a task at most once, however many times the wire duplicated or
retransmitted it — and its per-link sequencer state is durable across the
receiver's crashes (it is simulator state, not machine state).  A
retransmitted-then-crashed message is therefore either discarded by wire
dedup (an earlier copy was already released) or redelivered exactly once
from the outage buffer; journal replay then restores the applied state
without re-running the wire, so the exactly-once argument above composes
unchanged.
"""

from __future__ import annotations

from repro.core.epochs import EpochJoinerState, JoinerPhase
from repro.core.mapping import Mapping
from repro.core.migration import assignments_for
from repro.storage.checkpoint_store import ExtendedSnapshot


class JoinerJournal:
    """Delta journal + snapshot policy for one joiner task.

    The journal object outlives a restore (:meth:`RecoveryManager.on_restart`
    replaces ``task.state``, not the task), so the bookkeeping below keeps
    describing the durable log across a crash.
    """

    def __init__(self, manager: "RecoveryManager", task_name: str) -> None:
        self.manager = manager
        self.task_name = task_name
        #: Deltas logged since the previous snapshot (what ``store.log``
        #: returned last), kept here so the per-handler snapshot check takes
        #: no store lock.
        self._since_snapshot = 0
        #: True while every one of them was a ``"data"`` entry.
        self._inserts_only = True

    def log(self, entry: tuple) -> None:
        self._since_snapshot = self.manager.store.log(self.task_name, entry)
        if entry[0] != "data":
            self._inserts_only = False

    def maybe_snapshot(self, task) -> None:
        """Snapshot at an epoch-aligned safe point once enough deltas piled up.

        Only the NORMAL phase is a safe point: mid-migration state (the four
        tag partitions, the signal set, the plan) is transient and fully
        reproducible from the preceding NORMAL snapshot plus the signal/data
        deltas, so snapshots simply wait for the migration to finalize.

        The snapshot *extends* the previous one when the deltas since it
        alone reproduce the store: all of them ``"data"``, the joiner NORMAL
        now (so it was NORMAL throughout — leaving and re-entering the phase
        logs a signal and a finalize) and nothing buffered as an early
        message (a NORMAL-phase data tuple is either buffered there or
        inserted).  Anything else — a signal, µ tuple, end marker or finalize
        since the previous snapshot — means the epoch protocol may have
        rewritten the store, and the snapshot is a full one.
        """
        interval = self.manager.checkpoint_interval
        if interval is None or self._since_snapshot < interval:
            return
        state = task.state
        if state.phase is not JoinerPhase.NORMAL:
            return
        snapshot = {
            "epoch": state.current_epoch,
            "ends": set(state._received_ends),
            "early": list(state._early_messages),
            "ends_sent_for": task._ends_sent_for,
        }
        extends = self._inserts_only and not state._early_messages
        if not extends:
            left = state.left_relation
            right = state.store.opposite(left)
            snapshot["relations"] = {
                left: list(state.store.stored(left)),
                right: list(state.store.stored(right)),
            }
        self.manager.store.snapshot(self.task_name, snapshot, extends=extends)
        self._since_snapshot = 0
        self._inserts_only = True


class ReshufflerJournal:
    """Delta journal + snapshot policy for one reshuffler task.

    Protocol-exact, statistics-stale: the protocol-critical fields (epoch,
    mapping, in-flight flag, ack count) are journaled as deltas and restored
    exactly, while the controller statistics and the ``_seen`` counter come
    from the last periodic snapshot and may be stale after a crash.  Stale
    statistics are safe — the output multiset is correct under any migration
    sequence (Theorem 4.5) and the restored run stays deterministic — and
    because the mapping itself is exact, a stale controller can never trigger
    a migration to the mapping already in force.
    """

    def __init__(self, manager: "RecoveryManager", task_name: str) -> None:
        self.manager = manager
        self.task_name = task_name
        self._last_snap_seen = 0

    def log(self, entry: tuple) -> None:
        self.manager.store.log(self.task_name, entry)

    def maybe_snapshot(self, task) -> None:
        interval = self.manager.checkpoint_interval
        if interval is None:
            return
        if task._seen - self._last_snap_seen < interval:
            return
        self._last_snap_seen = task._seen
        controller = task.controller
        self.manager.store.snapshot(
            self.task_name,
            {
                "epoch": task.epoch,
                "mapping": (task.mapping.n, task.mapping.m),
                "in_flight": task.migration_in_flight,
                "acks": task.acks_received,
                "seen": task._seen,
                "buffering": task.buffering,
                "buffer": list(task._buffer),
                "controller": None
                if controller is None
                else {
                    "committed_r": controller.committed_r,
                    "committed_s": controller.committed_s,
                    "delta_r": controller.delta_r,
                    "delta_s": controller.delta_s,
                    "decisions": controller.decisions,
                    "migrations_triggered": controller.migrations_triggered,
                },
            },
        )


class RecoveryManager:
    """Per-run crash/restore coordinator attached to the simulator.

    Args:
        simulator: the run's simulator (tasks, machines, cost model).
        topology: the operator topology (task names, plan/placement caches).
        store: the run's durable checkpoint store.
        schedule: the normalized fault schedule to inject.
        checkpoint_interval: deltas between snapshots (None = journal only).
        ack_timeout / max_retries: link-layer failure-detection knobs.
        initial_mapping: the (n, m) scheme in force at start-up — the restore
            baseline for a reshuffler that never reached a snapshot.
    """

    def __init__(
        self,
        simulator,
        topology,
        store,
        schedule,
        checkpoint_interval,
        ack_timeout,
        max_retries,
        initial_mapping,
    ) -> None:
        self.simulator = simulator
        self.topology = topology
        self.store = store
        self.schedule = tuple(schedule)
        self.checkpoint_interval = checkpoint_interval
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self.initial_mapping = (initial_mapping.n, initial_mapping.m)

        self.faults_injected = 0
        self.recovery_time = 0.0
        self.tuples_replayed = 0
        self._crash_times: dict[int, float] = {}
        #: One entry per crash, framing the recovery as an involuntary
        #: migration: the dead machine's state assignment under the mapping
        #: in force is exactly what a voluntary plan would have relocated.
        self.fault_log: list[dict] = []

    # -------------------------------------------------------------- journals

    def attach_journals(self, simulator) -> None:
        """Give every joiner and reshuffler its journal wrapper."""
        for name in self.topology.joiner_names:
            simulator.tasks[name]._journal = JoinerJournal(self, name)
        for name in self.topology.reshuffler_names:
            simulator.tasks[name]._journal = ReshufflerJournal(self, name)

    # ----------------------------------------------------------------- crash

    def on_crash(self, machine_id: int, time: float) -> None:
        """Fail-stop bookkeeping: flush the journal, zero volatile storage."""
        self.faults_injected += 1
        self._crash_times[machine_id] = time
        # The write-behind delta buffers must be durable before restore reads
        # them (group commit at crash time).
        self.store.flush()
        controller = self.simulator.tasks[self.topology.controller_name]
        mapping = controller.mapping
        assignment = assignments_for(self.topology.placement(mapping)).get(machine_id)
        self.fault_log.append(
            {
                "machine": machine_id,
                "time": time,
                "mapping": (mapping.n, mapping.m),
                "r_interval": None if assignment is None else assignment.r_interval,
                "s_interval": None if assignment is None else assignment.s_interval,
            }
        )
        machine = self.simulator.machines[machine_id]
        machine.stored_size = 0.0
        machine.clear_drain_window()

    # --------------------------------------------------------------- restore

    def on_restart(self, machine_id: int, time: float) -> tuple[float, int]:
        """Rebuild the machine's tasks from the journal.

        Returns ``(restore_cost, tuples_replayed)``: the virtual-time cost of
        re-materialising the snapshot and replaying the deltas (charged to the
        reborn machine like migration work), and the number of data/µ tuples
        replayed through the real handlers.
        """
        joiner = self.simulator.tasks[self.topology.joiner(machine_id)]
        reshuffler = self.simulator.tasks[self.topology.reshuffler_names[machine_id]]
        snapshot_tuples, replayed = self._restore_joiner(joiner)
        self._restore_reshuffler(reshuffler)
        cost_model = self.simulator.cost_model
        restore_cost = (
            cost_model.store_cost * snapshot_tuples
            + cost_model.migration_cost * replayed
        )
        machine = self.simulator.machines[machine_id]
        restored = joiner.state.store.stored_size()
        if joiner.state._parts is not None:
            restored += sum(
                part.stored_size() for part in joiner.state._parts.values()
            )
        machine.stored_size = restored
        if restored > machine.peak_stored_size:
            machine.peak_stored_size = restored
        crash_time = self._crash_times.pop(machine_id, time)
        self.recovery_time += (time - crash_time) + restore_cost
        self.tuples_replayed += replayed
        return restore_cost, replayed

    def _restore_joiner(self, task) -> tuple[int, int]:
        """Snapshot + delta replay through the real protocol handlers.

        An extending snapshot chain is re-materialised without the handlers:
        the deltas it folds are plain inserts (see
        :meth:`JoinerJournal.maybe_snapshot`), so base and folded tuples are
        bulk-loaded together, in the per-relation order the live store held
        them, and counted as snapshot tuples — exactly what restoring a full
        snapshot taken at the same point would have loaded.
        """
        snapshot, deltas = self.store.load(task.name)
        old_state = task.state
        state = EpochJoinerState(
            machine_id=task.machine_id,
            store=old_state.store.fresh(),
            num_reshufflers=old_state.num_reshufflers,
            left_relation=old_state.left_relation,
        )
        snapshot_tuples = 0
        task._ends_sent_for = None
        if snapshot is not None:
            folded = ()
            if isinstance(snapshot, ExtendedSnapshot):
                base, snapshot, folded = snapshot
                relations = {} if base is None else base["relations"]
            else:
                relations = snapshot["relations"]
            stored = {relation: list(items) for relation, items in relations.items()}
            for _kind, item in folded:
                stored.setdefault(item.relation, []).append(item)
            for relation, items in stored.items():
                state.store.bulk_insert(relation, items)
                snapshot_tuples += len(items)
            state.current_epoch = snapshot["epoch"]
            state._received_ends = set(snapshot["ends"])
            state._early_messages = list(snapshot["early"])
            task._ends_sent_for = snapshot["ends_sent_for"]
        topology = self.topology
        replayed = 0
        for entry in deltas:
            kind = entry[0]
            if kind == "data":
                state.handle_data(entry[1])
                replayed += 1
            elif kind == "mu":
                state.handle_migrated(entry[1])
                replayed += 1
            elif kind == "signal":
                _, epoch, old_mapping, new_mapping, sender = entry
                plan = topology.plan(Mapping(*old_mapping), Mapping(*new_mapping))
                state.handle_signal(epoch, plan, reshuffler=sender)
            elif kind == "end":
                state.register_migration_end(entry[1])
            elif kind == "ends_sent":
                task._ends_sent_for = entry[1]
            elif kind == "final":
                state.finalize()
            else:  # pragma: no cover - the journal only holds the kinds above
                raise RuntimeError(f"unknown joiner journal entry: {entry!r}")
        task.state = state
        return snapshot_tuples, replayed

    def _restore_reshuffler(self, task) -> None:
        snapshot, deltas = self.store.load(task.name)
        controller = task.controller
        if snapshot is not None:
            task.epoch = snapshot["epoch"]
            task.mapping = Mapping(*snapshot["mapping"])
            task.migration_in_flight = snapshot["in_flight"]
            task.acks_received = snapshot["acks"]
            task._seen = snapshot["seen"]
            task.buffering = snapshot["buffering"]
            task._buffer = list(snapshot["buffer"])
            stats = snapshot["controller"]
            if controller is not None and stats is not None:
                controller.committed_r = stats["committed_r"]
                controller.committed_s = stats["committed_s"]
                controller.delta_r = stats["delta_r"]
                controller.delta_s = stats["delta_s"]
                controller.decisions = stats["decisions"]
                controller.migrations_triggered = stats["migrations_triggered"]
        else:
            task.epoch = 0
            task.mapping = Mapping(*self.initial_mapping)
            task.migration_in_flight = False
            task.acks_received = 0
            task._seen = 0
            task.buffering = False
            task._buffer = []
            if controller is not None:
                controller.committed_r = 0.0
                controller.committed_s = 0.0
                controller.delta_r = 0.0
                controller.delta_s = 0.0
                controller.decisions = 0
                controller.migrations_triggered = 0
        machines = self.topology.machines
        for entry in deltas:
            kind = entry[0]
            if kind == "rmap":
                task.epoch = entry[1]
                task.mapping = Mapping(*entry[2])
            elif kind == "rack":
                task.acks_received += 1
                if task.acks_received >= machines:
                    task.migration_in_flight = False
            elif kind == "rtrig":
                task.migration_in_flight = True
                task.acks_received = 0
            else:  # pragma: no cover - the journal only holds the kinds above
                raise RuntimeError(f"unknown reshuffler journal entry: {entry!r}")
