"""The eventually-consistent, non-blocking migration protocol (§4.3.1, Alg. 3).

System operation is divided into *epochs*: every mapping change opens a new
epoch, reshufflers tag routed tuples with the latest epoch they know, and
joiners keep processing tuples throughout the state relocation while
reasoning about four tuple sets:

* ``τ``  — tuples received before the migration decision (committed state),
* ``Δ``  — tuples tagged with the old epoch that arrive during the migration,
* ``Δ'`` — tuples tagged with the new epoch,
* ``µ``  — tuples received from other joiners due to the migration.

:class:`EpochJoinerState` implements the joiner side of Algorithm 3
(HandleTuple1 / HandleTuple2 / FinalizeMigration) as an engine-independent
state machine so that the protocol's correctness — the output after the
migration equals ``(τ ∪ Δ ∪ Δ') ⋈ (τ ∪ Δ ∪ Δ')`` with no duplicates
(Definition 4.4, Theorem 4.5) — can be tested in isolation and reused by the
simulated joiner task.

Tag-partitioned stores: during a migration the joiner's state is held in four
sub-stores — ``Keep(τ ∪ Δ)``, ``Drop(τ ∪ Δ)``, ``Δ'`` and ``µ`` — instead of
one store plus a per-candidate tag filter.  A protocol probe selects the
partitions of its tuple set and probes only those; the unselected partitions
contribute their candidate *counts* so that the charged work (candidates a
single union index would have inspected) is bit-identical to the unpartitioned
protocol.  FinalizeMigration becomes a wholesale drop of the Drop partition
plus a bulk merge of the survivors — no per-tuple tag rewriting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.migration import MigrationPlan
from repro.engine.metrics import MatchGroup
from repro.engine.stream import StreamTuple
from repro.joins.local import LocalJoiner


class ProtocolError(RuntimeError):
    """Raised when a message violates the epoch protocol's guarantees."""


class JoinerPhase(enum.Enum):
    """Phase of a joiner with respect to the current migration."""

    NORMAL = "normal"        # no migration in progress; HandleTuple1 degenerate path
    MIGRATING = "migrating"  # some (not all) reshuffler signals received; HandleTuple1
    DRAINED = "drained"      # all reshuffler signals received; HandleTuple2


@dataclass(slots=True)
class TupleActions:
    """Everything a joiner task must do after the state machine handled a tuple.

    Attributes:
        matches: the tuple's join results as one
            :class:`~repro.engine.metrics.MatchGroup` (a columnar
            ``MatchBlock`` on the columnar engine's batch path); the empty
            tuple when it matched nothing.  ``len()`` is the result count,
            iteration yields oriented ``(left_tuple, right_tuple)`` pairs.
        probe_work: number of index candidates inspected (for CPU accounting).
        stored: whether the incoming tuple was added to local state.
        migrate_to: ``(destination_machine, tuple)`` relocations this joiner
            must send because it is the designated sender.
    """

    matches: MatchGroup | tuple = ()
    probe_work: float = 0.0
    stored: bool = False
    migrate_to: list[tuple[int, StreamTuple]] = field(default_factory=list)


@dataclass
class FinalizeResult:
    """Result of FinalizeMigration: what was discarded, and the closed epoch."""

    discarded: list[StreamTuple]
    epoch: int


# The tag partitions of Algorithm 3's tuple sets, as sub-store names.
_OLD_KEEP = "old_keep"      # Keep(τ ∪ Δ): old-epoch tuples this joiner retains
_OLD_DROP = "old_drop"      # Drop(τ ∪ Δ): old-epoch tuples discarded at finalize
_NEW = "new"                # Δ': tuples tagged with the pending epoch
_MU = "mu"                  # µ: tuples relocated from other joiners
_PARTITIONS = (_OLD_KEEP, _OLD_DROP, _NEW, _MU)

# Partition selections of the protocol's probes.
_SEL_OLD = (_OLD_KEEP, _OLD_DROP)        # τ ∪ Δ
_SEL_OLD_KEEP = (_OLD_KEEP,)             # Keep(τ ∪ Δ)
_SEL_NEW = (_NEW,)                       # Δ'
_SEL_NEW_MU = (_NEW, _MU)                # µ ∪ Δ'


class EpochJoinerState:
    """Algorithm 3 state machine for one joiner.

    Args:
        machine_id: id of the hosting machine (used to look itself up in
            migration plans).
        store: the local non-blocking join algorithm holding this joiner's
            state for both relations.
        num_reshufflers: number of reshuffler tasks; a migration's old epoch
            is closed once signals from all of them arrived.
        left_relation: relation treated as the "R" (row) side.
    """

    def __init__(
        self,
        machine_id: int,
        store: LocalJoiner,
        num_reshufflers: int,
        left_relation: str,
    ) -> None:
        self.machine_id = machine_id
        self.store = store
        self.num_reshufflers = num_reshufflers
        self.left_relation = left_relation

        self.current_epoch = 0
        self.phase = JoinerPhase.NORMAL
        self.plan: MigrationPlan | None = None
        self.pending_epoch: int | None = None

        # Tag-partitioned sub-stores; built at migration start, merged back
        # into ``store`` at finalize.  None while NORMAL (everything is τ).
        self._parts: dict[str, LocalJoiner] | None = None
        self._signals: set[str] = set()
        self._expected_senders: set[int] = set()
        self._received_ends: set[int] = set()
        self._early_messages: list[tuple[str, StreamTuple]] = []

    # ------------------------------------------------------------------ util

    def _side(self, item: StreamTuple) -> str:
        return "R" if item.relation == self.left_relation else "S"

    def _add_matches(
        self, item: StreamTuple, actions: TupleActions, partners: list[StreamTuple]
    ) -> None:
        """Fold one probe's partners into ``item``'s match group.

        ``partners`` must be a list the caller owns (probes return fresh
        lists): the group keeps it, and a second protocol probe of the same
        tuple extends it in place.
        """
        group = actions.matches
        if group:
            group.partners.extend(partners)
        else:
            actions.matches = MatchGroup(
                item, item.relation == self.left_relation, partners
            )

    def _join_store(self, item: StreamTuple, actions: TupleActions) -> None:
        """Normal-operation probe: everything stored is τ, probe it all."""
        partners, work = self.store.probe(item)
        actions.probe_work += work
        if partners:
            self._add_matches(item, actions, partners)

    def _join_parts(
        self, item: StreamTuple, actions: TupleActions, select: tuple[str, ...]
    ) -> None:
        """Probe the partitions holding the tuple sets in ``select``.

        The unselected partitions contribute their candidate counts so the
        charged work equals what a single union-store probe would have
        inspected (the partitions tile the joiner's state), keeping CPU
        accounting bit-identical to the unpartitioned protocol.
        """
        parts = self._parts
        assert parts is not None
        partners: list[StreamTuple] = []
        inspected = 0
        # The partitions share one predicate: resolve the probe side/key once
        # and use the keyed index entry points for all four.
        is_left, key = parts[_OLD_KEEP].probe_plan(item)
        record = item.record
        for name in _PARTITIONS:
            part = parts[name]
            if name in select:
                part_matches, part_inspected = part.keyed_raw_probe(is_left, key, record)
                inspected += part_inspected
                if part_matches:
                    partners.extend(part_matches)
            else:
                inspected += part.keyed_candidate_count(is_left, key)
        actions.probe_work += float(max(inspected, 1))
        if partners:
            self._add_matches(item, actions, partners)

    # -------------------------------------------------------------- counters

    def stored_count(self) -> int:
        """Number of tuples currently stored (including not-yet-discarded ones)."""
        total = self.store.total_count()
        if self._parts is not None:
            total += sum(part.total_count() for part in self._parts.values())
        return total

    def migration_in_progress(self) -> bool:
        """Whether a migration is currently being executed."""
        return self.phase is not JoinerPhase.NORMAL

    # ------------------------------------------------------------ data tuples

    def handle_data(self, item: StreamTuple) -> TupleActions:
        """Handle a data tuple routed by a reshuffler (HandleTuple1/2 data paths)."""
        actions = TupleActions()
        if item.epoch > self.current_epoch and self.phase is JoinerPhase.NORMAL:
            # The reshuffler learned about the new epoch before we received any
            # signal; buffer until the first signal brings the migration plan.
            self._early_messages.append(("data", item))
            return actions

        if self.phase is JoinerPhase.NORMAL:
            if item.epoch != self.current_epoch:
                raise ProtocolError(
                    f"joiner {self.machine_id} in epoch {self.current_epoch} received a "
                    f"tuple tagged with past epoch {item.epoch}"
                )
            # Normal operation: join with everything stored, then store as τ.
            self._join_store(item, actions)
            self.store.insert(item)
            actions.stored = True
            return actions

        if item.epoch == self.current_epoch:
            if self.phase is JoinerPhase.DRAINED:
                raise ProtocolError(
                    f"joiner {self.machine_id} received an old-epoch tuple after all "
                    "reshufflers signalled the epoch change"
                )
            return self._handle_delta(item, actions)
        if item.epoch == self.pending_epoch:
            return self._handle_delta_prime(item, actions)
        raise ProtocolError(
            f"joiner {self.machine_id} received epoch {item.epoch} while migrating "
            f"from {self.current_epoch} to {self.pending_epoch}"
        )

    def handle_data_batch(self, items: list[StreamTuple]) -> list[TupleActions]:
        """Batched HandleTuple1 for one single-epoch run of routed data tuples.

        On the hot NORMAL path the whole batch is inserted+probed through
        :meth:`LocalJoiner.probe_batch` — one grouped index pass with correct
        intra-batch self-join semantics and per-member work accounting
        identical to the per-tuple path.  Any other phase (or an epoch
        mismatch, e.g. a batch buffered across a migration edge) falls back
        to the per-tuple handler, which implements the full protocol.
        """
        if self.phase is JoinerPhase.NORMAL:
            current = self.current_epoch
            if all(item.epoch == current for item in items):
                left_relation = self.left_relation
                results = []
                for item, (matches, work) in zip(items, self.store.probe_batch(items)):
                    actions = TupleActions(probe_work=work, stored=True)
                    if matches:
                        if matches.__class__ is list:
                            # The engine's own fresh partner list: the group
                            # takes it over as is.
                            matches = MatchGroup(
                                item, item.relation == left_relation, matches
                            )
                        # else a columnar MatchBlock, which already carries
                        # the probing item and its orientation.
                        actions.matches = matches
                    results.append(actions)
                return results
        else:
            pending = self.pending_epoch
            if pending is not None and all(item.epoch == pending for item in items):
                return self._delta_prime_batch(items)
        return [self.handle_data(item) for item in items]

    def _delta_prime_batch(self, items: list[StreamTuple]) -> list[TupleActions]:
        """Batched Δ' handling: one loop, per-member semantics of
        :meth:`_handle_delta_prime`.

        Each member runs the exact two protocol probes — ``µ ∪ Δ'`` then
        ``Keep(τ ∪ Δ)``, each with the unselected partitions' candidate
        counts folded in and floored at one work unit — and is inserted into
        ``Δ'`` before the next member probes (intra-batch self-join
        semantics), so matches, work and storage are bit-identical to the
        per-tuple path.  Hoisted out of the member loop: the partition
        lookups, the probe-side/key resolution (once per member instead of
        once per partition visit) and the method dispatch.
        """
        parts = self._parts
        assert parts is not None
        keep_part = parts[_OLD_KEEP]
        drop_part = parts[_OLD_DROP]
        new_part = parts[_NEW]
        mu_part = parts[_MU]
        new_insert = new_part.insert
        results: list[TupleActions] = []
        append = results.append
        for item in items:
            is_left, key = new_part.probe_plan(item)
            record = item.record
            # Probe 1 — µ ∪ Δ' (Alg. 3 lines 12-14): counts of old_keep and
            # old_drop, probes of new and mu, in _PARTITIONS order.
            inspected = keep_part.keyed_candidate_count(is_left, key)
            inspected += drop_part.keyed_candidate_count(is_left, key)
            matches, new_inspected = new_part.keyed_raw_probe(is_left, key, record)
            mu_matches, mu_inspected = mu_part.keyed_raw_probe(is_left, key, record)
            inspected += new_inspected + mu_inspected
            if mu_matches:
                matches.extend(mu_matches)
            work = float(inspected) if inspected > 0 else 1.0
            # Probe 2 — Keep(τ ∪ Δ) (Alg. 3 lines 24-26).
            keep_matches, keep_inspected = keep_part.keyed_raw_probe(is_left, key, record)
            inspected2 = keep_inspected + drop_part.keyed_candidate_count(is_left, key)
            inspected2 += new_part.keyed_candidate_count(is_left, key)
            inspected2 += mu_part.keyed_candidate_count(is_left, key)
            actions = TupleActions(
                probe_work=work + (float(inspected2) if inspected2 > 0 else 1.0),
                stored=True,
            )
            if keep_matches:
                matches.extend(keep_matches)
            if matches:
                actions.matches = MatchGroup(item, is_left, matches)
            new_insert(item)
            append(actions)
        return results

    def _handle_delta(self, item: StreamTuple, actions: TupleActions) -> TupleActions:
        """Old-epoch tuple during migration (Alg. 3 lines 15-20)."""
        assert self.plan is not None and self._parts is not None
        self._join_parts(item, actions, _SEL_OLD)
        keep = self.plan.keeps(self.machine_id, self._side(item), item.salt)
        self._parts[_OLD_KEEP if keep else _OLD_DROP].insert(item)
        actions.stored = True
        if keep:
            self._join_parts(item, actions, _SEL_NEW)
        destinations = self.plan.destinations_for(self.machine_id, self._side(item), item.salt)
        actions.migrate_to.extend((destination, item) for destination in destinations)
        return actions

    def _handle_delta_prime(self, item: StreamTuple, actions: TupleActions) -> TupleActions:
        """New-epoch tuple during migration (Alg. 3 lines 12-14 and 24-26)."""
        assert self._parts is not None
        self._join_parts(item, actions, _SEL_NEW_MU)
        self._join_parts(item, actions, _SEL_OLD_KEEP)
        self._parts[_NEW].insert(item)
        actions.stored = True
        return actions

    # ------------------------------------------------------- migration tuples

    def handle_migrated(self, item: StreamTuple) -> TupleActions:
        """Handle a µ tuple relocated from another joiner (Alg. 3 lines 10-11, 22-23)."""
        actions = TupleActions()
        if self.phase is JoinerPhase.NORMAL:
            self._early_messages.append(("migrated", item))
            return actions
        assert self._parts is not None
        self._join_parts(item, actions, _SEL_NEW)
        self._parts[_MU].insert(item)
        actions.stored = True
        return actions

    # ----------------------------------------------------------------- signals

    def handle_signal(
        self, epoch: int, plan: MigrationPlan, reshuffler: str
    ) -> tuple[list[tuple[int, StreamTuple]], list[tuple[StreamTuple, TupleActions]]]:
        """Handle an epoch-change signal from ``reshuffler``.

        Returns ``(migrations, replayed)`` where ``migrations`` are the
        ``(destination, tuple)`` relocations triggered by this signal (the τ
        batch on the first signal) and ``replayed`` pairs each buffered early
        message that can now be processed with its resulting actions.
        """
        if epoch == self.current_epoch:
            return [], []
        if self.pending_epoch is not None and epoch != self.pending_epoch:
            raise ProtocolError(
                f"joiner {self.machine_id} saw a signal for epoch {epoch} while still "
                f"migrating to epoch {self.pending_epoch}; machines must be at most one "
                "epoch behind the controller"
            )

        migrations: list[tuple[int, StreamTuple]] = []
        replayed: list[tuple[StreamTuple, TupleActions]] = []
        if self.pending_epoch is None:
            # First signal: adopt the plan and ship the committed state τ.
            # _signals and _received_ends are NOT cleared here: an end-of-
            # migration marker from a fast sender may legitimately arrive
            # before our first signal and must not be lost.
            self.pending_epoch = epoch
            self.plan = plan
            self.phase = JoinerPhase.MIGRATING
            self._expected_senders = plan.senders_to(self.machine_id)
            migrations.extend(self._ship_tau())
            replayed.extend(self._drain_early_messages())

        self._signals.add(reshuffler)
        if len(self._signals) >= self.num_reshufflers:
            self.phase = JoinerPhase.DRAINED
        return migrations, replayed

    def _ship_tau(self) -> list[tuple[int, StreamTuple]]:
        """Send τ for migration (Alg. 3 line 3) and build the tag partitions.

        At migration start everything stored is τ; each tuple's keep flag
        decides its partition (``Keep(τ ∪ Δ)`` vs ``Drop(τ ∪ Δ)``), replacing
        the per-tuple keep map with wholesale partition membership.
        """
        assert self.plan is not None
        plan = self.plan
        machine_id = self.machine_id
        parts = {name: self.store.fresh() for name in _PARTITIONS}
        migrations: list[tuple[int, StreamTuple]] = []
        for relation in (self.left_relation, self.store.opposite(self.left_relation)):
            side = "R" if relation == self.left_relation else "S"
            keep_items: list[StreamTuple] = []
            drop_items: list[StreamTuple] = []
            for item in self.store.stored(relation):
                if plan.keeps(machine_id, side, item.salt):
                    keep_items.append(item)
                else:
                    drop_items.append(item)
                for destination in plan.destinations_for(machine_id, side, item.salt):
                    migrations.append((destination, item))
            parts[_OLD_KEEP].bulk_insert(relation, keep_items)
            parts[_OLD_DROP].bulk_insert(relation, drop_items)
        self._parts = parts
        self.store = self.store.fresh()
        return migrations

    def _drain_early_messages(self) -> list[tuple[StreamTuple, TupleActions]]:
        replayed = []
        pending, self._early_messages = self._early_messages, []
        for kind, item in pending:
            if kind == "data":
                replayed.append((item, self.handle_data(item)))
            else:
                replayed.append((item, self.handle_migrated(item)))
        return replayed

    # --------------------------------------------------------------- finalize

    def register_migration_end(self, sender_machine: int) -> None:
        """Record an end-of-migration marker from a designated sender."""
        self._received_ends.add(sender_machine)

    def can_finalize(self) -> bool:
        """Whether the migration can be finalised (Alg. 3 "Migration Ended")."""
        if self.phase is not JoinerPhase.DRAINED:
            return False
        return self._expected_senders.issubset(self._received_ends)

    def finalize(self) -> FinalizeResult:
        """FinalizeMigration (Alg. 3 lines 27-30): discard, merge sets, reset.

        With tag partitions this is wholesale: drop the ``Drop(τ ∪ Δ)``
        partition and bulk-merge ``Keep(τ ∪ Δ) ∪ Δ' ∪ µ`` into the new τ
        store — no per-tuple tag checks or index removals.
        """
        if not self.can_finalize():
            raise ProtocolError("finalize() called before the migration completed")
        assert self.pending_epoch is not None and self._parts is not None
        parts = self._parts
        discarded: list[StreamTuple] = []
        for relation in (self.left_relation, self.store.opposite(self.left_relation)):
            discarded.extend(parts[_OLD_DROP].stored(relation))
        # τ <- Keep(τ ∪ Δ) ∪ µ ∪ Δ'
        merged = parts[_OLD_KEEP]
        merged.absorb(parts[_NEW])
        merged.absorb(parts[_MU])
        self.store = merged
        self._parts = None
        closed_epoch = self.pending_epoch
        self.current_epoch = closed_epoch
        self.pending_epoch = None
        self.plan = None
        self.phase = JoinerPhase.NORMAL
        self._signals.clear()
        self._expected_senders.clear()
        self._received_ends.clear()
        return FinalizeResult(discarded=discarded, epoch=closed_epoch)
