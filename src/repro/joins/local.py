"""Local non-blocking join algorithms.

A :class:`LocalJoiner` lives inside one joiner task.  It stores the tuples of
both relations assigned to that joiner and, for every newly arriving tuple,
immediately produces the joins with the stored tuples of the opposite
relation — the classic symmetric/pipelined evaluation scheme of SHJ, XJoin and
friends.  The operator is agnostic to which flavour runs locally (§3.2); the
flavours differ only in the index structures they maintain and therefore in
the CPU work a probe costs.

``insert`` and ``probe`` return *work units* so that the simulation engine
can charge realistic, predicate-dependent CPU costs.
:meth:`LocalJoiner.probe_insert` probes then stores one tuple with its key
resolved once, and :meth:`LocalJoiner.probe_batch` runs it over a whole
micro-batch — each member joins against everything stored before it,
including earlier batch members.

The index proves the primary condition of the indexed kinds: an equi probe's
hash bucket holds exactly the tuples with an equal key, and a band probe's
slice of the ordered key list holds exactly the keys ``b`` with
``abs(key - b) <= width`` (:meth:`~repro.joins.index.OrderedIndex.band_bounds`).
A probe's work is the size of that set — every stored tuple of the opposite
relation for a theta scan — and only a theta scan checks its candidates
against the predicate.  :func:`repro.testing.reference_probe` states the
same contract by brute force.

:func:`make_local_joiner` looks the predicate ``kind`` up in
:data:`JOINERS`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.engine.stream import StreamTuple
from repro.joins.index import JoinIndex, make_index
from repro.joins.predicates import JoinPredicate


class LocalJoiner:
    """Symmetric, index-backed local join over two relations.

    Args:
        predicate: the join condition; its ``kind`` selects the index type.
        left_relation: relation name treated as the left/"R" side.
        right_relation: relation name treated as the right/"S" side.
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
    ) -> None:
        self.predicate = predicate
        self.left_relation = left_relation
        self.right_relation = right_relation
        kind = predicate.kind
        self._indexes: dict[str, JoinIndex] = {
            left_relation: make_index(kind, self._key_func(side="left")),
            right_relation: make_index(kind, self._key_func(side="right")),
        }
        # The index objects are stable for the joiner's lifetime; direct
        # references serve the keyed probe fast paths.
        self._left_index = self._indexes[left_relation]
        self._right_index = self._indexes[right_relation]
        # Pre-resolved probe plumbing (avoids per-probe getattr chains).
        self._pred_left_key = predicate.left_key if kind in ("equi", "band") else None
        self._pred_right_key = predicate.right_key if kind in ("equi", "band") else None
        self._band = kind == "band"
        self._hashed = kind == "equi"
        self._band_width = predicate.width if self._band else 0.0
        # A hash bucket and a band slice decide their predicate outright;
        # only a scan checks its candidates (None: nothing to check).
        self._check = predicate.matches if kind == "theta" else None

    # ------------------------------------------------------------ index setup

    def _key_func(self, side: str) -> Callable[[StreamTuple], object] | None:
        # The lambda closes over the predicate's key function, never over
        # ``self``: the index it is stored on belongs to this joiner, and a
        # closure over ``self`` would make every joiner a reference cycle
        # that only the cyclic collector frees (see ARCHITECTURE.md, "A run
        # makes no reference cycles").
        if self.predicate.kind not in ("equi", "band"):
            return None
        key = self.predicate.left_key if side == "left" else self.predicate.right_key
        return lambda item: key(item.record)

    def fresh(self) -> "LocalJoiner":
        """An empty joiner with the same predicate and relations.

        Used by the epoch protocol to build tag-partitioned sub-stores.
        """
        return type(self)(self.predicate, self.left_relation, self.right_relation)

    # ---------------------------------------------------------------- storage

    def _check_relation(self, relation: str) -> None:
        if relation not in self._indexes:
            raise KeyError(
                f"unknown relation {relation!r}; expected "
                f"{self.left_relation!r} or {self.right_relation!r}"
            )

    def opposite(self, relation: str) -> str:
        """The other relation's name."""
        self._check_relation(relation)
        if relation == self.left_relation:
            return self.right_relation
        return self.left_relation

    def insert(self, item: StreamTuple) -> float:
        """Store ``item``; returns the work units spent."""
        self._check_relation(item.relation)
        self._indexes[item.relation].insert(item)
        return 1.0

    def bulk_insert(self, relation: str, items: Sequence[StreamTuple]) -> None:
        """Bulk-load ``items`` of ``relation`` (amortised index construction)."""
        self._check_relation(relation)
        self._indexes[relation].bulk_insert(items)

    def absorb(self, other: "LocalJoiner") -> None:
        """Move every tuple stored in ``other`` into this joiner, leaving
        ``other`` empty: per relation, the same state as :meth:`bulk_insert`
        of ``list(other.stored(relation))`` (see :meth:`JoinIndex.absorb`;
        a hash index merges its buckets in one pass and keeps the larger
        ``newest_arrival`` bound)."""
        for relation in (self.left_relation, self.right_relation):
            self._indexes[relation].absorb(other._indexes[relation])

    def remove(self, item: StreamTuple) -> bool:
        """Remove ``item`` from storage; returns True if it was stored."""
        self._check_relation(item.relation)
        return self._indexes[item.relation].remove(item)

    def count(self, relation: str) -> int:
        """Number of stored tuples of ``relation``."""
        self._check_relation(relation)
        return len(self._indexes[relation])

    def total_count(self) -> int:
        """Number of stored tuples across both relations (O(1))."""
        return sum(len(index) for index in self._indexes.values())

    def stored_size(self) -> float:
        """Total size units stored across both relations (O(1)).

        Backed by counters the indexes maintain on insert/remove/bulk-load —
        never a re-scan of the stored tuples.
        """
        return sum(index.total_size for index in self._indexes.values())

    def stored(self, relation: str) -> Iterator[StreamTuple]:
        """Iterate over stored tuples of ``relation``."""
        self._check_relation(relation)
        return self._indexes[relation].items()

    # ----------------------------------------------------------------- probes

    def probe(self, item: StreamTuple) -> tuple[list[StreamTuple], float]:
        """Join ``item`` (newly arrived, not yet inserted) against stored
        tuples of the opposite relation.

        Returns:
            ``(matches, work_units)`` where ``matches`` are the stored tuples
            satisfying the predicate with ``item`` and ``work_units`` counts
            the candidates the index had to inspect.  Work units are floored
            at 1: every probe costs at least the index lookup itself.  This is
            the *single* place the floor is applied — indexes and
            :meth:`raw_probe` report raw candidate counts.
        """
        matches, inspected = self.raw_probe(item)
        return matches, float(max(inspected, 1))

    def raw_probe(self, item: StreamTuple) -> tuple[list[StreamTuple], int]:
        """Like :meth:`probe` but reporting the unfloored candidate count.

        The epoch protocol probes several tag-partitioned sub-stores per
        logical probe and applies the work floor once to the summed counts.
        """
        self._check_relation(item.relation)
        item_is_left = item.relation == self.left_relation
        record = item.record
        key_of = self._pred_left_key if item_is_left else self._pred_right_key
        key = None if key_of is None else key_of(record)
        return self._keyed_probe(item_is_left, key, record)

    # ------------------------------------------------------------ keyed probes
    #
    # The epoch protocol probes several tag-partitioned sub-stores per logical
    # probe; all partitions share one predicate, so the per-tuple inputs
    # (side, extracted key) are resolved once via probe_plan and reused by the
    # keyed variants below — identical results/work to raw_probe and
    # candidate_count, minus the repeated dispatch and key extraction.

    def probe_plan(self, item: StreamTuple) -> tuple[bool, object]:
        """Resolve one tuple's probe inputs: ``(is_left, key)``.

        ``key`` is None for scan-served (theta) predicates.  Valid for any
        joiner sharing this joiner's predicate and relation names (the epoch
        sub-stores), whose keyed probes can then skip re-extraction.
        """
        item_is_left = item.relation == self.left_relation
        left_key = self._pred_left_key
        if left_key is None:
            return item_is_left, None
        if item_is_left:
            return item_is_left, left_key(item.record)
        return item_is_left, self._pred_right_key(item.record)

    def keyed_raw_probe(
        self, item_is_left: bool, key, record
    ) -> tuple[list[StreamTuple], int]:
        """:meth:`raw_probe` with the inputs of :meth:`probe_plan` pre-resolved."""
        opposite_index = self._right_index if item_is_left else self._left_index
        if self._band:
            # A fresh list holding exactly the band's matches.
            return opposite_index.probe_band(key, self._band_width)
        # The key's hash bucket, or every stored tuple for a scan (key None)
        # — both live sequences that never leave the index.
        candidates, inspected = opposite_index.probe(key)
        check = self._check
        if check is None:
            return list(candidates), inspected
        if item_is_left:
            return [c for c in candidates if check(record, c.record)], inspected
        return [c for c in candidates if check(c.record, record)], inspected

    #: The same function under a private name: :meth:`raw_probe` calls this
    #: one, so a per-tuple probe stays a single call into the public probe
    #: entry points rather than one nested in another.
    _keyed_probe = keyed_raw_probe

    def arrival_bound(self, item_is_left: bool) -> float:
        """An upper bound on the arrival time of every tuple a probe by a
        left (``item_is_left``) or right tuple can match: the opposite
        index's :attr:`~repro.joins.index.JoinIndex.newest_arrival`."""
        index = self._right_index if item_is_left else self._left_index
        return index.newest_arrival

    def keyed_candidate_count(self, item_is_left: bool, key) -> int:
        """:meth:`candidate_count` with the probe inputs pre-resolved."""
        opposite_index = self._right_index if item_is_left else self._left_index
        kind = self.predicate.kind
        if kind == "equi":
            return opposite_index.count_key(key)
        if kind == "band":
            return opposite_index.count_band(key, self._band_width)
        return len(opposite_index)

    def candidate_count(self, item: StreamTuple) -> int:
        """Candidates a probe of ``item`` would inspect, without materialising.

        O(1) for hash/scan stores, O(log n) for ordered stores; used for
        exact work accounting over unprobed epoch partitions.  Delegates to
        the keyed variant so the kind dispatch lives in one place.
        """
        item_is_left, key = self.probe_plan(item)
        return self.keyed_candidate_count(item_is_left, key)

    # ------------------------------------------------------------ batch probe

    def probe_insert(
        self,
        item: StreamTuple,
        others: Sequence["LocalJoiner"] = (),
        counted: Sequence["LocalJoiner"] = (),
    ) -> tuple[list[StreamTuple], float]:
        """Probe ``item``, then store it: one member of :meth:`probe_batch`.

        Equal to :meth:`probe` followed by :meth:`insert` — ``(matches,
        work_units)``, the work floored at 1 — with the probe side and key
        resolved once for both.  ``others`` and ``counted`` spread the
        probed state over several joiners sharing this one's predicate and
        relations (the epoch protocol's tag partitions): the candidates are
        this joiner's followed by each of ``others``' — matches concatenated
        in that order — every joiner in ``counted`` adds its candidate count
        without being probed, and the floor applies once, to the summed
        count.  ``item`` is stored in this joiner only.
        """
        record = item.record
        relation = item.relation
        if relation == self.left_relation:
            is_left, key_of = True, self._pred_left_key
        else:
            if relation != self.right_relation:
                self._check_relation(relation)
            is_left, key_of = False, self._pred_right_key
        key = None if key_of is None else key_of(record)
        # The keyed probe body returns a fresh list, so others' matches
        # extend it in place.
        matches, inspected = self._keyed_probe(is_left, key, record)
        for store in others:
            found, count = store._keyed_probe(is_left, key, record)
            inspected += count
            if found:
                matches += found
        for store in counted:
            inspected += store.keyed_candidate_count(is_left, key)
        (self._left_index if is_left else self._right_index).insert_keyed(key, item)
        return matches, float(inspected) if inspected > 0 else 1.0

    def probe_batch(
        self,
        items: Sequence[StreamTuple],
        others: Sequence["LocalJoiner"] = (),
        counted: Sequence["LocalJoiner"] = (),
    ) -> list[tuple[list[StreamTuple], float]]:
        """Symmetrically insert+probe a whole micro-batch.

        :meth:`probe_insert` for each member in order — every member joins
        against everything stored before it, including earlier batch members
        of the opposite relation (intra-batch self-join semantics), because
        each one probes the live indexes and is stored before the next.
        ``others`` and ``counted`` are passed to every member.

        Returns:
            Per-member ``(matches, work_units)``, aligned with ``items``.
            Work accounting is identical to the per-member sequence: raw
            candidate counts (pre-batch + earlier intra-batch candidates),
            floored at 1 per member.

        Over hash indexes a run of several members goes through
        :meth:`_hash_probe_batch`, one loop over the bucket dicts; a run of
        one (a paced machine's usual tick) takes :meth:`probe_insert`, which
        has no loop set-up to pay for.
        """
        if self._hashed and len(items) > 1:
            return self._hash_probe_batch(items, others, counted)
        probe_insert = self.probe_insert
        return [probe_insert(item, others, counted) for item in items]

    def _hash_probe_batch(
        self,
        items: Sequence[StreamTuple],
        others: Sequence["LocalJoiner"],
        counted: Sequence["LocalJoiner"],
    ) -> list[tuple[list[StreamTuple], float]]:
        """:meth:`probe_batch` of an equi joiner as one loop.

        Per member: the opposite buckets of this joiner and of each of
        ``others`` are concatenated into its matches, each of ``counted``
        adds its opposite bucket's size, and the member is stored in this
        joiner — :meth:`SymmetricHashJoiner.probe_insert` and
        :meth:`HashIndex.insert_keyed` written out, with the bucket dicts
        and the index counters held in locals for the run.
        """
        left_relation = self.left_relation
        right_relation = self.right_relation
        left_key = self._pred_left_key
        right_key = self._pred_right_key
        left_index = self._left_index
        right_index = self._right_index
        stores = (self, *others)
        # A left member probes right buckets, a right member left ones.
        left_probes = [store._right_index._buckets for store in stores]
        right_probes = [store._left_index._buckets for store in stores]
        left_counts = [store._right_index._buckets for store in counted]
        right_counts = [store._left_index._buckets for store in counted]
        left_buckets = left_index._buckets
        right_buckets = right_index._buckets
        left_stored = left_index._count
        left_total = left_index._total_size
        left_newest = left_index.newest_arrival
        right_stored = right_index._count
        right_total = right_index._total_size
        right_newest = right_index.newest_arrival
        results = []
        append = results.append
        try:
            for item in items:
                relation = item.relation
                is_left = relation == left_relation
                if is_left:
                    key = left_key(item.record)
                    probes, counts, own = left_probes, left_counts, left_buckets
                else:
                    if relation != right_relation:
                        self._check_relation(relation)
                    key = right_key(item.record)
                    probes, counts, own = right_probes, right_counts, right_buckets
                matches: list[StreamTuple] = []
                for buckets in probes:
                    bucket = buckets.get(key)
                    if bucket is not None:
                        if bucket.__class__ is list:
                            matches += bucket
                        else:
                            matches.append(bucket)
                inspected = len(matches)
                for buckets in counts:
                    bucket = buckets.get(key)
                    if bucket is not None:
                        inspected += len(bucket) if bucket.__class__ is list else 1
                bucket = own.get(key)
                if bucket is None:
                    own[key] = item
                elif bucket.__class__ is list:
                    bucket.append(item)
                else:
                    own[key] = [bucket, item]
                if is_left:
                    left_stored += 1
                    left_total += item.size
                    if item.arrival_time > left_newest:
                        left_newest = item.arrival_time
                else:
                    right_stored += 1
                    right_total += item.size
                    if item.arrival_time > right_newest:
                        right_newest = item.arrival_time
                append((matches, float(inspected) if inspected > 0 else 1.0))
        finally:
            left_index._count = left_stored
            left_index._total_size = left_total
            left_index.newest_arrival = left_newest
            right_index._count = right_stored
            right_index._total_size = right_total
            right_index.newest_arrival = right_newest
        return results

    # -------------------------------------------------------------- reporting

    def describe(self) -> str:
        """Human-readable algorithm description."""
        return f"{type(self).__name__}({self.predicate.describe()})"


class SymmetricHashJoiner(LocalJoiner):
    """Symmetric hash join (Wilschut & Apers); requires an equi predicate."""

    def __init__(
        self, predicate: JoinPredicate, left_relation: str, right_relation: str
    ) -> None:
        if predicate.kind != "equi":
            raise ValueError("SymmetricHashJoiner requires an equi-join predicate")
        super().__init__(predicate, left_relation, right_relation)

    def probe_insert(
        self,
        item: StreamTuple,
        others: Sequence[LocalJoiner] = (),
        counted: Sequence[LocalJoiner] = (),
    ) -> tuple[list[StreamTuple], float]:
        """:meth:`LocalJoiner.probe_insert` over hash buckets: the opposite
        bucket of this joiner and of each of ``others`` is taken whole (no
        probe call per joiner), and each of ``counted`` adds its bucket's
        size.  :meth:`LocalJoiner._hash_probe_batch` runs this body per
        member of a batch — keep the two in sync."""
        record = item.record
        relation = item.relation
        if relation == self.left_relation:
            is_left = True
            key = self._pred_left_key(record)
        else:
            if relation != self.right_relation:
                self._check_relation(relation)
            is_left = False
            key = self._pred_right_key(record)
        matches: list[StreamTuple] = []
        for store in (self, *others) if others else (self,):
            bucket = (store._right_index if is_left else store._left_index).bucket_for(key)
            if bucket:
                matches += bucket
        inspected = len(matches)
        for store in counted:
            inspected += (store._right_index if is_left else store._left_index).count_key(key)
        (self._left_index if is_left else self._right_index).insert_keyed(key, item)
        return matches, float(inspected) if inspected > 0 else 1.0


class SortedBandJoiner(LocalJoiner):
    """Sort/merge-flavoured local join with ordered indexes; for band predicates.

    The band ``width`` is read once at construction, not per probe.
    """

    def __init__(
        self, predicate: JoinPredicate, left_relation: str, right_relation: str
    ) -> None:
        if predicate.kind != "band":
            raise ValueError("SortedBandJoiner requires a band-join predicate")
        super().__init__(predicate, left_relation, right_relation)


class NestedLoopJoiner(LocalJoiner):
    """Block-nested-loop local join; handles arbitrary theta predicates."""


#: Predicate ``kind`` → the local join algorithm serving it.
JOINERS: dict[str, type[LocalJoiner]] = {
    "equi": SymmetricHashJoiner,
    "band": SortedBandJoiner,
    "theta": NestedLoopJoiner,
}


def make_local_joiner(
    predicate: JoinPredicate, left_relation: str, right_relation: str
) -> LocalJoiner:
    """Build the local algorithm serving the predicate's ``kind``."""
    joiner_class = JOINERS.get(predicate.kind)
    if joiner_class is None:
        raise ValueError(
            f"unknown predicate kind {predicate.kind!r}; "
            f"choices: {', '.join(sorted(JOINERS))}"
        )
    return joiner_class(predicate, left_relation, right_relation)
