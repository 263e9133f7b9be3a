"""Local non-blocking join algorithms.

A :class:`LocalJoiner` lives inside one joiner task.  It stores the tuples of
both relations assigned to that joiner and, for every newly arriving tuple,
immediately produces the joins with the stored tuples of the opposite
relation — the classic symmetric/pipelined evaluation scheme of SHJ, XJoin and
friends.  The operator is agnostic to which flavour runs locally (§3.2); the
flavours differ only in the index structures they maintain and therefore in
the CPU work a probe costs.

``insert`` and ``probe`` return *work units* (number of candidates touched)
so that the simulation engine can charge realistic, predicate-dependent CPU
costs.  :meth:`LocalJoiner.probe_batch` is the batch-aware engine: it
inserts+probes an entire micro-batch symmetrically — each member joins
against everything stored before it, including earlier batch members — while
probing the pre-batch index state in one grouped (hash) or sort-merge
(ordered) pass.

Probe engines are pluggable through the
:data:`repro.api.registry.probe_engines` registry; two ship built in:

* ``"vectorized"`` (default) — batch index passes, and candidates the index
  already decides: an exact-key hash bucket satisfies the primary equality
  (the bucket key *is* the predicate), and a band window
  ``[key - width, key + width]`` *is* the match set whenever both of its
  edges compare exactly — an ``int`` probing key, an ``int`` width (or an
  integral float one with ``|key| + |width| <= 2**53``) and an index whose
  keys are all ``int`` (see :meth:`LocalJoiner._band_probe`).  Only
  composite residuals are then validated per pair; every other band window
  is validated pair by pair against the full predicate.
* ``"scalar"`` — the per-member reference path that re-validates the full
  predicate on every candidate.  It defines the semantics ``probe_batch``
  must reproduce and serves as the differential-testing oracle and the
  pre-vectorization benchmark baseline.

Additional engines register via :func:`repro.api.register_probe_engine` with
a :class:`ProbeEngine` strategy; unknown engine names fail eagerly at joiner
(and, higher up, operator/config) construction with the registered choices
listed.  Likewise, :func:`make_local_joiner` dispatches on the predicate
``kind`` through the :data:`repro.api.registry.predicate_kinds` registry, so
new predicate families plug in their local algorithms without touching this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.api.registry import (
    predicate_kinds,
    probe_engines,
    register_predicate,
    register_probe_engine,
)
from repro.engine.stream import StreamTuple
from repro.joins.index import JoinIndex, make_index
from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    JoinPredicate,
    ThetaPredicate,
)

#: Every integer of magnitude up to 2**53 is exactly a float64.
_FLOAT_EXACT_INTS = 2**53


def _exact_window_limit(width) -> float:
    """Largest ``|key|`` of an ``int`` probing key whose band window is exact.

    Python compares ints with floats exactly, so over an index of ``int``
    keys the window ``[key - width, key + width]`` holds exactly the keys
    with ``|k - key| <= width`` whenever both edges are computed without
    rounding: always for an ``int`` width, and for an integral float width
    while ``|key| + |width| <= 2**53``.  Any other width (fractional, not a
    number, ``bool``) never gets an exact window: -1.
    """
    if width.__class__ is int:
        return math.inf
    if width.__class__ is float and width.is_integer():
        return _FLOAT_EXACT_INTS - abs(int(width))
    return -1


@dataclass(frozen=True)
class ProbeEngine:
    """Strategy object describing one probe-engine flavour.

    Attributes:
        name: registry name of the engine.
        batch_aware: whether joiner tasks should route NORMAL-phase DATA
            batches through :meth:`EpochJoinerState.handle_data_batch` →
            :meth:`LocalJoiner.probe_batch` (False keeps per-member dispatch).
        exact_key_fast_path: whether candidates the index already decides —
            exact-key hash buckets, and exact integer band windows — skip
            per-pair validation of the primary predicate.
        probe_batch: callable ``(joiner, items) -> [(matches, work), ...]``
            implementing the batch insert+probe pass; must reproduce the
            scalar reference semantics exactly (same matches, same charged
            work).
    """

    name: str
    batch_aware: bool
    exact_key_fast_path: bool
    probe_batch: Callable[["LocalJoiner", Sequence[StreamTuple]], list]


class LocalJoiner:
    """Symmetric, index-backed local join over two relations.

    Args:
        predicate: the join condition; its ``kind`` selects the index type.
        left_relation: relation name treated as the left/"R" side.
        right_relation: relation name treated as the right/"S" side.
        engine: probe engine, ``"vectorized"`` (default) or ``"scalar"``
            (full per-candidate re-validation; reference semantics).
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
        engine: str = "vectorized",
    ) -> None:
        # Registry lookup raises eagerly with the registered choices listed.
        self._engine_spec: ProbeEngine = probe_engines.get(engine)
        self.predicate = predicate
        self.left_relation = left_relation
        self.right_relation = right_relation
        self.engine = engine
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
        self._band_width = self._resolve_band_width() if kind == "band" else 0.0
        fast_path = self._engine_spec.exact_key_fast_path
        self._exact_key = fast_path and kind == "equi" and predicate.exact_key
        # Per-candidate validation, resolved once: None means exact-key hash
        # candidates need no validation at all; fast-path predicates with
        # residuals validate only the residual part; everything else (and
        # the scalar engine) runs the full predicate.
        self._check = predicate.residual_check() if self._exact_key else predicate.matches
        # The band analogue is decided per probe (see _band_probe): what an
        # exact window still validates, and the largest |key| whose window
        # is exact.  The scalar engine never takes it — it stays the
        # full-validation differential oracle.
        self._window_check = predicate.residual_check()
        self._window_limit = (
            _exact_window_limit(self._band_width) if fast_path and kind == "band" else -1
        )

    # ------------------------------------------------------------ index setup

    def _resolve_band_width(self) -> float:
        width = getattr(self.predicate, "width", None)
        if width is None:
            width = getattr(getattr(self.predicate, "primary", None), "width", 0.0)
        return width

    def _key_func(self, side: str) -> Callable[[StreamTuple], object] | None:
        if self.predicate.kind not in ("equi", "band"):
            return None
        if side == "left":
            return lambda item: self.predicate.left_key(item.record)
        return lambda item: self.predicate.right_key(item.record)

    def fresh(self) -> "LocalJoiner":
        """An empty joiner with the same predicate, relations and engine.

        Used by the epoch protocol to build tag-partitioned sub-stores.
        """
        return type(self)(self.predicate, self.left_relation, self.right_relation,
                          engine=self.engine)

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
        """Merge every tuple stored in ``other`` into this joiner."""
        for relation in (self.left_relation, self.right_relation):
            self._indexes[relation].bulk_insert(list(other.stored(relation)))

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

    def probe(
        self,
        item: StreamTuple,
        restrict: Callable[[StreamTuple], bool] | None = None,
    ) -> tuple[list[StreamTuple], float]:
        """Join ``item`` against stored tuples of the opposite relation.

        Args:
            item: the newly arrived tuple (not yet inserted).
            restrict: optional filter over stored tuples (tuple-set selection
                for callers not using the partitioned epoch stores).

        Returns:
            ``(matches, work_units)`` where ``matches`` are the stored tuples
            satisfying the predicate with ``item`` and ``work_units`` counts
            the candidates the index had to inspect.  Work units are floored
            at 1: every probe costs at least the index lookup itself.  This is
            the *single* place the floor is applied — indexes and
            :meth:`raw_probe` report raw candidate counts.
        """
        matches, inspected = self.raw_probe(item, restrict)
        return matches, float(max(inspected, 1))

    def raw_probe(
        self,
        item: StreamTuple,
        restrict: Callable[[StreamTuple], bool] | None = None,
    ) -> tuple[list[StreamTuple], int]:
        """Like :meth:`probe` but reporting the unfloored candidate count.

        The epoch protocol probes several tag-partitioned sub-stores per
        logical probe and applies the work floor once to the summed counts.
        """
        self._check_relation(item.relation)
        item_is_left = item.relation == self.left_relation
        record = item.record
        key_of = self._pred_left_key if item_is_left else self._pred_right_key
        key = None if key_of is None else key_of(record)
        matches, inspected = self._keyed_probe(item_is_left, key, record)
        if restrict is not None and matches:
            matches = [candidate for candidate in matches if restrict(candidate)]
        return matches, inspected

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
        kind = self.predicate.kind
        if kind == "equi":
            candidates, inspected = opposite_index.probe(key)
        elif kind == "band":
            return self._band_probe(opposite_index, key, record, item_is_left)
        else:
            candidates, inspected = opposite_index.probe(None)
        if not candidates:
            return [], inspected
        check = self._check
        if check is None:
            # Exact-key fast path: the bucket is the match set (copied — a
            # live bucket never leaves the index).
            return list(candidates), inspected
        if item_is_left:
            return [c for c in candidates if check(record, c.record)], inspected
        return [c for c in candidates if check(c.record, record)], inspected

    #: The same function under a private name: :meth:`raw_probe` calls this
    #: one, so a per-tuple probe stays a single call into the public probe
    #: entry points rather than one nested in another.
    _keyed_probe = keyed_raw_probe

    def _band_probe(
        self, opposite_index, key, record, item_is_left: bool
    ) -> tuple[list[StreamTuple], int]:
        """One band window probe: ``(matches, inspected)``.

        The window slice is a fresh list.  When the window is exact — an
        ``int`` probing key within ``_window_limit`` over an index whose keys
        are all ``int`` (see :func:`_exact_window_limit`) — the slice *is*
        the match set and only composite residuals run on it; any other
        window is validated pair by pair against the full predicate.
        """
        width = self._band_width
        candidates, inspected = opposite_index.probe_range(key - width, key + width)
        if not candidates:
            return candidates, inspected
        if (
            key.__class__ is int
            and opposite_index.all_int_keys
            and abs(key) <= self._window_limit
        ):
            check = self._window_check
            if check is None:
                return candidates, inspected
        else:
            check = self._check
        if item_is_left:
            return [c for c in candidates if check(record, c.record)], inspected
        return [c for c in candidates if check(c.record, record)], inspected

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
            width = self._band_width
            return opposite_index.count_range(key - width, key + width)
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

    def probe_batch(
        self,
        items: Sequence[StreamTuple],
        others: Sequence["LocalJoiner"] = (),
        counted: Sequence["LocalJoiner"] = (),
    ) -> list[tuple[list[StreamTuple], float]]:
        """Symmetrically insert+probe a whole micro-batch.

        Semantically equivalent to, for each member in order: ``probe(member)``
        then ``insert(member)`` — every member joins against everything stored
        before it, including earlier batch members of the opposite relation
        (intra-batch self-join semantics).  The vectorized engine runs one
        lean pass over the live indexes: zero-copy bucket walks with
        pre-extracted keys (hash), in-place band windows (ordered), and no
        per-candidate validation where the index decides the match set —
        because the indexes are live, each member automatically sees every
        earlier member of the opposite relation.

        ``others`` and ``counted`` spread the probed state over several
        joiners sharing this one's predicate and relations (the epoch
        protocol's tag partitions).  A member's candidates are then this
        joiner's followed by each of ``others``' — matches concatenated in
        that order — and every joiner in ``counted`` adds its candidate count
        without being probed.  Members are still inserted into this joiner
        only, and the work floor applies once, to the summed count.

        Returns:
            Per-member ``(matches, work_units)``, aligned with ``items``.
            Work accounting is identical to the per-member sequence: raw
            candidate counts (pre-batch + earlier intra-batch candidates),
            floored at 1 per member.
        """
        if not others and not counted:
            return self._engine_spec.probe_batch(self, items)
        if self.predicate.kind == "equi":
            return self._probe_batch_equi(items, others, counted)
        return self._probe_batch_keyed(items, others, counted)

    def _probe_batch_equi(
        self,
        items: Sequence[StreamTuple],
        others: Sequence["LocalJoiner"] = (),
        counted: Sequence["LocalJoiner"] = (),
    ) -> list[tuple[list[StreamTuple], float]]:
        # One lean pass over the live hash buckets: each member walks the
        # opposite bucket of this joiner and of every joiner in ``others`` in
        # place, counts those of ``counted``, and is then appended under its
        # already-extracted key.  Because the buckets are live, intra-batch
        # self-join semantics fall out for free — each member sees every
        # earlier member of the opposite relation.
        left_relation = self.left_relation
        right_relation = self.right_relation
        left_key = self._pred_left_key
        right_key = self._pred_right_key
        left_index = self._left_index
        right_index = self._right_index
        stores = (self, *others)
        # A left member probes the right indexes, a right member the left.
        left_probes = [store._right_index.bucket_for for store in stores]
        right_probes = [store._left_index.bucket_for for store in stores]
        left_counts = [store._right_index.count_key for store in counted]
        right_counts = [store._left_index.count_key for store in counted]
        check = self._check
        results: list[tuple[list[StreamTuple], float]] = []
        append = results.append
        for item in items:
            record = item.record
            if item.relation == left_relation:
                is_left = True
                key = left_key(record)
                probes, counts, own = left_probes, left_counts, left_index
            else:
                if item.relation != right_relation:
                    self._check_relation(item.relation)
                is_left = False
                key = right_key(record)
                probes, counts, own = right_probes, right_counts, right_index
            matches: list[StreamTuple] = []
            inspected = 0
            for bucket_for in probes:
                bucket = bucket_for(key)
                if bucket:
                    inspected += len(bucket)
                    if check is None:
                        matches += bucket
                    elif is_left:
                        matches += [c for c in bucket if check(record, c.record)]
                    else:
                        matches += [c for c in bucket if check(c.record, record)]
            for count_key in counts:
                inspected += count_key(key)
            own.insert_keyed(key, item)
            append((matches, float(inspected) if inspected > 0 else 1.0))
        return results

    def _probe_batch_keyed(
        self,
        items: Sequence[StreamTuple],
        others: Sequence["LocalJoiner"],
        counted: Sequence["LocalJoiner"],
    ) -> list[tuple[list[StreamTuple], float]]:
        # Band and theta stores: every member probes each store through the
        # keyed probe body (band windows, scans), then is inserted here.
        stores = (self, *others)
        probe_plan = self.probe_plan
        indexes = self._indexes
        results: list[tuple[list[StreamTuple], float]] = []
        append = results.append
        for item in items:
            self._check_relation(item.relation)
            is_left, key = probe_plan(item)
            record = item.record
            matches: list[StreamTuple] = []
            inspected = 0
            for store in stores:
                found, count = store._keyed_probe(is_left, key, record)
                inspected += count
                if found:
                    matches += found
            for store in counted:
                inspected += store.keyed_candidate_count(is_left, key)
            indexes[item.relation].insert_keyed(key, item)
            append((matches, float(inspected) if inspected > 0 else 1.0))
        return results

    def _probe_batch_band(
        self, items: Sequence[StreamTuple]
    ) -> list[tuple[list[StreamTuple], float]]:
        # Lean pass over the live ordered indexes: each member bisects its
        # band window out of the opposite key list and is then inserted, so
        # later members see it — intra-batch semantics without side
        # structures.  (probe_range_batch's sort-merge cursor serves callers
        # probing a static snapshot; here the index mutates between probes.)
        left_relation = self.left_relation
        right_relation = self.right_relation
        left_key = self._pred_left_key
        right_key = self._pred_right_key
        left_index = self._indexes[left_relation]
        right_index = self._indexes[right_relation]
        band_probe = self._band_probe
        results: list[tuple[list[StreamTuple], float]] = []
        append = results.append
        for item in items:
            record = item.record
            if item.relation == left_relation:
                key = left_key(record)
                matches, inspected = band_probe(right_index, key, record, True)
                left_index.insert_keyed(key, item)
            else:
                if item.relation != right_relation:
                    self._check_relation(item.relation)
                key = right_key(record)
                matches, inspected = band_probe(left_index, key, record, False)
                right_index.insert_keyed(key, item)
            append((matches, float(inspected) if inspected > 0 else 1.0))
        return results

    def _probe_batch_scan(
        self, items: Sequence[StreamTuple]
    ) -> list[tuple[list[StreamTuple], float]]:
        left_relation = self.left_relation
        right_relation = self.right_relation
        left_index = self._indexes[left_relation]
        right_index = self._indexes[right_relation]
        check = self._check
        results: list[tuple[list[StreamTuple], float]] = []
        append = results.append
        for item in items:
            record = item.record
            if item.relation == left_relation:
                is_left = True
                candidates, inspected = right_index.probe(None)
            else:
                if item.relation != right_relation:
                    self._check_relation(item.relation)
                is_left = False
                candidates, inspected = left_index.probe(None)
            if candidates:
                if is_left:
                    matches = [c for c in candidates if check(record, c.record)]
                else:
                    matches = [c for c in candidates if check(c.record, record)]
                append((matches, float(max(inspected, 1))))
            else:
                append(([], 1.0))
            (left_index if is_left else right_index).insert(item)
        return results

    # -------------------------------------------------------------- reporting

    def describe(self) -> str:
        """Human-readable algorithm description."""
        return f"{type(self).__name__}({self.predicate.describe()})"


class SymmetricHashJoiner(LocalJoiner):
    """Symmetric hash join (Wilschut & Apers); requires an equi predicate."""

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
        engine: str = "vectorized",
    ) -> None:
        if predicate.kind != "equi":
            raise ValueError("SymmetricHashJoiner requires an equi-join predicate")
        super().__init__(predicate, left_relation, right_relation, engine=engine)


class SortedBandJoiner(LocalJoiner):
    """Sort/merge-flavoured local join with ordered indexes; for band predicates.

    The band ``width`` is resolved once at construction (see
    ``LocalJoiner._resolve_band_width``), not per probe.
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
        engine: str = "vectorized",
    ) -> None:
        if predicate.kind != "band":
            raise ValueError("SortedBandJoiner requires a band-join predicate")
        super().__init__(predicate, left_relation, right_relation, engine=engine)


class NestedLoopJoiner(LocalJoiner):
    """Block-nested-loop local join; handles arbitrary theta predicates."""


def make_local_joiner(
    predicate: JoinPredicate,
    left_relation: str,
    right_relation: str,
    engine: str = "vectorized",
) -> LocalJoiner:
    """Build the local algorithm registered for the predicate's ``kind``."""
    spec = predicate_kinds.get(predicate.kind)
    return spec.joiner_factory(predicate, left_relation, right_relation, engine=engine)


# --------------------------------------------------------------------------
# Built-in registrations (the registries are the single dispatch authority;
# new engines/kinds plug in through repro.api.register_* without edits here).
# --------------------------------------------------------------------------

def _scalar_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[list[StreamTuple], float]]:
    """Reference semantics: the exact per-member probe-then-insert sequence."""
    results = []
    for item in items:
        results.append(joiner.probe(item))
        joiner.insert(item)
    return results


def _vectorized_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[list[StreamTuple], float]]:
    """One lean pass over the live indexes, dispatched on the predicate kind."""
    kind = joiner.predicate.kind
    if kind == "equi":
        return joiner._probe_batch_equi(items)
    if kind == "band":
        return joiner._probe_batch_band(items)
    return joiner._probe_batch_scan(items)


register_probe_engine(
    "vectorized",
    ProbeEngine(
        name="vectorized",
        batch_aware=True,
        exact_key_fast_path=True,
        probe_batch=_vectorized_probe_batch,
    ),
)
register_probe_engine(
    "scalar",
    ProbeEngine(
        name="scalar",
        batch_aware=False,
        exact_key_fast_path=False,
        probe_batch=_scalar_probe_batch,
    ),
)

register_predicate("equi", SymmetricHashJoiner, EquiPredicate)
register_predicate("band", SortedBandJoiner, BandPredicate)
register_predicate("theta", NestedLoopJoiner, ThetaPredicate)
