"""In-memory join indexes.

The paper's joiners use hashmaps for equi-joins and balanced binary trees for
band joins (§5, "Operators").  This module provides the equivalent structures:

* :class:`HashIndex` — exact-key probes,
* :class:`OrderedIndex` — range probes over a sorted key list (``bisect``
  plays the role of the balanced tree),
* :class:`ScanIndex` — fallback full scans for arbitrary theta predicates.

Every probe reports the number of *candidates* inspected, which the engine
charges as CPU work; this is how index choice influences simulated
throughput, mirroring the real systems trade-off.  Indexes report the **raw**
candidate count (possibly zero); the one-unit work floor per probe is applied
in exactly one place, :meth:`repro.joins.local.LocalJoiner.probe`.

Batch-aware probing: :meth:`probe_batch` serves a whole micro-batch of keys
with one grouped pass (hash) and :meth:`probe_range_batch` sort-merges a
batch of ranges against the ordered key list.  Probe results are sequences
the caller must treat as read-only snapshots, valid until the next
``insert``/``remove``/``bulk_insert`` on the index.  A hash bucket holding
one tuple is stored as the tuple itself and handed out as a fresh one-tuple
sequence; a bucket holding several is a list, returned live (no copy).

Two facts every index keeps up to date on insert, so callers can skip work
the index already proves:

* :attr:`JoinIndex.newest_arrival` — an upper bound on the ``arrival_time``
  of every stored tuple.  A probe's partners are no newer than it, which
  lets the metrics collector record a whole match group as one latency run
  without scanning the partners (see ``MatchGroup.bound``).
* :attr:`OrderedIndex.all_int_keys` — whether every key ever stored is an
  ``int``.  Over int keys a band window ``[key - w, key + w]`` compares
  exactly, so the window is the match set (see ``LocalJoiner._band_probe``).
"""

from __future__ import annotations

import bisect
import math
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.stream import StreamTuple

#: Shared empty probe result (read-only by convention, like live buckets).
_NO_CANDIDATES: list[StreamTuple] = []

_arrival_of = attrgetter("arrival_time")


class JoinIndex:
    """Common interface of the local join indexes.

    ``len(index)`` and :attr:`total_size` are maintained counters updated on
    every mutation, so size accounting is O(1) — never a re-scan.
    """

    def __init__(self, key_func: Callable[[StreamTuple], Any] | None = None) -> None:
        self._key_func = key_func
        self._count = 0
        self._total_size = 0.0
        #: Largest ``arrival_time`` any insert path ever stored.  ``remove``
        #: never lowers it, so it always bounds every stored tuple's arrival.
        self.newest_arrival = -math.inf

    def _note_arrivals(self, items: list[StreamTuple]) -> None:
        """Raise :attr:`newest_arrival` over a non-empty bulk of inserts."""
        newest = max(map(_arrival_of, items))
        if newest > self.newest_arrival:
            self.newest_arrival = newest

    def __len__(self) -> int:
        return self._count

    @property
    def total_size(self) -> float:
        """Total stored size units (sum of member ``size``), O(1)."""
        return self._total_size

    def insert(self, item: StreamTuple) -> None:
        """Add ``item`` to the index."""
        raise NotImplementedError

    def insert_keyed(self, key: Any, item: StreamTuple) -> None:
        """Insert ``item`` under an already-extracted ``key`` (batch hot path).

        Unkeyed indexes ignore the key.
        """
        self.insert(item)

    def bulk_insert(self, items: Iterable[StreamTuple]) -> None:
        """Insert many items at once (amortised faster than repeated insert)."""
        for item in items:
            self.insert(item)

    def remove(self, item: StreamTuple) -> bool:
        """Remove ``item``; returns True if it was present."""
        raise NotImplementedError

    def probe(self, key: Any) -> tuple[list[StreamTuple], int]:
        """Return ``(candidates, candidates_inspected)`` for an exact key."""
        raise NotImplementedError

    def probe_batch(self, keys: Sequence[Any]) -> list[tuple[list[StreamTuple], int]]:
        """Exact-key probes for a whole batch; aligned with ``keys``."""
        return [self.probe(key) for key in keys]

    def probe_range(self, low: Any, high: Any) -> tuple[list[StreamTuple], int]:
        """Return ``(candidates, candidates_inspected)`` for a key range."""
        raise NotImplementedError

    def probe_range_batch(
        self, ranges: Sequence[tuple[Any, Any]]
    ) -> list[tuple[list[StreamTuple], int]]:
        """Range probes for a whole batch; aligned with ``ranges``."""
        return [self.probe_range(low, high) for low, high in ranges]

    def count_key(self, key: Any) -> int:
        """Number of candidates an exact-key probe would inspect (no copy)."""
        raise NotImplementedError

    def count_range(self, low: Any, high: Any) -> int:
        """Number of candidates a range probe would inspect (no copy)."""
        raise NotImplementedError

    def items(self) -> Iterator[StreamTuple]:
        """Iterate over every stored tuple."""
        raise NotImplementedError


class HashIndex(JoinIndex):
    """Hash index keyed by an extracted attribute (equi-join probes).

    Most buckets of a sparse join hold a single tuple, so a bucket is stored
    compactly: ``_buckets`` maps a key to the tuple itself until a second
    tuple arrives under that key, and to a list of them from then on (a list
    bucket stays a list until its last tuple is removed).  Every accessor
    handles both shapes; callers always receive a sequence.
    """

    def __init__(self, key_func: Callable[[StreamTuple], Any]) -> None:
        super().__init__(key_func)
        self._buckets: dict[Any, StreamTuple | list[StreamTuple]] = {}

    def insert(self, item: StreamTuple) -> None:
        self.insert_keyed(self._key_func(item), item)

    def insert_keyed(self, key: Any, item: StreamTuple) -> None:
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = item
        elif bucket.__class__ is list:
            bucket.append(item)
        else:
            buckets[key] = [bucket, item]
        self._count += 1
        self._total_size += item.size
        if item.arrival_time > self.newest_arrival:
            self.newest_arrival = item.arrival_time

    def bulk_insert(self, items: Iterable[StreamTuple]) -> None:
        key_func = self._key_func
        insert_keyed = self.insert_keyed
        for item in items:
            insert_keyed(key_func(item), item)

    def remove(self, item: StreamTuple) -> bool:
        key = self._key_func(item)
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            return False
        if bucket.__class__ is not list:
            if bucket.tuple_id != item.tuple_id:
                return False
            del buckets[key]
        else:
            for index, existing in enumerate(bucket):
                if existing.tuple_id == item.tuple_id:
                    break
            else:
                return False
            bucket.pop(index)
            if not bucket:
                del buckets[key]
        self._count -= 1
        self._total_size -= item.size
        return True

    def probe(self, key: Any) -> tuple[Sequence[StreamTuple], int]:
        bucket = self._buckets.get(key)
        if bucket is None:
            return _NO_CANDIDATES, 0
        if bucket.__class__ is list:
            return bucket, len(bucket)
        return (bucket,), 1

    def probe_batch(self, keys: Sequence[Any]) -> list[tuple[Sequence[StreamTuple], int]]:
        # One bucket lookup per *distinct* key in the batch; repeated keys
        # reuse the memoised result.
        memo: dict[Any, tuple[Sequence[StreamTuple], int]] = {}
        results = []
        for key in keys:
            result = memo.get(key)
            if result is None:
                result = memo[key] = self.probe(key)
            results.append(result)
        return results

    def bucket_for(self, key: Any) -> Sequence[StreamTuple] | None:
        """The bucket for ``key`` as a read-only sequence, or None when empty.

        The primitive behind the batch probe engine: callers walk a
        multi-tuple bucket in place instead of receiving a copy.
        """
        bucket = self._buckets.get(key)
        if bucket is None or bucket.__class__ is list:
            return bucket
        return (bucket,)

    def probe_range(self, low: Any, high: Any) -> tuple[list[StreamTuple], int]:
        # A hash index cannot serve ranges efficiently; fall back to a scan.
        candidates = [item for item in self.items() if low <= self._key_func(item) <= high]
        return candidates, self._count

    def count_key(self, key: Any) -> int:
        bucket = self._buckets.get(key)
        if bucket is None:
            return 0
        return len(bucket) if bucket.__class__ is list else 1

    def count_range(self, low: Any, high: Any) -> int:
        return self._count

    def items(self) -> Iterator[StreamTuple]:
        for bucket in self._buckets.values():
            if bucket.__class__ is list:
                yield from bucket
            else:
                yield bucket


class OrderedIndex(JoinIndex):
    """Sorted index supporting range probes (band joins).

    Keys are kept in a sorted list with parallel payload storage; ``bisect``
    provides logarithmic lookups, standing in for the balanced binary tree the
    paper uses.
    """

    def __init__(self, key_func: Callable[[StreamTuple], Any]) -> None:
        super().__init__(key_func)
        self._keys: list[Any] = []
        self._values: list[StreamTuple] = []
        #: Whether every key ever stored is exactly an ``int`` (``bool`` and
        #: ``float`` clear it); once cleared it stays cleared.
        self.all_int_keys = True

    def insert(self, item: StreamTuple) -> None:
        self.insert_keyed(self._key_func(item), item)

    def insert_keyed(self, key: Any, item: StreamTuple) -> None:
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._values.insert(position, item)
        self._count += 1
        self._total_size += item.size
        if item.arrival_time > self.newest_arrival:
            self.newest_arrival = item.arrival_time
        if key.__class__ is not int:
            self.all_int_keys = False

    def bulk_insert(self, items: Iterable[StreamTuple]) -> None:
        # One sorted merge instead of per-item O(n) list inserts.  Items
        # coming from another OrderedIndex arrive already sorted, making the
        # incoming sort a no-op for timsort.
        incoming = list(items)
        if not incoming:
            return
        key_func = self._key_func
        new_keys = [key_func(item) for item in incoming]
        if any(a > b for a, b in zip(new_keys, new_keys[1:])):
            order = sorted(range(len(incoming)), key=new_keys.__getitem__)
            new_keys = [new_keys[i] for i in order]
            incoming = [incoming[i] for i in order]
        if not self._keys:
            self._keys = new_keys
            self._values = incoming
        else:
            old_keys, old_values = self._keys, self._values
            merged_keys: list[Any] = []
            merged_values: list[StreamTuple] = []
            i = j = 0
            n, m = len(old_keys), len(new_keys)
            while i < n and j < m:
                # Existing entries go first on key ties (bisect_right parity).
                if new_keys[j] < old_keys[i]:
                    merged_keys.append(new_keys[j])
                    merged_values.append(incoming[j])
                    j += 1
                else:
                    merged_keys.append(old_keys[i])
                    merged_values.append(old_values[i])
                    i += 1
            merged_keys.extend(old_keys[i:])
            merged_values.extend(old_values[i:])
            merged_keys.extend(new_keys[j:])
            merged_values.extend(incoming[j:])
            self._keys, self._values = merged_keys, merged_values
        self._count += len(incoming)
        self._total_size += sum(item.size for item in incoming)
        self._note_arrivals(incoming)
        self.all_int_keys = self.all_int_keys and all(
            key.__class__ is int for key in new_keys
        )

    def remove(self, item: StreamTuple) -> bool:
        key = self._key_func(item)
        position = bisect.bisect_left(self._keys, key)
        while position < len(self._keys) and self._keys[position] == key:
            if self._values[position].tuple_id == item.tuple_id:
                self._keys.pop(position)
                self._values.pop(position)
                self._count -= 1
                self._total_size -= item.size
                return True
            position += 1
        return False

    def probe(self, key: Any) -> tuple[list[StreamTuple], int]:
        return self.probe_range(key, key)

    def probe_range(self, low: Any, high: Any) -> tuple[list[StreamTuple], int]:
        start = bisect.bisect_left(self._keys, low)
        end = bisect.bisect_right(self._keys, high)
        candidates = self._values[start:end]
        return candidates, end - start

    def probe_range_batch(
        self, ranges: Sequence[tuple[Any, Any]]
    ) -> list[tuple[list[StreamTuple], int]]:
        # Sort-merge: probing ranges in ascending-low order lets both cursors
        # advance monotonically over the key list — each bisect searches only
        # past the previous range's start (the ordered-index analogue of
        # grouping a batch by hash key).
        if len(ranges) <= 1:
            return [self.probe_range(low, high) for low, high in ranges]
        order = sorted(range(len(ranges)), key=lambda i: ranges[i][0])
        keys, values = self._keys, self._values
        results: list[tuple[list[StreamTuple], int] | None] = [None] * len(ranges)
        start = 0
        for index in order:
            low, high = ranges[index]
            start = bisect.bisect_left(keys, low, lo=start)
            end = bisect.bisect_right(keys, high, lo=start)
            results[index] = (values[start:end], end - start)
        return results  # type: ignore[return-value]

    def count_key(self, key: Any) -> int:
        return self.count_range(key, key)

    def count_range(self, low: Any, high: Any) -> int:
        return bisect.bisect_right(self._keys, high) - bisect.bisect_left(self._keys, low)

    def items(self) -> Iterator[StreamTuple]:
        return iter(list(self._values))


class ScanIndex(JoinIndex):
    """Unindexed storage; every probe scans everything (general theta joins)."""

    def __init__(self, key_func: Callable[[StreamTuple], Any] | None = None) -> None:
        super().__init__(key_func)
        self._items: list[StreamTuple] = []

    def insert(self, item: StreamTuple) -> None:
        self._items.append(item)
        self._count += 1
        self._total_size += item.size
        if item.arrival_time > self.newest_arrival:
            self.newest_arrival = item.arrival_time

    def bulk_insert(self, items: Iterable[StreamTuple]) -> None:
        incoming = list(items)
        if not incoming:
            return
        self._items.extend(incoming)
        self._count += len(incoming)
        self._total_size += sum(item.size for item in incoming)
        self._note_arrivals(incoming)

    def remove(self, item: StreamTuple) -> bool:
        for index, existing in enumerate(self._items):
            if existing.tuple_id == item.tuple_id:
                self._items.pop(index)
                self._count -= 1
                self._total_size -= item.size
                return True
        return False

    def probe(self, key: Any) -> tuple[list[StreamTuple], int]:
        # Live storage list (no copy); read-only for callers.
        return self._items, self._count

    def probe_range(self, low: Any, high: Any) -> tuple[list[StreamTuple], int]:
        return self._items, self._count

    def count_key(self, key: Any) -> int:
        return self._count

    def count_range(self, low: Any, high: Any) -> int:
        return self._count

    def items(self) -> Iterator[StreamTuple]:
        return iter(list(self._items))


def make_index(kind: str, key_func: Callable[[StreamTuple], Any] | None) -> JoinIndex:
    """Build the index matching a predicate ``kind`` (see :mod:`predicates`)."""
    if kind == "equi":
        if key_func is None:
            raise ValueError("equi indexes require a key function")
        return HashIndex(key_func)
    if kind == "band":
        if key_func is None:
            raise ValueError("band indexes require a key function")
        return OrderedIndex(key_func)
    return ScanIndex(key_func)
