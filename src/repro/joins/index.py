"""In-memory join indexes.

The paper's joiners use hashmaps for equi-joins and balanced binary trees for
band joins (§5, "Operators").  This module provides the equivalent structures:

* :class:`HashIndex` — exact-key probes,
* :class:`OrderedIndex` — band probes over a sorted key list (``bisect``
  plays the role of the balanced tree),
* :class:`ScanIndex` — fallback full scans for arbitrary theta predicates.

Every probe reports the number of *candidates* inspected, which the engine
charges as CPU work; this is how index choice influences simulated
throughput, mirroring the real systems trade-off.  Indexes report the **raw**
candidate count (possibly zero); the one-unit work floor per probe is applied
in exactly one place, :meth:`repro.joins.local.LocalJoiner.probe`.

Probe results are sequences the caller must treat as read-only snapshots,
valid until the next ``insert``/``remove``/``bulk_insert`` on the index.  A
hash bucket holding one tuple is stored as the tuple itself and handed out as
a fresh one-tuple sequence; a bucket holding several is a list, returned live
(no copy).

Two facts the indexes keep up to date on insert, so callers can skip work
the index already proves:

* :attr:`JoinIndex.newest_arrival` — an upper bound on the ``arrival_time``
  of every stored tuple.  A probe's partners are no newer than it, which
  lets the metrics collector record a whole match group as one latency run
  without scanning the partners (see ``MatchGroup.bound``).
* :attr:`OrderedIndex.float_keys` — whether a ``float`` key was ever stored.
  It flags the one corner where a band's match set need not be one slice of
  the key list (see :meth:`OrderedIndex.band_bounds`).
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

#: Ints up to this magnitude, and differences of two of them, are exactly
#: floats (see :meth:`OrderedIndex.band_bounds`).
_EXACT_INTS = 2**52


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

    def absorb(self, other: "JoinIndex") -> None:
        """Move every tuple of ``other`` — an index of the same kind and key —
        into this one, leaving ``other`` empty.

        The result is :meth:`bulk_insert` of ``list(other.items())``.
        """
        self.bulk_insert(list(other.items()))
        other.clear()

    def clear(self) -> None:
        """Empty the index, as if freshly built with the same key function."""
        self.__init__(self._key_func)

    def remove(self, item: StreamTuple) -> bool:
        """Remove ``item``; returns True if it was present."""
        raise NotImplementedError

    def probe(self, key: Any) -> tuple[list[StreamTuple], int]:
        """Return ``(candidates, candidates_inspected)`` for an exact key."""
        raise NotImplementedError

    def count_key(self, key: Any) -> int:
        """Number of candidates an exact-key probe would inspect (no copy)."""
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
        # NOTE: LocalJoiner._hash_probe_batch inlines this — keep in sync.
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

    def absorb(self, other: "JoinIndex") -> None:
        """:meth:`JoinIndex.absorb` in one pass over ``other``'s buckets,
        extracting no key.

        A bulk insert appends ``other``'s new keys after this index's, in
        ``other``'s order, and extends a shared key's bucket by ``other``'s:
        the pass does exactly that, taking a new key's bucket over whole and
        concatenating a shared one.  The total size repeats the bulk
        insert's additions, one tuple at a time in ``other``'s item order.
        A new key's bucket left with one tuple by removals is stored as the
        bare tuple, the shape a bulk insert gives it.  :attr:`newest_arrival`
        becomes the larger of the two bounds, which is the bulk insert's
        value unless ``other`` had a tuple removed (never the case for
        finalize's partitions).  ``other``'s list buckets move over as they
        are, hence it is cleared.
        """
        theirs = other._buckets
        if not theirs:
            return
        mine = self._buckets
        total = self._total_size
        for key, added in theirs.items():
            bucket = mine.get(key)
            if added.__class__ is list:
                for item in added:
                    total += item.size
                if bucket is None:
                    mine[key] = added if len(added) > 1 else added[0]
                elif bucket.__class__ is list:
                    bucket += added
                else:
                    mine[key] = [bucket, *added]
            else:
                total += added.size
                if bucket is None:
                    mine[key] = added
                elif bucket.__class__ is list:
                    bucket.append(added)
                else:
                    mine[key] = [bucket, added]
        self._total_size = total
        self._count += other._count
        if other.newest_arrival > self.newest_arrival:
            self.newest_arrival = other.newest_arrival
        other.clear()

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

    def bucket_for(self, key: Any) -> Sequence[StreamTuple] | None:
        """The bucket for ``key`` as a read-only sequence, or None when empty.

        The primitive behind the batch probe: callers walk a multi-tuple
        bucket in place instead of receiving a copy.
        """
        bucket = self._buckets.get(key)
        if bucket is None or bucket.__class__ is list:
            return bucket
        return (bucket,)

    def count_key(self, key: Any) -> int:
        bucket = self._buckets.get(key)
        if bucket is None:
            return 0
        return len(bucket) if bucket.__class__ is list else 1

    def items(self) -> Iterator[StreamTuple]:
        for bucket in self._buckets.values():
            if bucket.__class__ is list:
                yield from bucket
            else:
                yield bucket


class OrderedIndex(JoinIndex):
    """Sorted index supporting band probes (band joins).

    Keys are kept in a sorted list with parallel payload storage; ``bisect``
    provides logarithmic lookups, standing in for the balanced binary tree the
    paper uses.
    """

    def __init__(self, key_func: Callable[[StreamTuple], Any]) -> None:
        super().__init__(key_func)
        self._keys: list[Any] = []
        self._values: list[StreamTuple] = []
        #: Whether a ``float`` key was ever stored; once set it stays set.
        self.float_keys = False

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
        if isinstance(key, float):
            self.float_keys = True

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
        if not self.float_keys:
            self.float_keys = any(isinstance(key, float) for key in new_keys)

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
        return self.probe_band(key, 0)

    def band_bounds(self, key: Any, width: Any) -> tuple[int, int] | None:
        """Slice bounds of exactly the stored keys ``b`` with
        ``abs(key - b) <= width`` — the expression ``BandPredicate.matches``
        evaluates — or None where that set need not be one slice.

        ``key - b`` is monotone in ``b`` (float subtraction is correctly
        rounded, int subtraction exact), so the keys with ``key - b <= width``
        are a suffix of the sorted list and those with ``key - b >= -width``
        a prefix: the match set is the slice between.  Bisecting the rounded
        window ``[key - width, key + width]`` lands next to both edges, and
        each edge then moves by the expression itself — outward while it
        holds, inward while it fails — which takes O(1) steps beyond equal
        keys at the edge (0 on ints).

        The exception is a non-float ``key`` over an index holding floats
        once ``key`` or a stored key lies beyond ``±2**52``: Python subtracts
        ints exactly but floats rounded, and past that magnitude the two
        may disagree on the order of ``key - b``.  Returns None there; the
        callers then test every stored key.
        """
        keys = self._keys
        if (
            self.float_keys
            and key.__class__ is not float
            and keys
            and not (-_EXACT_INTS <= keys[0] and keys[-1] <= _EXACT_INTS
                     and -_EXACT_INTS <= key <= _EXACT_INTS)
        ):
            return None
        lo = bisect.bisect_left(keys, key - width)
        hi = bisect.bisect_right(keys, key + width, lo)
        end = len(keys)
        while lo and key - keys[lo - 1] <= width:
            lo -= 1
        while lo < end and not key - keys[lo] <= width:
            lo += 1
        while hi < end and key - keys[hi] >= -width:
            hi += 1
        while hi > lo and not key - keys[hi - 1] >= -width:
            hi -= 1
        return lo, hi if hi > lo else lo

    def probe_band(self, key: Any, width: Any) -> tuple[list[StreamTuple], int]:
        """``(matches, count)`` of a band probe: the stored tuples whose key
        ``b`` satisfies ``abs(key - b) <= width``, as a fresh list."""
        bounds = self.band_bounds(key, width)
        if bounds is None:
            matches = [
                value
                for stored, value in zip(self._keys, self._values)
                if abs(key - stored) <= width
            ]
            return matches, len(matches)
        lo, hi = bounds
        return self._values[lo:hi], hi - lo

    def count_band(self, key: Any, width: Any) -> int:
        """Number of stored keys a :meth:`probe_band` would return (no copy)."""
        bounds = self.band_bounds(key, width)
        if bounds is None:
            return sum(1 for stored in self._keys if abs(key - stored) <= width)
        return bounds[1] - bounds[0]

    def count_key(self, key: Any) -> int:
        return self.count_band(key, 0)

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

    def count_key(self, key: Any) -> int:
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
