"""Independent reference join: the benchmark's absolute ground truth.

Shares no code with ``repro.joins`` or ``repro.engine`` — it sees two lists
of plain join-key values and the predicate as data, nothing else.  Equi-joins
are counted through a key histogram, band joins (``|l - r| <= width``,
inclusive) by sorting one side and bisecting it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict


def expected_count(kind: str, left_keys, right_keys, width=None) -> int:
    """Number of ``(left, right)`` pairs satisfying the predicate."""
    if kind == "equi":
        histogram = Counter(left_keys)
        return sum(histogram[key] for key in right_keys)
    if kind == "band":
        ordered = sorted(right_keys)
        return sum(
            bisect_right(ordered, key + width) - bisect_left(ordered, key - width)
            for key in left_keys
        )
    raise ValueError(f"unknown join kind {kind!r}")


def expected_pairs(kind: str, left_keys, right_keys, width=None) -> Counter:
    """Multiset of matching ``(left index, right index)`` pairs."""
    pairs: Counter = Counter()
    if kind == "equi":
        positions = defaultdict(list)
        for index, key in enumerate(right_keys):
            positions[key].append(index)
        for left_index, key in enumerate(left_keys):
            for right_index in positions.get(key, ()):
                pairs[(left_index, right_index)] += 1
        return pairs
    if kind == "band":
        ordered = sorted((key, index) for index, key in enumerate(right_keys))
        ordered_keys = [key for key, _index in ordered]
        for left_index, key in enumerate(left_keys):
            low = bisect_left(ordered_keys, key - width)
            high = bisect_right(ordered_keys, key + width)
            for _key, right_index in ordered[low:high]:
                pairs[(left_index, right_index)] += 1
        return pairs
    raise ValueError(f"unknown join kind {kind!r}")
