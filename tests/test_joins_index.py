"""Tests for the hash / ordered / scan join indexes."""

from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.stream import StreamTuple
from repro.joins.index import HashIndex, OrderedIndex, ScanIndex, make_index


def _tuple(relation, **record):
    return StreamTuple(relation=relation, record=record)


def _key(item):
    return item.record["k"]


class TestHashIndex:
    def test_probe_exact(self):
        index = HashIndex(_key)
        a, b, c = _tuple("R", k=1), _tuple("R", k=1), _tuple("R", k=2)
        for item in (a, b, c):
            index.insert(item)
        candidates, inspected = index.probe(1)
        assert {t.tuple_id for t in candidates} == {a.tuple_id, b.tuple_id}
        assert inspected == 2
        assert len(index) == 3

    def test_remove(self):
        index = HashIndex(_key)
        a = _tuple("R", k=1)
        index.insert(a)
        assert index.remove(a)
        assert not index.remove(a)
        assert len(index) == 0

    def test_probe_missing_key(self):
        index = HashIndex(_key)
        candidates, inspected = index.probe(42)
        assert candidates == [] and inspected == 0

    def test_probe_returns_multi_tuple_bucket_live(self):
        """A bucket of several tuples is handed out live (no copy); a
        one-tuple bucket is stored as the tuple and handed out as a sequence."""
        index = HashIndex(_key)
        a, b, c = _tuple("R", k=1), _tuple("R", k=1), _tuple("R", k=2)
        for item in (a, b, c):
            index.insert(item)
        first, _ = index.probe(1)
        second, _ = index.probe(1)
        assert first is second  # the live bucket, not a fresh copy
        assert index.bucket_for(1) is first
        single, inspected = index.probe(2)
        assert list(single) == [c] and inspected == 1
        assert list(index.bucket_for(2)) == [c]
        index.insert(d := _tuple("R", k=1))
        assert [t.tuple_id for t in first] == [a.tuple_id, b.tuple_id, d.tuple_id]

    def test_count_key_and_total_size(self):
        index = HashIndex(_key)
        for value in (1, 1, 2):
            index.insert(StreamTuple(relation="R", record={"k": value}, size=2.0))
        assert index.count_key(1) == 2
        assert index.count_key(9) == 0
        assert index.total_size == 6.0
        item = next(iter(index.items()))
        index.remove(item)
        assert index.total_size == 4.0


_KEYS = st.integers(0, 4)
_NEW_TUPLE = st.tuples(_KEYS, st.sampled_from([0.5, 1.0, 2.25]), st.integers(0, 50))
_HASH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _NEW_TUPLE),
        st.tuples(st.just("insert_keyed"), _NEW_TUPLE),
        st.tuples(st.just("bulk_insert"), st.lists(_NEW_TUPLE, max_size=4)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("remove_absent"), _KEYS),
    ),
    max_size=40,
)


def _ids(tuples):
    return [t.tuple_id for t in tuples]


class TestHashIndexModel:
    @given(_HASH_OPS)
    @settings(max_examples=300, deadline=None)
    def test_matches_a_list_of_buckets(self, ops):
        """The compact index (a lone tuple is its own bucket) behaves exactly
        like plain lists of tuples per key, whatever the mutation sequence:
        after every step each key's probe, bucket and count, the stored
        items, ``len``, ``total_size`` and ``newest_arrival`` agree."""
        index = HashIndex(_key)
        model: dict[int, list[StreamTuple]] = {}
        created: list[StreamTuple] = []
        total_size = 0.0
        newest = float("-inf")

        def make(spec):
            key, size, arrival = spec
            item = StreamTuple(
                relation="R", record={"k": key}, size=size, arrival_time=float(arrival)
            )
            created.append(item)
            return item

        def store(item):
            nonlocal total_size, newest
            model.setdefault(_key(item), []).append(item)
            total_size += item.size
            newest = max(newest, item.arrival_time)

        for op, arg in ops:
            if op == "insert":
                item = make(arg)
                index.insert(item)
                store(item)
            elif op == "insert_keyed":
                item = make(arg)
                index.insert_keyed(_key(item), item)
                store(item)
            elif op == "bulk_insert":
                items = [make(spec) for spec in arg]
                index.bulk_insert(items)
                for item in items:
                    store(item)
            else:
                if op == "remove":
                    if not created:
                        continue
                    item = created[arg % len(created)]
                else:
                    item = StreamTuple(relation="R", record={"k": arg})
                bucket = model.get(_key(item), [])
                present = any(t.tuple_id == item.tuple_id for t in bucket)
                assert index.remove(item) is present
                if present:
                    bucket[:] = [t for t in bucket if t.tuple_id != item.tuple_id]
                    if not bucket:
                        del model[_key(item)]
                    total_size -= item.size
            for key in range(5):
                expected = _ids(model.get(key, []))
                candidates, inspected = index.probe(key)
                assert isinstance(candidates, Sequence)
                assert (_ids(candidates), inspected) == (expected, len(expected))
                bucket = index.bucket_for(key)
                if expected:
                    assert isinstance(bucket, Sequence) and _ids(bucket) == expected
                else:
                    assert bucket is None
                assert index.count_key(key) == len(expected)
            assert _ids(index.items()) == [t.tuple_id for b in model.values() for t in b]
            assert len(index) == sum(len(bucket) for bucket in model.values())
            assert index.total_size == total_size
            assert index.newest_arrival == newest


class TestOrderedIndex:
    def test_band_probe(self):
        index = OrderedIndex(_key)
        for value in [5, 1, 9, 3, 7]:
            index.insert(_tuple("R", k=value))
        candidates, _ = index.probe_band(5, 2)
        assert sorted(t.record["k"] for t in candidates) == [3, 5, 7]

    def test_exact_probe_and_duplicates(self):
        index = OrderedIndex(_key)
        items = [_tuple("R", k=4) for _ in range(3)]
        for item in items:
            index.insert(item)
        candidates, _ = index.probe(4)
        assert len(candidates) == 3

    def test_remove_specific_duplicate(self):
        index = OrderedIndex(_key)
        a, b = _tuple("R", k=4), _tuple("R", k=4)
        index.insert(a)
        index.insert(b)
        assert index.remove(a)
        remaining = list(index.items())
        assert [t.tuple_id for t in remaining] == [b.tuple_id]

    def test_probe_band_reports_raw_candidate_count(self):
        # The one-unit work floor lives in LocalJoiner.probe, not here.
        index = OrderedIndex(_key)
        index.insert(_tuple("R", k=10))
        candidates, inspected = index.probe_band(1.5, 0.5)
        assert candidates == [] and inspected == 0
        assert index.count_band(1.5, 0.5) == 0
        assert index.count_band(10, 1) == index.count_key(10) == 1

    @given(st.lists(st.integers(-50, 50), min_size=0, max_size=40),
           st.lists(st.integers(-50, 50), min_size=0, max_size=40))
    @settings(max_examples=60)
    def test_bulk_insert_matches_sequential_inserts(self, first, second):
        sequential = OrderedIndex(_key)
        bulk = OrderedIndex(_key)
        for value in first:
            sequential.insert(_tuple("R", k=value))
            bulk.insert(_tuple("R", k=value))
        extra = [_tuple("R", k=value) for value in second]
        for item in extra:
            sequential.insert(item)
        bulk.bulk_insert(extra)
        assert len(bulk) == len(sequential)
        assert [_key(t) for t in bulk.items()] == [_key(t) for t in sequential.items()]
        assert bulk.total_size == sequential.total_size
        assert bulk.count_band(0, 10) == sequential.count_band(0, 10)

    @given(st.lists(st.integers(-30, 30), min_size=0, max_size=40),
           st.integers(-35, 35), st.integers(-2, 8))
    @settings(max_examples=100)
    def test_band_probe_matches_naive_filter(self, keys, key, width):
        index = OrderedIndex(_key)
        items = [_tuple("R", k=value) for value in keys]
        for item in items:
            index.insert(item)
        candidates, inspected = index.probe_band(key, width)
        expected = [t.tuple_id for t in items if abs(key - t.record["k"]) <= width]
        assert sorted(t.tuple_id for t in candidates) == sorted(expected)
        assert inspected == index.count_band(key, width) == len(expected)


class TestScanIndex:
    def test_probe_returns_everything(self):
        index = ScanIndex()
        items = [_tuple("R", k=value) for value in range(5)]
        for item in items:
            index.insert(item)
        candidates, inspected = index.probe(None)
        assert len(candidates) == 5 and inspected == 5

    def test_remove(self):
        index = ScanIndex()
        a = _tuple("R", k=1)
        index.insert(a)
        assert index.remove(a)
        assert not index.remove(a)


class TestFactory:
    def test_make_index_dispatch(self):
        assert isinstance(make_index("equi", _key), HashIndex)
        assert isinstance(make_index("band", _key), OrderedIndex)
        assert isinstance(make_index("theta", None), ScanIndex)

    def test_indexed_kinds_require_key(self):
        with pytest.raises(ValueError):
            make_index("equi", None)
        with pytest.raises(ValueError):
            make_index("band", None)
