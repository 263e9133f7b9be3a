"""The saturated routed path, pinned against the forms it replaced.

* The reshuffler's fan-out table resolves every side and partition to the
  joiners of ``_destinations`` — through ``_route`` and through the
  drained loop — at J = 1, 16 and 64.
* The hash joiner's one-loop ``probe_batch`` equals the per-member
  ``probe_insert`` sequence, spread state (``others``/``counted``) included.
* ``LocalJoiner.absorb`` (finalize's partition merge) equals a bulk insert
  of the other joiner's tuples, bucket for bucket and bit for bit.
* SHJ routes a string-keyed join alike under every ``PYTHONHASHSEED``.
* ``LatencyLedger.mean`` equals fsum over the expanded runs, bit for bit.
"""

import datetime
import math
import os
import pickle
import subprocess
import sys
import zlib
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.mapping import Mapping
from repro.core.tasks import ReshufflerTask, Topology, route_hash
from repro.engine.metrics import LatencyLedger
from repro.engine.simulator import Simulator
from repro.engine.stream import StreamTuple
from repro.engine.task import Task
from repro.joins.local import make_local_joiner
from repro.joins.predicates import BandPredicate, EquiPredicate, ThetaPredicate
from repro.testing import assert_run_equivalent

# ------------------------------------------------------------ fan-out table

#: The largest float below 1.0: int(salt * parts) rounds up to ``parts`` at
#: large ``parts``, which the clamp must bring back to the last partition.
_TOP_SALT = math.nextafter(1.0, 0.0)


class _Sink(Task):
    def handle(self, message, ctx):  # pragma: no cover - never delivered
        raise AssertionError("the routing tests run no event loop")


def _mappings(machines):
    return [Mapping(1 << i, machines >> i) for i in range(machines.bit_length())]


def _reshuffler(machines, mapping):
    """A reshuffler on machine 0 of a J-machine simulator whose fan-outs
    are recorded as ``(tuple, [destination machine ids])`` instead of sent."""
    simulator = Simulator(machines)
    topology = Topology(
        machines=machines,
        left_relation="R",
        right_relation="S",
        predicate=EquiPredicate("k", "k"),
    )
    topology.joiner_names = [f"joiner-{i}" for i in range(machines)]
    topology.reshuffler_names = ["reshuffler-0"]
    for machine_id, name in enumerate(topology.joiner_names):
        simulator.register(_Sink(name, machine_id))
    task = ReshufflerTask(
        "reshuffler-0", 0, topology, initial_mapping=mapping, adaptive=False
    )
    simulator.register(task)
    sent = []
    simulator.post_fanout = lambda sender, channels, item, category, ctx: sent.append(
        (item, [channel.task.machine_id for channel in channels])
    )
    return simulator, task, sent


def _probe_tuples(mapping):
    """One tuple per side and partition (its midpoint salt), plus each
    side's top salt."""
    items = []
    for relation, parts in (("R", mapping.n), ("S", mapping.m)):
        salts = [(partition + 0.5) / parts for partition in range(parts)]
        salts.append(_TOP_SALT)
        items.extend(StreamTuple(relation=relation, record={"k": 0}, salt=s) for s in salts)
    return items


def _expected(task, item, mapping):
    is_left = item.relation == "R"
    parts = mapping.n if is_left else mapping.m
    return list(task._destinations((is_left, item.partition(parts))))


class TestFanoutTable:
    @pytest.mark.parametrize("machines", [1, 16, 64])
    def test_route_resolves_every_partition_to_its_destinations(self, machines):
        for mapping in _mappings(machines):
            simulator, task, sent = _reshuffler(machines, mapping)
            ctx = simulator._context(task, 0.0)
            for item in _probe_tuples(mapping):
                task._route(item, item.relation == "R", ctx)
            assert [destinations for _, destinations in sent] == [
                _expected(task, item, mapping) for item, _ in sent
            ]
            left, right = task._fanout_tables()
            assert len(left) == mapping.n and len(right) == mapping.m
            # Every partition was routed to, so every entry is resolved.
            assert None not in left and None not in right

    @pytest.mark.parametrize("machines", [1, 16, 64])
    def test_drained_loop_routes_like_route(self, machines):
        """The drained loop gives every member the destinations ``_route``
        gives it."""
        for mapping in _mappings(machines):
            simulator, task, sent = _reshuffler(machines, mapping)
            items = _probe_tuples(mapping)
            inbox = deque((task, item) for item in items[1:])
            ctx = simulator._context(task, 0.0)
            ctx.drain_boundaries = []
            count = task.handle_drained(items[0], inbox, len(items), -1, ctx)
            assert count == len(items) and not inbox
            assert [item for item, _ in sent] == items
            assert [destinations for _, destinations in sent] == [
                _expected(task, item, mapping) for item in items
            ]

    def test_mapping_change_starts_an_empty_table(self):
        simulator, task, sent = _reshuffler(16, Mapping(4, 4))
        ctx = simulator._context(task, 0.0)
        item = StreamTuple(relation="R", record={"k": 0}, salt=_TOP_SALT)
        task._route(item, True, ctx)
        before = _expected(task, item, task.mapping)
        task.mapping = Mapping(1, 16)
        task._route(item, True, ctx)
        assert sent[0][1] == before and len(before) == 4
        assert sent[1][1] == _expected(task, item, task.mapping)
        assert sorted(sent[1][1]) == list(range(16))
        left, right = task._fanout_tables()
        assert len(left) == 1 and right == [None] * 16


# ------------------------------------------------------------- hash joiner

_SPECS = st.lists(
    st.tuples(
        st.sampled_from("RS"),
        st.integers(0, 5),
        st.sampled_from([1.0, 0.1, 2.5, 0.3]),
        st.integers(0, 50),
    ),
    max_size=30,
)


def _item(spec):
    relation, key, size, arrival = spec
    return StreamTuple(
        relation=relation, record={"k": key, "v": key}, size=size, arrival_time=float(arrival)
    )


def _hash_joiner(items=()):
    joiner = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
    for item in items:
        joiner.insert(item)
    return joiner


def _twins(specs, build=_hash_joiner):
    """Two independent joiners holding the same tuples, inserted alike."""
    items = [_item(spec) for spec in specs]
    return build(items), build(items)


def _hash_state(joiner):
    """Everything a hash joiner holds: per relation, the bucket dict (key
    order, bucket shape and tuple order) and the counters."""
    state = {}
    for relation in "RS":
        index = joiner._indexes[relation]
        state[relation] = (
            [
                (key, bucket.__class__ is list,
                 [item.tuple_id for item in bucket] if bucket.__class__ is list
                 else bucket.tuple_id)
                for key, bucket in index._buckets.items()
            ],
            len(index),
            index.total_size,
            index.newest_arrival,
        )
    return state


def _ids(matches):
    return [item.tuple_id for item in matches]


class TestHashProbeBatch:
    @given(
        own=_SPECS, other=_SPECS, partner=_SPECS, counted=_SPECS, batch=_SPECS,
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_probe_insert_sequence(self, own, other, partner, counted, batch):
        stores, twins = zip(*(_twins(specs) for specs in (own, other, partner, counted)))
        items = [_item(spec) for spec in batch]
        got = stores[0].probe_batch(items, (stores[1], stores[2]), (stores[3],))
        want = [
            twins[0].probe_insert(item, (twins[1], twins[2]), (twins[3],))
            for item in items
        ]
        assert [(_ids(matches), work) for matches, work in got] == [
            (_ids(matches), work) for matches, work in want
        ]
        assert all(matches.__class__ is list for matches, _ in got)
        for store, twin in zip(stores, twins):
            assert _hash_state(store) == _hash_state(twin)

    def test_match_lists_are_fresh(self):
        joiner = _hash_joiner([_item(("S", 1, 1.0, 0)), _item(("S", 1, 1.0, 1))])
        ((matches, work),) = joiner.probe_batch([_item(("R", 1, 1.0, 2))])
        matches.clear()
        assert work == 2.0 and joiner.count("S") == 2
        assert len(joiner._right_index._buckets[1]) == 2

    def test_unknown_relation_rejected_with_counters_intact(self):
        joiner = _hash_joiner()
        with pytest.raises(KeyError, match="unknown relation"):
            joiner.probe_batch([_item(("R", 1, 1.0, 3)), _item(("T", 1, 1.0, 4))])
        assert joiner.count("R") == 1 and joiner._left_index.newest_arrival == 3.0


# ------------------------------------------------------------------ absorb


class TestAbsorb:
    @given(keep=_SPECS, other=_SPECS, probes=_SPECS)
    @settings(max_examples=150, deadline=None)
    def test_hash_absorb_equals_bulk_insert(self, keep, other, probes):
        """Overlapping keys, one-tuple and list buckets on either side: the
        dict-level merge leaves exactly the bulk insert's state."""
        merged, bulk = _twins(keep)
        source, twin = _twins(other)
        merged.absorb(source)
        for relation in "RS":
            bulk.bulk_insert(relation, list(twin.stored(relation)))
        assert _hash_state(merged) == _hash_state(bulk)
        assert source.total_count() == 0 and source.stored_size() == 0.0
        assert source._left_index.newest_arrival == -math.inf
        for spec in probes:
            item = _item(spec)
            got, want = merged.probe_insert(item), bulk.probe_insert(item)
            assert (_ids(got[0]), got[1]) == (_ids(want[0]), want[1])
        assert _hash_state(merged) == _hash_state(bulk)

    def test_hash_absorb_keeps_the_larger_arrival_bound(self):
        """A removal never lowers a bound, so the merged bound is the
        larger of the two even when the newest tuple left ``other``."""
        merged, source = _hash_joiner([_item(("R", 1, 1.0, 5))]), _hash_joiner()
        newest = _item(("R", 2, 1.0, 9))
        source.insert(newest)
        source.insert(_item(("R", 3, 1.0, 7)))
        assert source.remove(newest)
        merged.absorb(source)
        assert merged._left_index.newest_arrival == 9.0
        assert [item.arrival_time for item in merged.stored("R")] == [5.0, 7.0]

    def test_hash_absorb_stores_a_one_tuple_list_bucket_bare(self):
        """A removal can leave ``other`` a list bucket of one tuple; the
        merge stores it as the bare tuple, as a bulk insert would."""
        kept = _item(("R", 1, 1.0, 5))
        merged, bulk = _hash_joiner([kept]), _hash_joiner([kept])
        first, second = _item(("R", 2, 1.0, 6)), _item(("R", 2, 1.0, 7))
        source = _hash_joiner([first, second])
        assert source.remove(first)
        assert source._left_index._buckets[2].__class__ is list
        bulk.bulk_insert("R", list(source.stored("R")))
        merged.absorb(source)
        assert merged._left_index._buckets[2] is second
        assert _hash_state(merged) == _hash_state(bulk)

    @pytest.mark.parametrize(
        "predicate",
        [BandPredicate("v", "v", width=1), ThetaPredicate(lambda l, r: l["v"] < r["v"])],
        ids=["band", "theta"],
    )
    @given(keep=_SPECS, other=_SPECS)
    @settings(max_examples=40, deadline=None)
    def test_other_indexes_bulk_insert(self, predicate, keep, other):
        def joiner(items):
            store = make_local_joiner(predicate, "R", "S")
            for item in items:
                store.insert(item)
            return store

        merged, bulk = _twins(keep, joiner)
        source, twin = _twins(other, joiner)
        merged.absorb(source)
        for relation in "RS":
            bulk.bulk_insert(relation, list(twin.stored(relation)))
            assert _ids(merged.stored(relation)) == _ids(bulk.stored(relation))
            mine, theirs = merged._indexes[relation], bulk._indexes[relation]
            assert (len(mine), mine.total_size, mine.newest_arrival) == (
                len(theirs), theirs.total_size, theirs.newest_arrival,
            )
        assert source.total_count() == 0


# ------------------------------------------------------------ SHJ routing


_SHJ_CHILD = """
import datetime, pickle, random, sys
from repro import EquiPredicate, JoinQuery, JoinSession, RunConfig
from repro.engine.stream import interleave_streams, make_tuples

rng = random.Random(5)
key = {
    "str": lambda n: f"key-{n}",
    "date": lambda n: datetime.date(2020, 1, 1) + datetime.timedelta(days=n),
}[sys.argv[1]]
left = [{"k": key(rng.randrange(60))} for _ in range(400)]
right = [{"k": key(rng.randrange(60))} for _ in range(400)]
query = JoinQuery("STR", "R", "S", left, right, EquiPredicate("k", "k"))
order = interleave_streams(
    make_tuples("R", left, rng), make_tuples("S", right, rng), rng
)
session = JoinSession(query, operator="SHJ", config=RunConfig(machines=8))
result = session.run(arrival_order=order, collect_outputs=True)
sys.stdout.buffer.write(pickle.dumps(result))
"""


def _shj_run(hash_seed: str, keys: str = "str"):
    src = Path(repro.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _SHJ_CHILD, keys],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        check=True,
    )
    return pickle.loads(child.stdout)


class TestShjRouting:
    def test_string_keys_route_alike_under_every_hash_seed(self):
        """A 400x400 string-keyed SHJ join at J=8 in two interpreters whose
        ``str`` hashes differ: the same run, bit for bit."""
        first, second = _shj_run("1"), _shj_run("2")
        assert_run_equivalent(first, second, timing=True, network=True, events=True)

    def test_date_keys_route_alike_under_every_hash_seed(self):
        """The same join on ``date`` keys, whose ``hash()`` is salted like
        text: ``route_hash`` digests them, so the two runs are one."""
        first, second = _shj_run("1", "date"), _shj_run("2", "date")
        assert_run_equivalent(first, second, timing=True, network=True, events=True)

    def test_route_hash(self):
        assert route_hash(12345) == hash(12345)
        assert route_hash(2.5) == hash(2.5)
        assert route_hash((3, 4.5)) == route_hash((3, 4.5)) != route_hash((4.5, 3))
        assert route_hash("key-7") == route_hash("key-7") != route_hash("key-8")
        assert route_hash(b"key-7") == route_hash("key-7")
        assert route_hash(("a", 1)) != route_hash(("b", 1))
        assert route_hash(frozenset({"a", "b"})) == route_hash(frozenset({"b", "a"}))
        assert 0 <= route_hash(("a", ("b", 2))) < 2**32

    def test_route_hash_is_a_digest_of_none_nan_and_dates(self):
        """Keys whose ``hash()`` is salted or address-based digest to fixed
        values, and keys that compare equal digest alike."""
        assert route_hash(None) == zlib.crc32(b"None")
        assert route_hash(float("nan")) == route_hash(float("nan")) == zlib.crc32(b"nan")
        assert route_hash(datetime.date(2020, 1, 2)) == datetime.date(2020, 1, 2).toordinal()
        noon = datetime.datetime(2020, 1, 2, 12, 30, 1, 7)
        assert route_hash(noon) == route_hash((737426, 12, 30, 1, 7))
        assert route_hash(noon.replace(fold=1)) == route_hash(noon)
        assert route_hash(noon.time()) == route_hash((12, 30, 1, 7))
        utc = noon.replace(tzinfo=datetime.timezone.utc)
        plus_two = utc.astimezone(datetime.timezone(datetime.timedelta(hours=2)))
        assert plus_two == utc and route_hash(plus_two) == route_hash(utc) == route_hash(noon)

    def test_non_equi_predicate_rejected_at_construction(self):
        topology = Topology(
            machines=2, left_relation="R", right_relation="S",
            predicate=BandPredicate("v", "v", width=1),
        )
        from repro.core.tasks import HashReshufflerTask

        with pytest.raises(ValueError, match="only supports equi-join"):
            HashReshufflerTask("r", 0, topology, initial_mapping=Mapping(1, 2))


# ------------------------------------------------------------ latency mean

_LATENCIES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=1e280, max_value=1e296),
)


def _ledger(values, runs):
    ledger = LatencyLedger()
    ledger.values.extend(values)
    for value, count in runs:
        ledger.run_values.append(value)
        ledger.run_counts.append(count)
    return ledger


class TestLedgerMean:
    @given(
        values=st.lists(_LATENCIES, max_size=8),
        runs=st.lists(st.tuples(_LATENCIES, st.integers(1, 5000)), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_over_the_expansion(self, values, runs):
        ledger = _ledger(values, runs)
        want = math.fsum(ledger) / len(ledger) if len(ledger) else 0.0
        assert ledger.mean() == want

    @pytest.mark.parametrize("value", [0.0, 5e-324, 0.1, 1 / 3, 123456.789, 1e290])
    @pytest.mark.parametrize("count", [(1 << 26) - 1, 1 << 26, (1 << 26) + 3, 3 << 40])
    def test_counts_beyond_one_chunk(self, value, count):
        """Against the exact rational sum, correctly rounded — what fsum
        over the expansion returns, without expanding ~2**26 copies."""
        ledger = _ledger([0.7], [(value, count), (0.25, 2)])
        exact = Fraction(0.7) + Fraction(value) * count + Fraction(0.25) * 2
        assert ledger.mean() == float(exact) / len(ledger)

    def test_one_chunk_boundary_expanded(self):
        ledger = _ledger([0.7], [(0.1, (1 << 26) + 3)])
        assert ledger.mean() == math.fsum(ledger) / len(ledger)

    def test_overflow_and_infinity_follow_fsum(self):
        with pytest.raises(OverflowError):
            _ledger([], [(1e308, 3)]).mean()
        assert _ledger([1.0], [(math.inf, 2)]).mean() == math.inf
