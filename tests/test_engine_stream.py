"""Tests for stream tuples, salts, interleavings and fluctuating orders."""

import copy
import gc
import hashlib
import pickle
import random
import sys
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig
from repro.core.operator import AdaptiveJoinOperator
from repro.data import generate_dataset, make_query
from repro.data.rows import row_type
from repro.engine.simulator import Simulator
from repro.engine.stream import (
    SALT_RESOLUTION,
    ArrivalSchedule,
    MessageKind,
    StreamTuple,
    assign_salts,
    fresh_tuple_ids,
    fluctuating_order,
    interleave_streams,
    make_tuples,
    reshuffler_picker,
    tuple_type,
)


def _tuples(relation, count, rng):
    return make_tuples(relation, [{"k": i} for i in range(count)], rng)


def _live_stream_tuples():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, StreamTuple)]


def test_one_object_per_input_tuple(monkeypatch, eq5_query):
    """Sources send the tuple itself and reshufflers fan the same object out:
    after a whole run — a migration included — every live StreamTuple is an
    input, and the feed hands the reshufflers exactly the input objects."""
    seen = {}
    real_run = Simulator.run
    real_feed = Simulator.feed_schedule

    def run(self, *args, **kwargs):
        finish = real_run(self, *args, **kwargs)
        seen["live"] = _live_stream_tuples()  # while the run's state is alive
        return finish

    def feed_schedule(self, *args, **kwargs):
        real_feed(self, *args, **kwargs)
        # The fed runs, before the run settles (and releases) them.
        seen["fed"] = [
            message
            for channel in self._channels[0].values()
            for message in channel.messages
        ]

    monkeypatch.setattr(Simulator, "run", run)
    monkeypatch.setattr(Simulator, "feed_schedule", feed_schedule)
    baseline = len(_live_stream_tuples())
    rng = random.Random(5)
    order = interleave_streams(
        make_tuples(eq5_query.left_relation, eq5_query.left_records, rng),
        make_tuples(eq5_query.right_relation, eq5_query.right_records, rng),
        rng,
    )
    config = RunConfig(machines=8, seed=5, warmup_tuples=16)
    result = AdaptiveJoinOperator(eq5_query, config=config).run(arrival_order=order)
    assert result.migrations >= 1
    assert len(seen["live"]) - baseline == len(order)
    inputs = {id(item) for item in order}
    assert inputs <= {id(item) for item in seen["live"]}
    # The merged feed: one run per reshuffler channel covers the schedule.
    fed = seen["fed"]
    assert len(fed) == len(order)
    assert {id(message) for message in fed} == inputs


class TestStreamTuple:
    def test_partition_respects_bounds(self):
        item = StreamTuple(relation="R", record={}, salt=0.999999)
        assert 0 <= item.partition(8) < 8

    def test_partition_is_dyadically_consistent(self):
        """floor(salt * n) must refine as n doubles and coarsen as n halves."""
        item = StreamTuple(relation="R", record={}, salt=0.63)
        for n in (1, 2, 4, 8, 16, 32):
            coarse = item.partition(n)
            fine = item.partition(2 * n)
            assert fine // 2 == coarse

    @given(st.floats(min_value=0.0, max_value=0.9999999), st.integers(min_value=1, max_value=10))
    @settings(max_examples=200)
    def test_partition_dyadic_property(self, salt, levels):
        item = StreamTuple(relation="R", record={}, salt=salt)
        parts = [item.partition(2 ** level) for level in range(levels + 1)]
        for coarse, fine in zip(parts, parts[1:]):
            assert fine // 2 == coarse

    def test_reshuffler_tags_the_epoch_in_place(self, eq5_query):
        """Routing stamps the reshuffler's epoch on the tuple object itself,
        and every joiner of the fan-out receives that same object."""
        operator = AdaptiveJoinOperator(eq5_query, config=RunConfig(machines=4, seed=1))
        simulator, topology = operator.build_execution()
        reshuffler = simulator.tasks[topology.reshuffler_names[0]]
        reshuffler.epoch = 3  # as if a mapping change had landed
        item = StreamTuple(
            relation=eq5_query.left_relation, record=eq5_query.left_records[0], salt=0.3
        )
        tuple_id, record = item.tuple_id, item.record
        simulator.schedule(0.0, reshuffler.name, item)
        simulator.run()
        assert (item.epoch, item.tuple_id) == (3, tuple_id)
        assert item.record is record
        # Joiners still in epoch 0 park a future-epoch tuple until the signal.
        held = [
            entry
            for name in topology.joiner_names
            for entry in simulator.tasks[name].state._early_messages
        ]
        assert len(held) == 2  # one grid row of the square 2 x 2 mapping
        assert all(kind == "data" and member is item for kind, member in held)

    def test_tuple_is_its_own_data_message(self):
        item = StreamTuple(relation="R", record={"a": 1}, salt=0.5)
        assert item.kind is MessageKind.DATA
        assert item.payload is item
        assert item.sender is None
        assert dict(item.meta) == {}
        with pytest.raises(TypeError):
            item.meta["inner"] = MessageKind.DATA  # shared and read-only
        # The protocol is class attributes: no fields, no per-tuple storage.
        assert "kind" not in {f.name for f in fields(StreamTuple)}
        assert pickle.loads(pickle.dumps(item)) == item

    def test_size_lives_on_the_tuples_type(self):
        """The constructor picks the cached type of the size; both relations
        share it, and an instance holds only its six other fields."""
        item = StreamTuple(relation="R", record={"a": 1}, salt=0.5, size=2.0)
        assert type(item) is tuple_type(2.0)
        assert isinstance(item, StreamTuple)
        assert (item.relation, item.size) == ("R", 2.0)
        assert type(StreamTuple(relation="S", record={}, size=2.0)) is type(item)
        assert type(StreamTuple(relation="R", record={})) is StreamTuple
        assert tuple_type(1.0) is StreamTuple
        # An int size is its own type, so it pickles back as an int.
        assert tuple_type(1) is not StreamTuple
        assert StreamTuple.__slots__ == (
            "relation", "record", "salt", "tuple_id", "arrival_time", "epoch"
        )
        assert type(item).__slots__ == ()
        with pytest.raises(AttributeError):
            item.size = 3.0  # a tuple's size is its type's
        # Called through a subclass, the constructor still picks by size.
        assert type(type(item)(relation="R", record={})) is StreamTuple

    @pytest.mark.parametrize("size", [1.0, 2.5, 3])
    def test_make_tuples_builds_what_the_constructor_builds(self, size):
        records = [{"k": i} for i in range(5)]
        with fresh_tuple_ids():
            made = make_tuples("S", records, random.Random(2), size)
        with fresh_tuple_ids():
            built = assign_salts(
                [StreamTuple(relation="S", record=r, size=size) for r in records],
                random.Random(2),
            )
        assert made == built
        assert [type(item) for item in made] == [tuple_type(size)] * 5
        assert [type(item) for item in built] == [tuple_type(size)] * 5
        assert all(type(item.size) is type(size) for item in made + built)

    def test_default_size_fast_path_builds_the_base_type(self):
        """Leaving ``size`` out skips the type lookup; an equal size passed
        as another float object, or as an int, still goes through it."""
        assert type(StreamTuple("R", {})) is StreamTuple
        assert type(StreamTuple("R", {}, size=float("1.0"))) is StreamTuple
        assert type(StreamTuple("R", {}, size=1)) is tuple_type(1)
        assert type(tuple_type(2.5)("R", {})) is StreamTuple

    def test_constructor_requires_relation_and_record(self):
        with pytest.raises(TypeError, match="relation"):
            StreamTuple(record={"a": 1}, salt=0.5)
        with pytest.raises(TypeError, match="record"):
            StreamTuple(relation="R")

    def test_size_types_compare_print_and_copy_as_one_class(self):
        item = StreamTuple(
            relation="R", record={"a": 1}, salt=0.25, tuple_id=7, arrival_time=1.5, epoch=2
        )
        twin = StreamTuple(
            relation="R", record={"a": 1}, salt=0.25, tuple_id=7, arrival_time=1.5, epoch=2
        )
        assert item == twin
        assert item != replace(twin, relation="S")
        assert item != replace(twin, size=2.0)
        assert item == replace(twin, size=1)  # as 1 == 1.0
        assert repr(item) == (
            "StreamTuple(relation='R', record={'a': 1}, salt=0.25, size=1.0, "
            "tuple_id=7, arrival_time=1.5, epoch=2)"
        )
        for size in (1.0, 3.0):
            sized = replace(item, size=size)
            for clone in (
                copy.copy(sized), copy.deepcopy(sized), pickle.loads(pickle.dumps(sized))
            ):
                assert clone == sized and clone is not sized
                assert type(clone) is type(sized)
        moved = replace(item, relation="S", size=3.0)
        assert type(moved) is tuple_type(3.0)
        assert (moved.relation, moved.size, moved.tuple_id) == ("S", 3.0, 7)
        assert type(replace(moved, size=1.0)) is StreamTuple
        assert [f.name for f in fields(item)] == [
            "relation", "record", "salt", "size", "tuple_id", "arrival_time", "epoch"
        ]

    #: ``pickle.dumps`` of :meth:`_pickled` at the highest protocol, recorded
    #: while ``StreamTuple`` was a seven-slot dataclass: the size types must
    #: not change a checkpoint journal's bytes.
    PINNED_PICKLE = (
        b"\x80\x05\x95a\x01\x00\x00\x00\x00\x00\x00]\x94(\x8c\x13repro.engine.stream"
        b"\x94\x8c\x0bStreamTuple\x94\x93\x94)\x81\x94N}\x94(\x8c\x08relation\x94\x8c"
        b"\x01R\x94\x8c\x06record\x94\x8c\x0frepro.data.rows\x94\x8c\x11row_types.suppkey"
        b"\x94\x93\x94K\x07\x85\x94R\x94\x8c\x04salt\x94G?\xd0\x00\x00\x00\x00\x00"
        b"\x00\x8c\x04size\x94G?\xf0\x00\x00\x00\x00\x00\x00\x8c\x08tuple_id\x94K\x03"
        b"\x8c\x0carrival_time\x94G\x00\x00\x00\x00\x00\x00\x00\x00\x8c\x05epoch\x94"
        b"K\x00u\x86\x94bh\x03)\x81\x94N}\x94(h\x06\x8c\x01S\x94h\x08}\x94(\x8c\x01k"
        b"\x94K\x01\x8c\x01v\x94G@\x04\x00\x00\x00\x00\x00\x00uh\x0eG?\xe6\x00\x00"
        b"\x00\x00\x00\x00h\x0fG@\x00\x00\x00\x00\x00\x00\x00h\x10M,\x01h\x11G?\xf8"
        b"\x00\x00\x00\x00\x00\x00h\x12K\x02u\x86\x94bh\x03)\x81\x94N}\x94(h\x06h"
        b"\x07h\x08h\x0bK\t\x85\x94R\x94h\x0eG?\xb9\x99\x99\x99\x99\x99\x9ah\x0fK"
        b"\x01h\x10Jp\x11\x01\x00h\x11G\x00\x00\x00\x00\x00\x00\x00\x00h\x12K\x00u"
        b"\x86\x94be."
    )

    @staticmethod
    def _pickled():
        row = row_type(("suppkey",))
        return [
            StreamTuple(relation="R", record=row(7), salt=0.25, tuple_id=3),
            StreamTuple(
                relation="S", record={"k": 1, "v": 2.5}, salt=0.6875, size=2.0,
                tuple_id=300, arrival_time=1.5, epoch=2,
            ),
            StreamTuple(relation="R", record=row(9), salt=0.1, size=1, tuple_id=70000),
        ]

    def test_pickles_to_the_seven_slot_dataclass_bytes(self):
        items = self._pickled()
        data = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        assert data == self.PINNED_PICKLE
        loaded = pickle.loads(data)
        assert loaded == items
        assert [type(item) for item in loaded] == [type(item) for item in items]
        assert type(loaded[2].size) is int

    def test_tuple_ids_are_unique(self):
        items = [StreamTuple(relation="R", record={}) for _ in range(100)]
        assert len({item.tuple_id for item in items}) == 100

    def test_fresh_tuple_ids_restart_then_resume(self):
        before = StreamTuple(relation="R", record={}).tuple_id
        with fresh_tuple_ids():
            inside = [StreamTuple(relation="R", record={}).tuple_id for _ in range(3)]
        assert inside == [0, 1, 2]
        assert StreamTuple(relation="R", record={}).tuple_id == before + 1


class TestInterleaving:
    def test_uniform_contains_everything_exactly_once(self, rng):
        left = _tuples("R", 20, rng)
        right = _tuples("S", 30, rng)
        order = interleave_streams(left, right, rng, pattern="uniform")
        assert sorted(t.tuple_id for t in order) == sorted(
            t.tuple_id for t in left + right
        )

    def test_r_first_and_s_first(self, rng):
        left = _tuples("R", 5, rng)
        right = _tuples("S", 5, rng)
        assert [t.relation for t in interleave_streams(left, right, pattern="r_first")] == (
            ["R"] * 5 + ["S"] * 5
        )
        assert [t.relation for t in interleave_streams(left, right, pattern="s_first")] == (
            ["S"] * 5 + ["R"] * 5
        )

    def test_alternate_handles_uneven_lengths(self, rng):
        left = _tuples("R", 2, rng)
        right = _tuples("S", 5, rng)
        order = interleave_streams(left, right, pattern="alternate")
        assert len(order) == 7

    def test_uniform_requires_rng(self, rng):
        left = _tuples("R", 2, rng)
        right = _tuples("S", 2, rng)
        with pytest.raises(ValueError):
            interleave_streams(left, right, None, pattern="uniform")

    def test_unknown_pattern_rejected(self, rng):
        with pytest.raises(ValueError):
            interleave_streams([], [], rng, pattern="zigzag")


class TestArrivalSchedule:
    def test_arrival_times_are_spaced(self, rng):
        items = _tuples("R", 4, rng)
        schedule = ArrivalSchedule(items=items, inter_arrival=2.0)
        times = [time for time, _ in schedule.arrivals()]
        assert times == [0.0, 2.0, 4.0, 6.0]
        assert len(schedule) == 4


class TestSalts:
    def test_assign_salts_in_unit_interval(self, rng):
        items = [StreamTuple(relation="R", record={}) for _ in range(50)]
        assign_salts(items, rng)
        assert all(0.0 <= item.salt < 1.0 for item in items)

    def test_salts_deterministic_for_seed(self):
        a = make_tuples("R", [{"k": i} for i in range(10)], random.Random(3))
        b = make_tuples("R", [{"k": i} for i in range(10)], random.Random(3))
        assert [t.salt for t in a] == [t.salt for t in b]

    def test_generated_salts_are_shared_grid_floats(self):
        """Tuples with the same grid step share one salt object; a salt a
        caller passes keeps its full precision."""
        items = make_tuples("R", [{"k": i} for i in range(3000)], random.Random(4))
        by_step = {}
        for item in items:
            step = item.salt * SALT_RESOLUTION
            assert step == int(step)
            assert by_step.setdefault(step, item.salt) is item.salt
        assert len(by_step) < len(items)
        assert StreamTuple(relation="R", record={}, salt=0.1).salt == 0.1

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=0, max_value=12),
        st.data(),
    )
    @settings(max_examples=300)
    def test_grid_salt_routes_as_its_draw(self, draw, level, data):
        """A grid salt and the full-precision draw it came from give the same
        partition at every power of two up to the grid's resolution, and lie
        in the same intervals of a ``1/2^level`` grid (what a migration moves)."""
        stub = type("Draw", (), {"random": staticmethod(lambda: draw)})()
        (item,) = assign_salts([StreamTuple(relation="R", record={})], stub)
        exact = StreamTuple(relation="R", record={}, salt=draw)
        for parts in (2 ** k for k in range(13)):
            assert item.partition(parts) == exact.partition(parts)
        parts = 2 ** level
        low = data.draw(st.integers(min_value=0, max_value=parts - 1))
        high = data.draw(st.integers(min_value=low + 1, max_value=parts))
        start, stop = low / parts, high / parts
        assert (start <= item.salt < stop) == (start <= draw < stop)

    def test_grid_operators_reject_fleets_finer_than_the_salt_grid(self, eq5_query):
        with pytest.raises(ValueError, match=f"salts of resolution 1/{SALT_RESOLUTION}"):
            AdaptiveJoinOperator(eq5_query, config=RunConfig(machines=2 * SALT_RESOLUTION))

    def test_generated_tuple_costs_one_80_byte_block_and_its_id(self):
        """A generated tuple's own heap is an 80 B object (an 80 B block) and
        its id int: no per-tuple salt float, no size slot."""
        count = 20000
        records = [{"k": 0}] * count
        rng = random.Random(1)
        with fresh_tuple_ids():
            make_tuples("R", records[:1], rng)  # warms the type cache
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                items = make_tuples("R", records, rng)
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        # tracemalloc counts requested bytes: 80 for the tuple (its block is
        # 80), 28 for an id int above the cached small ints (block 32).
        ids = sum(item.tuple_id > 256 for item in items)
        per_tuple = (grown - sys.getsizeof(items)) / count
        assert per_tuple == pytest.approx(80 + 28 * ids / count, abs=0.5)
        assert sys.getsizeof(items[0]) == 80


class TestStdlibDraws:
    """The inline draws return what the stdlib methods would and leave the
    RNG in the same state: the same values from the same 32-bit words."""

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 17, 1000])
    def test_uniform_interleaving_is_random_shuffle(self, count):
        left = _tuples("R", count // 2, random.Random(1))
        right = _tuples("S", count - count // 2, random.Random(2))
        rng, oracle = random.Random(count), random.Random(count)
        expected = left + right
        oracle.shuffle(expected)
        order = interleave_streams(left, right, rng)
        assert [t.tuple_id for t in order] == [t.tuple_id for t in expected]
        assert rng.getstate() == oracle.getstate()

    def test_salts_are_random_random(self):
        """One ``random()`` a tuple, rounded down to the salt grid."""
        records = [{"k": i} for i in range(500)]
        rng, oracle = random.Random(3), random.Random(3)
        salts = [t.salt for t in make_tuples("R", records, rng)]
        assert salts == [
            int(oracle.random() * SALT_RESOLUTION) / SALT_RESOLUTION for _ in records
        ]
        assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize("machines", [1, 2, 16, 64])
    def test_reshuffler_picker_is_random_choice(self, machines):
        names = [f"reshuffler-{i}" for i in range(machines)]
        rng, oracle = random.Random(machines), random.Random(machines)
        pick = reshuffler_picker(rng, names)
        # The feed passes the tuple, a streaming session's ingest nothing.
        picks = [pick(index) if index % 2 else pick() for index in range(2000)]
        assert picks == [oracle.choice(names) for _ in range(2000)]
        assert rng.getstate() == oracle.getstate()

    #: SHA-256 of the (relation, record) arrival order at (0.3, Z4, 3),
    #: recorded when the generator still drew through ``randrange``,
    #: ``choice`` and ``shuffle``: faster draws must not re-baseline inputs.
    PINNED = {
        "EQ5": "4078dfa0d6ccba1cfb5d30a0f91dc15c864183ca79a1a910de8bc504258690f1",
        "FLUCT_SYM": "2cb5312c69bb65160a51500a782206f3ee48a3e7e72caa7b6af7860b92974c77",
    }
    #: SHA-256 of the same order's salts, recorded when salts moved to the
    #: 1/4096 grid (the draws, and so the order above, did not move).
    PINNED_SALTS = {
        "EQ5": "05f5a950c698f224bc5c9af5419cf082a28662e76fdb8ecd2ab4a954cbdda4a1",
        "FLUCT_SYM": "95063c8a89f51a4c2c13bf29f9bb98c0cf826ae7709819ff41599d7445cb2945",
    }

    @staticmethod
    def _arrival_order(name):
        query = make_query(name, generate_dataset(scale=0.3, skew="Z4", seed=3))
        rng = random.Random(3)
        left = make_tuples(query.left_relation, query.left_records, rng)
        right = make_tuples(query.right_relation, query.right_records, rng)
        return interleave_streams(left, right, rng)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_arrival_order_is_pinned(self, name):
        text = "\n".join(
            f"{t.relation}|{sorted(t.record.items())}" for t in self._arrival_order(name)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED_SALTS))
    def test_arrival_salts_are_pinned(self, name):
        text = "\n".join(t.salt.hex() for t in self._arrival_order(name))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_SALTS[name]


def _queue_fluctuating_order(r_tuples, s_tuples, factor, warmup):
    """The fluctuation pattern of §5.4 restated on two queues: emit the head
    of the leading queue until it is ``factor`` times the trailing count,
    then swap; ``warmup`` alternating tuples come first."""
    r_queue, s_queue = list(r_tuples), list(s_tuples)
    order, sent = [], {"R": 0, "S": 0}
    queues = {"R": r_queue, "S": s_queue}

    def emit(relation):
        order.append(queues[relation].pop(0))
        sent[relation] += 1

    for _ in range(min(warmup, len(r_queue) + len(s_queue))):
        emit("R" if r_queue and (sent["R"] <= sent["S"] or not s_queue) else "S")
    leading = "R"
    while r_queue or s_queue:
        trailing = "S" if leading == "R" else "R"
        if not queues[leading]:
            leading = trailing
            continue
        emit(leading)
        if sent[leading] >= factor * max(sent[trailing], 1) and queues[trailing]:
            leading = trailing
    return order


class TestFluctuatingOrder:
    @pytest.mark.parametrize(
        ("n_r", "n_s", "factor", "warmup"),
        [
            (40, 40, 2, 10),
            (200, 50, 4, 20),
            (7, 90, 3, 0),
            (0, 25, 2, 5),
            (30, 0, 1.5, 100),
            (55, 48, 7.3, 56),
        ],
    )
    def test_equals_the_queue_formulation(self, rng, n_r, n_s, factor, warmup):
        left = _tuples("R", n_r, rng)
        right = _tuples("S", n_s, rng)
        order = fluctuating_order(left, right, fluctuation_factor=factor, warmup=warmup)
        assert order == _queue_fluctuating_order(left, right, factor, warmup)

    @given(
        n_r=st.integers(0, 60),
        n_s=st.integers(0, 60),
        factor=st.sampled_from([1.5, 2, 3, 4, 7.3]),
        warmup=st.integers(0, 130),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_shape_equals_the_queue_formulation(self, n_r, n_s, factor, warmup):
        left = [StreamTuple(relation="R", record={"i": i}) for i in range(n_r)]
        right = [StreamTuple(relation="S", record={"i": i}) for i in range(n_s)]
        order = fluctuating_order(left, right, fluctuation_factor=factor, warmup=warmup)
        assert order == _queue_fluctuating_order(left, right, factor, warmup)

    def test_contains_every_tuple_exactly_once(self, rng):
        left = _tuples("R", 40, rng)
        right = _tuples("S", 40, rng)
        order = fluctuating_order(left, right, fluctuation_factor=2, warmup=10)
        assert sorted(t.tuple_id for t in order) == sorted(t.tuple_id for t in left + right)

    def test_ratio_actually_fluctuates(self, rng):
        left = _tuples("R", 200, rng)
        right = _tuples("S", 200, rng)
        order = fluctuating_order(left, right, fluctuation_factor=4, warmup=20)
        sent_r = sent_s = 0
        ratios = []
        for item in order:
            if item.relation == "R":
                sent_r += 1
            else:
                sent_s += 1
            if sent_r and sent_s:
                ratios.append(sent_r / sent_s)
        assert max(ratios) > 2.0
        assert min(ratios) < 0.51

    def test_factor_must_exceed_one(self, rng):
        with pytest.raises(ValueError):
            fluctuating_order(_tuples("R", 2, rng), _tuples("S", 2, rng), fluctuation_factor=1)
