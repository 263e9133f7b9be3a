"""Tests for stream tuples, salts, interleavings and fluctuating orders."""

import gc
import hashlib
import pickle
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig
from repro.core.operator import AdaptiveJoinOperator
from repro.data import generate_dataset, make_query
from repro.engine.simulator import Simulator
from repro.engine.stream import (
    ArrivalSchedule,
    MessageKind,
    StreamTuple,
    assign_salts,
    fresh_tuple_ids,
    fluctuating_order,
    interleave_streams,
    make_tuples,
    reshuffler_picker,
)


def _tuples(relation, count, rng):
    return make_tuples(relation, [{"k": i} for i in range(count)], rng)


def _live_stream_tuples():
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is StreamTuple]


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
        records = [{"k": i} for i in range(500)]
        rng, oracle = random.Random(3), random.Random(3)
        salts = [t.salt for t in make_tuples("R", records, rng)]
        assert salts == [oracle.random() for _ in records]
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

    #: SHA-256 of the (relation, record, salt) arrival order at (0.3, Z4, 3),
    #: recorded when the generator still drew through ``randrange``,
    #: ``choice`` and ``shuffle``: faster draws must not re-baseline inputs.
    PINNED = {
        "EQ5": "8b7bfe040e5b5e81827bd76c4066cadb0650d53039eb2f94c17eec82288e841a",
        "FLUCT_SYM": "76e45db8c30b1178a753fae62f7082ea27485d81b81ce296c993f0e30e64f140",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_arrival_order_is_pinned(self, name):
        query = make_query(name, generate_dataset(scale=0.3, skew="Z4", seed=3))
        rng = random.Random(3)
        left = make_tuples(query.left_relation, query.left_records, rng)
        right = make_tuples(query.right_relation, query.right_records, rng)
        text = "\n".join(
            f"{t.relation}|{sorted(t.record.items())}|{t.salt.hex()}"
            for t in interleave_streams(left, right, rng)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[name]


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
