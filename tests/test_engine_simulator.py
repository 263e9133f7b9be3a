"""Tests for the discrete-event simulator: ordering, queueing, accounting."""

import dataclasses
import random

import pytest

from repro.api import RunConfig
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import make_query
from repro.engine.machine import CostModel
from repro.engine.network import TrafficCategory
from repro.engine.simulator import Simulator
from repro.engine.stream import (
    ArrivalSchedule,
    StreamTuple,
    interleave_streams,
    make_tuples,
)
from repro.engine.task import Context, Message, MessageKind, Task
from repro.testing import (
    IGNORABLE_FIELDS,
    TIMING_FIELDS,
    UnmergedWireSimulator,
    assert_run_equivalent,
)


class Recorder(Task):
    """Task that records (logical time, payload) for every message."""

    def __init__(self, name, machine_id=0, cost=0.0):
        super().__init__(name, machine_id)
        self.cost = cost
        self.log = []

    def handle(self, message: Message, ctx: Context) -> None:
        self.log.append((ctx.now, message.payload))
        ctx.charge(self.cost)


class Forwarder(Task):
    """Task that forwards every payload to a destination."""

    def __init__(self, name, destination, machine_id=0, cost=0.0):
        super().__init__(name, machine_id)
        self.destination = destination
        self.cost = cost

    def handle(self, message: Message, ctx: Context) -> None:
        ctx.charge(self.cost)
        ctx.send(
            self.destination,
            Message(
                kind=message.kind, sender=self.name, payload=message.payload, size=message.size
            ),
        )


def _data(payload, kind=MessageKind.DATA, size=1.0):
    return Message(kind=kind, sender="test", payload=payload, size=size)


class TestScheduling:
    def test_events_processed_in_time_order(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r"))
        sim.schedule(5.0, "r", _data("late"))
        sim.schedule(1.0, "r", _data("early"))
        sim.run()
        assert [p for _, p in task.log] == ["early", "late"]

    def test_unknown_destination_rejected(self):
        sim = Simulator(num_machines=1)
        with pytest.raises(KeyError):
            sim.schedule(0.0, "nobody", _data("x"))

    def test_duplicate_task_names_rejected(self):
        sim = Simulator(num_machines=1)
        sim.register(Recorder("a"))
        with pytest.raises(ValueError):
            sim.register(Recorder("a"))

    def test_task_on_unknown_machine_rejected(self):
        sim = Simulator(num_machines=1)
        with pytest.raises(ValueError, match="choices: 0..0"):
            sim.register(Recorder("a", machine_id=5))

    def test_task_off_the_cluster_rejected(self):
        """Every task lives on a machine: no off-cluster placement."""
        sim = Simulator(num_machines=4)
        with pytest.raises(ValueError, match="machine -1; choices: 0..3"):
            sim.register(Recorder("a", machine_id=-1))
        assert sim.tasks == {}


class TestMachineQueueing:
    def test_busy_machine_defers_processing(self):
        """Two messages to the same machine are handled back-to-back."""
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=10.0))
        sim.schedule(0.0, "r", _data("a"))
        sim.schedule(1.0, "r", _data("b"))
        finish = sim.run()
        times = [t for t, _ in task.log]
        assert times[0] == pytest.approx(0.0)
        assert times[1] == pytest.approx(10.0)  # waits for the machine
        assert finish == pytest.approx(20.0)

    def test_fifo_order_preserved_under_load(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=1.0))
        for index in range(20):
            sim.schedule(0.0, "r", _data(index))
        sim.run()
        assert [p for _, p in task.log] == list(range(20))

    def test_independent_machines_run_in_parallel(self):
        sim = Simulator(num_machines=2)
        fast = sim.register(Recorder("m0", machine_id=0, cost=5.0))
        slow = sim.register(Recorder("m1", machine_id=1, cost=5.0))
        sim.schedule(0.0, "m0", _data("x"))
        sim.schedule(0.0, "m1", _data("y"))
        finish = sim.run()
        assert finish == pytest.approx(5.0)
        assert sim.machines[0].busy_time == pytest.approx(5.0)
        assert sim.machines[1].busy_time == pytest.approx(5.0)

    def test_priority_control_messages_bypass_backlog(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=10.0))
        for index in range(5):
            sim.schedule(0.0, "r", _data(index))
        sim.schedule(1.0, "r", _data("control", kind=MessageKind.MAPPING_CHANGE, size=0.0))
        sim.run()
        payloads = [p for _, p in task.log]
        # The control message is handled at its delivery time, long before the
        # data backlog drains.
        assert payloads.index("control") == 1

    def test_max_events_guard(self):
        sim = Simulator(num_machines=1)
        sim.register(Forwarder("a", "b", machine_id=0))
        sim.register(Forwarder("b", "a", machine_id=0))
        sim.schedule(0.0, "a", _data("loop"))
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestPipelines:
    def test_forwarding_pipeline_and_execution_time(self):
        cost_model = CostModel(network_latency=1.0, per_tuple_network_cost=0.0)
        sim = Simulator(num_machines=2, cost_model=cost_model)
        sink = sim.register(Recorder("sink", machine_id=1, cost=2.0))
        sim.register(Forwarder("hop", "sink", machine_id=0, cost=1.0))
        sim.schedule(0.0, "hop", _data("t1"))
        finish = sim.run()
        # hop: work [0,1); network +1; sink starts at 2, works 2 units.
        assert sink.log[0][0] == pytest.approx(2.0)
        assert finish == pytest.approx(4.0)

    def test_feed_schedule_sets_arrival_times(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0))
        items = [StreamTuple(relation="R", record={"i": i}) for i in range(3)]
        schedule = ArrivalSchedule(items=items, inter_arrival=2.0)
        sim.feed_schedule(schedule, destination_picker=lambda item: "r")
        sim.run()
        assert [item.arrival_time for item in items] == [0.0, 2.0, 4.0]
        assert len(task.log) == 3

    def test_storage_summaries(self):
        sim = Simulator(num_machines=2)
        sim.machines[0].add_stored(5.0)
        sim.machines[1].add_stored(9.0)
        assert sim.max_machine_storage() == 9.0
        assert sim.total_storage() == 14.0
        assert not sim.any_spilled()


class TestPriorityStart:
    def test_control_message_waits_for_running_handler(self):
        """A priority message bypasses the inbox but not the busy CPU: it
        starts at max(delivery time, machine.busy_until)."""
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=10.0))
        sim.schedule(0.0, "r", _data("data"))
        sim.schedule(1.0, "r", _data("control", kind=MessageKind.MAPPING_CHANGE, size=0.0))
        sim.run()
        times = {payload: time for time, payload in task.log}
        assert times["data"] == pytest.approx(0.0)
        # Delivered at t=1 while the data handler occupies [0, 10); starts at 10.
        assert times["control"] == pytest.approx(10.0)

    def test_control_message_on_idle_machine_starts_at_delivery(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=1.0))
        sim.schedule(3.0, "r", _data("control", kind=MessageKind.MAPPING_CHANGE, size=0.0))
        sim.run()
        assert task.log[0][0] == pytest.approx(3.0)


class TestFeed:
    def test_feed_sends_one_message_per_tuple(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0))
        items = [StreamTuple(relation="R", record={"i": i}, size=2.0) for i in range(3)]
        sim.feed_schedule(ArrivalSchedule(items=items), destination_picker=lambda item: "r")
        sim.run()
        assert [payload for _, payload in task.log] == items

    def test_data_message_accounting_is_exact(self):
        """A data transfer between machines counts one message and its size
        as volume; every data message is one tuple, so there is no separate
        tuple counter."""
        sim = Simulator(num_machines=2)
        sim.register(Recorder("sink", machine_id=1))
        sim.register(Forwarder("hop", "sink", machine_id=0))
        item = StreamTuple(relation="R", record={"i": 0}, size=2.5)
        sim.schedule(0.0, "hop", _data(item, size=item.size))
        sim.run()
        assert sim.network.messages[TrafficCategory.ROUTING] == 1
        assert sim.network.volume[TrafficCategory.ROUTING] == pytest.approx(2.5)
        assert not hasattr(sim.network, "tuples")


def _burst(simulator_class, count=10):
    """``count`` tuples handed at t=0 to a free forwarder on machine 0, all
    sent on one channel to a sink on machine 1 charging 1.0 per message."""
    sim = simulator_class(
        num_machines=2, cost_model=CostModel(network_latency=1.0, per_tuple_network_cost=0.0)
    )
    sink = sim.register(Recorder("sink", machine_id=1, cost=1.0))
    sim.register(Forwarder("hop", "sink", machine_id=0))
    for index in range(count):
        sim.schedule(0.0, "hop", _data(index))
    finish = sim.run()
    return sim, sink.log, finish


class TestReferenceWire:
    """:class:`repro.testing.UnmergedWireSimulator` against the production wire."""

    def test_is_the_simulator_with_one_override(self):
        assert issubclass(UnmergedWireSimulator, Simulator)
        overrides = {name for name in vars(UnmergedWireSimulator) if not name.startswith("__")}
        assert overrides == {"_open_run"}

    def test_both_wires_deliver_the_same_trace(self):
        merged, merged_log, merged_finish = _burst(Simulator)
        reference, reference_log, reference_finish = _burst(UnmergedWireSimulator)
        assert merged_log == reference_log
        assert [payload for _, payload in merged_log] == list(range(10))
        assert merged_finish == reference_finish == pytest.approx(11.0)
        assert merged.events_processed == reference.events_processed

    def test_production_wire_absorbs_the_burst_in_one_run(self):
        merged, _, _ = _burst(Simulator)
        assert merged.metrics.wire_histogram == {10: 1}

    def test_reference_pushes_every_send_onto_the_heap(self):
        """The reference never opens a channel: each of the burst's sends
        pops from the global heap as its own delivery."""
        merged, _, _ = _burst(Simulator)
        reference, _, _ = _burst(UnmergedWireSimulator)
        assert reference.metrics.wire_histogram == {}
        channel = reference.channels(reference.tasks["hop"], ["sink"])[0]
        assert channel.messages is None  # closed: never opened a run
        assert reference.heap_events - merged.heap_events == 10


class Poisoned(Task):
    def handle(self, message: Message, ctx: Context) -> None:
        raise ValueError("poisoned handler")


class TestSenderOwnedRanks:
    def test_equal_time_deliveries_order_by_sender_not_execution(self):
        """Two sends landing at one instant order by (sender machine, link
        sequence), never by which handler happened to execute first."""
        sim = Simulator(num_machines=3)
        sink = sim.register(Recorder("sink", machine_id=2))
        # Machine 1's handler runs first (t=0) and departs at 0.5 after its
        # charge; machine 0's runs at t=0.5 and departs at the same instant.
        sim.register(Forwarder("late", "sink", machine_id=1, cost=0.5))
        sim.register(Forwarder("early", "sink", machine_id=0))
        sim.schedule(0.0, "late", _data("from-1"))
        sim.schedule(0.5, "early", _data("from-0"))
        sim.run()
        (time_a, first), (time_b, second) = sink.log
        assert time_a == time_b
        assert (first, second) == ("from-0", "from-1")

    def test_link_counters_are_owned_by_the_sender(self):
        sim = Simulator(num_machines=4)
        sink = sim.register(Recorder("sink", machine_id=2))
        far = sim.register(Recorder("far", machine_id=3))
        sim.register(Forwarder("a", "sink", machine_id=0))
        sim.register(Forwarder("b", "sink", machine_id=1))
        for index in range(3):
            sim.schedule(float(index), "a", _data(index))
        sim.schedule(0.0, "b", _data("b"))
        sim.run()
        # One link record per (sender, destination machine): each sender
        # advances only its own per-link sequence.
        assert sim.network.link(0, 2).sequence == 3
        assert sim.network.link(1, 2).sequence == 1
        assert sim._channel(0, sink).link is sim.network.link(0, 2)
        # Ranks order by sender machine, then destination machine.
        assert (
            sim._channel(0, sink).rank_base
            < sim._channel(1, sink).rank_base
            < sim._channel(1, far).rank_base
        )


class TestRunLoop:
    def test_handler_exception_propagates_undecorated(self):
        sim = Simulator(num_machines=1)
        sim.register(Poisoned("victim", machine_id=0))
        sim.schedule(0.0, "victim", _data("x"))
        with pytest.raises(ValueError, match="poisoned handler"):
            sim.run()

    def test_wall_time_accumulates_across_runs(self):
        """Streaming pushes re-enter run(); wall_time is cumulative."""
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0))
        previous = 0.0
        for round_number in range(3):
            sim.schedule(float(round_number), "r", _data(round_number))
            sim.run()
            assert sim.wall_time > previous
            previous = sim.wall_time
        assert len(task.log) == 3


# ---------------------------------------------------------------------------
# The ignore= contract of repro.testing.assert_run_equivalent
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def operator_scenario(small_dataset):
    query = make_query("EQ5", small_dataset)
    rng = random.Random(5)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(query.right_relation, query.right_records, rng, query.right_tuple_size)
    return query, interleave_streams(left, right, rng)[:160]


def _operator_run(operator_class, scenario, **overrides):
    query, order = scenario
    config = RunConfig(machines=8, seed=5, warmup_tuples=16, **overrides)
    return operator_class(query, config=config).run(
        arrival_order=order, collect_outputs=True
    )


class TestIgnoreParameter:
    def test_ignoring_fields_composes(self, operator_scenario):
        """Naming fields in ignore= keeps everything else strict — and does
        not loosen fields that actually match."""
        first = _operator_run(AdaptiveJoinOperator, operator_scenario)
        second = _operator_run(AdaptiveJoinOperator, operator_scenario)
        assert_run_equivalent(
            first, second, events=True,
            ignore=("execution_time", "machine_busy", "heap_events"),
            label="ignore-composes",
        )

    def test_default_is_strict(self, operator_scenario):
        """With ignore= unset, a timing delta still fails loudly."""
        first = _operator_run(AdaptiveJoinOperator, operator_scenario)
        second = _operator_run(AdaptiveJoinOperator, operator_scenario)
        skewed = dataclasses.replace(first, execution_time=first.execution_time + 1.0)
        with pytest.raises(AssertionError, match="execution_time"):
            assert_run_equivalent(skewed, second, label="strict")
        # ...and naming the skewed field is exactly what lets it pass.
        assert_run_equivalent(skewed, second, ignore=("execution_time",), label="excused")

    def test_unknown_ignore_name_raises(self, operator_scenario):
        result = _operator_run(StaticMidOperator, operator_scenario)
        with pytest.raises(ValueError, match="unknown ignore field"):
            assert_run_equivalent(result, result, ignore=("exec_time",))

    def test_semantic_baseline_is_not_ignorable(self, operator_scenario):
        """Join outputs, counts, migrations and mappings can never be waved
        away — they are not in IGNORABLE_FIELDS and ignore= rejects them."""
        for baseline in ("outputs", "output_count", "migrations", "final_mapping"):
            assert baseline not in IGNORABLE_FIELDS
        result = _operator_run(StaticMidOperator, operator_scenario)
        with pytest.raises(ValueError, match="never skippable"):
            assert_run_equivalent(result, result, ignore=("outputs",))

    def test_coarse_switches_are_field_group_shorthand(self, operator_scenario):
        """timing=False is exactly ignore=TIMING_FIELDS."""
        oracle = _operator_run(StaticMidOperator, operator_scenario)
        skewed = dataclasses.replace(
            oracle,
            execution_time=oracle.execution_time + 1.0,
            average_latency=oracle.average_latency + 1.0,
            probe_work=oracle.probe_work + 1.0,
            routing_volume=oracle.routing_volume + 1.0,
            total_network_volume=oracle.total_network_volume + 1.0,
        )
        with pytest.raises(AssertionError):
            assert_run_equivalent(oracle, skewed, label="strict")
        assert_run_equivalent(oracle, skewed, timing=False, network=False, label="coarse")
        assert_run_equivalent(
            oracle, skewed,
            ignore=TIMING_FIELDS | {"routing_volume", "migration_volume",
                                    "total_network_volume"},
            label="explicit",
        )
