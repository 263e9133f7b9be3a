"""Wake-up ticks of the merged wire: exact against the unmerged wire.

On the merged wire a channel's run goes onto the receiving machine's pending
heap when it is *sent*, and the send arms the receiver's tick for the
delivery ahead of time (``Simulator._wake``); the global heap holds ticks,
never deliveries between machines.  These tests pin the rules that keep
every tick at the time the unmerged wire gives it:

* a saturated run pops exactly one heap event per handler invocation, and a
  paced one stays within a few heap events per input tuple;
* a priority handler that runs on a machine before its wake-up's delivery
  re-computes the wake-up against the raised ``busy_until``;
* a crashed machine gets no wake-up, and its restart keeps its own tick.

Handled ticks are traced as ``(machine, tick time)`` and compared with the
same plane on :class:`repro.testing.UnmergedWireSimulator` (the reference
for tick times); whole runs are compared with the ``batching="per_tuple"``
oracle.
"""

from __future__ import annotations

import random

import pytest

import repro.core.operator as operator_module
from repro.api import RunConfig, crash_after_events
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import make_query
from repro.engine.machine import CostModel
from repro.engine.simulator import PRIORITY_KINDS, Simulator
from repro.engine.stream import StreamTuple, interleave_streams, make_tuples
from repro.engine.task import Message, MessageKind, Task
from repro.testing import UnmergedWireSimulator, assert_run_equivalent

SEED = 5


def _order(query):
    rng = random.Random(SEED)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(query.right_relation, query.right_records, rng, query.right_tuple_size)
    return interleave_streams(left, right, rng)


def _run(query, order, **overrides):
    config = RunConfig(seed=SEED, warmup_tuples=16, **overrides)
    return AdaptiveJoinOperator(query, config=config).run(
        arrival_order=order, collect_outputs=True
    )


@pytest.fixture()
def traced(monkeypatch):
    """Record every tick that handled a message as ``(machine, tick time)``,
    every handler event as ``(events processed, time)``, and every priority
    delivery / crash that met a wake-up still ahead."""
    trace = {"ticks": [], "events": [], "priority": 0, "moved": 0, "crashed_waking": 0}
    tick = Simulator._tick
    deliver = Simulator._deliver
    crash_machine = Simulator._crash_machine

    def traced_tick(self, machine_id, time):
        before = self.events_processed
        tick(self, machine_id, time)
        if self.events_processed != before:
            trace["ticks"].append((machine_id, time))
            trace["events"].append((self.events_processed, time))

    def traced_deliver(self, task, message, time, rank=0):
        machine_id = task.machine_id
        ahead = (
            message.kind in PRIORITY_KINDS
            and machine_id >= 0
            and machine_id not in self._crashed
            and self._wake_for[machine_id] is not None
            and (time, rank) < self._wake_for[machine_id]
        )
        armed = self._tick_at[machine_id] if ahead else None
        before = self.events_processed
        deliver(self, task, message, time, rank)
        if self.events_processed != before:
            trace["events"].append((self.events_processed, time))
        if ahead:
            trace["priority"] += 1
            trace["moved"] += self._tick_at[machine_id] != armed

    def traced_crash(self, machine_id, time):
        trace["crashed_waking"] += (
            self._wake_for[machine_id] is not None
            and self.machines[machine_id].busy_until <= time
        )
        crash_machine(self, machine_id, time)

    monkeypatch.setattr(Simulator, "_tick", traced_tick)
    monkeypatch.setattr(Simulator, "_deliver", traced_deliver)
    monkeypatch.setattr(Simulator, "_crash_machine", traced_crash)
    return trace


def _reset(traced):
    """Count ticks and wake-ups from the next run on only."""
    traced.update(ticks=[], events=[], priority=0, moved=0, crashed_waking=0)


def _anchor_at(traced, time):
    """The event anchor of a crash right after the traced run's last
    handler event dated no later than ``time``."""
    return max(count for count, at in traced["events"] if at <= time)


def _unmerged(monkeypatch):
    """Run the next operator runs on the unmerged reference wire."""
    monkeypatch.setattr(operator_module, "Simulator", UnmergedWireSimulator)


class TestHeapEvents:
    @pytest.mark.parametrize("name, machines", [("EQ5", 8), ("BNCI", 16), ("FLUCT_SYM", 16)])
    def test_saturated_run_pops_one_heap_event_per_handler(
        self, small_dataset, name, machines
    ):
        """With every input parked at t=0 no machine ever waits for a
        delivery: the heap holds its ticks and nothing else."""
        query = make_query(name, small_dataset)
        result = _run(query, _order(query), machines=machines, batching="adaptive")
        assert result.migrations >= 1
        assert result.heap_events == result.events_processed

    def test_paced_run_stays_within_five_heap_events_per_tuple(self, small_dataset):
        """Paced and fluctuating, four migrations: the only heap events
        beyond the handler invocations are superseded wake-ups."""
        query = make_query("FLUCT_SYM", small_dataset)
        order = _order(query)
        result = _run(
            query, order, machines=8, batching="adaptive", inter_arrival=1.0
        )
        assert result.migrations >= 3
        assert result.heap_events <= 5.0 * len(order)
        assert result.heap_events <= 1.1 * result.events_processed


    def test_lone_member_ticks_skip_the_settle_pass(self, small_dataset, monkeypatch):
        """Paced, one arrival per time unit: most ticks find the inbox empty
        and exactly one pending member due, and take it straight off the
        pending heap — the settle pass runs for at most a fifth of the
        handler calls (nearly every one on a wire that settles each tick)."""
        settles = []
        settle = Simulator._settle

        def counting_settle(self, machine_id, time):
            settles.append(machine_id)
            settle(self, machine_id, time)

        monkeypatch.setattr(Simulator, "_settle", counting_settle)
        query = make_query("EQ5", small_dataset)
        result = _run(
            query, _order(query), machines=16, batching="adaptive", inter_arrival=1.0
        )
        assert result.events_processed > 1000
        assert len(settles) <= 0.2 * result.events_processed, (
            len(settles), result.events_processed,
        )


class TestWakeUpCells:
    def test_priority_during_wake_up(self, small_dataset, traced, monkeypatch):
        """Mapping changes land on reshufflers idling towards their next
        arrival: the run equals the per-tuple oracle, and every handled tick
        lands where the unmerged wire puts it."""
        query = make_query("FLUCT_SYM", small_dataset)
        order = _order(query)
        knobs = dict(machines=8, inter_arrival=0.15)
        oracle = _run(query, order, batching="per_tuple", **knobs)
        _reset(traced)
        merged = _run(query, order, batching="adaptive", **knobs)
        assert traced["priority"] > 0, "no priority message met a pending wake-up"
        merged_ticks = list(traced["ticks"])
        assert_run_equivalent(oracle, merged, timing=True, label="priority/oracle")
        _unmerged(monkeypatch)
        traced["ticks"].clear()
        unmerged = _run(query, order, batching="adaptive", **knobs)
        assert merged_ticks == traced["ticks"]
        assert merged.events_processed == unmerged.events_processed
        assert merged.batch_histogram == unmerged.batch_histogram

    @pytest.mark.parametrize("machine, share", [(0, 0.5), (3, 0.2), (4, 0.35)])
    def test_crash_during_wake_up(self, small_dataset, traced, monkeypatch, machine, share):
        """A machine crashes while idle, waiting for its next delivery, and
        restarts later: no wake-up fires during the outage, and the restart's
        own tick resumes the exact per-tuple schedule.  (Machine 0 hosts the
        controller.)  The crash must find the machine idle: a machine busy
        with a drained run has accepted more work than the per-tuple plane at
        that instant, so only idle crashes compare across planes."""
        query = make_query("EQ5", small_dataset)
        order = _order(query)
        knobs = dict(machines=8, inter_arrival=0.5, checkpoint_interval=50)
        # Each plane's fault-free twin gives the event count at which a
        # crash lands right after the same instant on that plane.
        _reset(traced)
        twin = _run(query, order, batching="adaptive", **knobs)
        instant = twin.execution_time * share
        faults = [crash_after_events(machine, _anchor_at(traced, instant))]
        _reset(traced)
        _run(query, order, batching="per_tuple", **knobs)
        oracle_faults = [crash_after_events(machine, _anchor_at(traced, instant))]
        oracle = _run(
            query, order, batching="per_tuple", fault_schedule=oracle_faults, **knobs
        )
        _reset(traced)
        merged = _run(query, order, batching="adaptive", fault_schedule=faults, **knobs)
        assert merged.faults_injected == 1
        assert traced["crashed_waking"] == 1, "the crash must land during a wake-up"
        merged_ticks = list(traced["ticks"])
        assert_run_equivalent(oracle, merged, timing=True, label="crash/oracle")
        _unmerged(monkeypatch)
        traced["ticks"].clear()
        unmerged = _run(query, order, batching="adaptive", fault_schedule=faults, **knobs)
        assert merged_ticks == traced["ticks"]
        assert merged.events_processed == unmerged.events_processed


class _Consumer(Task):
    """Charges ``cost`` for every message, control messages included."""

    def __init__(self, name, machine_id, cost, log):
        super().__init__(name, machine_id)
        self.cost = cost
        self.log = log

    def handle(self, message, ctx):
        ctx.charge(self.cost)
        self.log.append((message.kind.value, ctx.now))


class _Sender(Task):
    """Sends one DATA tuple to ``destination`` per kick."""

    def __init__(self, name, machine_id, destination):
        super().__init__(name, machine_id)
        self.destination = destination

    def handle(self, message, ctx):
        ctx.send(self.destination, StreamTuple(relation="R", record={}))


def _toy(simulator_class, traced, extra, cost):
    """One DATA send (delivered at 1.0) to an idle consumer charging ``cost``
    per message, plus messages ``(time, kind)`` scheduled straight onto the
    consumer (a priority kind executes on arrival, DATA joins the inbox)."""
    simulator = simulator_class(
        num_machines=2, cost_model=CostModel(network_latency=1.0, per_tuple_network_cost=0.0)
    )
    log = []
    simulator.register(_Consumer("consumer", 1, cost, log))
    simulator.register(_Sender("sender", 0, "consumer"))
    simulator.schedule(0.0, "sender", Message(kind=MessageKind.FLUSH, sender="test"))
    for time, kind in extra:
        simulator.schedule(time, "consumer", Message(kind=kind, sender="test"))
    traced["ticks"].clear()
    traced["moved"] = 0
    simulator.run()
    return log, list(traced["ticks"])


_CONTROL = MessageKind.MAPPING_CHANGE
_DATA = MessageKind.DATA


@pytest.mark.parametrize(
    "extra, cost, moved",
    [
        ([(0.5, _CONTROL)], 2.0, 1),   # busy past the delivery: wake-up moves to 2.5
        ([(0.5, _CONTROL)], 0.25, 0),  # done before the delivery: stays at 1.0
        ([(1.5, _CONTROL)], 2.0, 0),   # after the delivery: the tick was scheduled
        ([(0.5, _DATA)], 0.25, 0),     # an earlier delivery wakes the machine at 0.5
        # The single's tick leaves the machine waiting for 1.0 again, busy
        # until 2.5; the control message then pushes that wake-up to 4.5.
        ([(0.5, _DATA), (0.6, _CONTROL)], 2.0, 1),
    ],
)
def test_wake_up_tick_times_match_the_unmerged_wire(traced, extra, cost, moved):
    merged = _toy(Simulator, traced, extra, cost)
    assert traced["moved"] == moved
    unmerged = _toy(UnmergedWireSimulator, traced, extra, cost)
    assert merged == unmerged  # handler log and handled tick times
