"""The inbox's one append rule and the release of closed channel runs.

Settled members of one task that follow each other in ``(time, rank)``
order share one inbox entry (a batch segment), so a backlogged member costs
one list slot; a channel drops its run arrays once the run closes.  Both are
pure bookkeeping: the handled member sequence must stay exactly the unmerged
reference wire's.
"""

import random
from collections import deque

import pytest

from repro.api import JoinSession, RunConfig
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import make_query
from repro.data.tpch import generate_dataset
from repro.engine.faults import crash_after_events, drop
from repro.engine.machine import CostModel
from repro.engine.simulator import SettledSegment, Simulator, _enqueue
from repro.engine.stream import interleave_streams, make_tuples
from repro.engine.task import Context, Message, MessageKind, Task
from repro.testing import UnmergedWireSimulator


class _Sink(Task):
    """Logs ``(task name, start time, payload)`` into a log shared by tasks."""

    def __init__(self, name, machine_id, log, cost=1.0):
        super().__init__(name, machine_id)
        self.log = log
        self.cost = cost

    def handle(self, message: Message, ctx: Context) -> None:
        self.log.append((self.name, ctx.now, message.payload))
        ctx.charge(self.cost)


class _Relay(Task):
    """Sends every payload on to ``destination``."""

    def __init__(self, name, destination, machine_id):
        super().__init__(name, machine_id)
        self.destination = destination

    def handle(self, message: Message, ctx: Context) -> None:
        ctx.send(self.destination, _message(message.payload))


def _message(payload):
    return Message(kind=MessageKind.DATA, sender="test", payload=payload, size=1.0)


def _interleaved(simulator_class, observe=None):
    """Two sinks on machine 3, fed over three interleaved channels: ``a``
    from machines 0 and 1, ``b`` from machine 2.  Returns the simulator and
    the handled ``(task, time, payload)`` sequence; ``observe(simulator,
    inbox)`` runs after every settle pass."""
    sim = simulator_class(
        num_machines=4, cost_model=CostModel(network_latency=1.0, per_tuple_network_cost=0.0)
    )
    log = []
    sim.register(_Sink("a", 3, log))
    sim.register(_Sink("b", 3, log))
    relays = [("r0", "a", 0), ("r1", "a", 1), ("r2", "b", 2)]
    for name, destination, machine in relays:
        sim.register(_Relay(name, destination, machine))
    rng = random.Random(7)
    for index in range(120):
        name, destination, _ = relays[rng.randrange(3)]
        sim.schedule(rng.randrange(40) * 0.5, name, _message((destination, index)))
    if observe is not None:
        settle = sim._settle

        def observed(machine_id, time):
            settle(machine_id, time)
            observe(sim, sim._inboxes[machine_id])

        sim._settle = observed
    sim.run()
    return sim, log


def _members(entry):
    if entry.__class__ is tuple:
        return [entry[1]]
    return entry.messages[entry.index : entry.end]


class TestAppendRule:
    def test_handled_sequence_equals_the_unmerged_wire(self):
        batches = []

        def observe(sim, inbox):
            batches.extend(
                entry.end - entry.index
                for entry in inbox
                if entry.__class__ is SettledSegment
            )

        _, merged = _interleaved(Simulator, observe)
        _, reference = _interleaved(UnmergedWireSimulator)
        assert merged == reference
        assert len(merged) == 120
        assert max(batches) > 2  # some members did share an entry

    def test_members_of_different_tasks_never_share_an_entry(self):
        def observe(sim, inbox):
            for entry in inbox:
                task = entry[0] if entry.__class__ is tuple else entry.task
                assert {message.payload[0] for message in _members(entry)} == {task.name}

        _interleaved(Simulator, observe)

    def test_the_head_entry_never_grows(self):
        seen = {}

        def observe(sim, inbox):
            head = inbox[0] if inbox else None
            before = seen.get("head")
            if before is not None and head is before[0]:
                assert len(_members(head)) <= before[1]
            seen["head"] = (head, len(_members(head))) if head is not None else None

        _interleaved(Simulator, observe)

    def test_enqueue_joins_the_tail_but_not_the_head(self):
        a, b = Task("a", 0), Task("b", 0)
        inbox = deque()
        _enqueue(inbox, a, ("m0",), 0, 1)
        _enqueue(inbox, a, ("m1",), 0, 1)  # the head stays a single
        assert list(inbox) == [(a, "m0"), (a, "m1")]
        _enqueue(inbox, a, ("m2",), 0, 1)  # the tail becomes a batch
        _enqueue(inbox, a, ["x", "m3", "m4", "y"], 1, 3)  # a cut extends it
        assert inbox[0] == (a, "m0")
        assert _members(inbox[1]) == ["m1", "m2", "m3", "m4"]
        _enqueue(inbox, b, ("n0",), 0, 1)
        _enqueue(inbox, a, ("m5",), 0, 1)
        assert [_members(entry) for entry in inbox] == [
            ["m0"], ["m1", "m2", "m3", "m4"], ["n0"], ["m5"]
        ]

    def test_a_view_of_an_open_run_is_never_extended(self):
        """A multi-member cut of a run still open shares the channel's list:
        appending to it would corrupt the run, so later members of the same
        task queue behind it instead."""
        a = Task("a", 0)
        run = ["m0", "m1", "m2", "m3"]
        inbox = deque([(Task("b", 0), "n0")])
        _enqueue(inbox, a, run, 0, 2)
        _enqueue(inbox, a, ("z",), 0, 1)
        assert run == ["m0", "m1", "m2", "m3"]
        assert [_members(entry) for entry in inbox] == [["n0"], ["m0", "m1"], ["z"]]

    def test_a_saturated_backlog_costs_few_entries(self):
        """Saturated EQ5 at J=16: at the largest backlog any settle pass
        leaves, the inbox holds at most one entry per 20 members."""
        largest = {"members": 0, "entries": 0}
        settle = Simulator._settle

        def observed(self, machine_id, time):
            settle(self, machine_id, time)
            members = self._inbox_members[machine_id]
            if members > largest["members"]:
                largest.update(members=members, entries=len(self._inboxes[machine_id]))

        query = make_query("EQ5", generate_dataset(scale=0.4, skew="Z0", seed=1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Simulator, "_settle", observed)
            JoinSession(query, config=RunConfig(machines=16, seed=1)).run()
        assert largest["members"] >= 200
        assert largest["entries"] * 20 <= largest["members"]


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"inter_arrival": 2.0},
        {"fault_schedule": (crash_after_events(3, 150),)},
        {"network_faults": (drop((0, 1), 2),)},
    ],
    ids=["saturated", "paced", "crash", "lossy-wire"],
)
def test_no_closed_channel_keeps_its_run_arrays(monkeypatch, eq5_query, overrides):
    """Every run a simulation opens is exhausted by its end, and a closed
    channel holds no run arrays."""
    seen = {}
    real_run = Simulator.run

    def run(self, *args, **kwargs):
        finish = real_run(self, *args, **kwargs)
        seen["simulator"] = self
        return finish

    monkeypatch.setattr(Simulator, "run", run)
    rng = random.Random(3)
    order = interleave_streams(
        make_tuples(eq5_query.left_relation, eq5_query.left_records, rng),
        make_tuples(eq5_query.right_relation, eq5_query.right_records, rng),
        rng,
    )
    config = RunConfig(machines=8, seed=3, **overrides)
    AdaptiveJoinOperator(eq5_query, config=config).run(arrival_order=order)
    simulator = seen["simulator"]
    channels = [channel for sender in simulator._channels for channel in sender.values()]
    assert len(channels) > 8
    assert sum(simulator.metrics.wire_histogram.values()) > 0
    for channel in channels:
        assert (channel.times, channel.ranks, channel.messages) == (None, None, None)
