"""Shared-nothing dataflow engine substrate.

The paper evaluates its operator inside Squall, a distributed online query
processing engine built on Storm, running on a 220-VM cluster.  This package
provides the equivalent substrate as a deterministic discrete-event
simulation: a cluster of machines with CPU cost models, memory budgets and
disk-spill penalties, a network with per-message costs and traffic counters,
and an actor-style task abstraction (sources, reshufflers, joiners, sinks)
exchanging messages in virtual time.

The simulation is deterministic given a seed, which makes every experiment in
``benchmarks/`` exactly reproducible.
"""

from repro.engine.batching import AdaptiveBatchController
from repro.engine.machine import CostModel, Machine
from repro.engine.metrics import MetricsCollector
from repro.engine.network import Network, TrafficCategory
from repro.engine.simulator import Channel, Simulator
from repro.engine.stream import ArrivalSchedule, StreamTuple, interleave_streams
from repro.engine.task import Context, Message, MessageKind, Task

__all__ = [
    "AdaptiveBatchController",
    "ArrivalSchedule",
    "Channel",
    "Context",
    "CostModel",
    "Machine",
    "Message",
    "MessageKind",
    "MetricsCollector",
    "Network",
    "Simulator",
    "StreamTuple",
    "Task",
    "TrafficCategory",
    "interleave_streams",
]
