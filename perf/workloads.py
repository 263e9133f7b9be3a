"""The four benchmark workloads: inputs, run knobs and why each one exists.

Every workload is a closed loop with one client: a fixed, seeded input is
pushed through ``repro.api.JoinSession`` and the next call is made only when
the previous one returned.  A builder receives the workload seed and a size
multiplier and returns a :class:`Prepared` instance — the program under test
only ever sees the generated inputs, never the seed's meaning.

Knob rule: a workload pins only knobs that change observable results
(``machines``, ``batching="adaptive"``, pacing, warm-up, faults, the
checkpoint interval).  Knobs the conformance suite pins bit-identical (probe
engine, delivery merging, executor) stay at ``RunConfig()`` defaults, so the
benchmark always measures what a user gets by default.  ``RunConfig.seed``
is one of those: it is the program's own randomness (which reshuffler a tuple
enters by, the per-machine streams), not an input.  Tied to the input seed it
made ``paced-fluct-j16`` flip between two migration timelines from seed to
seed, because the controller decides on the 1/J sample that stream picks.

This module imports :mod:`repro` lazily, inside the builders, and always
through module attributes (``data.generate_dataset`` rather than a
``from``-import at module level): the driver's parent process needs the
workload names without the library, and the tracer replaces those attributes
before a builder runs.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable

#: Common shrink factor applied to the sizes the issue was drawn up with
#: (scale 40 / 6,000 records per side / scale 14 / scale 25).  The benchmark
#: contract allows ~37 s per driver run, three fresh-interpreter repetitions
#: included, and the 2-core box drifts by up to 1.5x over minutes, so one
#: repetition has to stay near 5 s when the box is quiet.  On
#: ``sat-dense-j16`` the work is the output count, which grows with the
#: square of the input, so there the factor scales the outputs (records per
#: side scale by its root).
SIZE = 0.55


@dataclass
class Prepared:
    """One generated workload instance, ready to be driven.

    Attributes:
        query: the ``JoinQuery`` (schema + materialised records).
        left / right: the wrapped ``StreamTuple`` lists, record order.
        order: every tuple of ``left`` and ``right`` once, in arrival order.
        knobs: ``RunConfig`` field values this workload pins.
        join: ``(kind, left_attr, right_attr, width)`` — the predicate as
            plain data, for the independent reference join.
        push_chunk: tuples per ``push()`` call on a streaming workload,
            ``None`` for a materialised ``run()``.
        crashes: machine crashes the fault schedule must inject.
    """

    query: Any
    left: list
    right: list
    order: list
    knobs: dict
    join: tuple
    push_chunk: int | None = None
    crashes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, float], Prepared]


def make_config(knobs: dict):
    """``RunConfig`` from ``knobs``, tolerating knobs the library retired.

    Returns ``(config, dropped)``: knobs that are no longer ``RunConfig``
    fields are left out and listed, so a later change can retire one (say
    ``batching`` once adaptive is the only plane) without editing ``perf/``.
    """
    from repro.api import RunConfig

    accepted = {f.name for f in dataclasses.fields(RunConfig)}
    dropped = sorted(set(knobs) - accepted)
    kept = {name: value for name, value in knobs.items() if name in accepted}
    return RunConfig(**kept), dropped


def _tpch_query(name: str, scale: float, skew: str, seed: int):
    from repro import data

    return data.make_query(name, data.generate_dataset(scale=scale, skew=skew, seed=seed))


def _wrap(query, seed: int):
    """Salt and wrap both inputs; the same rng later fixes the arrival order."""
    from repro.engine import stream

    rng = random.Random(seed)
    left = stream.make_tuples(
        query.left_relation, query.left_records, rng, query.left_tuple_size
    )
    right = stream.make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return rng, left, right


def _sat_sparse_j64(seed: int, size: float) -> Prepared:
    from repro.engine import stream

    query = _tpch_query("EQ5", 40 * SIZE * size, "Z4", seed)
    rng, left, right = _wrap(query, seed)
    return Prepared(
        query=query,
        left=left,
        right=right,
        order=stream.interleave_streams(left, right, rng),
        knobs={"machines": 64, "batching": "adaptive", "inter_arrival": 0.0},
        join=("equi", "suppkey", "suppkey", None),
    )


def _sat_dense_j16(seed: int, size: float) -> Prepared:
    from repro import BandPredicate, JoinQuery
    from repro.engine import stream

    per_side = max(2, round(6000 * (SIZE * size) ** 0.5))
    keys = random.Random(f"{seed}/keys")
    records = [
        [{"k": keys.randrange(100), "id": index} for index in range(per_side)]
        for _side in range(2)
    ]
    query = JoinQuery(
        name="DENSE_BAND",
        left_relation="A",
        right_relation="B",
        left_records=records[0],
        right_records=records[1],
        predicate=BandPredicate("k", "k", width=4),
    )
    rng, left, right = _wrap(query, seed)
    return Prepared(
        query=query,
        left=left,
        right=right,
        order=stream.interleave_streams(left, right, rng),
        knobs={
            "machines": 16,
            "batching": "adaptive",
            "inter_arrival": 0.0,
            # Balanced inputs keep the square mapping optimal, but the
            # controller decides on a 1/J sample: a warm-up of a tenth of the
            # input still let one seed in five migrate on sampling noise,
            # half of it lets none.
            "warmup_tuples": per_side,
        },
        join=("band", "k", "k", 4),
    )


def _paced_fluct_j16(seed: int, size: float) -> Prepared:
    from repro.engine import stream

    query = _tpch_query("FLUCT_SYM", 14 * SIZE * size, "Z0", seed)
    _rng, left, right = _wrap(query, seed)
    warmup = (len(left) + len(right)) // 100
    return Prepared(
        query=query,
        left=left,
        right=right,
        order=stream.fluctuating_order(left, right, 4, warmup=warmup),
        knobs={
            "machines": 16,
            "batching": "adaptive",
            # Sustainable on a balanced mapping, overloaded only while a
            # swing waits for its migration; at 0.6 the backlog never clears
            # and the virtual metrics swing by 40 % from seed to seed.
            "inter_arrival": 1.0,
            "warmup_tuples": warmup,
        },
        join=("equi", "orderkey", "orderkey", None),
    )


def _stream_faulty_j16(seed: int, size: float) -> Prepared:
    from repro import api
    from repro.engine import stream

    machines = 16
    query = _tpch_query("EQ5", 25 * SIZE * size, "Z0", seed)
    rng, left, right = _wrap(query, seed)
    order = stream.interleave_streams(left, right, rng)
    total = len(order)
    # Seeded per-link wire faults over the first frames of every link: 1 %
    # dropped, 0.5 % duplicated, 0.5 % delayed by 2.0 virtual time units.
    faulty_frames = max(1, round(4000 * SIZE * size))
    wire = random.Random(f"{seed}/wire")
    network_faults = []
    for sender in range(machines):
        for receiver in range(machines):
            if sender == receiver:
                continue
            link = (sender, receiver)
            for nth in range(1, faulty_frames + 1):
                draw = wire.random()
                if draw < 0.01:
                    network_faults.append(api.drop(link, nth))
                elif draw < 0.015:
                    network_faults.append(api.duplicate(link, nth))
                elif draw < 0.02:
                    network_faults.append(api.delay(link, nth, by=2.0))
    return Prepared(
        query=query,
        left=left,
        right=right,
        order=order,
        knobs={
            "machines": machines,
            "batching": "adaptive",
            "inter_arrival": 0.75,
            "checkpoint_interval": max(1, round(2000 * SIZE * size)),
            # Event-anchored: a time-anchored crash() under streaming fires
            # during the first push (see README, sizing traps).
            "fault_schedule": (
                api.crash_after_events(8, max(1, total // 4)),
                api.crash_after_events(1, max(2, total // 2)),
            ),
            "network_faults": tuple(network_faults),
        },
        join=("equi", "suppkey", "suppkey", None),
        push_chunk=64,
        crashes=2,
    )


WORKLOADS = (
    Workload(
        "sat-sparse-j64",
        "saturated sparse equi-join at J=64: wall is event loop, routing fan-out "
        "and transfer bookkeeping over a deep backlog; probes do almost nothing",
        _sat_sparse_j64,
    ),
    Workload(
        "sat-dense-j16",
        "saturated dense band join at J=16: probe, match emission and output "
        "accounting do the work, the event loop almost none",
        _sat_dense_j16,
    ),
    Workload(
        "paced-fluct-j16",
        "paced fluctuating streams at J=16: shallow inboxes collapse drained runs "
        "toward per-tuple ticks and migrations move state beside probing it",
        _paced_fluct_j16,
    ),
    Workload(
        "stream-faulty-j16",
        "chunked push() ingest with checkpoints, two crashes and a lossy wire: the "
        "only workload where session ingest, journal, recovery and wire do work",
        _stream_faulty_j16,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
