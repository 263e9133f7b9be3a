"""A run makes no reference cycles, so its loop runs with the collector paused.

``Simulator.run`` disables Python's cyclic garbage collector for its event
loop and restores the caller's state on every exit.  That is free only
because a run's garbage is acyclic: reference counting frees everything a
run drops the moment it drops it, the epoch protocol's retired sub-stores
included, so a collection inside the loop could only walk the live heap and
reclaim nothing.

:class:`TestARunMakesNoCycles` pins the first half.  The collector stays off
from before a run to a ``gc.DEBUG_SAVEALL`` census after it, with the run's
simulator still referenced, so every object the census finds is cyclic
garbage the run made.  A closure over ``self`` stored on something ``self``
owns (a joiner's index holding a key function that reads
``self.predicate``, say) fails it.  :class:`TestCollectorStateIsRestored`
pins the second: the loop runs paused, and the caller's state — enabled or
disabled — survives a drained queue, every ``push()`` and ``finish()``, the
``max_events`` guard and a handler that raises.  Set-up shares the pause
(``repro.engine.collector.paused_collector``): ``make_query`` builds its
rows and ``make_tuples`` its tuples with the collector off, and both give
the caller's state back, also when they raise.
"""

from __future__ import annotations

import contextlib
import gc
import random
import weakref
from collections import Counter

import pytest

import repro.core.operator
from repro.api import (
    JoinSession,
    RunConfig,
    crash_after_events,
    delay,
    drop,
    duplicate,
)
from repro.core.epochs import EpochJoinerState
from repro.data import generate_dataset
from repro.data.queries import JoinQuery, make_query
from repro.engine.simulator import Simulator
from repro.engine.stream import fluctuating_order, interleave_streams, make_tuples
from repro.engine.task import Message, MessageKind, Task
from repro.joins.predicates import ThetaPredicate

MACHINES = 8
SEED = 5


@contextlib.contextmanager
def _collector(enabled: bool):
    """Run the block with the collector ``enabled`` or not, then put the
    caller's state back."""
    before = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if before:
            gc.enable()
        else:
            gc.disable()


@pytest.fixture()
def kept_simulators(monkeypatch):
    """Every simulator an operator builds, kept referenced after its run."""
    kept = []

    class KeptSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kept.append(self)

    monkeypatch.setattr(repro.core.operator, "Simulator", KeptSimulator)
    return kept


def _cyclic_garbage(run):
    """``run()``'s result and a census of the cyclic garbage it left.

    The collector is off from a clean collection before the run to the
    ``DEBUG_SAVEALL`` census after it, so nothing the run made is freed
    behind the census' back.
    """
    gc.collect()
    with _collector(False):
        result = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    return result, garbage


def _tuples(query, seed=SEED):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return rng, left, right


def _interleaved(query):
    rng, left, right = _tuples(query)
    return interleave_streams(left, right, rng)


def _fluctuating_eq5(dataset):
    """EQ5 in paced cardinality swings: three migrations at J=8."""
    query = make_query("EQ5", dataset)
    _rng, left, right = _tuples(query)
    warmup = (len(left) + len(right)) // 100
    order = fluctuating_order(left, right, fluctuation_factor=3.0, warmup=warmup)
    config = dict(inter_arrival=1.0, warmup_tuples=warmup)
    return query, order, config


def _theta_query():
    """A theta scan with imbalanced inputs, so the operator migrates."""
    rng = random.Random(17)
    left = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(40)]
    right = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(360)]
    return JoinQuery(
        name="THETA",
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=ThetaPredicate(
            lambda l, r: l["k"] == r["k"] and (l["v"] + r["v"]) % 2 == 0,
            name="k = k AND v parity",
        ),
    )


def _faulty_stream():
    """A chunked ``push()`` EQ5 run at J=16: two event-anchored crashes, a
    drop, a delay and a duplicate on every link, and a checkpoint interval."""
    machines = 16
    query = make_query("EQ5", generate_dataset(scale=0.4, skew="Z0", seed=42))
    order = _interleaved(query)
    faults = []
    for sender in range(machines):
        for receiver in range(machines):
            if sender != receiver:
                link = (sender, receiver)
                faults += [drop(link, 2), delay(link, 3, by=30.0), duplicate(link, 5)]
    config = RunConfig(
        machines=machines,
        seed=SEED,
        warmup_tuples=16,
        inter_arrival=0.75,
        checkpoint_interval=40,
        fault_schedule=(
            crash_after_events(8, len(order) // 4),
            crash_after_events(1, len(order) // 2),
        ),
        network_faults=tuple(faults),
    )
    session = JoinSession(query, config=config)

    def run():
        session.open_stream()
        for start in range(0, len(order), 64):
            session.push(order[start:start + 64])
        return session.finish()

    return run


class TestARunMakesNoCycles:
    @pytest.mark.parametrize("batching", ["per_tuple", "adaptive"])
    def test_migrating_equi_join(self, small_dataset, kept_simulators, batching):
        query, order, knobs = _fluctuating_eq5(small_dataset)
        config = RunConfig(machines=MACHINES, seed=SEED, batching=batching, **knobs)
        result, garbage = _cyclic_garbage(
            lambda: JoinSession(query, config=config).run(arrival_order=order)
        )
        assert result.migrations >= 2
        assert kept_simulators
        assert not garbage, garbage.most_common(5)

    @pytest.mark.parametrize("predicate", ["band", "theta"])
    def test_migrating_band_and_theta_joins(self, small_dataset, kept_simulators, predicate):
        query = make_query("BNCI", small_dataset) if predicate == "band" else _theta_query()
        order = _interleaved(query)
        config = RunConfig(machines=MACHINES, seed=SEED, warmup_tuples=16)
        result, garbage = _cyclic_garbage(
            lambda: JoinSession(query, config=config).run(arrival_order=order)
        )
        assert result.migrations >= 1
        assert kept_simulators
        assert not garbage, garbage.most_common(5)

    def test_faulty_chunked_stream(self, kept_simulators):
        result, garbage = _cyclic_garbage(_faulty_stream())
        assert result.faults_injected == 2 and result.migrations >= 1
        assert result.wire_counters["dropped"] and result.wire_counters["duplicated"]
        assert kept_simulators
        assert not garbage, garbage.most_common(5)

    def test_a_retired_sub_store_dies_when_its_epoch_finalises(
        self, small_dataset, monkeypatch
    ):
        """Reference counting alone frees the sub-stores a finalised epoch
        drops: Δ', µ and Drop(τ ∪ Δ), every tag partition but the one that
        becomes the new τ store.  No collection runs in between."""
        finalize = EpochJoinerState.finalize
        survivors = []

        def finalize_and_watch(state):
            retired = [weakref.ref(store) for store in state._parts.values()]
            outcome = finalize(state)
            survivors.append([ref() for ref in retired if ref() is not None])
            return outcome

        monkeypatch.setattr(EpochJoinerState, "finalize", finalize_and_watch)
        query, order, knobs = _fluctuating_eq5(small_dataset)
        config = RunConfig(machines=MACHINES, seed=SEED, **knobs)
        with _collector(False):
            result = JoinSession(query, config=config).run(arrival_order=order)
        assert result.migrations >= 2
        assert len(survivors) >= 2 * MACHINES
        for alive in survivors:
            assert len(alive) == 1, "a retired sub-store outlived its epoch"


class _Recorder(Task):
    """Records whether the collector was on while it handled a message;
    raises instead if ``fail`` is set."""

    def __init__(self, name, machine_id, seen, fail=False):
        super().__init__(name, machine_id)
        self.seen = seen
        self.fail = fail

    def handle(self, message, ctx):
        self.seen.append(gc.isenabled())
        if self.fail:
            raise ValueError("handler failed")


def _toy_simulator(fail=False):
    seen = []
    simulator = Simulator(num_machines=1)
    simulator.register(_Recorder("recorder", 0, seen, fail=fail))
    simulator.schedule(0.0, "recorder", Message(kind=MessageKind.FLUSH, sender="test"))
    return simulator, seen


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
class TestCollectorStateIsRestored:
    def test_the_loop_runs_paused(self, enabled):
        simulator, seen = _toy_simulator()
        with _collector(enabled):
            simulator.run()
            assert gc.isenabled() is enabled
        assert seen == [False]

    def test_materialised_run(self, eq5_query, enabled):
        order = _interleaved(eq5_query)
        session = JoinSession(eq5_query, config=RunConfig(machines=MACHINES, seed=SEED))
        with _collector(enabled):
            session.run(arrival_order=order)
            assert gc.isenabled() is enabled

    def test_every_push_and_finish(self, eq5_query, enabled):
        order = _interleaved(eq5_query)
        session = JoinSession(eq5_query, config=RunConfig(machines=MACHINES, seed=SEED))
        with _collector(enabled):
            session.open_stream()
            for start in range(0, len(order), 100):
                session.push(order[start:start + 100])
                assert gc.isenabled() is enabled
            session.finish()
            assert gc.isenabled() is enabled

    def test_max_events_guard(self, eq5_query, enabled):
        order = _interleaved(eq5_query)
        session = JoinSession(eq5_query, config=RunConfig(machines=MACHINES, seed=SEED))
        with _collector(enabled):
            with pytest.raises(RuntimeError, match="exceeded 10 events"):
                session.run(arrival_order=order, max_events=10)
            assert gc.isenabled() is enabled

    def test_raising_handler(self, enabled):
        simulator, seen = _toy_simulator(fail=True)
        with _collector(enabled):
            with pytest.raises(ValueError, match="handler failed"):
                simulator.run()
            assert gc.isenabled() is enabled
        assert seen == [False]

    def test_make_query_builds_paused(self, small_dataset, enabled):
        seen = []

        class Watched:
            """The dataset, noting the collector's state at every read."""

            def rows(self, name, columns):
                seen.append(gc.isenabled())
                return small_dataset.rows(name, columns)

            def table(self, name, columns=None, *, pool=None):
                seen.append(gc.isenabled())
                return small_dataset.table(name, columns, pool=pool)

        with _collector(enabled):
            query = make_query("EQ5", Watched())
            assert gc.isenabled() is enabled
        assert seen and not any(seen)
        assert query.left_records == make_query("EQ5", small_dataset).left_records

    def test_make_query_that_raises(self, enabled):
        class Broken:
            def rows(self, name, columns):
                raise LookupError(name)

        with _collector(enabled):
            with pytest.raises(LookupError, match="NATION"):
                make_query("EQ5", Broken())
            assert gc.isenabled() is enabled

    def test_make_tuples_wraps_paused(self, enabled):
        seen = []

        def records():
            for key in range(3):
                seen.append(gc.isenabled())
                yield {"k": key}

        with _collector(enabled):
            tuples = make_tuples("R", records(), random.Random(1))
            assert gc.isenabled() is enabled
        assert seen == [False] * 3 and [t.record["k"] for t in tuples] == [0, 1, 2]

    def test_make_tuples_that_raises(self, enabled):
        def records():
            yield {"k": 0}
            raise LookupError("no more records")

        with _collector(enabled):
            with pytest.raises(LookupError, match="no more records"):
                make_tuples("R", records(), random.Random(1))
            assert gc.isenabled() is enabled
