"""Fault injection, durable checkpointing, and migration-driven recovery.

Pins the fault-tolerant join plane's contract:

* **Fault-free bit-identity** — turning checkpointing on (``checkpoint_interval``
  set, no faults) must not perturb the simulation at all: the run is
  bit-identical to the reference down to heap events, on both data planes.
* **Crash twins** — a run with a crash in its fault schedule must recover to
  the *same join output multiset* as its fault-free twin over the same
  arrival order, across predicate kinds (equi / band / composite) and data
  planes (per-tuple / adaptive), with ``recovery_time > 0`` and the crash
  counted in ``faults_injected``.
* **Deterministic replay** — running the same crash schedule twice is
  bit-identical (``events=True``), so recovery itself is deterministic.
* **Error paths** — overlapping faults, unreachable machines after retry
  exhaustion, and invalid :class:`FaultSpec` construction all fail eagerly
  with actionable messages.
* **Give-up check** — an outage gives up on the traffic waiting for its
  machine at the first retry past the budget, +315 vt after its own crash,
  whatever outages the machine had before.

Twin runs share ONE materialised arrival order (``StreamTuple`` ids come from
a global counter, so independently materialised streams get different ids).
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.operator as operator_module
from repro.api import (
    MachineUnreachableError,
    OverlappingFaultError,
    RunConfig,
    crash,
    crash_after_events,
)
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.engine.faults import OUTAGE_RETRIES, FaultSpec, normalize_fault_schedule
from repro.engine.simulator import Simulator
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.predicates import CompositePredicate, EquiPredicate
from repro.storage import CheckpointStore
from repro.testing import assert_run_equivalent

MACHINES = 8
SEED = 5


def _composite_query(rng: random.Random) -> JoinQuery:
    left = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(40)]
    right = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(360)]
    return JoinQuery(
        name="COMPOSITE",
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=CompositePredicate(
            EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
        ),
        description="equi join with a parity residual (recovery scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "composite": _composite_query(random.Random(17)),
    }


def _arrival_order(query, seed=SEED):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


def _config(**overrides):
    return RunConfig(machines=MACHINES, seed=SEED, warmup_tuples=16, **overrides)


def _run(query, order, operator_class=AdaptiveJoinOperator, **overrides):
    operator = operator_class(query, config=_config(**overrides))
    return operator.run(arrival_order=order, collect_outputs=True)


# Per-plane overrides with a smoke-verified crash anchor: the per-tuple plane
# processes ~1380 events on the small EQ5 workload, the adaptive plane ~253,
# so each plane gets an anchor that reliably lands mid-run.
PLANES = {
    "per_tuple": {"batching": "per_tuple", "_crash_events": 500},
    "adaptive": {"batching": "adaptive", "_crash_events": 200},
}


def _plane_overrides(plane):
    overrides = dict(PLANES[plane])
    events = overrides.pop("_crash_events")
    return overrides, events


# ---------------------------------------------------------------------------
# CheckpointStore (durable log) unit tests
# ---------------------------------------------------------------------------

class TestCheckpointStore:
    def test_log_and_load_deltas(self):
        store = CheckpointStore(flush_every=2)
        assert store.log("j0", ("data", 1)) == 1
        assert store.log("j0", ("data", 2)) == 2
        snapshot, deltas = store.load("j0")
        assert snapshot is None
        assert deltas == [("data", 1), ("data", 2)]
        store.close()

    def test_snapshot_truncates_delta_log(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.log("j0", ("data", 2))
        store.snapshot("j0", {"epoch": 3})
        assert store.delta_count("j0") == 0
        store.log("j0", ("data", 3))
        snapshot, deltas = store.load("j0")
        assert snapshot == {"epoch": 3}
        assert deltas == [("data", 3)]
        assert store.snapshots_taken == 1
        store.close()

    def test_tasks_are_isolated(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.log("j1", ("mu", 9))
        snapshot, deltas = store.load("j1")
        assert snapshot is None
        assert deltas == [("mu", 9)]
        store.close()

    def test_bytes_written_accumulates(self):
        store = CheckpointStore()
        store.log("j0", ("data", "x" * 64))
        store.flush()
        written = store.bytes_written
        assert written > 0
        store.snapshot("j0", {"big": "y" * 256})
        assert store.bytes_written > written
        store.close()

    def test_close_unlinks_owned_temp_file(self):
        store = CheckpointStore()
        path = store.path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)
        store.close()  # idempotent


# ---------------------------------------------------------------------------
# FaultSpec validation
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_helpers_build_specs(self):
        assert crash(3, 12.5, restart_after=2.0) == FaultSpec(
            machine=3, at_time=12.5, restart_after=2.0
        )
        assert crash_after_events(1, 400) == FaultSpec(machine=1, after_events=400)

    @pytest.mark.parametrize(
        ("kwargs", "pattern"),
        [
            ({"machine": -1, "at_time": 1.0}, "machine"),
            ({"machine": True, "at_time": 1.0}, "machine"),
            ({"machine": 0}, "exactly one"),
            ({"machine": 0, "at_time": 1.0, "after_events": 5}, "exactly one"),
            ({"machine": 0, "at_time": -0.5}, "at_time"),
            ({"machine": 0, "after_events": 0}, "after_events"),
            ({"machine": 0, "at_time": 1.0, "restart_after": 0.0}, "restart_after"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            FaultSpec(**kwargs)

    def test_normalize_accepts_specs_and_rejects_dicts(self):
        schedule = normalize_fault_schedule([crash(1, 5.0), crash_after_events(2, 100)])
        assert schedule == (crash(1, 5.0), crash_after_events(2, 100))
        with pytest.raises(ValueError, match="FaultSpec"):
            normalize_fault_schedule([{"machine": 2, "after_events": 100}])


# ---------------------------------------------------------------------------
# Fault-free checkpointing is invisible (acceptance pin)
# ---------------------------------------------------------------------------

class TestCheckpointingBitIdentity:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_fault_free_checkpointed_run_is_bit_identical(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        overrides, _ = _plane_overrides(plane)
        reference = _run(query, order, **overrides)
        checkpointed = _run(query, order, checkpoint_interval=50, **overrides)
        assert_run_equivalent(
            reference, checkpointed, events=True, label=f"checkpointing:{plane}"
        )
        assert checkpointed.events_processed == reference.events_processed
        assert checkpointed.faults_injected == 0
        assert checkpointed.recovery_time == 0.0
        assert checkpointed.checkpoint_overhead > 0.0


# ---------------------------------------------------------------------------
# Crash + recovery conformance matrix
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("kind", ["equi", "band", "composite"])
    def test_crashed_run_recovers_to_fault_free_output(self, queries, kind, plane):
        query = queries[kind]
        order = _arrival_order(query)
        overrides, _ = _plane_overrides(plane)
        twin = _run(query, order, checkpoint_interval=50, **overrides)
        # Anchor at the twin's mid-run point so the crash fires on every
        # query x plane cell regardless of its absolute event count.
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            fault_schedule=[crash_after_events(3, max(1, twin.events_processed // 2))],
            **overrides,
        )
        assert crashed.faults_injected == 1, f"{kind}/{plane}: crash never fired"
        assert crashed.recovery_time > 0.0
        assert sorted(crashed.outputs) == sorted(twin.outputs), f"{kind}/{plane}"
        assert crashed.output_count == twin.output_count

    def test_virtual_time_anchored_crash(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash(3, twin.execution_time * 0.4)],
        )
        assert crashed.faults_injected == 1
        assert crashed.recovery_time > 0.0
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_controller_machine_crash(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash(0, twin.execution_time * 0.4)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_static_operator_recovers(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(
            query, order, operator_class=StaticMidOperator,
            checkpoint_interval=50, batching="per_tuple",
        )
        crashed = _run(
            query,
            order,
            operator_class=StaticMidOperator,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_crash_without_checkpointing_still_recovers(self, queries):
        # No checkpoint_interval: recovery replays the full journal from the
        # implicit empty snapshot.
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, batching="per_tuple")
        crashed = _run(
            query,
            order,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_replay_is_deterministic(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        kwargs = dict(
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500)],
        )
        first = _run(query, order, **kwargs)
        second = _run(query, order, **kwargs)
        assert first.faults_injected == 1
        assert_run_equivalent(first, second, events=True, label="replay-twice")
        assert first.recovery_time == second.recovery_time
        assert first.tuples_replayed == second.tuples_replayed

    def test_explicit_restart_after(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500, restart_after=2.0)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_multiple_crashes_on_distinct_machines(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 400), crash_after_events(5, 800)],
        )
        assert crashed.faults_injected == 2
        assert sorted(crashed.outputs) == sorted(twin.outputs)


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------

class TestFaultErrorPaths:
    def test_overlapping_faults_rejected(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        with pytest.raises(RuntimeError, match="overlapping faults"):
            _run(
                query,
                order,
                batching="per_tuple",
                checkpoint_interval=50,
                fault_schedule=[
                    crash_after_events(3, 500, restart_after=1e9),
                    crash_after_events(3, 501),
                ],
            )

    def test_retry_exhaustion_raises_unreachable(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        with pytest.raises(RuntimeError, match="unreachable") as caught:
            _run(
                query,
                order,
                batching="per_tuple",
                checkpoint_interval=50,
                fault_schedule=[crash_after_events(3, 500, restart_after=1e9)],
            )
        assert caught.value.retries == OUTAGE_RETRIES


    def test_overlapping_fault_error_names_machine_and_time(self, queries):
        query = queries["equi"]
        with pytest.raises(OverlappingFaultError) as caught:
            _run(
                query,
                _arrival_order(query),
                batching="per_tuple",
                checkpoint_interval=50,
                fault_schedule=[
                    crash_after_events(3, 500, restart_after=1e9),
                    crash_after_events(3, 501),
                ],
            )
        error = caught.value
        assert isinstance(error, RuntimeError)
        assert error.machine == 3
        assert error.time > 0.0
        assert f"machine 3 crashed while already down at virtual time {error.time}" in str(
            error
        )

    def test_machine_unreachable_error_names_machine_and_retries(self, queries):
        query = queries["equi"]
        with pytest.raises(MachineUnreachableError) as caught:
            _run(
                query,
                _arrival_order(query),
                batching="per_tuple",
                checkpoint_interval=50,
                fault_schedule=[crash_after_events(3, 500, restart_after=1e9)],
            )
        error = caught.value
        assert isinstance(error, RuntimeError)
        assert (error.machine, error.retries) == (3, OUTAGE_RETRIES)
        assert str(error) == f"machine 3 unreachable after {OUTAGE_RETRIES} retries"


# ---------------------------------------------------------------------------
# Give-up check: one outage, one retry chain
# ---------------------------------------------------------------------------

#: Virtual time from a crash to the first link-layer retry that can give up:
#: the retries wait ACK_TIMEOUT (5), then twice the previous wait, and the
#: first OUTAGE_RETRIES (5) of them never give up, so 5 * (2**6 - 1).
GIVE_UP = 315.0


def _unreachable_at(monkeypatch, query, schedule, plane):
    """Run ``schedule`` to its :class:`MachineUnreachableError` for machine 3;
    returns the virtual time the error fired at."""
    simulators = []

    class Recorded(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            simulators.append(self)

    monkeypatch.setattr(operator_module, "Simulator", Recorded)
    overrides, _ = _plane_overrides(plane)
    with pytest.raises(MachineUnreachableError) as caught:
        _run(
            query,
            _arrival_order(query),
            checkpoint_interval=50,
            fault_schedule=schedule,
            **overrides,
        )
    assert (caught.value.machine, caught.value.retries) == (3, OUTAGE_RETRIES)
    return simulators[-1].now


class TestGiveUpCheck:
    # The crashes land at t=10, early in a run that lasts ~156 vt fault-free,
    # so traffic for machine 3 is waiting whenever the check fires.

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_second_outage_gives_up_on_its_own_clock(self, queries, monkeypatch, plane):
        """A short first outage leaves nothing behind: the second one gives
        up 315 vt after its own crash, not earlier on the first one's retries."""
        schedule = [crash(3, 10.0, restart_after=6.0), crash(3, 17.0, restart_after=1000.0)]
        assert _unreachable_at(monkeypatch, queries["equi"], schedule, plane) == 17.0 + GIVE_UP

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_outage_past_the_check_gives_up_at_it(self, queries, monkeypatch, plane):
        schedule = [crash(3, 10.0, restart_after=GIVE_UP + 1.0)]
        assert _unreachable_at(monkeypatch, queries["equi"], schedule, plane) == 10.0 + GIVE_UP

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_restart_at_the_check_recovers(self, queries, plane):
        """A restart at the check's own instant comes first: the run recovers
        to the fault-free output."""
        order, twin = _twin(queries, "equi", plane)
        overrides, _ = _plane_overrides(plane)
        crashed = _run(
            queries["equi"],
            order,
            checkpoint_interval=50,
            fault_schedule=[crash(3, 10.0, restart_after=GIVE_UP)],
            **overrides,
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)


# ---------------------------------------------------------------------------
# Property: a crash at an arbitrary point recovers to the twin's output
# ---------------------------------------------------------------------------

_TWIN_CACHE: dict[tuple, object] = {}


def _twin(queries, kind, plane):
    key = (kind, plane)
    if key not in _TWIN_CACHE:
        query = queries[kind]
        order = _arrival_order(query)
        overrides, _ = _plane_overrides(plane)
        _TWIN_CACHE[key] = (
            order,
            _run(query, order, checkpoint_interval=50, **overrides),
        )
    return _TWIN_CACHE[key]


class TestArbitraryCrashPointProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        machine=st.integers(min_value=0, max_value=MACHINES - 1),
        fraction=st.floats(min_value=0.05, max_value=1.2),
        kind=st.sampled_from(["equi", "band", "composite"]),
        plane=st.sampled_from(sorted(PLANES)),
    )
    def test_crash_anywhere_recovers(self, queries, machine, fraction, kind, plane):
        query = queries[kind]
        order, twin = _twin(queries, kind, plane)
        overrides, _ = _plane_overrides(plane)
        after_events = max(1, int(twin.events_processed * fraction))
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            fault_schedule=[crash_after_events(machine, after_events)],
            **overrides,
        )
        # Anchors past the end of the run are valid no-op cells.
        assert crashed.faults_injected in (0, 1)
        if crashed.faults_injected:
            assert crashed.recovery_time > 0.0
        assert sorted(crashed.outputs) == sorted(twin.outputs), f"{kind}/{plane}"
