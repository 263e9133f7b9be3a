"""Fault injection, durable checkpointing, and migration-driven recovery.

Pins the fault-tolerant join plane's contract:

* **Fault-free bit-identity** — turning checkpointing on (``checkpoint_interval``
  set, no faults) must not perturb the simulation at all: the run is
  bit-identical to the reference down to heap events, on both data planes.
* **Crash twins** — a run with a crash in its fault schedule must recover to
  the *same join output multiset* as its fault-free twin over the same
  arrival order, across predicate kinds (equi / band / theta) and data
  planes (per-tuple / adaptive), with ``recovery_time > 0`` and the crash
  counted in ``faults_injected``.
* **Deterministic replay** — running the same crash schedule twice is
  bit-identical (``events=True``), so recovery itself is deterministic.
* **Error paths** — overlapping faults and invalid :class:`FaultSpec`
  construction fail with actionable messages.
* **Restart timing** — every outage ends :data:`ACK_TIMEOUT` after its own
  crash, however many outages the machine had before, so a crash schedule
  always runs to completion.

Twin runs share ONE materialised arrival order (``StreamTuple`` ids come from
a global counter, so independently materialised streams get different ids).
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    OverlappingFaultError,
    RunConfig,
    crash_after_events,
)
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.engine.faults import ACK_TIMEOUT, FaultSpec, normalize_fault_schedule
from repro.engine.simulator import Simulator
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.predicates import ThetaPredicate
from repro.storage import CheckpointStore
from repro.testing import assert_run_equivalent

MACHINES = 8
SEED = 5


def _theta_query(rng: random.Random) -> JoinQuery:
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
        description="equality plus parity as a theta scan (recovery scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "theta": _theta_query(random.Random(17)),
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
        assert crash_after_events(1, 400) == FaultSpec(machine=1, after_events=400)

    @pytest.mark.parametrize(
        ("kwargs", "pattern"),
        [
            ({"machine": -1, "after_events": 1}, "machine"),
            ({"machine": True, "after_events": 1}, "machine"),
            ({"machine": 0, "after_events": 0}, "after_events"),
            ({"machine": "3", "after_events": 1}, "machine"),
            ({"machine": 0, "after_events": 2.5}, "after_events"),
            ({"machine": 0, "after_events": True}, "after_events"),
            ({"machine": 0, "after_events": -3}, "after_events"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            FaultSpec(**kwargs)

    def test_normalize_accepts_specs_and_rejects_dicts(self):
        schedule = normalize_fault_schedule([crash_after_events(1, 50), crash_after_events(2, 100)])
        assert schedule == (crash_after_events(1, 50), crash_after_events(2, 100))
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
    @pytest.mark.parametrize("kind", ["equi", "band", "theta"])
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

    def test_controller_machine_crash(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(0, twin.events_processed * 2 // 5)],
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
                    crash_after_events(3, 500),
                    crash_after_events(3, 501),
                ],
            )

    def test_overlapping_fault_error_names_machine_and_time(self, queries):
        query = queries["equi"]
        with pytest.raises(OverlappingFaultError) as caught:
            _run(
                query,
                _arrival_order(query),
                batching="per_tuple",
                checkpoint_interval=50,
                fault_schedule=[
                    crash_after_events(3, 500),
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


# ---------------------------------------------------------------------------
# Restart timing: every outage ends ACK_TIMEOUT after its own crash
# ---------------------------------------------------------------------------

@pytest.fixture()
def outages(monkeypatch):
    """Record every crash and restart the simulator runs, in order, as
    ``(action, machine, virtual time, events processed)``."""
    log = []
    crash_machine, restart_machine = Simulator._crash_machine, Simulator._restart_machine

    def recorded_crash(self, machine_id, time):
        log.append(("crash", machine_id, time, self.events_processed))
        return crash_machine(self, machine_id, time)

    def recorded_restart(self, machine_id, time):
        restart_machine(self, machine_id, time)
        log.append(("restart", machine_id, time, self.events_processed))

    monkeypatch.setattr(Simulator, "_crash_machine", recorded_crash)
    monkeypatch.setattr(Simulator, "_restart_machine", recorded_restart)
    return log


def _timeline(outages):
    """``outages`` without the event counts: ``(action, machine, time)``."""
    return [(action, machine, time) for action, machine, time, _ in outages]


def _crash_run(queries, plane, schedule):
    """Run ``schedule`` on the equi query; returns ``(twin, crashed)``."""
    order, twin = _twin(queries, "equi", plane)
    overrides, _ = _plane_overrides(plane)
    crashed = _run(
        queries["equi"],
        order,
        checkpoint_interval=50,
        fault_schedule=schedule,
        **overrides,
    )
    return twin, crashed


def _chained_schedule(queries, plane, outages, count, gap, first=None):
    """``count`` crashes of machine 3, the first at event ``first`` (default:
    the plane's anchor) and each later one ``gap`` events after the restart
    before it — found by rerunning the schedule so far and reading that
    restart's event count."""
    if first is None:
        _, first = _plane_overrides(plane)
    schedule = [crash_after_events(3, first)]
    while len(schedule) < count:
        outages.clear()
        _crash_run(queries, plane, schedule)
        restarted_at = outages[-1][3]
        schedule.append(crash_after_events(3, restarted_at + gap))
    outages.clear()
    return schedule


class TestRestartTiming:
    # The crashes land in a run that lasts ~156 vt fault-free, so traffic
    # for machine 3 is waiting at every restart.

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_event_anchored_crash_restarts_after_ack_timeout(
        self, queries, outages, plane
    ):
        _, events = _plane_overrides(plane)
        twin, crashed = _crash_run(queries, plane, [crash_after_events(3, events)])
        (_, machine, crashed_at), restart = _timeline(outages)
        assert machine == 3
        assert restart == ("restart", 3, crashed_at + ACK_TIMEOUT)
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_second_outage_restarts_on_its_own_clock(self, queries, outages, plane):
        """A first outage leaves nothing behind: the second one lasts
        ACK_TIMEOUT from its own crash."""
        schedule = _chained_schedule(queries, plane, outages, count=2, gap=20)
        twin, crashed = _crash_run(queries, plane, schedule)
        (_, _, first), _, (_, _, second), _ = _timeline(outages)
        assert second > first + ACK_TIMEOUT
        assert _timeline(outages) == [
            ("crash", 3, first),
            ("restart", 3, first + ACK_TIMEOUT),
            ("crash", 3, second),
            ("restart", 3, second + ACK_TIMEOUT),
        ]
        assert crashed.faults_injected == 2
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_crash_just_after_the_restart_recovers(self, queries, outages, plane):
        """The second crash fires on the first event after the restart."""
        schedule = _chained_schedule(queries, plane, outages, count=2, gap=1)
        twin, crashed = _crash_run(queries, plane, schedule)
        crash_events = [entry[3] for entry in outages if entry[0] == "crash"]
        restart_events = [entry[3] for entry in outages if entry[0] == "restart"]
        assert crash_events[1] == restart_events[0] + 1
        assert crashed.faults_injected == 2
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_back_to_back_outages_run_to_completion(self, queries, outages, plane):
        """Machine 3 crashes at event 10 and again right after each restart,
        down for the first 50 vt: the traffic that waits for it is
        never given up on, and the output is the twin's."""
        schedule = _chained_schedule(queries, plane, outages, count=10, gap=1, first=10)
        twin, crashed = _crash_run(queries, plane, schedule)
        assert crashed.faults_injected == len(schedule)
        crashes = [time for action, _, time, _ in outages if action == "crash"]
        restarts = [time for action, _, time, _ in outages if action == "restart"]
        assert restarts == [time + ACK_TIMEOUT for time in crashes]
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
        kind=st.sampled_from(["equi", "band", "theta"]),
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
