"""The unreliable wire: deterministic network faults and reliable delivery.

Pins the unreliable-wire plane's contract:

* **Spec and config validation** — :class:`NetworkFaultSpec` shapes, the
  JSON round trip, machine-range checks, retry knobs, and the eager
  rejection of statically-provable overlapping crash windows.
* **Masking** — under any drop/duplicate/delay/partition schedule the run
  terminates and its join output multiset equals the fault-free twin's, on
  both data planes, including cells composed with machine crashes.
* **Clean-path bit-identity** — ``network_faults=()`` leaves every run
  bit-identical to a build without the wire plane (heap events included).
* **Determinism** — the same fault schedule under the same seed reproduces
  the run bit for bit, degradation counters included.
* **Counter reconciliation** — ``sent == delivered + dropped`` and
  ``applied == delivered - deduped``, with empty reorder buffers at the end.
* **Checkpoint integrity** — checksummed snapshot/delta rows: torn tails
  truncate, corrupt newest snapshots fall back to the previous intact one,
  and unmaskable corruption raises :class:`CheckpointCorruptionError`.

Twin runs share ONE materialised arrival order (``StreamTuple`` ids come
from a global counter), exactly like ``tests/test_fault_recovery.py``.
"""

from __future__ import annotations

import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    NetworkFaultSpec,
    RunConfig,
    UnreachableLinkError,
    crash,
    crash_after_events,
    delay,
    drop,
    duplicate,
    partition,
)
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import make_query
from repro.engine.faults import normalize_network_faults
from repro.engine.stream import ArrivalSchedule, interleave_streams, make_tuples
from repro.storage import CheckpointCorruptionError, CheckpointStore
from repro.testing import assert_run_equivalent

MACHINES = 8
SEED = 5


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
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


def _run(query, order, **overrides):
    operator = AdaptiveJoinOperator(query, config=_config(**overrides))
    return operator.run(arrival_order=order, collect_outputs=True)


PLANES = {
    "per_tuple": {"batch_size": 1},
    "adaptive": {"batching": "adaptive"},
}

#: A schedule exercising every per-send fault kind over several links.
MIXED_FAULTS = (
    drop((0, 1), 3),
    drop((2, 5), 1),
    drop((2, 5), 2),
    duplicate((1, 4), 2),
    duplicate((3, 0), 1),
    delay((3, 6), 4, by=2.5),
    delay((5, 2), 2, by=4.0),
)


def _assert_counters_reconcile(result, label=""):
    counters = result.wire_counters
    assert counters is not None, f"{label}: wire counters missing"
    assert counters["sent"] == counters["delivered"] + counters["dropped"], (
        f"{label}: {counters}"
    )
    assert counters["applied"] == counters["delivered"] - counters["deduped"], (
        f"{label}: {counters}"
    )


# ---------------------------------------------------------------------------
# NetworkFaultSpec validation
# ---------------------------------------------------------------------------

class TestNetworkFaultSpec:
    def test_helpers_round_trip(self):
        for spec in (
            drop((0, 1), 3),
            duplicate((2, 5), 1),
            delay((3, 6), 4, by=2.5),
            partition((0, 1), (4, 5), 5.0, 9.0),
        ):
            assert NetworkFaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        ("kwargs", "pattern"),
        [
            ({"kind": "jitter", "link": (0, 1), "nth": 1}, "kind must be one of"),
            ({"kind": "drop", "link": (0, 0), "nth": 1}, "endpoints must differ"),
            ({"kind": "drop", "link": (0, -1), "nth": 1}, "link"),
            ({"kind": "drop", "link": (0, 1, 2), "nth": 1}, "link"),
            ({"kind": "drop", "link": None, "nth": 1}, "link"),
            ({"kind": "drop", "link": (0, 1), "nth": 0}, "nth"),
            ({"kind": "drop", "link": (0, 1), "nth": True}, "nth"),
            ({"kind": "drop", "link": (0, 1), "nth": 1, "by": 2.0}, "only valid for delay"),
            ({"kind": "drop", "link": (0, 1), "nth": 1, "machines_a": (2,)}, "not machines_a"),
            ({"kind": "delay", "link": (0, 1), "nth": 1}, "by"),
            ({"kind": "delay", "link": (0, 1), "nth": 1, "by": 0.0}, "by"),
            ({"kind": "delay", "link": (0, 1), "nth": 1, "by": -1.0}, "by"),
            (
                {"kind": "partition", "machines_a": (), "machines_b": (1,),
                 "from_time": 0.0, "until_time": 1.0},
                "machines_a",
            ),
            (
                {"kind": "partition", "machines_a": (0, 1), "machines_b": (1, 2),
                 "from_time": 0.0, "until_time": 1.0},
                "disjoint",
            ),
            (
                {"kind": "partition", "machines_a": (0, 0), "machines_b": (1,),
                 "from_time": 0.0, "until_time": 1.0},
                "duplicate",
            ),
            (
                {"kind": "partition", "machines_a": (0,), "machines_b": (1,),
                 "from_time": -1.0, "until_time": 1.0},
                "from_time",
            ),
            (
                {"kind": "partition", "machines_a": (0,), "machines_b": (1,),
                 "from_time": 2.0, "until_time": 2.0},
                "non-empty",
            ),
            (
                {"kind": "partition", "machines_a": (0,), "machines_b": (1,),
                 "from_time": 0.0, "until_time": 1.0, "link": (0, 1)},
                "not link",
            ),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            NetworkFaultSpec(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            NetworkFaultSpec.from_dict({"kind": "drop", "link": [0, 1], "nth": 1, "x": 2})

    def test_json_lists_are_coerced_to_tuples(self):
        spec = NetworkFaultSpec(kind="drop", link=[0, 1], nth=1)
        assert spec.link == (0, 1)
        spec = NetworkFaultSpec(
            kind="partition", machines_a=[0], machines_b=[1],
            from_time=0.0, until_time=1.0,
        )
        assert spec.machines_a == (0,) and spec.machines_b == (1,)

    def test_normalize_accepts_dicts_specs_and_none(self):
        faults = normalize_network_faults(
            [drop((0, 1), 1), {"kind": "duplicate", "link": [2, 3], "nth": 4}]
        )
        assert all(isinstance(spec, NetworkFaultSpec) for spec in faults)
        assert faults[1].nth == 4
        assert normalize_network_faults(None) == ()
        assert normalize_network_faults(drop((0, 1), 1)) == (drop((0, 1), 1),)
        with pytest.raises(ValueError, match="NetworkFaultSpec"):
            normalize_network_faults("drop")
        with pytest.raises(ValueError, match="NetworkFaultSpec"):
            normalize_network_faults([42])

    def test_unreachable_link_error_names_link_and_attempts(self):
        error = UnreachableLinkError((2, 6), 4)
        assert error.link == (2, 6)
        assert error.attempts == 4
        assert "2->6" in str(error) and "4 retransmit attempts" in str(error)


# ---------------------------------------------------------------------------
# RunConfig validation (knobs, ranges, eager overlap rejection)
# ---------------------------------------------------------------------------

class TestConfigValidation:
    def test_machine_range_checked_for_links_and_partitions(self):
        with pytest.raises(ValueError, match="out of range"):
            _config(network_faults=[drop((0, MACHINES), 1)])
        with pytest.raises(ValueError, match="out of range"):
            _config(
                network_faults=[partition((0,), (MACHINES + 3,), 0.0, 1.0)]
            )

    def test_retry_knobs_validated(self):
        with pytest.raises(ValueError, match="retry_base"):
            _config(retry_base=0.0)
        with pytest.raises(ValueError, match="retry_max_attempts"):
            _config(retry_max_attempts=0)

    def test_network_faults_require_non_blocking(self):
        with pytest.raises(ValueError, match="non-blocking"):
            _config(blocking=True, network_faults=[drop((0, 1), 1)])

    def test_json_round_trip(self):
        config = _config(
            network_faults=list(MIXED_FAULTS) + [partition((0, 1), (4, 5), 5.0, 9.0)],
            retry_base=0.25,
            retry_max_attempts=6,
        )
        assert RunConfig.from_json(config.to_json()) == config

    def test_overlapping_time_anchored_crashes_rejected_eagerly(self):
        with pytest.raises(ValueError, match="overlapping fault_schedule"):
            _config(
                fault_schedule=[crash(3, 10.0, restart_after=5.0), crash(3, 12.0)]
            )
        # The default restart instant is the ack timeout.
        with pytest.raises(ValueError, match="overlapping fault_schedule"):
            _config(ack_timeout=5.0, fault_schedule=[crash(3, 10.0), crash(3, 12.0)])

    def test_identical_event_anchors_rejected_eagerly(self):
        with pytest.raises(ValueError, match="same event anchor"):
            _config(
                fault_schedule=[crash_after_events(3, 500), crash_after_events(3, 500)]
            )

    def test_non_overlapping_schedules_accepted(self):
        _config(fault_schedule=[crash(3, 10.0, restart_after=2.0), crash(3, 13.0)])
        _config(fault_schedule=[crash(3, 10.0, restart_after=5.0), crash(4, 12.0)])
        # Distinct event anchors depend on the runtime timeline: still allowed
        # at construction (the simulator keeps its runtime overlap error).
        _config(
            fault_schedule=[
                crash_after_events(3, 500, restart_after=1e9),
                crash_after_events(3, 501),
            ]
        )


# ---------------------------------------------------------------------------
# Clean path: network_faults=() is bit-identical to the reference
# ---------------------------------------------------------------------------

class TestCleanPathBitIdentity:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_empty_schedule_leaves_run_untouched(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        reference = _run(query, order, **PLANES[plane])
        gated = _run(query, order, network_faults=(), **PLANES[plane])
        assert_run_equivalent(reference, gated, events=True, label=f"clean:{plane}")
        assert gated.wire_counters is None
        assert gated.retransmit_histogram is None
        assert gated.messages_dropped == 0


# ---------------------------------------------------------------------------
# Conformance matrix: fault kinds x planes
# ---------------------------------------------------------------------------

class TestWireMasking:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("kind", ["equi", "band"])
    def test_drop_schedule_masked(self, queries, kind, plane):
        query = queries[kind]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        faulty = _run(
            query,
            order,
            network_faults=[drop((0, 1), 1), drop((0, 1), 2), drop((4, 2), 3)],
            **PLANES[plane],
        )
        assert faulty.messages_dropped > 0, f"{kind}/{plane}: no drop fired"
        assert faulty.messages_retransmitted > 0
        assert sorted(faulty.outputs) == sorted(twin.outputs), f"{kind}/{plane}"
        assert faulty.output_count == twin.output_count
        _assert_counters_reconcile(faulty, f"drop:{kind}/{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_duplicate_schedule_masked(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        faulty = _run(
            query,
            order,
            network_faults=[duplicate((1, 4), 1), duplicate((1, 4), 2)],
            **PLANES[plane],
        )
        assert faulty.messages_duplicated > 0, f"{plane}: no duplicate fired"
        assert faulty.wire_counters["deduped"] >= faulty.messages_duplicated
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"duplicate:{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_delay_schedule_masked_and_reorders(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        faulty = _run(
            query,
            order,
            network_faults=[delay((0, 1), 1, by=6.0), delay((2, 5), 2, by=8.0)],
            **PLANES[plane],
        )
        assert faulty.messages_reordered > 0, f"{plane}: delay never reordered"
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"delay:{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_partition_window_masked(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        window = (twin.execution_time * 0.2, twin.execution_time * 0.5)
        faulty = _run(
            query,
            order,
            network_faults=[
                partition((0, 1, 2, 3), (4, 5, 6, 7), window[0], window[1])
            ],
            **PLANES[plane],
        )
        assert faulty.messages_dropped > 0, f"{plane}: partition saw no traffic"
        assert faulty.messages_retransmitted > 0
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"partition:{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_mixed_schedule_masked(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        faulty = _run(query, order, network_faults=MIXED_FAULTS, **PLANES[plane])
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"mixed:{plane}")

    def test_faulty_run_is_deterministic(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        kwargs = dict(network_faults=MIXED_FAULTS, batch_size=1)
        first = _run(query, order, **kwargs)
        second = _run(query, order, **kwargs)
        # events=True + network=True: heap events, wire histograms and every
        # degradation counter must reproduce bit for bit.
        assert_run_equivalent(first, second, events=True, label="faulty-twice")
        assert first.wire_counters == second.wire_counters
        assert first.retransmit_histogram == second.retransmit_histogram

    def test_retransmit_histogram_records_backoff_depth(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        faulty = _run(
            query, order, network_faults=[drop((0, 1), 1)], batch_size=1
        )
        assert faulty.retransmit_histogram == {1: 1}

    def test_reorder_buffers_drain_by_end_of_run(self, queries):
        # Manual plumbing mirror of operator.run, to inspect the wire state.
        query = queries["equi"]
        order = _arrival_order(query)
        config = _config(network_faults=MIXED_FAULTS, batch_size=1)
        operator = AdaptiveJoinOperator(query, config=config)
        rng = random.Random(config.seed)
        simulator, topology = operator.build_execution(
            collect_outputs=True, expected_inputs=len(order)
        )
        simulator.feed_schedule(
            ArrivalSchedule(items=list(order), inter_arrival=0.0),
            destination_picker=lambda _item: rng.choice(topology.reshuffler_names),
            batch_size=operator.batch_size,
        )
        simulator.run()
        wire = simulator._wire
        assert wire is not None
        assert all(not buffer for buffer in wire.reorder.values()), (
            "reorder buffers must be empty once the run drains"
        )
        result = operator.collect_result(simulator, topology, len(order))
        _assert_counters_reconcile(result, "manual")


# ---------------------------------------------------------------------------
# Composition with machine crashes (fault_schedule x network_faults)
# ---------------------------------------------------------------------------

class TestCrashComposition:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_crash_and_network_faults_recover_exactly(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, checkpoint_interval=50, **PLANES[plane])
        composed = _run(
            query,
            order,
            checkpoint_interval=50,
            fault_schedule=[
                crash_after_events(3, max(1, twin.events_processed // 2))
            ],
            network_faults=MIXED_FAULTS,
            **PLANES[plane],
        )
        assert composed.faults_injected == 1, f"{plane}: crash never fired"
        assert composed.recovery_time > 0.0
        assert sorted(composed.outputs) == sorted(twin.outputs), plane
        assert composed.output_count == twin.output_count
        _assert_counters_reconcile(composed, f"crash-composed:{plane}")

    def test_retransmitted_then_crashed_messages_apply_once(self, queries):
        # Drops targeted at the crashing machine's links: retransmits land
        # around the outage, so wire dedup + journal replay + outage
        # redelivery must compose to exactly-once application.
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, checkpoint_interval=50, batch_size=1)
        faults = tuple(
            drop((sender, 3), nth)
            for sender in (0, 1, 2, 4)
            for nth in (1, 2, 3)
        )
        composed = _run(
            query,
            order,
            checkpoint_interval=50,
            batch_size=1,
            fault_schedule=[
                crash_after_events(3, max(1, twin.events_processed // 2))
            ],
            network_faults=faults,
        )
        assert composed.faults_injected == 1
        assert sorted(composed.outputs) == sorted(twin.outputs)
        assert composed.output_count == twin.output_count
        _assert_counters_reconcile(composed, "retransmit-crash")


# ---------------------------------------------------------------------------
# Error path: retry exhaustion is a named error, never a hang
# ---------------------------------------------------------------------------

class TestUnreachableLink:
    def test_permanent_partition_raises_unreachable_link(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        with pytest.raises(UnreachableLinkError, match="retransmit attempts") as info:
            _run(
                query,
                order,
                batch_size=1,
                network_faults=[
                    partition((0, 1, 2, 3), (4, 5, 6, 7), 0.0, 1e12)
                ],
                retry_base=0.1,
                retry_max_attempts=3,
            )
        assert info.value.attempts == 3
        sender, receiver = info.value.link
        assert (sender < 4) != (receiver < 4)  # the dead link crosses the cut


# ---------------------------------------------------------------------------
# Checkpoint-store integrity (checksums, torn rows, snapshot fallback)
# ---------------------------------------------------------------------------

def _corrupt(path, table, task, seq):
    conn = sqlite3.connect(path)
    try:
        count = conn.execute(
            f"UPDATE {table} SET payload = X'DEADBEEF' WHERE task = ? AND seq = ?",
            (task, seq),
        ).rowcount
        conn.commit()
    finally:
        conn.close()
    assert count == 1, f"no {table} row for ({task}, {seq})"


class TestCheckpointIntegrity:
    # The journal's rows are blocks — one per flushed buffer, keyed by the seq
    # of its first entry — so these two flush after every entry to get one
    # single-entry block per seq.

    def test_torn_delta_tail_is_truncated(self):
        store = CheckpointStore()
        for value in (1, 2, 3):
            store.log("j0", ("data", value))
            store.flush()
        _corrupt(store.path, "deltas", "j0", seq=2)
        snapshot, deltas = store.load("j0")
        assert snapshot is None
        assert deltas == [("data", 1), ("data", 2)]
        store.close()

    def test_mid_chain_delta_corruption_raises(self):
        store = CheckpointStore()
        for value in (1, 2, 3):
            store.log("j0", ("data", value))
            store.flush()
        _corrupt(store.path, "deltas", "j0", seq=1)
        with pytest.raises(CheckpointCorruptionError, match="not a torn tail"):
            store.load("j0")
        store.close()

    def test_corrupt_newest_snapshot_falls_back_to_previous(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.snapshot("j0", {"epoch": 1})
        store.log("j0", ("data", 2))
        store.snapshot("j0", {"epoch": 2})
        store.log("j0", ("data", 3))
        store.flush()
        _corrupt(store.path, "snapshots", "j0", seq=2)
        snapshot, deltas = store.load("j0")
        assert snapshot == {"epoch": 1}
        # Fallback replays the longer tail: everything since the old snapshot.
        assert deltas == [("data", 2), ("data", 3)]
        store.close()

    def test_all_snapshots_corrupt_raises(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.snapshot("j0", {"epoch": 1})
        store.log("j0", ("data", 2))
        store.snapshot("j0", {"epoch": 2})
        store.flush()
        _corrupt(store.path, "snapshots", "j0", seq=1)
        _corrupt(store.path, "snapshots", "j0", seq=2)
        with pytest.raises(CheckpointCorruptionError, match="snapshot"):
            store.load("j0")
        store.close()

    def test_intact_store_still_loads_after_two_snapshots(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.snapshot("j0", {"epoch": 1})
        store.log("j0", ("data", 2))
        store.snapshot("j0", {"epoch": 2})
        store.log("j0", ("data", 3))
        snapshot, deltas = store.load("j0")
        assert snapshot == {"epoch": 2}
        assert deltas == [("data", 3)]
        store.close()

    def test_corruption_error_is_exported_and_names_task(self):
        error = CheckpointCorruptionError("j3", "because")
        assert "j3" in str(error)
        assert error.task == "j3"


# ---------------------------------------------------------------------------
# Property: random schedules over random links mask to the twin's output
# ---------------------------------------------------------------------------

_TWIN_CACHE: dict[tuple, object] = {}


def _twin(queries, kind):
    if kind not in _TWIN_CACHE:
        query = queries[kind]
        order = _arrival_order(query)
        _TWIN_CACHE[kind] = (order, _run(query, order, batch_size=1))
    return _TWIN_CACHE[kind]


_links = st.tuples(
    st.integers(min_value=0, max_value=MACHINES - 1),
    st.integers(min_value=0, max_value=MACHINES - 1),
).filter(lambda link: link[0] != link[1])

_specs = st.one_of(
    st.builds(drop, _links, st.integers(min_value=1, max_value=40)),
    st.builds(duplicate, _links, st.integers(min_value=1, max_value=40)),
    st.builds(
        delay,
        _links,
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.5, max_value=6.0),
    ),
)


class TestRandomScheduleProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        faults=st.lists(_specs, min_size=1, max_size=6),
        kind=st.sampled_from(["equi", "band"]),
    )
    def test_random_schedule_masks_to_twin_output(self, queries, faults, kind):
        query = queries[kind]
        order, twin = _twin(queries, kind)
        faulty = _run(query, order, network_faults=faults, batch_size=1)
        assert sorted(faulty.outputs) == sorted(twin.outputs), kind
        assert faulty.output_count == twin.output_count
        _assert_counters_reconcile(faulty, f"property:{kind}")
