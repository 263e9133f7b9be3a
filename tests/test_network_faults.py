"""The unreliable wire: deterministic network faults and reliable delivery.

Pins the unreliable-wire plane's contract:

* **Spec and config validation** — :class:`NetworkFaultSpec` shapes,
  machine-range checks, and the eager rejection of two crashes of one
  machine at the same event anchor.
* **Masking** — under any drop/duplicate/delay schedule the run terminates,
  every dropped frame is retransmitted exactly once, and the join output
  multiset equals the fault-free twin's, on both data planes, including
  cells composed with machine crashes.
* **Clean-path bit-identity** — ``network_faults=()`` leaves every run
  bit-identical to a build without the wire plane (heap events included).
* **Determinism** — the same fault schedule under the same seed reproduces
  the run bit for bit, degradation counters included.
* **Counter reconciliation** — ``sent == delivered + dropped`` and
  ``applied == delivered - deduped``, with empty reorder buffers at the end.
* **Literal pins** — a faulty chunked-push run reproduces its recorded
  times, events, counters and journal bytes, and an overtaken frame is
  released in sequence order on one link.
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
    JoinSession,
    NetworkFaultSpec,
    RunConfig,
    crash_after_events,
    delay,
    drop,
    duplicate,
)
from repro.core.operator import AdaptiveJoinOperator
from repro.data import generate_dataset
from repro.data.queries import make_query
from repro.engine.faults import RETRANSMIT_BASE, normalize_network_faults
from repro.engine.network import ReliableWire
from repro.engine.simulator import Simulator
from repro.engine.stream import (
    ArrivalSchedule,
    StreamTuple,
    fresh_tuple_ids,
    interleave_streams,
    make_tuples,
)
from repro.engine.task import Message, MessageKind, Task
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
    "per_tuple": {"batching": "per_tuple"},
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
    def test_helpers_build_specs(self):
        assert drop([0, 1], 3) == NetworkFaultSpec(kind="drop", link=(0, 1), nth=3)
        assert duplicate((2, 5), 1) == NetworkFaultSpec(kind="duplicate", link=(2, 5), nth=1)
        assert delay((3, 6), 4, by=2.5) == NetworkFaultSpec(
            kind="delay", link=(3, 6), nth=4, by=2.5
        )

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
            ({"kind": "delay", "link": (0, 1), "nth": 1}, "by"),
            ({"kind": "delay", "link": (0, 1), "nth": 1, "by": 0.0}, "by"),
            ({"kind": "delay", "link": (0, 1), "nth": 1, "by": -1.0}, "by"),
            # A spec is built in code: lists are not coerced (the helpers are).
            ({"kind": "drop", "link": [0, 1], "nth": 1}, "link"),
            # The one fault model: a partition is no longer a kind.
            ({"kind": "partition", "link": (0, 1), "nth": 1}, "kind must be one of"),
            ({"kind": "drop", "link": (True, 1), "nth": 1}, "link"),
            ({"kind": "drop", "link": (0, 1), "nth": "1"}, "nth"),
            ({"kind": "delay", "link": (0, 1), "nth": 1, "by": True}, "by"),
            ({"kind": "delay", "link": (0, 1), "nth": 1, "by": "2.0"}, "by"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            NetworkFaultSpec(**kwargs)

    def test_normalize_accepts_spec_sequences_only(self):
        faults = normalize_network_faults([drop((0, 1), 1), duplicate((2, 3), 4)])
        assert faults == (drop((0, 1), 1), duplicate((2, 3), 4))
        assert normalize_network_faults(()) == ()
        with pytest.raises(ValueError, match="NetworkFaultSpec"):
            normalize_network_faults(None)
        with pytest.raises(ValueError, match="NetworkFaultSpec"):
            normalize_network_faults(drop((0, 1), 1))
        with pytest.raises(ValueError, match="NetworkFaultSpec"):
            normalize_network_faults("drop")
        with pytest.raises(ValueError, match="NetworkFaultSpec"):
            normalize_network_faults([42])
        with pytest.raises(ValueError, match="NetworkFaultSpec"):
            normalize_network_faults([{"kind": "duplicate", "link": (2, 3), "nth": 4}])


# ---------------------------------------------------------------------------
# RunConfig validation (knobs, ranges, eager overlap rejection)
# ---------------------------------------------------------------------------

class TestConfigValidation:
    def test_machine_range_checked_for_links(self):
        with pytest.raises(ValueError, match="out of range"):
            _config(network_faults=[drop((0, MACHINES), 1)])
        with pytest.raises(ValueError, match="out of range"):
            _config(network_faults=[delay((MACHINES + 3, 0), 1, by=1.0)])

    def test_network_faults_require_non_blocking(self):
        with pytest.raises(ValueError, match="non-blocking"):
            _config(blocking=True, batching="per_tuple", network_faults=[drop((0, 1), 1)])

    def test_identical_event_anchors_rejected_eagerly(self):
        with pytest.raises(ValueError, match="same event anchor"):
            _config(
                fault_schedule=[crash_after_events(3, 500), crash_after_events(3, 500)]
            )

    def test_non_overlapping_schedules_accepted(self):
        # One anchor on two machines crashes both, neither twice.
        _config(
            fault_schedule=[crash_after_events(3, 500), crash_after_events(4, 500)]
        )
        # Distinct event anchors depend on the runtime timeline: still allowed
        # at construction (the simulator keeps its runtime overlap error).
        _config(
            fault_schedule=[crash_after_events(3, 500), crash_after_events(3, 501)]
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
        assert faulty.wire_counters["dropped"] > 0, f"{kind}/{plane}: no drop fired"
        # One retransmit per lost frame, and it always gets through.
        assert faulty.wire_counters["retransmitted"] == faulty.wire_counters["dropped"]
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
        assert faulty.wire_counters["duplicated"] > 0, f"{plane}: no duplicate fired"
        assert faulty.wire_counters["deduped"] >= faulty.wire_counters["duplicated"]
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
        assert faulty.wire_counters["reordered"] > 0, f"{plane}: delay never reordered"
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"delay:{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_mixed_schedule_masked(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        faulty = _run(query, order, network_faults=MIXED_FAULTS, **PLANES[plane])
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"mixed:{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_drops_across_a_cut_masked(self, queries, plane):
        """The first send on every link from machines 0-3 to 4-7 is lost:
        each loss costs one retransmit and the output is the twin's."""
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        cut = [drop((a, b), 1) for a in range(4) for b in range(4, MACHINES)]
        faulty = _run(query, order, network_faults=cut, **PLANES[plane])
        assert faulty.wire_counters["dropped"] == len(cut), plane
        assert faulty.wire_counters["retransmitted"] == len(cut)
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"cut:{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_a_run_of_drops_on_one_link_masked(self, queries, plane):
        """Forty consecutive lost sends on one link never exhaust anything:
        the run ends with every frame delivered and the twin's output."""
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _run(query, order, **PLANES[plane])
        faulty = _run(
            query,
            order,
            network_faults=[drop((0, 1), nth) for nth in range(1, 41)],
            **PLANES[plane],
        )
        assert faulty.wire_counters["dropped"] > 1, f"{plane}: the link saw no run"
        assert faulty.wire_counters["retransmitted"] == faulty.wire_counters["dropped"]
        assert sorted(faulty.outputs) == sorted(twin.outputs), plane
        _assert_counters_reconcile(faulty, f"run-of-drops:{plane}")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_lost_frame_resent_once_retransmit_base_after_its_send(
        self, queries, monkeypatch, plane
    ):
        departures = {}
        resends = []
        send, retransmit = ReliableWire.send, ReliableWire.retransmit

        def recorded_send(self, sender_machine, channel, message, category, departure):
            link = (sender_machine, channel.task.machine_id)
            departures[(link, channel.link.sequence)] = departure
            send(self, sender_machine, channel, message, category, departure)

        def recorded_retransmit(self, frame, time):
            resends.append((frame.link, frame.seq, time))
            retransmit(self, frame, time)

        monkeypatch.setattr(ReliableWire, "send", recorded_send)
        monkeypatch.setattr(ReliableWire, "retransmit", recorded_retransmit)
        query = queries["equi"]
        faulty = _run(
            query,
            _arrival_order(query),
            network_faults=[drop((0, 1), 2)],
            **PLANES[plane],
        )
        assert faulty.wire_counters["dropped"] == 1, plane
        # nth=2 is the link's 0-based sequence number 1.
        assert resends == [((0, 1), 1, departures[((0, 1), 1)] + RETRANSMIT_BASE)]

    def test_faulty_run_is_deterministic(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        kwargs = dict(network_faults=MIXED_FAULTS, batching="per_tuple")
        first = _run(query, order, **kwargs)
        second = _run(query, order, **kwargs)
        # events=True + network=True: heap events, wire histograms and every
        # degradation counter must reproduce bit for bit.
        assert_run_equivalent(first, second, events=True, label="faulty-twice")
        assert first.wire_counters == second.wire_counters

    def test_reorder_buffers_drain_by_end_of_run(self, queries):
        # Manual plumbing mirror of operator.run, to inspect the wire state.
        query = queries["equi"]
        order = _arrival_order(query)
        config = _config(network_faults=MIXED_FAULTS, batching="per_tuple")
        operator = AdaptiveJoinOperator(query, config=config)
        rng = random.Random(config.seed)
        simulator, topology = operator.build_execution(collect_outputs=True)
        simulator.feed_schedule(
            ArrivalSchedule(items=list(order), inter_arrival=0.0),
            destination_picker=lambda _item: rng.choice(topology.reshuffler_names),
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
        twin = _run(query, order, checkpoint_interval=50, batching="per_tuple")
        faults = tuple(
            drop((sender, 3), nth)
            for sender in (0, 1, 2, 4)
            for nth in (1, 2, 3)
        )
        composed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
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
        _TWIN_CACHE[kind] = (order, _run(query, order, batching="per_tuple"))
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
        faulty = _run(query, order, network_faults=faults, batching="per_tuple")
        assert sorted(faulty.outputs) == sorted(twin.outputs), kind
        assert faulty.output_count == twin.output_count
        _assert_counters_reconcile(faulty, f"property:{kind}")
        assert faulty.wire_counters["retransmitted"] == faulty.wire_counters["dropped"]


# ---------------------------------------------------------------------------
# Literal pins of the faulty streaming plane
# ---------------------------------------------------------------------------

PINNED_MACHINES = 16


def _pinned_faulty_stream():
    """A small chunked ``push()`` EQ5 run at J=16 under every fault plane:
    two event-anchored crashes, a drop, a delay and a duplicate on every
    link, and a checkpoint interval.  Tuple ids are numbered from 0, so the
    journal's bytes do not depend on what ran before in the process."""
    query = make_query("EQ5", generate_dataset(scale=0.4, skew="Z0", seed=42))
    faults = []
    for sender in range(PINNED_MACHINES):
        for receiver in range(PINNED_MACHINES):
            if sender != receiver:
                link = (sender, receiver)
                faults += [drop(link, 2), delay(link, 3, by=30.0), duplicate(link, 5)]
    with fresh_tuple_ids():
        order = _arrival_order(query)
        config = RunConfig(
            machines=PINNED_MACHINES,
            seed=SEED,
            warmup_tuples=16,
            batching="adaptive",
            inter_arrival=0.75,
            checkpoint_interval=40,
            fault_schedule=(
                crash_after_events(8, len(order) // 4),
                crash_after_events(1, len(order) // 2),
            ),
            network_faults=tuple(faults),
        )
        session = JoinSession(query, config=config)
        session.open_stream()
        for start in range(0, len(order), 64):
            session.push(order[start:start + 64])
        return session.finish()


class TestFaultyPlaneLiterals:
    def test_faulty_stream_reproduces_its_literals(self):
        """Every byte, rank, virtual time and counter of the faulty plane as
        literals, so a change to its per-tuple path (frame scheduling and
        release, journal pickling, the run of one) that moves any of them
        fails here."""
        result = _pinned_faulty_stream()
        assert result.faults_injected == 2 and result.migrations == 1
        assert result.execution_time == 1806.33
        assert result.heap_events == 8674
        assert result.events_processed == 5090
        assert result.output_count == 446
        assert result.wire_counters == {
            "sent": 3335,
            "delivered": 3095,
            "dropped": 240,
            "duplicated": 238,
            "retransmitted": 240,
            "reordered": 26,
            "deduped": 238,
            "applied": 2857,
        }
        # 238,699 B with one-key dict records.  A row pickles as a call of
        # its type: 1 B more per record (2,817 pickled) and its type's name
        # once per journal block that holds one (128 blocks, ~30 B each):
        # 245,348 B.  Equal records are one shared row, so a block pickles a
        # row once and refers back to it for each later record of its value.
        assert result.checkpoint_overhead == 240464.0
        assert result.tuples_replayed == 17

    @pytest.mark.parametrize("delayed", [False, True])
    def test_overtaken_frame_is_released_in_sequence_order(self, delayed):
        """One link, six sends a tenth of a unit apart.  With the second
        frame delayed by a quarter unit, the next two overtake it, wait in
        the reorder buffer and follow it out the moment it lands; every
        other frame takes the in-order path.  Either way the receiver
        handles the messages in send order, and no buffer is left."""
        simulator = Simulator(num_machines=2)
        handled = []
        simulator.register(_LinkReceiver("receiver", 1, handled))
        simulator.register(_LinkSender("sender", 0, tags=range(6)))
        wire = ReliableWire(
            normalize_network_faults([delay((0, 1), 2, by=0.25)] if delayed else [])
        )
        simulator.install_network_faults(wire)
        simulator.schedule(0.0, "sender", Message(kind=MessageKind.FLUSH, sender="test"))
        simulator.run()
        assert [tag for tag, _time in handled] == list(range(6))
        assert wire.frames_applied == 6 and wire.reorder == {}
        times = [time for _tag, time in handled]
        if delayed:
            assert wire.frames_reordered == 2
            assert times[0] < times[1] == times[2] == times[3] < times[4] < times[5]
        else:
            assert wire.frames_reordered == 0
            assert times == sorted(set(times))


class _LinkSender(Task):
    """Sends one tuple per tag to ``receiver``, a tenth of a unit apart."""

    def __init__(self, name, machine_id, tags):
        super().__init__(name, machine_id)
        self.tags = tags

    def handle(self, message, ctx):
        for tag in self.tags:
            ctx.charge(0.1)
            ctx.send("receiver", StreamTuple(relation="R", record={"tag": tag}))


class _LinkReceiver(Task):
    """Records each handled tag with its delivery-driven start time."""

    def __init__(self, name, machine_id, handled):
        super().__init__(name, machine_id)
        self.handled = handled

    def handle(self, message, ctx):
        self.handled.append((message.payload.record["tag"], ctx.now))
