"""Differential conformance suite for the adaptive data plane.

The adaptive plane (``batching="adaptive"``, the default) keeps the wire
per-tuple and coalesces backlog at the receiving machines, so its contract is
that every run must be **bit-identical** to the
``batching="per_tuple"`` reference plane — join output, migration sequence with its
decision/completion times, final mapping, per-machine busy chains, execution
time, average latency, charged probe work and network volumes — while
processing the workload in fewer, larger simulator events.

The suite sweeps the scenario matrix: predicate kind (equi / band /
theta scan) x arrival pacing (bursty / paced / fluctuating) x
with/without migrations (Dynamic vs StaticMid) x ingestion mode
(materialised / streaming in arbitrary chunkings), asserting exact
equivalence on every cell via :func:`repro.testing.assert_run_equivalent`, plus
Hypothesis property tests for the :class:`AdaptiveBatchController` invariants
and the drain-eligibility (epoch-edge flush) rules.

Streaming note: chunked ingestion runs the simulation to quiescence between
pushes, which legitimately yields different virtual times than the
materialised schedule (this predates the adaptive plane).  The conformance
contract is therefore *plane vs plane at identical ingestion*: streaming
adaptive must be bit-identical to streaming per-tuple under the same
chunking, for every chunking.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from repro.testing import UnmergedWireSimulator, assert_run_equivalent, reference_outputs
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.operator as operator_module
from repro.api import JoinSession, RunConfig, crash_after_events, drop
from repro.core.baselines import StaticMidOperator
from repro.core.epochs import JoinerPhase
from repro.core.operator import AdaptiveJoinOperator
from repro.core.tasks import JoinerTask, ReshufflerTask
from repro.data.queries import JoinQuery, make_query
from repro.data.tpch import generate_dataset
from repro.engine.batching import AdaptiveBatchController
from repro.engine.simulator import Simulator
from repro.engine.stream import (
    StreamTuple,
    fluctuating_order,
    interleave_streams,
    make_tuples,
)
from repro.engine.task import Message, MessageKind, Task
from repro.joins.predicates import BandPredicate, EquiPredicate, ThetaPredicate

MACHINES = 8
SEED = 5

OPERATORS = {
    "migrating": AdaptiveJoinOperator,   # warmup 16 -> migrates mid-stream
    "static": StaticMidOperator,         # never migrates
}

PACINGS = {
    "bursty": 0.0,    # all arrivals at t=0: full backlog, deep drains
    "paced": 0.15,    # spaced arrivals: the controller collapses to 1
}


def _theta_query(rng: random.Random) -> JoinQuery:
    """A theta predicate (scan path, every candidate checked per pair)."""
    # Imbalanced cardinalities so the Dynamic operator migrates away from the
    # square start mapping mid-stream.
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
        description="equality plus parity as a theta scan (conformance scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "theta": _theta_query(random.Random(17)),
    }


def _arrival_order(query, seed=SEED, fluctuating=False):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    if fluctuating:
        return fluctuating_order(left, right, fluctuation_factor=3.0, warmup=40)
    return interleave_streams(left, right, rng)


def _config(**overrides):
    return RunConfig(machines=MACHINES, seed=SEED, warmup_tuples=16, **overrides)


def _run(operator_class, query, order, **overrides):
    operator = operator_class(query, config=_config(**overrides))
    return operator.run(arrival_order=order, collect_outputs=True)


def _run_pair(operator_class, query, order, **shared):
    reference = _run(operator_class, query, order, batching="per_tuple", **shared)
    adaptive = _run(operator_class, query, order, batching="adaptive", **shared)
    return reference, adaptive


# ---------------------------------------------------------------------------
# Materialised scenario matrix
# ---------------------------------------------------------------------------


class TestMaterialisedConformance:
    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    @pytest.mark.parametrize("pacing", sorted(PACINGS))
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_bit_identical_to_per_tuple_plane(self, queries, predicate, pacing, operator):
        query = queries[predicate]
        order = _arrival_order(query)
        reference, adaptive = _run_pair(
            OPERATORS[operator], query, order, inter_arrival=PACINGS[pacing]
        )
        label = f"{predicate}/{pacing}/{operator}"
        assert_run_equivalent(reference, adaptive, label=label)
        if operator == "migrating":
            assert reference.migrations >= 1, f"{label}: scenario must migrate"
        # The plane must actually coalesce, not pass trivially by never
        # draining: under backlog the event count collapses and multi-tuple
        # runs dominate the histogram.
        assert adaptive.batch_histogram, label
        if pacing == "bursty":
            assert adaptive.events_processed * 2 < reference.events_processed, label
            assert max(adaptive.batch_histogram) > 8, label

    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_fluctuating_arrivals(self, queries, operator):
        """The §5.4 fluctuation pattern (cardinality-ratio swings) conforms."""
        query = queries["equi"]
        order = _arrival_order(query, fluctuating=True)
        reference, adaptive = _run_pair(OPERATORS[operator], query, order)
        assert_run_equivalent(reference, adaptive, label=f"fluct/{operator}")

    def test_spilling_run_conforms(self, queries):
        """A finite memory budget (spill factors in every charge) conforms."""
        query = queries["equi"]
        order = _arrival_order(query)
        reference, adaptive = _run_pair(
            AdaptiveJoinOperator, query, order, memory_capacity=30.0
        )
        assert reference.spilled, "scenario must exercise the spill path"
        assert_run_equivalent(reference, adaptive, label="spill")

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    def test_adaptive_outputs_equal_reference_join(self, queries, predicate):
        """Both planes produce exactly the brute-force join, as a multiset."""
        query = queries[predicate]
        order = _arrival_order(query)
        reference, adaptive = _run_pair(AdaptiveJoinOperator, query, order)
        expected = reference_outputs(query, order)
        assert Counter(reference.outputs) == expected
        assert Counter(adaptive.outputs) == expected

    def test_batch_max_caps_runs(self, queries, monkeypatch):
        monkeypatch.setattr(AdaptiveBatchController, "cap", 7)
        query = queries["equi"]
        order = _arrival_order(query)
        reference, adaptive = _run_pair(StaticMidOperator, query, order)
        assert_run_equivalent(reference, adaptive, label="cap=7")
        assert max(adaptive.batch_histogram) == 7

    def test_result_records_plane_metadata(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        reference, adaptive = _run_pair(StaticMidOperator, query, order)
        assert reference.batch_histogram is None
        drained = sum(size * count for size, count in adaptive.batch_histogram.items())
        assert drained > 0

    def test_default_plane_is_the_reference(self, queries):
        """A ``RunConfig()``-default run of a migrating EQ5 query is the
        per-tuple reference run: the default plane is the adaptive one."""
        query = queries["equi"]
        order = _arrival_order(query)
        reference = _run(AdaptiveJoinOperator, query, order, batching="per_tuple")
        default = _run(AdaptiveJoinOperator, query, order)
        assert reference.migrations >= 1
        assert default.batch_histogram is not None
        assert_run_equivalent(reference, default, label="default-vs-per_tuple")


# ---------------------------------------------------------------------------
# Batched drain handlers vs per-member handling
# ---------------------------------------------------------------------------


def _per_member_twin(monkeypatch, task_class, operator_class, query, order, **overrides):
    """The run again, with ``task_class`` handling every drained run member by
    member through the base :meth:`Task.handle_drained` loop."""
    with monkeypatch.context() as patch:
        patch.setattr(task_class, "handle_drained", Task.handle_drained)
        return _run(operator_class, query, order, **overrides)


class TestDrainedRunsMatchPerMemberHandling:
    """The hand-inlined drain handlers are wall-clock optimisations only.

    ``JoinerTask.handle_drained`` probes a DATA run through one grouped index
    pass and commits each member's cost with inlined ``_apply`` arithmetic;
    ``ReshufflerTask.handle_drained`` routes a run with hoisted lookups and an
    inlined charge commit.  A twin run whose tasks hand every drained member
    to ``handle`` one at a time (same runs, same boundaries) must be an
    identical simulation, events included — any drift in cost order, storage
    factors, output timestamps or probe-work accounting shows up here.
    """

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_joiner_runs_match_per_member_handling(
        self, queries, predicate, operator, monkeypatch
    ):
        query = queries[predicate]
        order = _arrival_order(query)
        batched = _run(OPERATORS[operator], query, order)
        twin = _per_member_twin(monkeypatch, JoinerTask, OPERATORS[operator], query, order)
        label = f"joiner-twin/{predicate}/{operator}"
        assert batched.probe_work > 0, label
        assert max(batched.batch_histogram) > 8, f"{label}: runs must coalesce"
        assert_run_equivalent(twin, batched, events=True, label=label)

    def test_spilling_joiner_runs_match_per_member_handling(self, queries, monkeypatch):
        """Under a finite memory budget every member's storage factor moves
        with the stored size, so the inlined per-member storage accounting
        must track ``Machine.add_stored`` exactly."""
        query = queries["equi"]
        order = _arrival_order(query)
        batched = _run(AdaptiveJoinOperator, query, order, memory_capacity=30.0)
        twin = _per_member_twin(
            monkeypatch, JoinerTask, AdaptiveJoinOperator, query, order,
            memory_capacity=30.0,
        )
        assert batched.spilled, "scenario must exercise the spill path"
        assert_run_equivalent(twin, batched, events=True, label="joiner-twin/spill")

    def test_skewed_joiner_runs_match_per_member_handling(
        self, skewed_dataset, monkeypatch
    ):
        query = make_query("EQ5", skewed_dataset)
        order = _arrival_order(query)
        batched = _run(AdaptiveJoinOperator, query, order)
        twin = _per_member_twin(monkeypatch, JoinerTask, AdaptiveJoinOperator, query, order)
        assert batched.migrations >= 1, "scenario must migrate"
        assert_run_equivalent(twin, batched, events=True, label="joiner-twin/skew")

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    def test_static_reshuffler_runs_match_per_member_routing(
        self, queries, predicate, monkeypatch
    ):
        """A static operator's reshufflers drain without a control-plane
        horizon, so the base loop pulls exactly the runs the hoisted routing
        loop pulls."""
        query = queries[predicate]
        order = _arrival_order(query)
        batched = _run(StaticMidOperator, query, order)
        twin = _per_member_twin(
            monkeypatch, ReshufflerTask, StaticMidOperator, query, order
        )
        assert_run_equivalent(
            twin, batched, events=True, label=f"reshuffler-twin/{predicate}"
        )


# ---------------------------------------------------------------------------
# Streaming ingestion: plane vs plane under identical chunkings
# ---------------------------------------------------------------------------


def _stream_run(query, order, chunks, operator="Dynamic", **overrides):
    session = JoinSession(query, operator=operator, config=_config(**overrides))
    session.open_stream(collect_outputs=True)
    position = 0
    for chunk in chunks:
        if position >= len(order):
            break
        session.push(items=order[position:position + chunk])
        position += chunk
    if position < len(order):
        session.push(items=order[position:])
    return session.finish()


def _chunking(seed, total):
    rng = random.Random(seed)
    chunks = []
    remaining = total
    while remaining > 0:
        chunk = rng.randrange(1, 120)
        chunks.append(chunk)
        remaining -= chunk
    return chunks


class TestStreamingConformance:
    @pytest.mark.parametrize("predicate", ["equi", "band"])
    @pytest.mark.parametrize("chunk_seed", [3, 99])
    def test_streaming_plane_bit_identical(self, queries, predicate, chunk_seed):
        query = queries[predicate]
        order = _arrival_order(query)
        chunks = _chunking(chunk_seed, len(order))
        reference = _stream_run(query, order, chunks, batching="per_tuple")
        adaptive = _stream_run(query, order, chunks, batching="adaptive")
        label = f"stream/{predicate}/chunking-{chunk_seed}"
        assert_run_equivalent(reference, adaptive, label=label)
        assert adaptive.events_processed < reference.events_processed, label

    def test_streaming_matches_materialised_results(self, queries):
        """Chunked adaptive ingestion produces the same final join as the
        materialised adaptive run (virtual times differ by design: chunked
        ingestion drains the cluster between pushes)."""
        query = queries["equi"]
        order = _arrival_order(query)
        materialised = _run(AdaptiveJoinOperator, query, order, batching="adaptive")
        streamed = _stream_run(query, order, _chunking(7, len(order)), batching="adaptive")
        assert sorted(streamed.outputs) == sorted(materialised.outputs)
        assert streamed.final_mapping == materialised.final_mapping
        assert streamed.migrations == materialised.migrations

    @given(chunks=st.lists(st.integers(1, 60), min_size=1, max_size=30))
    @settings(max_examples=12, deadline=None)
    def test_any_chunking_reproduces_per_tuple_plane(self, small_conformance, chunks):
        """Cross-push property: for ANY chunking, streaming adaptive is
        bit-identical to streaming per-tuple under the same chunking."""
        query, order = small_conformance
        reference = _stream_run(query, order, chunks, batching="per_tuple")
        adaptive = _stream_run(query, order, chunks, batching="adaptive")
        assert_run_equivalent(reference, adaptive, label=f"chunks={chunks[:6]}...")


# ---------------------------------------------------------------------------
# Lone-member ticks: paced cells where a tick hands its one due member
# straight from the pending heap to the handler
# ---------------------------------------------------------------------------

#: Arrivals two time units apart: without a spill every run on this workload
#: is a run of one (the batch histogram holds only 1s), so both planes
#: process the same events and an event-anchored crash lands at the same
#: point on both.
LONE_PACING = 2.0

#: ``(predicate, RunConfig overrides)`` of the paced cells.
_LONE_MEMBER_CELLS = {
    "spill": ("equi", {"memory_capacity": 30.0}),
    "journaled-crash": (
        "equi",
        {"fault_schedule": (crash_after_events(5, 600),), "checkpoint_interval": 50},
    ),
    "nine-dropped-frames": (
        "equi",
        {
            "network_faults": tuple(
                drop((i % MACHINES, (3 * i + 1) % MACHINES), 2 + i) for i in range(9)
            )
        },
    ),
    "band": ("band", {}),
}


@pytest.fixture()
def settle_passes(monkeypatch):
    """Count the simulator's settle passes (ticks that did not take a lone
    member straight off the pending heap)."""
    passes = []
    settle = Simulator._settle

    def counting_settle(self, machine_id, time):
        passes.append(machine_id)
        settle(self, machine_id, time)

    monkeypatch.setattr(Simulator, "_settle", counting_settle)
    return passes


class TestLoneMemberConformance:
    @pytest.mark.parametrize("cell", sorted(_LONE_MEMBER_CELLS))
    def test_paced_cell_bit_identical_to_per_tuple_plane(
        self, queries, settle_passes, cell
    ):
        predicate, overrides = _LONE_MEMBER_CELLS[cell]
        query = queries[predicate]
        order = _arrival_order(query)
        reference = _run(
            AdaptiveJoinOperator, query, order, batching="per_tuple",
            inter_arrival=LONE_PACING, **overrides,
        )
        settle_passes.clear()
        adaptive = _run(
            AdaptiveJoinOperator, query, order, batching="adaptive",
            inter_arrival=LONE_PACING, **overrides,
        )
        assert_run_equivalent(reference, adaptive, timing=True, label=cell)
        assert len(settle_passes) * 5 <= adaptive.events_processed, cell
        assert adaptive.migrations >= 1, cell
        if cell == "spill":
            assert adaptive.spilled
        elif cell == "journaled-crash":
            assert set(adaptive.batch_histogram) == {1}
            assert adaptive.faults_injected == 1 and adaptive.tuples_replayed > 0
        elif cell == "nine-dropped-frames":
            assert adaptive.wire_counters["dropped"] == 9

    @pytest.mark.parametrize("chunk_seed", [3, 99])
    def test_paced_streaming_bit_identical_to_per_tuple_plane(
        self, queries, settle_passes, chunk_seed
    ):
        query = queries["equi"]
        order = _arrival_order(query)
        chunks = _chunking(chunk_seed, len(order))
        reference = _stream_run(
            query, order, chunks, batching="per_tuple", inter_arrival=LONE_PACING
        )
        settle_passes.clear()
        adaptive = _stream_run(
            query, order, chunks, batching="adaptive", inter_arrival=LONE_PACING
        )
        label = f"lone/stream/chunking-{chunk_seed}"
        assert_run_equivalent(reference, adaptive, timing=True, label=label)
        assert len(settle_passes) * 5 <= adaptive.events_processed, label


@pytest.fixture(scope="module")
def small_conformance(small_dataset):
    """A reduced workload for the Hypothesis chunking property (speed)."""
    query = make_query("EQ5", small_dataset)
    order = _arrival_order(query)[:160]
    return query, order


# ---------------------------------------------------------------------------
# AdaptiveBatchController invariants (Hypothesis)
# ---------------------------------------------------------------------------


class TestAdaptiveControllerProperties:
    @given(
        backlogs=st.lists(st.integers(0, 500), min_size=1, max_size=200),
        cap=st.integers(1, 128),
    )
    @settings(max_examples=100, deadline=None)
    def test_sizes_always_within_bounds(self, backlogs, cap):
        controller = AdaptiveBatchController()
        controller.cap = cap
        for backlog in backlogs:
            size = controller.next_batch_size(backlog)
            assert 1 <= size <= cap
            assert size <= max(backlog, 1)

    @given(backlogs=st.lists(st.integers(0, 500), min_size=0, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_paced_collapse_to_per_tuple(self, backlogs):
        """Whatever happened before, an (almost) empty inbox means size 1."""
        controller = AdaptiveBatchController()
        for backlog in backlogs:
            controller.next_batch_size(backlog)
        assert controller.next_batch_size(0) == 1
        assert controller.next_batch_size(1) == 1

    @given(
        cap=st.integers(1, 128),
        rounds=st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_growth_under_sustained_backlog(self, cap, rounds):
        controller = AdaptiveBatchController()
        controller.cap = cap
        sizes = [controller.next_batch_size(10 * cap) for _ in range(rounds)]
        assert sizes == sorted(sizes), "sizes must be non-decreasing under backlog"
        if rounds >= 8:  # the doubling ramp reaches any cap <= 128 in 8 rounds
            assert sizes[-1] == cap


# ---------------------------------------------------------------------------
# Drain-eligibility rules: force-flush at the epoch edge
# ---------------------------------------------------------------------------


def _data_message(epoch: int) -> Message:
    item = StreamTuple(relation="R", record={"k": 1, "v": 2}, epoch=epoch)
    return Message(kind=MessageKind.DATA, sender="r", payload=item, epoch=epoch)


class TestDrainEligibility:
    @given(epochs=st.lists(st.integers(0, 3), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_normal_phase_flushes_at_epoch_edge(self, normal_joiner, epochs):
        """In the NORMAL phase only current-epoch DATA is drainable, so a run
        can never span an epoch edge: any tuple tagged with a different epoch
        yields a different (non-)key and force-flushes the run."""
        joiner = normal_joiner
        current = joiner.state.current_epoch
        keys = [joiner.drain_key(_data_message(epoch)) for epoch in epochs]
        for epoch, key in zip(epochs, keys):
            if epoch == current:
                assert key == current
            else:
                assert key is None

    def test_protocol_kinds_never_drain(self, normal_joiner):
        """Kinds whose handling sends messages or gates protocol transitions
        stay per-tuple; µ (MIGRATION) relocations are pure probe-and-store
        and drain under their dedicated key (never mixing with DATA runs)."""
        for kind in (MessageKind.EPOCH_SIGNAL, MessageKind.MIGRATION_END):
            message = Message(kind=kind, sender="x", payload=_data_message(0).payload)
            assert normal_joiner.drain_key(message) is None
        mu = Message(
            kind=MessageKind.MIGRATION, sender="x", payload=_data_message(0).payload
        )
        mu_key = normal_joiner.drain_key(mu)
        assert mu_key is not None
        assert mu_key != normal_joiner.drain_key(_data_message(0))

    def test_mid_migration_only_pending_epoch_drains(self, normal_joiner):
        """Mid-migration, Δ (old-epoch, relocating) tuples stay per-tuple;
        Δ' (pending-epoch, pure probe-and-store) tuples drain."""
        joiner = normal_joiner
        state = joiner.state
        state.phase = JoinerPhase.MIGRATING
        state.pending_epoch = 1
        try:
            assert joiner.drain_key(_data_message(0)) is None  # Δ: relocates
            assert joiner.drain_key(_data_message(1)) == 1     # Δ': pure
            state.phase = JoinerPhase.DRAINED
            assert joiner.drain_key(_data_message(1)) == 1
        finally:
            state.phase = JoinerPhase.NORMAL
            state.pending_epoch = None

    def test_adaptive_reshufflers_drain_under_horizon(self, queries):
        from repro.core.operator import AdaptiveJoinOperator as Dynamic

        operator = Dynamic(queries["equi"], config=_config(batching="adaptive"))
        simulator, topology = operator.build_execution()
        reshuffler = simulator.tasks[topology.reshuffler_names[1]]
        # A source tuple arrives as its own DATA message.
        assert reshuffler.drain_key(_data_message(0).payload) is not None
        for kind in (MessageKind.MAPPING_CHANGE, MessageKind.RESUME):
            assert reshuffler.drain_key(Message(kind=kind, sender="x")) is None


@pytest.fixture(scope="module")
def normal_joiner(queries):
    from repro.core.operator import GridJoinOperator

    operator = GridJoinOperator(queries["equi"], config=_config(batching="adaptive"))
    simulator, topology = operator.build_execution()
    return simulator.tasks[topology.joiner_names[0]]


# ---------------------------------------------------------------------------
# Wire-level delivery merging: exactness of the merged wire
# ---------------------------------------------------------------------------

#: Per-tuple FLUCT_SYM cells (scale 0.4, J=16, seed 1, fluctuation k=4) as
#: RunConfig overrides, with the ``(execution_time, heap_events,
#: events_processed)`` each read on the unmerged wire when it was still the
#: per-tuple plane's own — except the crash cell's heap events, one fewer
#: since a crash stopped scheduling the outage retries that cannot give up
#: (the one that popped, at the default restart, did nothing).
_FLUCT_CELLS = {
    "plain": {},
    "blocking": {"blocking": True},
    "crash": {
        "fault_schedule": (crash_after_events(5, 4000),),
        "checkpoint_interval": 100,
    },
    "lossy": {
        "network_faults": tuple(drop((i, (3 * i + 1) % 16), 2 + i) for i in range(9))
    },
}
_UNMERGED_LITERALS = {
    "plain": (1206.7099999999898, 29888, 14960),
    "blocking": (1432.2099999999884, 35296, 17696),
    "crash": (1264.779999999989, 29890, 14960),
    "lossy": (1206.7599999999898, 29913, 14968),
}


@pytest.fixture(scope="module")
def fluct_run():
    query = make_query("FLUCT_SYM", generate_dataset(scale=0.4, skew="Z0", seed=1))
    rng = random.Random(1)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    warmup = max(64, (len(left) + len(right)) // 100)
    order = fluctuating_order(left, right, fluctuation_factor=4, warmup=warmup)

    def run(cell):
        config = RunConfig(
            machines=16, seed=1, warmup_tuples=float(warmup), batching="per_tuple",
            **_FLUCT_CELLS[cell],
        )
        result = AdaptiveJoinOperator(query, config=config).run(
            arrival_order=order, collect_outputs=True
        )
        assert result.faults_injected == (cell == "crash")
        assert (result.wire_counters or {}).get("dropped", 0) == (9 if cell == "lossy" else 0)
        return result

    return run


class TestDeliveryMergingConformance:
    """The merged wire must be invisible in every observable quantity."""

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    def test_merged_adaptive_equals_per_tuple_oracle(
        self, queries, predicate, monkeypatch
    ):
        """The default plane against the full reference: per-tuple handling
        on the unmerged wire."""
        query = queries[predicate]
        order = _arrival_order(query)
        merged = _run(AdaptiveJoinOperator, query, order, batching="adaptive")
        monkeypatch.setattr(operator_module, "Simulator", UnmergedWireSimulator)
        reference = _run(AdaptiveJoinOperator, query, order, batching="per_tuple")
        assert_run_equivalent(reference, merged, label=f"merge/{predicate}")
        # The merged wire must actually collapse heap traffic, not pass
        # trivially: under the bursty backlog the channel runs absorb the
        # per-tuple deliveries (the >=10x gate at benchmark scale lives in
        # bench_fig7a_throughput.py).
        assert merged.heap_events * 2 < reference.heap_events, (
            merged.heap_events, reference.heap_events,
        )
        assert merged.wire_histogram and not reference.wire_histogram
        assert max(merged.wire_histogram) > 8  # multi-member runs exist

    @pytest.mark.parametrize("cell", sorted(_UNMERGED_LITERALS))
    def test_per_tuple_plane_against_the_unmerged_wire(
        self, fluct_run, monkeypatch, cell
    ):
        """The per-tuple plane is the merged wire without drain controllers:
        bit-identical to the same plane on the unmerged reference wire, which
        reproduces the ``(execution_time, heap_events, events_processed)``
        recorded when the unmerged wire was still the engine's own."""
        production = fluct_run(cell)
        monkeypatch.setattr(operator_module, "Simulator", UnmergedWireSimulator)
        reference = fluct_run(cell)
        assert_run_equivalent(reference, production, timing=True, label=cell)
        assert production.events_processed == reference.events_processed
        assert (
            reference.execution_time, reference.heap_events, reference.events_processed
        ) == _UNMERGED_LITERALS[cell]
        assert production.heap_events < reference.heap_events
        assert production.wire_histogram and not reference.wire_histogram

    @pytest.mark.parametrize("crashes", [(), (crash_after_events(3, 120),)])
    def test_drain_controller_sees_the_exact_member_backlog(
        self, queries, monkeypatch, crashes
    ):
        """The backlog a tick hands its drain controller is the inbox's exact
        member count, members inside settled segments included.  The
        simulator tracks it incrementally (no inbox walk per tick), so every
        inbox mutation — settle, drained pulls, a crash clearing the inbox,
        redelivery at restart — has to keep the count in step."""
        current = {}
        seen = {"ticks": 0, "segments": 0}
        original_tick = Simulator._tick
        original_size = AdaptiveBatchController.next_batch_size

        def tick(self, machine_id, time):
            current["inbox"] = self._inboxes[machine_id]
            original_tick(self, machine_id, time)

        def next_batch_size(self, backlog):
            entries = [entry for entry in current["inbox"] if entry.__class__ is not tuple]
            members = len(current["inbox"]) - len(entries)
            members += sum(entry.end - entry.index for entry in entries)
            assert backlog == 1 + members
            seen["ticks"] += 1
            seen["segments"] += len(entries)
            return original_size(self, backlog)

        monkeypatch.setattr(Simulator, "_tick", tick)
        monkeypatch.setattr(AdaptiveBatchController, "next_batch_size", next_batch_size)
        query = queries["equi"]
        result = _run(
            AdaptiveJoinOperator, query, _arrival_order(query),
            batching="adaptive", fault_schedule=crashes,
        )
        assert result.faults_injected == len(crashes)
        assert seen["ticks"] > 50 and seen["segments"] > 0


# ---------------------------------------------------------------------------
# Wire-level delivery merging: control/data interleavings on a toy topology
# ---------------------------------------------------------------------------


class _RecorderTask(Task):
    """Logs every handled message with its virtual start time."""

    def __init__(self, name: str, machine_id: int, log: list, cost: float) -> None:
        super().__init__(name, machine_id)
        self.log = log
        self.cost = cost

    def handle(self, message: Message, ctx) -> None:
        ctx.charge(self.cost)
        payload = message.payload
        tag = payload.record["i"] if isinstance(payload, StreamTuple) else payload
        self.log.append((self.name, message.kind.value, tag, ctx.now))


class _BursterTask(Task):
    """Sends one DATA burst to a recorder when kicked (one handler, one link)."""

    def __init__(self, name: str, machine_id: int, burst: list) -> None:
        super().__init__(name, machine_id)
        self.burst = burst  # (destination, tag, per-send charge) triples

    def handle(self, message: Message, ctx) -> None:
        for destination, tag, charge in self.burst:
            ctx.charge(charge)
            ctx.send(destination, StreamTuple(relation="R", record={"i": tag}))


def _toy_trace(simulator_class, bursts, control_times):
    """Drive competing DATA bursts + priority control messages; return the
    consumer-side handling trace and final machine busy states."""
    simulator = simulator_class(num_machines=4)
    log: list = []
    consumer = _RecorderTask("consumer", machine_id=1, log=log, cost=0.3)
    simulator.register(consumer)
    for index, (kick_time, burst) in enumerate(bursts):
        burster = _BursterTask(
            f"burster-{index}",
            machine_id=(0, 2, 3)[index % 3],
            burst=[("consumer", tag, charge) for tag, charge in burst],
        )
        simulator.register(burster)
        simulator.schedule(
            kick_time,
            burster.name,
            Message(kind=MessageKind.FLUSH, sender="__test__"),
        )
    for position, control_time in enumerate(control_times):
        simulator.schedule(
            control_time,
            "consumer",
            Message(
                kind=MessageKind.MAPPING_CHANGE,
                sender="__test__",
                payload=f"ctl-{position}",
            ),
        )
    simulator.run()
    busy = [(m.busy_until, m.busy_time) for m in simulator.machines]
    return log, busy, simulator.heap_events


class TestDeliveryMergingInterleavings:
    @given(
        bursts=st.lists(
            st.tuples(
                st.integers(0, 12),
                st.lists(
                    st.tuples(st.integers(0, 99), st.sampled_from([0.05, 0.2, 0.7])),
                    min_size=0,
                    max_size=15,
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        control_times=st.lists(st.integers(0, 40), min_size=0, max_size=5),
    )
    # Two MAPPING_CHANGEs at 2.75 push a wake-up from 2.81 past 3.05: each
    # re-arm used to queue a tick entry of its own (7 heap events against
    # the unmerged wire's 6) until a later arm waited behind an earlier
    # queued entry.
    @example(bursts=[(10, [(0, 0.05)])], control_times=[11, 11])
    @settings(max_examples=60, deadline=None)
    def test_control_never_crosses_the_merge_horizon(self, bursts, control_times):
        """Arbitrary interleavings of competing DATA bursts and priority
        control messages: the merged wire must hand every message to the
        receiver at exactly the unmerged virtual time and in exactly the
        unmerged order — a control message can never observe (or be observed
        by) a data member on the wrong side of a run boundary."""
        bursts = [(kick / 4.0, burst) for kick, burst in bursts]
        control_times = [t / 4.0 for t in control_times]
        merged_log, merged_busy, merged_events = _toy_trace(
            Simulator, bursts, control_times
        )
        plain_log, plain_busy, plain_events = _toy_trace(
            UnmergedWireSimulator, bursts, control_times
        )
        assert merged_log == plain_log
        assert merged_busy == plain_busy
        assert merged_events <= plain_events


# ---------------------------------------------------------------------------
# Absolute ground truth: outputs equal the brute-force join
# ---------------------------------------------------------------------------


class TestRunsMatchTheReference:
    """Every predicate and operator against the brute-force join."""

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_materialised_matches_reference(self, queries, predicate, operator):
        query = queries[predicate]
        order = _arrival_order(query)
        result = _run(OPERATORS[operator], query, order)
        label = f"{predicate}/{operator}"
        assert Counter(result.outputs) == reference_outputs(query, order), label
        oracle = _run(OPERATORS[operator], query, order, batching="per_tuple")
        assert_run_equivalent(oracle, result, label=label)
        if operator == "migrating":
            assert result.migrations >= 1, f"{label}: scenario must migrate"

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_fluctuating_matches_reference(self, queries, predicate, operator):
        """The §5.4 fluctuation pattern (cardinality-ratio swings) against the
        brute-force join, on the default plane and the per-tuple oracle."""
        query = queries[predicate]
        order = _arrival_order(query, fluctuating=True)
        result = _run(OPERATORS[operator], query, order)
        label = f"fluct/{predicate}/{operator}"
        assert Counter(result.outputs) == reference_outputs(query, order), label
        oracle = _run(OPERATORS[operator], query, order, batching="per_tuple")
        assert_run_equivalent(oracle, result, label=label)
        if operator == "migrating":
            assert result.migrations >= 1, f"{label}: scenario must migrate"

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_streaming_matches_reference(self, queries, predicate, operator):
        query = queries[predicate]
        order = _arrival_order(query)
        kind = {"migrating": "Dynamic", "static": "StaticMid"}[operator]
        result = _stream_run(
            query, order, _chunking(23, len(order)), operator=kind, batching="adaptive"
        )
        expected = reference_outputs(query, order)
        assert Counter(result.outputs) == expected, f"stream/{predicate}/{operator}"


_HYP_PREDICATES = {
    "equi": lambda: EquiPredicate("k", "k"),
    # Arbitrary float keys: band edges fall between rounded window edges.
    "band_float": lambda: BandPredicate("k", "k", width=0.75),
    # Int keys with an integral float width.
    "band_int": lambda: BandPredicate("k", "k", width=2.0),
    "theta": lambda: ThetaPredicate(
        lambda l, r: l["k"] == r["k"] and (l["v"] + r["v"]) % 2 == 0,
        name="k = k AND v parity",
    ),
}

_INT_RECORDS = st.fixed_dictionaries(
    {"k": st.integers(0, 9), "v": st.integers(0, 29)}
)
_FLOAT_RECORDS = st.fixed_dictionaries(
    {
        "k": st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        "v": st.integers(0, 29),
    }
)


@st.composite
def _random_workloads(draw):
    kind = draw(st.sampled_from(sorted(_HYP_PREDICATES)))
    records = _FLOAT_RECORDS if kind == "band_float" else _INT_RECORDS
    left = draw(st.lists(records, min_size=4, max_size=36))
    right = draw(st.lists(records, min_size=4, max_size=48))
    seed = draw(st.integers(0, 1023))
    return kind, left, right, seed


class TestReferenceProperties:
    @given(workload=_random_workloads())
    @settings(max_examples=16, deadline=None)
    def test_random_workloads_match_reference(self, workload):
        """For ANY workload (predicate kind, records, arrival interleaving)
        the adaptive run produces exactly the brute-force join and stays
        bit-identical to the per-tuple plane."""
        kind, left, right, seed = workload
        query = JoinQuery(
            name=f"HYP-{kind}",
            left_relation="R",
            right_relation="S",
            left_records=left,
            right_records=right,
            predicate=_HYP_PREDICATES[kind](),
            description="randomised reference workload",
        )
        order = _arrival_order(query, seed=seed)
        reference, adaptive = _run_pair(AdaptiveJoinOperator, query, order)
        label = f"hyp/{kind}/seed={seed}"
        assert Counter(adaptive.outputs) == reference_outputs(query, order), label
        assert_run_equivalent(reference, adaptive, label=label)
