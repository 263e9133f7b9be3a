"""Differential conformance suite for the adaptive data plane.

The adaptive plane (``batching="adaptive"``) keeps the wire per-tuple and
coalesces backlog at the receiving machines, so its contract is much stronger
than the fixed plane's: every run must be **bit-identical** to the
``batch_size=1`` reference plane — join output, migration sequence with its
decision/completion times, final mapping, per-machine busy chains, execution
time, average latency, charged probe work and network volumes — while
processing the workload in fewer, larger simulator events.

The suite sweeps the scenario matrix: predicate kind (equi / band /
composite-residual) x arrival pacing (bursty / paced / fluctuating) x
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

import pytest
from repro.testing import assert_run_equivalent
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, RunConfig, crash_after_events
from repro.core.baselines import StaticMidOperator
from repro.core.epochs import JoinerPhase
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.engine.batching import AdaptiveBatchController
from repro.engine.simulator import Simulator
from repro.engine.stream import (
    StreamTuple,
    fluctuating_order,
    interleave_streams,
    make_tuples,
)
from repro.engine.task import DataEnvelope, Message, MessageKind, Task
from repro.joins.predicates import BandPredicate, CompositePredicate, EquiPredicate

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


def _composite_query(rng: random.Random) -> JoinQuery:
    """A composite predicate (equi hash path + residual re-validation)."""
    # Imbalanced cardinalities so the Dynamic operator migrates away from the
    # square start mapping mid-stream.
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
        description="equi join with a parity residual (conformance scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "composite": _composite_query(random.Random(17)),
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
    reference = _run(operator_class, query, order, batch_size=1, **shared)
    adaptive = _run(operator_class, query, order, batching="adaptive", **shared)
    return reference, adaptive


# ---------------------------------------------------------------------------
# Materialised scenario matrix
# ---------------------------------------------------------------------------


class TestMaterialisedConformance:
    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
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

    def test_scalar_engine_adaptive_plane(self, queries):
        """The differential oracle engine rides the adaptive plane unchanged."""
        query = queries["equi"]
        order = _arrival_order(query)
        reference, adaptive = _run_pair(
            AdaptiveJoinOperator, query, order, probe_engine="scalar"
        )
        assert_run_equivalent(reference, adaptive, label="scalar-engine")

    def test_batch_max_caps_runs(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        reference = _run(StaticMidOperator, query, order, batch_size=1)
        adaptive = _run(StaticMidOperator, query, order, batching="adaptive", batch_max=7)
        assert_run_equivalent(reference, adaptive, label="batch_max=7")
        assert max(adaptive.batch_histogram) <= 7

    def test_result_records_plane_metadata(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        reference, adaptive = _run_pair(StaticMidOperator, query, order)
        assert reference.batching == "fixed"
        assert reference.batch_histogram is None
        assert adaptive.batching == "adaptive"
        assert adaptive.batch_size == 1  # per-tuple wire
        drained = sum(size * count for size, count in adaptive.batch_histogram.items())
        assert drained > 0


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
        items = [item.with_epoch(item.epoch) for item in order[position:position + chunk]]
        session.push(items=items)
        position += chunk
    if position < len(order):
        session.push(items=[item.with_epoch(item.epoch) for item in order[position:]])
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
        reference = _stream_run(query, order, chunks, batch_size=1)
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
        reference = _stream_run(query, order, chunks, batch_size=1)
        adaptive = _stream_run(query, order, chunks, batching="adaptive")
        assert_run_equivalent(reference, adaptive, label=f"chunks={chunks[:6]}...")


@pytest.fixture(scope="module")
def small_conformance(small_dataset):
    """A reduced workload for the Hypothesis chunking property (speed)."""
    query = make_query("EQ5", small_dataset)
    order = _arrival_order(query)[:160]
    return query, order


# ---------------------------------------------------------------------------
# BatchController invariants (Hypothesis)
# ---------------------------------------------------------------------------


class TestAdaptiveControllerProperties:
    @given(
        backlogs=st.lists(st.integers(0, 500), min_size=1, max_size=200),
        batch_max=st.integers(1, 128),
    )
    @settings(max_examples=100, deadline=None)
    def test_sizes_always_within_bounds(self, backlogs, batch_max):
        controller = AdaptiveBatchController(batch_max=batch_max)
        for backlog in backlogs:
            size = controller.next_batch_size(backlog)
            assert 1 <= size <= batch_max
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
        batch_max=st.integers(1, 128),
        rounds=st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_growth_under_sustained_backlog(self, batch_max, rounds):
        controller = AdaptiveBatchController(batch_max=batch_max)
        sizes = [controller.next_batch_size(10 * batch_max) for _ in range(rounds)]
        assert sizes == sorted(sizes), "sizes must be non-decreasing under backlog"
        if rounds >= 8:  # the doubling ramp reaches any cap <= 128 in 8 rounds
            assert sizes[-1] == batch_max

    def test_invalid_batch_max_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveBatchController(batch_max=0)


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
        for kind in (
            MessageKind.EPOCH_SIGNAL,
            MessageKind.MIGRATION_END,
            MessageKind.BATCH,
        ):
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
        source = Message(
            kind=MessageKind.SOURCE, sender="__source__", payload=_data_message(0).payload
        )
        assert reshuffler.drain_key(source) is not None
        assert reshuffler.drain_key(_data_message(0)) is None  # non-SOURCE


@pytest.fixture(scope="module")
def normal_joiner(queries):
    from repro.core.operator import GridJoinOperator

    operator = GridJoinOperator(queries["equi"], config=_config(batching="adaptive"))
    simulator, topology = operator.build_execution()
    return simulator.tasks[topology.joiner_names[0]]


# ---------------------------------------------------------------------------
# Wire-level delivery merging: exactness of the merged wire
# ---------------------------------------------------------------------------


class TestDeliveryMergingConformance:
    """The merged wire must be invisible in every observable quantity."""

    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
    def test_merged_adaptive_equals_per_tuple_oracle(self, queries, predicate):
        query = queries[predicate]
        order = _arrival_order(query)
        reference, merged = _run_pair(AdaptiveJoinOperator, query, order)
        assert_run_equivalent(reference, merged, label=f"merge/{predicate}")
        # The merged wire must actually collapse heap traffic, not pass
        # trivially: under the bursty backlog the channel runs absorb the
        # per-tuple deliveries (the >=2x gate at benchmark scale lives in
        # bench_fig7a_throughput.py).
        assert merged.heap_events * 2 < reference.heap_events, (
            merged.heap_events, reference.heap_events,
        )
        assert merged.wire_histogram and reference.wire_histogram is None
        assert max(merged.wire_histogram) > 8  # multi-member runs exist

    def test_plane_picks_the_wire(self, queries):
        """Draining planes run on the merged wire; the fixed plane keeps the
        unmerged reference wire."""
        query = queries["equi"]
        planes = (({"batching": "adaptive"}, True), ({"batch_size": 1}, False))
        for overrides, merged in planes:
            operator = AdaptiveJoinOperator(query, config=_config(**overrides))
            simulator, _ = operator.build_execution()
            assert simulator._merge_wire is merged, overrides

    def test_merging_on_the_per_tuple_fixed_plane(self, queries, monkeypatch):
        """The merge layer is plane-agnostic: installed on the per-tuple fixed
        plane (no drain controllers at all) it must still be bit-identical."""
        query = queries["equi"]
        order = _arrival_order(query)
        reference = _run(StaticMidOperator, query, order, batch_size=1)
        build = StaticMidOperator.build_execution

        def build_merged(self, *args, **kwargs):
            simulator, topology = build(self, *args, **kwargs)
            simulator.enable_delivery_merging()
            return simulator, topology

        monkeypatch.setattr(StaticMidOperator, "build_execution", build_merged)
        merged = _run(StaticMidOperator, query, order, batch_size=1)
        assert_run_equivalent(reference, merged, label="fixed-plane merge")
        assert merged.heap_events < reference.heap_events

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
            ctx.send(
                destination,
                DataEnvelope(
                    MessageKind.DATA,
                    self.name,
                    StreamTuple(relation="R", record={"i": tag}),
                    0,
                    1.0,
                ),
            )


def _toy_trace(merging: bool, bursts, control_times):
    """Drive competing DATA bursts + priority control messages; return the
    consumer-side handling trace and final machine busy states."""
    simulator = Simulator(num_machines=4, seed=0)
    if merging:
        simulator.enable_delivery_merging()
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
            True, bursts, control_times
        )
        plain_log, plain_busy, plain_events = _toy_trace(False, bursts, control_times)
        assert merged_log == plain_log
        assert merged_busy == plain_busy
        assert merged_events <= plain_events

    def test_off_cluster_senders_bypass_merging(self):
        """Sends from off-cluster tasks (machine_id -1) skip the link-FIFO
        clamp, so they must not join open channel runs (whose key arrays must
        stay sorted) — and must in particular never collide with the feed
        channel bucket.  The trace must still be exactly per-tuple."""
        def run(merging):
            simulator = Simulator(num_machines=2, seed=0)
            if merging:
                simulator.enable_delivery_merging()
            log: list = []
            consumer = _RecorderTask("consumer", machine_id=0, log=log, cost=0.2)
            off_cluster = _BursterTask(
                "feeder",
                machine_id=-1,
                burst=[("consumer", tag, 0.0) for tag in range(6)],
            )
            simulator.register(consumer)
            simulator.register(off_cluster)
            simulator.schedule(
                0.0, "feeder", Message(kind=MessageKind.FLUSH, sender="__test__")
            )
            simulator.run()
            return log
        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Default probe engine: differential conformance vs the scalar oracle
# ---------------------------------------------------------------------------


#: Data-plane configurations the scalar-vs-vectorized cells run on.  Both
#: sides of a cell share the plane, so the comparison may pin the event
#: plumbing too.
ENGINE_PLANES = {
    "fixed": {"batch_size": 4},
    "adaptive": {"batching": "adaptive"},
}


class TestVectorizedEngineConformance:
    """The default (vectorized) engine against the scalar differential oracle.

    These are *same-plane* pairs (unlike the plane-vs-plane suites above), so
    ``events=True`` additionally pins the global heap-event count and the
    wire-merge histogram: index-decided candidates (exact-key buckets, exact
    integer band windows) change how member work is computed, never what
    flows over the wire.
    """

    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    @pytest.mark.parametrize("plane", sorted(ENGINE_PLANES))
    def test_materialised_matches_scalar_oracle(
        self, queries, predicate, operator, plane
    ):
        query = queries[predicate]
        order = _arrival_order(query)
        shared = ENGINE_PLANES[plane]
        scalar = _run(
            OPERATORS[operator], query, order, probe_engine="scalar", **shared
        )
        vectorized = _run(OPERATORS[operator], query, order, **shared)
        label = f"vectorized/{predicate}/{operator}/{plane}"
        assert_run_equivalent(scalar, vectorized, events=True, label=label)
        if operator == "migrating":
            assert scalar.migrations >= 1, f"{label}: scenario must migrate"

    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_streaming_matches_scalar_oracle(self, queries, predicate, operator):
        query = queries[predicate]
        order = _arrival_order(query)
        chunks = _chunking(23, len(order))
        kind = {"migrating": "Dynamic", "static": "StaticMid"}[operator]
        scalar = _stream_run(
            query, order, chunks,
            operator=kind, batching="adaptive", probe_engine="scalar",
        )
        vectorized = _stream_run(
            query, order, chunks, operator=kind, batching="adaptive",
        )
        label = f"vectorized-stream/{predicate}/{operator}"
        assert_run_equivalent(scalar, vectorized, events=True, label=label)


_HYP_PREDICATES = {
    "equi": lambda: EquiPredicate("k", "k"),
    # Quarter-step float keys: every window is validated pair by pair.
    "band_float": lambda: BandPredicate("k", "k", width=2.0),
    # Int keys with an integral float width: every window is exact.
    "band_int": lambda: BandPredicate("k", "k", width=2.0),
    "composite": lambda: CompositePredicate(
        EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
    ),
}

_INT_RECORDS = st.fixed_dictionaries(
    {"k": st.integers(0, 9), "v": st.integers(0, 29)}
)
# Quarter-steps are exactly representable, so the scalar oracle's float
# arithmetic is deterministic while the keys keep band windows off the exact
# integer path.
_FLOAT_RECORDS = st.fixed_dictionaries(
    {"k": st.integers(0, 40).map(lambda n: n / 4.0), "v": st.integers(0, 29)}
)


@st.composite
def _random_workloads(draw):
    kind = draw(st.sampled_from(sorted(_HYP_PREDICATES)))
    records = _FLOAT_RECORDS if kind == "band_float" else _INT_RECORDS
    left = draw(st.lists(records, min_size=4, max_size=36))
    right = draw(st.lists(records, min_size=4, max_size=48))
    seed = draw(st.integers(0, 1023))
    return kind, left, right, seed


class TestVectorizedDifferentialProperties:
    @given(workload=_random_workloads())
    @settings(max_examples=16, deadline=None)
    def test_random_workloads_match_scalar_oracle(self, workload):
        """For ANY workload (predicate kind, records, arrival interleaving)
        the default engine reproduces the scalar oracle bit-for-bit, event
        plumbing included."""
        kind, left, right, seed = workload
        query = JoinQuery(
            name=f"HYP-{kind}",
            left_relation="R",
            right_relation="S",
            left_records=left,
            right_records=right,
            predicate=_HYP_PREDICATES[kind](),
            description="randomised vectorized-vs-scalar differential workload",
        )
        order = _arrival_order(query, seed=seed)
        scalar = _run(
            AdaptiveJoinOperator, query, order,
            batching="adaptive", probe_engine="scalar",
        )
        vectorized = _run(AdaptiveJoinOperator, query, order, batching="adaptive")
        assert_run_equivalent(
            scalar, vectorized, events=True, label=f"hyp/{kind}/seed={seed}"
        )
