"""Reproducibility contract: a run is a pure function of its inputs.

Every deterministic quantity the repository reports — join output, migration
sequence with decision/completion times, final mapping, per-machine busy
chains, execution time, probe work, network volumes, heap events and wire
histograms — must depend only on the :class:`RunConfig` and the arrival
order.  The ledger's bit-identity claims (``virt_throughput``,
``ilf_ratio_max``, migration timelines) rest on it.

The suite pins that contract across:

* **Reruns** — the scenario matrix predicate kind (equi / band /
  theta scan) x operator (migrating Dynamic / static) x data plane
  (per-tuple / adaptive draining, bursty and paced), each run twice from fresh
  operators and compared with ``events=True``, nothing ignored.
* **No leaked state** — a different scenario run in between leaves the
  rerun unchanged (no process-global cache may feed back into a result).
* **Entry points** — the ``JoinSession`` path reproduces the direct
  operator run, and so does a config rebuilt from its fields.
* **Streaming** — the same chunking reproduces itself, for any seed and
  plane (Hypothesis leg).
* **Stamped orders** — tuples are stamped in place (arrival time, epoch), so
  one order list pushed through consecutive sessions must reproduce a run
  over pristine copies every time.
* **Faults** — crashed runs (at a fixed event anchor or one taken from the
  fault-free twin's event count, with and without a durable journal) and unreliable-wire runs reproduce bit for bit and still
  recover the fault-free twin's output multiset.

Runs that are compared share ONE materialised arrival order (``StreamTuple``
ids come from a process-global counter).
"""

from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    JoinSession,
    RunConfig,
    crash_after_events,
    delay,
    drop,
    duplicate,
)
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.predicates import ThetaPredicate
from repro.testing import assert_run_equivalent

MACHINES = 8
SEED = 5

OPERATORS = {
    "migrating": AdaptiveJoinOperator,   # warmup 16 -> migrates mid-stream
    "static": StaticMidOperator,         # never migrates
}

#: Session names of the operators above.
SESSION_NAMES = {"migrating": "Dynamic", "static": "StaticMid"}

PLANES = {
    "per_tuple": {"batching": "per_tuple"},
    "adaptive": {"batching": "adaptive"},
    # Spaced arrivals: the drain controller collapses towards single-member
    # runs and the feed's arrival times, not the backlog, shape every run.
    "adaptive_paced": {"batching": "adaptive", "inter_arrival": 0.15},
}

#: Planes the fault cells cross, with the event anchor of a mid-run crash on
#: the workload below (the smoke-verified midpoints of
#: tests/test_fault_recovery.py).
CRASH_EVENTS = {"per_tuple": 500, "adaptive": 200}

#: Drops, duplicates and delays over several links.
WIRE_FAULTS = (
    drop((0, 1), 3),
    drop((2, 5), 1),
    duplicate((1, 4), 2),
    duplicate((3, 0), 1),
    delay((3, 6), 4, by=2.5),
    delay((5, 2), 2, by=4.0),
)


def _theta_query(rng: random.Random) -> JoinQuery:
    """A theta predicate (scan path, every candidate checked per pair)."""
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
        description="equality plus parity as a theta scan (reproducibility scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "theta": _theta_query(random.Random(17)),
    }


@pytest.fixture(scope="module")
def orders(queries):
    return {kind: _arrival_order(query) for kind, query in queries.items()}


def _arrival_order(query, seed=SEED):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


def _config(**overrides):
    knobs = {"machines": MACHINES, "seed": SEED, "warmup_tuples": 16}
    knobs.update(overrides)
    return RunConfig(**knobs)


def _run(operator_class, query, order, **overrides):
    operator = operator_class(query, config=_config(**overrides))
    return operator.run(arrival_order=order, collect_outputs=True)


def _stream_run(query, order, chunks, **overrides):
    session = JoinSession(query, operator="Dynamic", config=_config(**overrides))
    session.open_stream(collect_outputs=True)
    position = 0
    for chunk in chunks:
        if position >= len(order):
            break
        session.push(items=list(order[position:position + chunk]))
        position += chunk
    if position < len(order):
        session.push(items=list(order[position:]))
    return session.finish()


def _chunking(total, seed):
    rng = random.Random(seed)
    chunks, remaining = [], total
    while remaining > 0:
        chunk = rng.randrange(1, 120)
        chunks.append(chunk)
        remaining -= chunk
    return chunks


# ---------------------------------------------------------------------------
# Materialised scenario matrix
# ---------------------------------------------------------------------------


class TestRerunMatrix:
    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    def test_rerun_is_bit_identical(self, queries, orders, predicate, plane, operator):
        query, order = queries[predicate], orders[predicate]
        first = _run(OPERATORS[operator], query, order, **PLANES[plane])
        second = _run(OPERATORS[operator], query, order, **PLANES[plane])
        label = f"{predicate}/{plane}/{operator}"
        assert_run_equivalent(first, second, events=True, label=label)
        assert first.output_count > 0, f"{label}: scenario must produce output"
        if operator == "migrating":
            assert first.migrations >= 1, f"{label}: scenario must migrate"

    @pytest.mark.parametrize("predicate", ["equi", "band", "theta"])
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_interleaved_scenario_leaves_rerun_unchanged(
        self, queries, orders, predicate, plane
    ):
        """A different query on a different plane, run in between, must not
        feed any process-global state (placement caches, predicate caches,
        controller state) back into the rerun."""
        query, order = queries[predicate], orders[predicate]
        first = _run(AdaptiveJoinOperator, query, order, **PLANES[plane])
        other = "band" if predicate != "band" else "equi"
        other_plane = "adaptive" if plane != "adaptive" else "per_tuple"
        _run(AdaptiveJoinOperator, queries[other], orders[other], **PLANES[other_plane])
        second = _run(AdaptiveJoinOperator, query, order, **PLANES[plane])
        assert_run_equivalent(
            first, second, events=True, label=f"interleaved/{predicate}/{plane}"
        )


# ---------------------------------------------------------------------------
# Entry points: session facade and rebuilt configs
# ---------------------------------------------------------------------------


class TestEntryPointEquivalence:
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_session_run_matches_operator_run(self, queries, orders, plane, operator):
        query, order = queries["equi"], orders["equi"]
        direct = _run(OPERATORS[operator], query, order, **PLANES[plane])
        session = JoinSession(
            query, operator=SESSION_NAMES[operator], config=_config(**PLANES[plane])
        )
        via_session = session.run(arrival_order=order, collect_outputs=True)
        assert_run_equivalent(
            direct, via_session, events=True, label=f"session/{plane}/{operator}"
        )

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_config_rebuilt_from_its_fields_reproduces_run(self, queries, orders, plane):
        """The 13 fields are a complete description of the run: a config
        rebuilt field by field carries no less (and no hidden state)."""
        query, order = queries["band"], orders["band"]
        config = _config(**PLANES[plane])
        rebuilt = RunConfig(**{f.name: getattr(config, f.name) for f in fields(config)})
        assert rebuilt == config and rebuilt is not config
        original = AdaptiveJoinOperator(query, config=config).run(
            arrival_order=order, collect_outputs=True
        )
        restored = AdaptiveJoinOperator(query, config=rebuilt).run(
            arrival_order=order, collect_outputs=True
        )
        assert_run_equivalent(original, restored, events=True, label=f"rebuilt/{plane}")


# ---------------------------------------------------------------------------
# Streaming ingestion
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_scenario(queries, orders):
    """A reduced workload for the Hypothesis leg (speed)."""
    return queries["equi"], orders["equi"][:160]


class TestStreamingReproducibility:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("chunk_seed", [3, 99])
    def test_streamed_rerun_is_bit_identical(self, queries, orders, chunk_seed, plane):
        """Each push runs the simulation to quiescence; the cumulative run
        must still reproduce exactly under the same chunking."""
        query, order = queries["equi"], orders["equi"]
        chunks = _chunking(len(order), chunk_seed)
        first = _stream_run(query, order, chunks, **PLANES[plane])
        second = _stream_run(query, order, chunks, **PLANES[plane])
        assert_run_equivalent(
            first, second, events=True, label=f"stream/{plane}/chunking-{chunk_seed}"
        )
        assert first.output_count > 0

    @given(seed=st.integers(0, 2**16), plane=st.sampled_from(sorted(PLANES)))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_and_plane_reproduces(self, small_scenario, seed, plane):
        query, order = small_scenario
        shared = dict(PLANES[plane], seed=seed)
        first = _run(AdaptiveJoinOperator, query, order, **shared)
        second = _run(AdaptiveJoinOperator, query, order, **shared)
        assert_run_equivalent(first, second, events=True, label=f"seed={seed}/{plane}")


# ---------------------------------------------------------------------------
# Stamped orders: one order list through consecutive sessions
# ---------------------------------------------------------------------------


#: Session configurations the reuse cells cover; ``chunk`` pushes the order
#: through the streaming facade in chunks of that size instead of run().
REUSE_CELLS = {
    "adaptive": {"batching": "adaptive"},
    "per_tuple": {"batching": "per_tuple"},
    "paced": {"batching": "adaptive", "inter_arrival": 0.15},
    "faulty_stream": {
        "batching": "adaptive",
        "inter_arrival": 0.75,
        "checkpoint_interval": 8,
        "fault_schedule": (crash_after_events(3, 200),),
        "network_faults": WIRE_FAULTS,
        "chunk": 64,
    },
}


def _session_run(query, order, overrides):
    overrides = dict(overrides)
    chunk = overrides.pop("chunk", None)
    session = JoinSession(query, operator="Dynamic", config=_config(**overrides))
    if chunk is None:
        return session.run(arrival_order=order, collect_outputs=True)
    session.open_stream(collect_outputs=True)
    for start in range(0, len(order), chunk):
        session.push(items=order[start:start + chunk])
    return session.finish()


class TestStampedOrderReuse:
    @pytest.mark.parametrize("cell", sorted(REUSE_CELLS))
    def test_consecutive_sessions_match_a_pristine_run(self, queries, cell):
        """The feed stamps ``arrival_time`` and the reshuffler ``epoch`` on
        the tuple objects themselves, so a second session over the same
        order list starts from the first one's stamps.  Both sessions must
        be bit-identical to a run over unstamped copies: every stamp is
        overwritten before anything reads it."""
        query = queries["equi"]
        order = _arrival_order(query)
        pristine = [replace(item) for item in order]  # same ids, never run
        reference = _session_run(query, pristine, REUSE_CELLS[cell])
        assert reference.migrations >= 1, cell
        for session in ("first", "second"):
            result = _session_run(query, order, REUSE_CELLS[cell])
            assert_run_equivalent(
                reference, result, events=True, label=f"reuse/{cell}/{session}"
            )
            assert result.wire_counters == reference.wire_counters
        if cell == "faulty_stream":
            assert reference.faults_injected == 1
            assert reference.wire_counters["dropped"] > 0
        assert any(item.epoch for item in order), "the migration must re-tag tuples"


# ---------------------------------------------------------------------------
# Faults: crashes and the unreliable wire
# ---------------------------------------------------------------------------


def _crash_overrides(anchor, plane, twin):
    if anchor == "twin_share":
        return {
            "fault_schedule": [crash_after_events(3, twin.events_processed * 2 // 5)],
            "checkpoint_interval": 8,
        }
    schedule = [crash_after_events(3, CRASH_EVENTS[plane])]
    if anchor == "events":
        return {"fault_schedule": schedule, "checkpoint_interval": 8}
    return {"fault_schedule": schedule}  # no journal: replay from the stream


class TestFaultReproducibility:
    @pytest.mark.parametrize("anchor", ["twin_share", "events", "events_unjournaled"])
    @pytest.mark.parametrize("plane", sorted(CRASH_EVENTS))
    def test_crashed_rerun_is_bit_identical(self, queries, orders, plane, anchor):
        query, order = queries["equi"], orders["equi"]
        twin = _run(AdaptiveJoinOperator, query, order, **PLANES[plane])
        overrides = dict(PLANES[plane], **_crash_overrides(anchor, plane, twin))
        first = _run(AdaptiveJoinOperator, query, order, **overrides)
        second = _run(AdaptiveJoinOperator, query, order, **overrides)
        label = f"crash/{anchor}/{plane}"
        assert_run_equivalent(first, second, events=True, label=label)
        assert first.faults_injected == 1, label
        assert first.recovery_time > 0.0, label
        assert sorted(first.outputs) == sorted(twin.outputs), (
            f"{label}: recovered outputs differ from the fault-free twin"
        )

    @pytest.mark.parametrize("plane", sorted(CRASH_EVENTS))
    def test_unreliable_wire_rerun_is_bit_identical(self, queries, orders, plane):
        query, order = queries["equi"], orders["equi"]
        twin = _run(AdaptiveJoinOperator, query, order, **PLANES[plane])
        overrides = dict(PLANES[plane], network_faults=WIRE_FAULTS)
        first = _run(AdaptiveJoinOperator, query, order, **overrides)
        second = _run(AdaptiveJoinOperator, query, order, **overrides)
        assert_run_equivalent(first, second, events=True, label=f"wire/{plane}")
        assert first.wire_counters == second.wire_counters
        assert first.wire_counters["dropped"] > 0
        assert sorted(first.outputs) == sorted(twin.outputs), plane
