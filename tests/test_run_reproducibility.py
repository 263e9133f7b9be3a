"""Reproducibility contract: a run is a pure function of its inputs.

Every deterministic quantity the repository reports — join output, migration
sequence with decision/completion times, final mapping, per-machine busy
chains, execution time, probe work, network volumes, heap events and wire
histograms — must depend only on the :class:`RunConfig` and the arrival
order.  The ledger's bit-identity claims (``virt_throughput``,
``ilf_ratio_max``, migration timelines) rest on it.

The suite pins that contract across:

* **Reruns** — the scenario matrix predicate kind (equi / band /
  composite-residual) x operator (migrating Dynamic / static) x data plane
  (per-tuple / fixed batches / adaptive draining), each run twice from fresh
  operators and compared with ``events=True``, nothing ignored.
* **No leaked state** — a different scenario run in between leaves the
  rerun unchanged (no process-global cache may feed back into a result).
* **Entry points** — the ``JoinSession`` path and a JSON round-tripped
  config reproduce the direct operator run.
* **Streaming** — the same chunking reproduces itself, for any seed and
  plane (Hypothesis leg).
* **Faults** — crashed runs (time- and event-anchored, with and without a
  durable journal) and unreliable-wire runs reproduce bit for bit and still
  recover the fault-free twin's output multiset.

Runs that are compared share ONE materialised arrival order (``StreamTuple``
ids come from a process-global counter).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    JoinSession,
    RunConfig,
    crash,
    crash_after_events,
    delay,
    drop,
    duplicate,
    partition,
)
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.predicates import CompositePredicate, EquiPredicate
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
    "per_tuple": {"batch_size": 1},
    "fixed": {"batch_size": 16},
    "adaptive": {"batching": "adaptive"},
}

#: Planes the fault cells cross, with the event anchor of a mid-run crash on
#: the workload below (the smoke-verified midpoints of
#: tests/test_fault_recovery.py).
CRASH_EVENTS = {"per_tuple": 500, "adaptive": 200}

#: Drops, duplicates and delays over several links plus a partition window.
WIRE_FAULTS = (
    drop((0, 1), 3),
    drop((2, 5), 1),
    duplicate((1, 4), 2),
    duplicate((3, 0), 1),
    delay((3, 6), 4, by=2.5),
    delay((5, 2), 2, by=4.0),
    partition((0, 1), (4, 5), 8.0, 11.0),
)


def _composite_query(rng: random.Random) -> JoinQuery:
    """A composite predicate (equi hash path + residual re-validation)."""
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
        description="equi join with a parity residual (reproducibility scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "composite": _composite_query(random.Random(17)),
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
    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
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

    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
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
# Entry points: session facade and serialised configs
# ---------------------------------------------------------------------------


class TestEntryPointEquivalence:
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_session_run_matches_operator_run(self, queries, orders, plane, operator):
        query, order = queries["equi"], orders["equi"]
        direct = _run(OPERATORS[operator], query, order, **PLANES[plane])
        session = JoinSession(query, config=_config(**PLANES[plane]))
        via_session = session.run(
            operator=SESSION_NAMES[operator], arrival_order=order, collect_outputs=True
        )
        assert_run_equivalent(
            direct, via_session, events=True, label=f"session/{plane}/{operator}"
        )

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_json_round_tripped_config_reproduces_run(self, queries, orders, plane):
        """A serialised config (CI breadcrumbs, ``--config file.json``) is a
        complete description of the run."""
        query, order = queries["band"], orders["band"]
        config = _config(**PLANES[plane])
        restored = RunConfig.from_json(config.to_json())
        assert restored == config
        original = AdaptiveJoinOperator(query, config=config).run(
            arrival_order=order, collect_outputs=True
        )
        replayed = AdaptiveJoinOperator(query, config=restored).run(
            arrival_order=order, collect_outputs=True
        )
        assert_run_equivalent(original, replayed, events=True, label=f"json/{plane}")


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
# Faults: crashes and the unreliable wire
# ---------------------------------------------------------------------------


def _crash_overrides(anchor, plane, twin):
    if anchor == "time":
        return {
            "fault_schedule": [crash(3, twin.execution_time * 0.4)],
            "checkpoint_interval": 8,
        }
    schedule = [crash_after_events(3, CRASH_EVENTS[plane])]
    if anchor == "events":
        return {"fault_schedule": schedule, "checkpoint_interval": 8}
    return {"fault_schedule": schedule}  # no journal: replay from the stream


class TestFaultReproducibility:
    @pytest.mark.parametrize("anchor", ["time", "events", "events_unjournaled"])
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
