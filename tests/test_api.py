"""The public session API: RunConfig, registries, JoinSession, migration shim.

Pins the contracts of ``repro.api``:

* ``RunConfig`` round-trips exactly through ``to_dict``/``from_dict`` (and
  JSON), validates eagerly (unknown fields, bad values, unregistered
  probe engines/layouts) and is immutable.
* Override precedence is ``session default < config < call-site``.
* Registries reject duplicate registrations and list choices on unknown
  names; registered third-party components flow through the session.
* ``import repro`` loads no NumPy, and exactly two probe engines ship:
  ``vectorized`` and its ``scalar`` oracle.
* The legacy loose-kwargs constructor shim is gone: constructing an operator
  from loose keyword arguments without a config raises ``TypeError`` pointing
  at ``RunConfig``; ``make_operator`` routes through the validated config
  path and stays bit-identical to the session path.
* The streaming ``push()`` ingestion yields identical final join results to
  the materialised path on EQ5 at ``batch_size ∈ {1, 64}``.
"""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import (
    FaultSpec,
    JoinSession,
    RunConfig,
    crash,
    crash_after_events,
    build_operator,
    operators,
    predicate_kinds,
    probe_engines,
    register_operator,
    register_probe_engine,
)
from repro.core.baselines import make_operator
from repro.core.operator import AdaptiveJoinOperator, GridJoinOperator
from repro.core.results import RunResult
from repro.data.queries import make_query
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.local import ProbeEngine


def _arrival_order(query, seed):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

class TestRunConfig:
    def test_dict_round_trip(self):
        config = RunConfig(
            machines=8,
            seed=3,
            epsilon=0.5,
            warmup_tuples=32.0,
            layout="row_major",
            blocking=True,
            memory_capacity=123.0,
            sample_every=50,
            batch_size=16,
            probe_engine="scalar",
            arrival_pattern="s_first",
            inter_arrival=0.25,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = RunConfig(machines=4, batch_size=None, memory_capacity=None)
        assert RunConfig.from_json(config.to_json()) == config

    def test_defaults_round_trip(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_with_overrides_returns_new_validated_config(self):
        config = RunConfig(machines=8)
        updated = config.with_overrides(seed=9, batch_size=2)
        assert (updated.machines, updated.seed, updated.batch_size) == (8, 9, 2)
        assert config.seed == 0  # original untouched (frozen)
        assert config.with_overrides() is config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunConfig field.*warmup_tuple\\b"):
            RunConfig().with_overrides(warmup_tuple=3)
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig.from_dict({"machine_count": 8})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"machines": 0},
            {"machines": "sixteen"},
            {"epsilon": 0.0},
            {"batch_size": 0},
            {"sample_every": 0},
            {"inter_arrival": -1.0},
            {"memory_capacity": -5.0},
            {"arrival_pattern": "sorted"},
            {"blocking": "yes"},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**overrides)

    def test_unregistered_probe_engine_lists_choices(self):
        with pytest.raises(ValueError, match="scalar.*vectorized|vectorized.*scalar"):
            RunConfig(probe_engine="simd")

    def test_unknown_layout_lists_choices(self):
        with pytest.raises(ValueError, match="dyadic"):
            RunConfig(layout="column_major")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().machines = 4


class TestBatchingKnobs:
    """Error paths and serialisation of the batching-plane configuration."""

    def test_unknown_batching_lists_registered_choices(self):
        with pytest.raises(ValueError, match="adaptive.*fixed|fixed.*adaptive"):
            RunConfig(batching="turbo")

    def test_batch_max_rejected_on_fixed_plane(self):
        with pytest.raises(ValueError, match="batch_max.*adaptive|adaptive.*batch_max"):
            RunConfig(batching="fixed", batch_max=32)
        with pytest.raises(ValueError):
            RunConfig(batch_max=32)  # batching defaults to "fixed"

    def test_batch_size_rejected_on_adaptive_plane(self):
        with pytest.raises(ValueError, match="batch_size.*fixed plane"):
            RunConfig(batching="adaptive", batch_size=64)

    def test_blocking_rejected_on_adaptive_plane(self):
        with pytest.raises(ValueError, match="non-blocking"):
            RunConfig(batching="adaptive", blocking=True)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"batching": 7},
            {"batching": "adaptive", "batch_max": 0},
            {"batching": "adaptive", "batch_max": -3},
            {"batch_max": 1.5, "batching": "adaptive"},
        ],
    )
    def test_invalid_batching_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**overrides)

    def test_adaptive_knobs_json_round_trip(self):
        config = RunConfig(machines=8, batching="adaptive", batch_max=32)
        assert RunConfig.from_json(config.to_json()) == config
        as_dict = config.to_dict()
        assert as_dict["batching"] == "adaptive"
        assert as_dict["batch_max"] == 32
        assert RunConfig.from_dict(as_dict) == config

    def test_adaptive_eagerly_validated_at_operator_construction(self, eq5_query):
        from repro.core.operator import GridJoinOperator

        with pytest.raises(ValueError, match="registered choices"):
            GridJoinOperator(eq5_query, config=RunConfig(), batching="turbo")

    def test_adaptive_flows_through_session(self, eq5_query):
        session = JoinSession(
            eq5_query, config=RunConfig(machines=8, seed=3, batching="adaptive")
        )
        result = session.run()
        assert result.batching == "adaptive"
        assert result.batch_histogram
        assert result.output_count > 0


class TestRecoveryKnobs:
    """Error paths and serialisation of the fault-tolerance configuration."""

    def test_fault_schedule_json_round_trip(self):
        config = RunConfig(
            machines=8,
            fault_schedule=[
                crash(3, 12.5),
                crash_after_events(1, 400, restart_after=2.0),
            ],
            checkpoint_interval=50,
            ack_timeout=2.5,
            max_retries=3,
        )
        assert RunConfig.from_json(config.to_json()) == config
        as_dict = config.to_dict()
        assert as_dict["checkpoint_interval"] == 50
        assert as_dict["fault_schedule"][0]["machine"] == 3
        assert RunConfig.from_dict(as_dict) == config

    def test_schedule_normalised_to_fault_specs(self):
        config = RunConfig(
            machines=8, fault_schedule=[{"machine": 2, "after_events": 100}]
        )
        assert isinstance(config.fault_schedule, tuple)
        assert all(isinstance(f, FaultSpec) for f in config.fault_schedule)

    def test_fault_machine_out_of_range_lists_choices(self):
        with pytest.raises(ValueError, match="choices: 0..7"):
            RunConfig(machines=8, fault_schedule=[crash(8, 1.0)])

    def test_faults_rejected_on_blocking_protocol(self):
        with pytest.raises(ValueError, match="non-blocking"):
            RunConfig(machines=8, blocking=True, fault_schedule=[crash(0, 1.0)])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fault_schedule": [{"machine": -1, "at_time": 1.0}]},
            {"fault_schedule": [{"machine": 0}]},  # no anchor
            {"fault_schedule": [{"machine": 0, "at_time": 1.0, "after_events": 5}]},
            {"fault_schedule": [{"machine": 0, "at_time": -1.0}]},
            {"fault_schedule": [{"machine": 0, "after_events": 0}]},
            {"fault_schedule": [{"machine": 0, "at_time": 1.0, "restart_after": 0}]},
            {"fault_schedule": 7},
            {"checkpoint_interval": 0},
            {"checkpoint_interval": -5},
            {"checkpoint_interval": 2.5},
            {"ack_timeout": 0.0},
            {"ack_timeout": -1.0},
            {"max_retries": -1},
            {"max_retries": 1.5},
        ],
    )
    def test_invalid_recovery_values_rejected(self, overrides):
        with pytest.raises((ValueError, TypeError)):
            RunConfig(machines=8, **overrides)

    def test_checkpointing_without_faults_is_valid(self):
        config = RunConfig(machines=8, checkpoint_interval=25)
        assert config.fault_schedule == ()
        assert RunConfig.from_dict(config.to_dict()) == config


class TestRetiredKnobs:
    """The execution-backend and wire switches are gone: one simulator, and
    the batching plane picks the wire."""

    RETIRED_KEYS = [
        ("executor", "simulated"),
        ("num_workers", 4),
        ("worker_timeout", 30.0),
        ("delivery_merging", True),
    ]

    @pytest.mark.parametrize("key, value", RETIRED_KEYS)
    def test_retired_key_rejected_by_name(self, key, value):
        payload = {**RunConfig(machines=8).to_dict(), key: value}
        with pytest.raises(ValueError, match=f"unknown RunConfig field\\(s\\): {key};"):
            RunConfig.from_dict(payload)

    @pytest.mark.parametrize("key, value", RETIRED_KEYS)
    def test_retired_key_rejected_by_with_overrides(self, key, value):
        with pytest.raises(ValueError, match=f"unknown RunConfig field\\(s\\): {key};"):
            RunConfig(machines=8).with_overrides(**{key: value})
        with pytest.raises(TypeError, match=key):
            RunConfig(machines=8, **{key: value})

    @pytest.mark.parametrize("key, value", RETIRED_KEYS)
    def test_retired_key_rejected_at_call_site(self, eq5_query, key, value):
        """Session construction and per-run overrides reach the same check —
        a stale script fails loudly instead of running a different setup."""
        with pytest.raises(ValueError, match=f"unknown RunConfig field\\(s\\): {key};"):
            JoinSession(eq5_query, machines=8, **{key: value})
        session = JoinSession(eq5_query, config=RunConfig(machines=8))
        with pytest.raises(ValueError, match=f"unknown RunConfig field\\(s\\): {key};"):
            session.operator(**{key: value})

    @pytest.mark.parametrize(
        "name",
        [
            "executor",
            "worker_wall",
            "worker_events",
            "effective_workers",
            "overlap_dispatches",
            "peak_inflight",
            "delivery_merging",
        ],
    )
    def test_retired_result_field_absent(self, eq5_query, name):
        assert name not in {f.name for f in dataclasses.fields(RunResult)}
        result = JoinSession(eq5_query, config=RunConfig(machines=4)).run()
        assert not hasattr(result, name)
        assert name not in result.summary_row()

    def test_field_count(self):
        assert len(dataclasses.fields(RunConfig)) == 21


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

class TestRegistries:
    def test_builtins_registered(self):
        assert set(operators.names()) >= {"Dynamic", "Grid", "SHJ", "StaticMid", "StaticOpt"}
        assert set(probe_engines.names()) >= {"scalar", "vectorized"}
        assert set(predicate_kinds.names()) >= {"band", "equi", "theta"}

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_operator("Dynamic", AdaptiveJoinOperator)
        with pytest.raises(ValueError, match="already registered"):
            register_probe_engine("vectorized", object())

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown operator 'Turbo'.*Dynamic"):
            operators.get("Turbo")
        with pytest.raises(ValueError, match="unknown probe engine"):
            probe_engines.get("gpu")
        with pytest.raises(ValueError, match="unknown predicate kind"):
            predicate_kinds.get("similarity")

    def test_registered_operator_flows_through_session(self, eq5_query):
        class QuietDynamic(AdaptiveJoinOperator):
            operator_name = "QuietDynamic"

        register_operator("QuietDynamic", QuietDynamic)
        try:
            result = JoinSession(eq5_query, machines=8).run(operator="QuietDynamic")
            assert result.operator == "QuietDynamic"
        finally:
            operators.unregister("QuietDynamic")

    def test_unknown_operator_kind_through_session(self, eq5_query):
        with pytest.raises(ValueError, match="unknown operator"):
            JoinSession(eq5_query, machines=8).run(operator="Turbo")


class TestImportHygiene:
    """The library is pure stdlib: two probe engines, no NumPy in the process."""

    def test_import_leaves_numpy_unloaded(self):
        src = Path(repro.__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, "-c", "import repro, sys; print('numpy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout.strip() == "False"

    def test_exactly_two_probe_engines(self):
        assert set(probe_engines.names()) == {"scalar", "vectorized"}
        assert [field.name for field in dataclasses.fields(ProbeEngine)] == [
            "name", "batch_aware", "exact_key_fast_path", "probe_batch",
        ]
        with pytest.raises(ValueError, match="scalar.*vectorized|vectorized.*scalar"):
            RunConfig(probe_engine="columnar")


# ---------------------------------------------------------------------------
# Eager validation at operator construction (was: deep inside LocalJoiner)
# ---------------------------------------------------------------------------

class TestEagerValidation:
    def test_invalid_probe_engine_fails_at_construction(self, eq5_query):
        with pytest.raises(ValueError, match="probe engine.*simd|simd.*probe engine"):
            GridJoinOperator(eq5_query, config=RunConfig(machines=8, probe_engine="simd"))

    def test_invalid_layout_fails_at_construction(self, eq5_query):
        with pytest.raises(ValueError, match="dyadic"):
            GridJoinOperator(eq5_query, config=RunConfig(machines=8), layout="diagonal")

    def test_unknown_knob_fails_at_construction(self, eq5_query):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            GridJoinOperator(eq5_query, config=RunConfig(machines=8), warmup_tuple=3)

    def test_non_power_of_two_machines_rejected(self, eq5_query):
        with pytest.raises(ValueError, match="power-of-two"):
            GridJoinOperator(eq5_query, config=RunConfig(machines=6))


# ---------------------------------------------------------------------------
# Override precedence: session default < config < call-site
# ---------------------------------------------------------------------------

class TestOverridePrecedence:
    def test_constructor_kwargs_beat_config(self, eq5_query):
        session = JoinSession(eq5_query, config=RunConfig(machines=8, seed=1), seed=2)
        assert session.config.machines == 8
        assert session.config.seed == 2

    def test_call_site_beats_session_default(self, eq5_query):
        session = JoinSession(eq5_query, config=RunConfig(machines=8, seed=1))
        operator = session.operator(seed=7, batch_size=4)
        assert operator.seed == 7
        assert operator.batch_size == 4
        assert operator.machines == 8  # untouched session default

    def test_per_run_config_replaces_session_default(self, eq5_query):
        session = JoinSession(eq5_query, config=RunConfig(machines=8, seed=1))
        operator = session.operator(config=RunConfig(machines=4, seed=3), seed=9)
        # per-run config replaces the session's; call-site seed wins over both
        assert operator.machines == 4
        assert operator.seed == 9

    def test_operator_specific_kwargs_pass_through(self, eq5_query):
        session = JoinSession(eq5_query, machines=8)
        operator = session.operator(kind="Grid", adaptive=True)
        assert operator.adaptive is True


# ---------------------------------------------------------------------------
# Legacy loose-kwargs constructor shim: removed after its deprecation release
# ---------------------------------------------------------------------------

class TestLegacyRemoval:
    def _compare(self, legacy, modern):
        assert legacy.outputs is not None and modern.outputs is not None
        assert sorted(legacy.outputs) == sorted(modern.outputs)
        assert legacy.output_count == modern.output_count
        assert legacy.execution_time == modern.execution_time
        assert legacy.probe_work == modern.probe_work
        assert legacy.migrations == modern.migrations
        assert legacy.final_mapping == modern.final_mapping
        assert legacy.max_ilf == modern.max_ilf
        assert legacy.total_network_volume == modern.total_network_volume

    def test_loose_kwargs_construction_raises(self, eq5_query):
        with pytest.raises(TypeError, match="RunConfig"):
            AdaptiveJoinOperator(eq5_query, 8, seed=5, warmup_tuples=16)
        with pytest.raises(TypeError, match="RunConfig"):
            GridJoinOperator(eq5_query, seed=5)
        with pytest.raises(TypeError, match="RunConfig"):
            GridJoinOperator(eq5_query, 8)

    def test_config_with_overrides_still_supported(self, eq5_query):
        # Call-site overrides on top of an explicit config remain the
        # documented API (call-site beats config) — only the config-less
        # loose path was removed.
        operator = AdaptiveJoinOperator(
            eq5_query, config=RunConfig(machines=8, seed=1), seed=7, batch_size=4
        )
        assert operator.seed == 7
        assert operator.batch_size == 4

    def test_make_operator_routes_through_config_path(self, eq5_query):
        # make_operator survives as a registry front door over RunConfig; it
        # must stay bit-identical to the session path and validate eagerly.
        order = _arrival_order(eq5_query, seed=5)
        legacy = make_operator("StaticMid", eq5_query, 8, seed=5).run(
            arrival_order=order, collect_outputs=True
        )
        modern = JoinSession(eq5_query, machines=8, seed=5).run(
            operator="StaticMid", arrival_order=order, collect_outputs=True
        )
        self._compare(legacy, modern)
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            make_operator("StaticMid", eq5_query, 8, warmup_tuple=3)

    def test_config_path_does_not_warn(self, eq5_query, recwarn):
        build_operator("StaticMid", eq5_query, RunConfig(machines=8, seed=5))
        deprecations = [w for w in recwarn.list if w.category is DeprecationWarning]
        assert not deprecations


# ---------------------------------------------------------------------------
# Streaming ingestion: push()/finish() vs the materialised path
# ---------------------------------------------------------------------------

class TestStreamingIngestion:
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_eq5_streaming_matches_materialised(self, small_dataset, batch_size):
        """Acceptance pin: identical final join results on EQ5 at batch 1/64.

        The streaming batcher keeps partial per-destination buffers alive
        across pushes, so batch boundaries match the materialised schedule
        exactly; chunked simulation drains do shift virtual-time micro-timing
        (the same class of effect as batching itself), so wall/virtual times
        are not compared — results, migrations and the final mapping are.
        """
        query = make_query("EQ5", small_dataset)
        order = _arrival_order(query, seed=5)
        config = RunConfig(machines=8, seed=5, warmup_tuples=16.0, batch_size=batch_size)

        materialised = JoinSession(query, config=config).run(
            arrival_order=order, collect_outputs=True
        )

        session = JoinSession(query, config=config)
        session.open_stream(collect_outputs=True)
        chunk = 97  # deliberately not a divisor of the batch size
        for start in range(0, len(order), chunk):
            session.push(items=order[start:start + chunk])
        streamed = session.finish()

        assert streamed.outputs is not None and materialised.outputs is not None
        assert sorted(streamed.outputs) == sorted(materialised.outputs)
        assert streamed.output_count == materialised.output_count
        assert streamed.migrations == materialised.migrations
        assert streamed.final_mapping == materialised.final_mapping

    def test_push_raw_records_and_snapshots(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        session = JoinSession(query, machines=8, seed=3, batch_size=4)
        half_left = len(query.left_records) // 2
        half_right = len(query.right_records) // 2

        snap1 = session.push(
            left=query.left_records[:half_left], right=query.right_records[:half_right]
        )
        assert snap1.tuples_pushed == half_left + half_right
        snap2 = session.push(
            left=query.left_records[half_left:], right=query.right_records[half_right:]
        )
        assert snap2.tuples_pushed == len(query.left_records) + len(query.right_records)
        assert snap2.output_count >= snap1.output_count
        assert session.snapshot().tuples_pushed == snap2.tuples_pushed

        result = session.finish()
        assert result.output_count >= snap2.output_count
        assert result.output_count > 0
        # A full materialised run of the same workload produces the same
        # number of joins regardless of ingestion mode and interleaving.
        reference = JoinSession(query, machines=8, seed=3).run()
        assert result.output_count == reference.output_count

    def test_streaming_lifecycle_errors(self, eq5_query):
        session = JoinSession(eq5_query, machines=8, seed=3, batch_size=4)
        with pytest.raises(RuntimeError, match="no streaming run"):
            session.finish()
        with pytest.raises(RuntimeError, match="no streaming run"):
            session.snapshot()
        session.push(right=eq5_query.right_records[:5])
        with pytest.raises(RuntimeError, match="already open"):
            session.open_stream()
        session.finish()
        # a stray push after finish() must not silently start a fresh run
        with pytest.raises(RuntimeError, match="open_stream"):
            session.push(right=eq5_query.right_records[:5])
        # the session is reusable, but only through an explicit open_stream()
        session.open_stream()
        snap = session.push(right=eq5_query.right_records[:5])
        assert snap.tuples_pushed == 5
        session.finish()

    def test_push_rejects_wrong_relation(self, eq5_query, bnci_query):
        session = JoinSession(eq5_query, machines=8, batch_size=4)
        order = _arrival_order(eq5_query, seed=5)
        right_tuple = next(t for t in order if t.relation == eq5_query.right_relation)
        with pytest.raises(ValueError, match="relation"):
            session.push(left=[right_tuple])
        # items= must reject foreign relations too (they would otherwise be
        # silently routed as right-side input).
        foreign = _arrival_order(bnci_query, seed=5)[0]
        with pytest.raises(ValueError, match="relation"):
            session.push(items=[foreign])
        session.finish()

    def test_session_requires_a_query(self):
        with pytest.raises(ValueError, match="no query"):
            JoinSession(machines=8).run()
