"""The public session API: RunConfig, operator kinds, JoinSession.

Pins the contracts of ``repro.api``:

* ``RunConfig`` validates eagerly (unknown fields, bad values, unknown
  batching planes/layouts) and is immutable; ``batching`` defaults to
  ``"adaptive"``.
* A session is one query, one operator kind and one config: no call of
  ``repro.api`` takes loose keyword knobs.
* Unknown operator and predicate kinds fail with the choices listed.
* ``import repro`` loads no NumPy, and neither a probe-engine nor a
  batch-controller registry remains: one probe engine and one batched data
  plane, whose knobs are retired with the backend knobs.
* An operator is built from ``(query, config)`` only: loose keyword
  arguments raise ``TypeError``.
* The streaming ``push()`` ingestion yields identical final join results to
  the materialised path on EQ5 on both data planes.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.api import (
    BATCHING_PLANES,
    JoinSession,
    RunConfig,
    FaultSpec,
    NetworkFaultSpec,
    crash_after_events,
    build_operator,
    delay,
    drop,
    duplicate,
)
from repro.core.baselines import OPERATORS
from repro.core.operator import AdaptiveJoinOperator, GridJoinOperator
from repro.core.results import RunResult
from repro.data.queries import make_query
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.local import JOINERS, make_local_joiner
from repro.testing import assert_run_equivalent


def _arrival_order(query, seed):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


def _fields(config):
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

#: Configs that set every kind of field: scalars, ``None`` and spec sequences.
CONFIGS = {
    "defaults": RunConfig(),
    "every_scalar": RunConfig(
        machines=8,
        seed=3,
        epsilon=0.5,
        warmup_tuples=32.0,
        layout="row_major",
        blocking=True,
        memory_capacity=123.0,
        batching="per_tuple",
        arrival_pattern="s_first",
        inter_arrival=0.25,
    ),
    "no_memory_cap": RunConfig(machines=4, batching="per_tuple", memory_capacity=None),
    "crash_schedule": RunConfig(
        machines=8,
        fault_schedule=[crash_after_events(3, 250), crash_after_events(1, 400)],
        checkpoint_interval=50,
    ),
    "network_faults": RunConfig(
        machines=8,
        network_faults=[
            drop((0, 1), 3),
            duplicate((2, 5), 1),
            delay((3, 6), 4, by=2.5),
        ],
    ),
}


class TestRunConfig:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fields_rebuild_the_config(self, name):
        """The fields are a complete description: normalisation (lists of
        specs to tuples) is idempotent, so a config rebuilt from its own
        fields, directly or through ``dataclasses.replace``, is equal to it."""
        config = CONFIGS[name]
        assert RunConfig(**_fields(config)) == config
        assert dataclasses.replace(RunConfig(), **_fields(config)) == config
        assert isinstance(config.fault_schedule, tuple)
        assert isinstance(config.network_faults, tuple)

    def test_replace_returns_new_validated_config(self):
        """A config variant is ``dataclasses.replace``: a new, re-validated
        config, the original untouched."""
        config = RunConfig(machines=8)
        updated = dataclasses.replace(config, seed=9, batching="per_tuple")
        assert (updated.machines, updated.seed, updated.batching) == (8, 9, "per_tuple")
        assert config.seed == 0
        with pytest.raises(ValueError, match="machines must be >= 1"):
            dataclasses.replace(config, machines=0)

    def test_unknown_field_rejected(self, eq5_query):
        with pytest.raises(TypeError, match="unexpected keyword argument 'warmup_tuple'"):
            RunConfig(warmup_tuple=3)
        with pytest.raises(TypeError, match="unexpected keyword argument 'warmup_tuple'"):
            dataclasses.replace(RunConfig(), warmup_tuple=3)
        with pytest.raises(TypeError, match="unexpected keyword argument 'machine_count'"):
            JoinSession(eq5_query, machine_count=8)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"machines": 0},
            {"machines": "sixteen"},
            {"epsilon": 0.0},
            {"inter_arrival": -1.0},
            {"memory_capacity": -5.0},
            {"arrival_pattern": "sorted"},
            {"blocking": "yes"},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**overrides)

    def test_unknown_layout_lists_choices(self):
        with pytest.raises(ValueError, match="dyadic"):
            RunConfig(layout="column_major")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().machines = 4


class TestBatchingKnobs:
    """Error paths of the data-plane configuration."""

    def test_adaptive_is_the_default(self):
        assert RunConfig().batching == "adaptive"
        assert BATCHING_PLANES == ("adaptive", "per_tuple")

    @pytest.mark.parametrize("name", ["turbo", "fixed"])
    def test_unknown_batching_lists_choices(self, name):
        with pytest.raises(ValueError, match="choices: adaptive, per_tuple"):
            RunConfig(batching=name)

    def test_blocking_rejected_on_adaptive_plane(self):
        with pytest.raises(ValueError, match='non-blocking.*batching="per_tuple"'):
            RunConfig(blocking=True)
        assert RunConfig(blocking=True, batching="per_tuple").blocking

    def test_non_string_batching_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(batching=7)

    def test_default_plane_flows_through_session(self, eq5_query):
        result = JoinSession(eq5_query, config=RunConfig(machines=8, seed=3)).run()
        assert result.batch_histogram
        assert result.output_count > 0


class TestRecoveryKnobs:
    """Error paths of the fault-tolerance configuration."""

    def test_schedule_normalised_to_fault_specs(self):
        config = RunConfig(machines=8, fault_schedule=[crash_after_events(2, 100)])
        assert config.fault_schedule == (crash_after_events(2, 100),)

    def test_fault_machine_out_of_range_lists_choices(self):
        with pytest.raises(ValueError, match="choices: 0..7"):
            RunConfig(machines=8, fault_schedule=[crash_after_events(8, 1)])

    def test_faults_rejected_on_blocking_protocol(self):
        with pytest.raises(ValueError, match="non-blocking"):
            RunConfig(
                machines=8,
                blocking=True,
                batching="per_tuple",
                fault_schedule=[crash_after_events(0, 1)],
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fault_schedule": 7},
            # Entries are FaultSpec objects: a plain dict is not a crash spec.
            {"fault_schedule": [{"machine": 0, "after_events": 1}]},
            {"checkpoint_interval": 0},
            {"checkpoint_interval": -5},
            {"checkpoint_interval": 2.5},
        ],
    )
    def test_invalid_recovery_values_rejected(self, overrides):
        with pytest.raises((ValueError, TypeError)):
            RunConfig(machines=8, **overrides)

    @pytest.mark.parametrize(
        "knob, value, expected",
        [
            ("fault_schedule", [crash_after_events(2, 1), crash_after_events(3, 1)],
             (crash_after_events(2, 1), crash_after_events(3, 1))),
            ("fault_schedule", (crash_after_events(2, 9),), (crash_after_events(2, 9),)),
            ("network_faults", [drop((0, 1), 1), delay((1, 2), 1, by=1.0)],
             (drop((0, 1), 1), delay((1, 2), 1, by=1.0))),
            ("network_faults", (duplicate((2, 3), 4),), (duplicate((2, 3), 4),)),
        ],
        ids=["crashes-list", "crashes-tuple", "network-list", "network-tuple"],
    )
    def test_fault_knobs_take_a_list_or_tuple(self, knob, value, expected):
        assert getattr(RunConfig(machines=8, **{knob: value}), knob) == expected

    @pytest.mark.parametrize(
        "knob, value, helpers",
        [
            # One form per input: no None, no bare spec.
            ("fault_schedule", None, "crash_after_events()"),
            ("fault_schedule", crash_after_events(2, 1), "crash_after_events()"),
            ("fault_schedule", "crash", "crash_after_events()"),
            ("fault_schedule", {"machine": 0, "after_events": 1}, "crash_after_events()"),
            ("fault_schedule", [crash_after_events(0, 1), 42], "crash_after_events()"),
            # A network fault is not a crash, and a crash is not a network fault.
            ("fault_schedule", [drop((0, 1), 1)], "crash_after_events()"),
            ("network_faults", None, "drop()/duplicate()/delay()"),
            ("network_faults", drop((0, 1), 1), "drop()/duplicate()/delay()"),
            ("network_faults", 7, "drop()/duplicate()/delay()"),
            ("network_faults", "drop", "drop()/duplicate()/delay()"),
            ("network_faults", [crash_after_events(0, 1)], "drop()/duplicate()/delay()"),
        ],
        ids=[
            "crashes-none", "crashes-one", "crashes-str", "crashes-dict",
            "crashes-mixed", "crashes-network-spec", "network-none", "network-one",
            "network-int", "network-str", "network-crash-spec",
        ],
    )
    def test_fault_knobs_reject_anything_else_naming_the_helpers(self, knob, value, helpers):
        kind = FaultSpec if knob == "fault_schedule" else NetworkFaultSpec
        with pytest.raises(ValueError, match=f"{knob}.*{kind.__name__}.*{re.escape(helpers)}"):
            RunConfig(machines=8, **{knob: value})

    def test_checkpointing_without_faults_is_valid(self):
        config = RunConfig(machines=8, checkpoint_interval=25)
        assert config.fault_schedule == ()


class TestRetiredKnobs:
    """The execution-backend, wire, probe-engine and fixed-plane switches are
    gone: one simulator, the data plane picks the wire, one probe engine, and
    the adaptive plane sizes its own runs.  The retry budgets and the ILF
    sampling period are module constants."""

    RETIRED_KEYS = [
        ("executor", "simulated"),
        ("num_workers", 4),
        ("worker_timeout", 30.0),
        ("delivery_merging", True),
        ("probe_engine", "scalar"),
        ("batch_size", 64),
        ("batch_max", 32),
        ("sample_every", 200),
        ("ack_timeout", 5.0),
        ("max_retries", 5),
        ("retry_base", 0.5),
        ("retry_max_attempts", 10),
    ]

    @pytest.mark.parametrize("key, value", RETIRED_KEYS)
    def test_retired_key_rejected_by_name(self, key, value):
        """Next to every live field, the retired key is the only one named."""
        config = RunConfig(machines=8)
        payload = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        payload[key] = value
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            RunConfig(**payload)

    @pytest.mark.parametrize("key, value", RETIRED_KEYS)
    def test_retired_key_rejected_by_replace(self, key, value):
        """A config variant cannot smuggle a retired knob in either."""
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            dataclasses.replace(RunConfig(machines=8), **{key: value})

    @pytest.mark.parametrize("key, value", RETIRED_KEYS)
    def test_retired_key_rejected_at_call_site(self, eq5_query, key, value):
        """A session takes no knobs of its own, so a stale script fails
        loudly instead of running a different setup."""
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            JoinSession(eq5_query, **{key: value})

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
            "batch_size",
            "batching",
            "messages_dropped",
            "messages_duplicated",
            "messages_retransmitted",
            "messages_reordered",
        ],
    )
    def test_retired_result_field_absent(self, eq5_query, name):
        assert name not in {f.name for f in dataclasses.fields(RunResult)}
        result = JoinSession(eq5_query, config=RunConfig(machines=4)).run()
        assert not hasattr(result, name)
        assert name not in result.summary_row()

    def test_field_counts(self):
        assert len(dataclasses.fields(RunConfig)) == 13
        assert len(dataclasses.fields(RunResult)) == 36
        assert len(dataclasses.fields(FaultSpec)) == 2
        assert len(dataclasses.fields(NetworkFaultSpec)) == 4


# ---------------------------------------------------------------------------
# Operator and predicate kinds
# ---------------------------------------------------------------------------

class TestRegistries:
    def test_builtins_registered(self):
        assert set(OPERATORS) == {"Dynamic", "SHJ", "StaticMid", "StaticOpt"}
        assert set(JOINERS) == {"band", "equi", "theta"}

    def test_unknown_name_lists_choices(self, eq5_query):
        with pytest.raises(ValueError, match="unknown operator 'Turbo'.*Dynamic"):
            build_operator("Turbo", eq5_query, RunConfig())
        with pytest.raises(ValueError, match="unknown predicate kind 'similarity'.*band"):
            make_local_joiner(SimpleNamespace(kind="similarity"), "R", "S")

    def test_unknown_operator_kind_through_session(self, eq5_query):
        """The session builds its operator at construction."""
        with pytest.raises(ValueError, match="unknown operator 'Turbo'.*Dynamic"):
            JoinSession(eq5_query, operator="Turbo")


class TestImportHygiene:
    """The library is pure stdlib: one probe engine, one batched data plane,
    no NumPy in the process."""

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

    def test_fault_free_run_leaves_sqlite_and_logging_unloaded(self):
        """The checkpoint store imports ``sqlite3`` and ``logging`` when a
        store opens or warns, and the operator imports the recovery plane
        (its manager, its store and through them ``pickle``) when a run
        has one: a run without checkpoints loads none of them, and a
        checkpointed run that crashes still recovers."""
        child = textwrap.dedent(
            """
            import sys
            from repro import JoinSession, RunConfig, generate_dataset, make_query
            from repro.api import crash_after_events

            query = make_query("EQ5", generate_dataset(scale=0.05, skew="Z4", seed=1))
            plain = JoinSession(query, config=RunConfig(machines=4, seed=1)).run()
            print("sqlite3" in sys.modules, "logging" in sys.modules)
            print(*(name in sys.modules for name in (
                "repro.core.recovery", "repro.storage.checkpoint_store", "pickle")))
            crashed = JoinSession(query, config=RunConfig(
                machines=4, seed=1, checkpoint_interval=20,
                fault_schedule=[crash_after_events(2, plain.events_processed // 2)],
            )).run()
            print("sqlite3" in sys.modules, crashed.faults_injected,
                  crashed.output_count == plain.output_count)
            """
        )
        src = Path(repro.__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, "-c", child],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout.split("\n")[:3] == ["False False", "False False False", "True 1 True"]

    @pytest.mark.parametrize("module", ["repro", "repro.api", "repro.joins.local"])
    def test_no_probe_engine_registry(self, module):
        namespace = importlib.import_module(module)
        for name in ("probe_engines", "register_probe_engine", "ProbeEngine"):
            assert not hasattr(namespace, name), f"{module}.{name}"
            assert name not in getattr(namespace, "__all__", ())

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro", ("batch_controllers", "register_batch_controller")),
            ("repro.api", ("batch_controllers", "register_batch_controller")),
            ("repro.api.layouts", ("batch_controllers", "register_batch_controller")),
            ("repro.engine", ("BatchController", "FixedBatchController", "TupleBatch")),
            ("repro.engine.batching", ("BatchController", "FixedBatchController")),
            ("repro.engine.stream", ("TupleBatch",)),
        ],
    )
    def test_no_fixed_plane(self, module, names):
        namespace = importlib.import_module(module)
        for name in names:
            assert not hasattr(namespace, name), f"{module}.{name}"
            assert name not in getattr(namespace, "__all__", ())

    def test_no_batch_message_kind(self):
        from repro.engine.task import MessageKind

        assert "BATCH" not in MessageKind.__members__

    def test_one_wire(self):
        """Both planes run on the merged wire: the simulator picks no wire."""
        from repro.engine import simulator as simulator_module
        from repro.engine.simulator import Simulator

        for name in ("_merge_wire", "enable_delivery_merging"):
            assert not hasattr(Simulator, name), name
            assert not hasattr(Simulator(num_machines=2), name), name
        assert not hasattr(simulator_module, "MERGEABLE_KINDS")

    def test_reference_wire_is_test_only(self):
        """No src module imports the unmerged reference wire (or the
        ``repro.testing`` module defining it)."""
        graph = _module_graph()
        importers = {
            name
            for name in graph
            for module, names in _imports(graph, name)
            if module == "repro.testing" or "UnmergedWireSimulator" in (names or ())
        }
        assert importers == set()
        assert "UnmergedWireSimulator" in vars(importlib.import_module("repro.testing"))

    def test_every_module_is_reached(self):
        """Walking imports from the entry packages reaches every src module."""
        graph = _module_graph()
        reached = _reachable(graph, roots=("repro.api", "repro.bench", "repro.testing"))
        unreached = {
            name for name, (_, is_package) in graph.items()
            if not is_package and name not in reached
        }
        assert unreached == set(), "modules no run reaches"


def _module_graph() -> dict:
    """Every module under ``src/repro``: name -> (parsed source, is package)."""
    src = Path(repro.__file__).resolve().parent
    graph = {}
    for path in src.rglob("*.py"):
        parts = path.relative_to(src.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        graph[name] = (ast.parse(path.read_text()), is_package)
    return graph


def _imports(graph, name):
    """``(module, imported names or None)`` for every import statement of
    ``name``, function-level ones included (src uses absolute imports only)."""
    for node in ast.walk(graph[name][0]):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            yield node.module, [alias.name for alias in node.names]


def _resolve(graph, module, names):
    """The defining modules an import of ``names`` from ``module`` reaches.

    A name taken from a package resolves to its submodule, or through the
    package's own re-export to the module defining it; the package's other
    re-exports are not followed.
    """
    if module not in graph:
        return set()  # stdlib or third party
    if not graph[module][1] or names is None:
        return {module}
    targets = {module}
    for name in names:
        if f"{module}.{name}" in graph:
            targets.add(f"{module}.{name}")
            continue
        for source, exported in _imports(graph, module):
            if exported and name in exported:
                targets |= _resolve(graph, source, [name])
    return targets


def _reachable(graph, roots) -> set:
    """Modules reached from ``roots``.  Every module of a root package is a
    root; other packages' ``__init__`` re-exports are not followed."""
    root_names = {
        name for name in graph
        if any(name == root or name.startswith(root + ".") for root in roots)
    }
    reached, frontier = set(root_names), list(root_names)
    while frontier:
        name = frontier.pop()
        if graph[name][1] and name not in root_names:
            continue
        for module, names in _imports(graph, name):
            for target in _resolve(graph, module, names) - reached:
                reached.add(target)
                frontier.append(target)
    return reached

# ---------------------------------------------------------------------------
# Eager validation at operator construction (was: deep inside LocalJoiner)
# ---------------------------------------------------------------------------

class TestEagerValidation:
    def test_non_power_of_two_machines_rejected(self, eq5_query):
        with pytest.raises(ValueError, match="power-of-two"):
            GridJoinOperator(eq5_query, config=RunConfig(machines=6))
        with pytest.raises(ValueError, match="power-of-two"):
            JoinSession(eq5_query, config=RunConfig(machines=6))


# ---------------------------------------------------------------------------
# One shape of session: one query, one operator kind, one config
# ---------------------------------------------------------------------------

class TestSessionShape:
    def test_api_takes_no_loose_keywords(self):
        """No function of ``repro.api`` has a ``**kwargs`` parameter, the
        session's calls take exactly their documented keywords, and the
        override layers are gone."""
        for module in ("repro.api.config", "repro.api.session"):
            tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    assert node.args.kwarg is None, f"{module}.{node.name}"
        keywords = {
            "__init__": ["operator", "config"],
            "run": ["arrival_order", "collect_outputs", "max_events"],
            "open_stream": ["collect_outputs"],
        }
        for name, expected in keywords.items():
            parameters = inspect.signature(getattr(JoinSession, name)).parameters
            assert [
                p.name for p in parameters.values() if p.kind is p.KEYWORD_ONLY
            ] == expected, name
        for name in ("operator", "streaming", "_resolve_query"):
            assert not hasattr(JoinSession, name), name
        for name in ("with_overrides", "_check_keys"):
            assert not hasattr(RunConfig, name), name

    def test_session_runs_its_operator_under_its_config(self, eq5_query):
        result = JoinSession(
            eq5_query, operator="StaticMid", config=RunConfig(machines=4, seed=3)
        ).run()
        assert (result.operator, result.machines) == ("StaticMid", 4)
        assert result.output_count > 0


# ---------------------------------------------------------------------------
# One way to build an operator: (query, config), no loose keyword arguments
# ---------------------------------------------------------------------------

class TestLegacyRemoval:
    def test_loose_kwargs_construction_raises(self, eq5_query):
        config = RunConfig(machines=8)
        with pytest.raises(TypeError):
            AdaptiveJoinOperator(eq5_query, config, seed=5)
        with pytest.raises(TypeError):
            GridJoinOperator(eq5_query, config, cost_model=None)
        with pytest.raises(TypeError):
            GridJoinOperator(eq5_query, config, adaptive=True)
        with pytest.raises(TypeError, match="cost_model"):
            JoinSession(eq5_query, cost_model=None)

    def test_config_path_does_not_warn(self, eq5_query, recwarn):
        build_operator("StaticMid", eq5_query, RunConfig(machines=8, seed=5))
        deprecations = [w for w in recwarn.list if w.category is DeprecationWarning]
        assert not deprecations


# ---------------------------------------------------------------------------
# Streaming ingestion: push()/finish() vs the materialised path
# ---------------------------------------------------------------------------

def _materialised_and_streamed(query, config, order, chunk):
    """One materialised run of ``order`` and one pushed in ``chunk``-sized
    chunks, both collecting outputs."""
    materialised = JoinSession(query, config=config).run(
        arrival_order=order, collect_outputs=True
    )
    session = JoinSession(query, config=config)
    session.open_stream(collect_outputs=True)
    for start in range(0, len(order), chunk):
        session.push(items=order[start:start + chunk])
    return materialised, session.finish()


class TestStreamingIngestion:
    @pytest.mark.parametrize("batching", ["per_tuple", "adaptive"])
    @pytest.mark.parametrize("inter_arrival", [0.0, 0.3])
    @pytest.mark.parametrize("chunk", [97, None], ids=["chunked", "one-chunk"])
    def test_eq5_streaming_matches_materialised(
        self, small_dataset, batching, inter_arrival, chunk
    ):
        """Acceptance pin: identical final join results on EQ5 on both planes.

        Streaming ingest routes every tuple as the materialised feed does;
        chunked simulation drains do shift virtual-time micro-timing, so a
        chunked run (97 tuples, deliberately not a divisor of the run cap)
        pins results, migrations and the final mapping.  One
        chunk is the materialised run itself, down to its timings, traffic
        and heap events: the feed and the push path are one ingest.
        """
        query = make_query("EQ5", small_dataset)
        order = _arrival_order(query, seed=5)
        config = RunConfig(
            machines=8,
            seed=5,
            warmup_tuples=16.0,
            batching=batching,
            inter_arrival=inter_arrival,
        )

        materialised, streamed = _materialised_and_streamed(
            query, config, order, chunk or len(order)
        )

        assert streamed.outputs is not None and materialised.outputs is not None
        assert sorted(streamed.outputs) == sorted(materialised.outputs)
        assert streamed.output_count == materialised.output_count
        assert streamed.migrations == materialised.migrations
        assert streamed.final_mapping == materialised.final_mapping
        if chunk is None:
            assert_run_equivalent(
                materialised, streamed, timing=True, network=True, events=True
            )

    @pytest.mark.parametrize("batching", ["per_tuple", "adaptive"])
    @pytest.mark.parametrize("inter_arrival", [0.0, 0.3])
    def test_bnci_one_push_is_the_materialised_run(
        self, bnci_query, batching, inter_arrival
    ):
        """The one-chunk pin on the band join's ordered-index path."""
        order = _arrival_order(bnci_query, seed=5)
        config = RunConfig(
            machines=8, seed=5, batching=batching, inter_arrival=inter_arrival
        )
        materialised, streamed = _materialised_and_streamed(
            bnci_query, config, order, len(order)
        )
        assert_run_equivalent(
            materialised, streamed, timing=True, network=True, events=True
        )

    def test_push_chunks_and_snapshots(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        config = RunConfig(machines=8, seed=3)
        session = JoinSession(query, config=config)
        rng = random.Random(3)
        left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
        right = make_tuples(
            query.right_relation, query.right_records, rng, query.right_tuple_size
        )
        half_left = len(left) // 2
        half_right = len(right) // 2

        snap1 = session.push(left[:half_left] + right[:half_right])
        assert snap1.tuples_pushed == half_left + half_right
        snap2 = session.push(left[half_left:] + right[half_right:])
        assert snap2.tuples_pushed == len(query.left_records) + len(query.right_records)
        assert snap2.output_count >= snap1.output_count
        assert session.snapshot().tuples_pushed == snap2.tuples_pushed

        result = session.finish()
        assert result.output_count >= snap2.output_count
        assert result.output_count > 0
        # A full materialised run of the same workload produces the same
        # number of joins regardless of ingestion mode and interleaving.
        reference = JoinSession(query, config=config).run()
        assert result.output_count == reference.output_count

    def test_streaming_lifecycle_errors(self, eq5_query):
        session = JoinSession(eq5_query, config=RunConfig(machines=8, seed=3))
        chunk = [
            item
            for item in _arrival_order(eq5_query, seed=3)
            if item.relation == eq5_query.right_relation
        ][:5]
        with pytest.raises(RuntimeError, match="no streaming run"):
            session.finish()
        with pytest.raises(RuntimeError, match="no streaming run"):
            session.snapshot()
        session.push(chunk)
        with pytest.raises(RuntimeError, match="already open"):
            session.open_stream()
        session.finish()
        # a stray push after finish() must not silently start a fresh run
        with pytest.raises(RuntimeError, match="open_stream"):
            session.push(chunk)
        # the session is reusable, but only through an explicit open_stream()
        session.open_stream()
        snap = session.push(chunk)
        assert snap.tuples_pushed == 5
        session.finish()

    def test_streaming_takes_event_anchored_crashes(self, eq5_query):
        config = RunConfig(
            machines=8,
            inter_arrival=1.0,
            checkpoint_interval=50,
            fault_schedule=[crash_after_events(3, 400)],
        )
        order = _arrival_order(eq5_query, seed=5)
        session = JoinSession(eq5_query, config=config)
        for start in range(0, len(order), 100):
            session.push(items=order[start:start + 100])
        assert session.finish().faults_injected == 1

    def test_push_rejects_wrong_relation(self, eq5_query, bnci_query):
        session = JoinSession(eq5_query, config=RunConfig(machines=8))
        order = _arrival_order(eq5_query, seed=5)
        # A foreign relation would otherwise be silently routed as
        # right-side input.
        foreign = _arrival_order(bnci_query, seed=5)[0]
        with pytest.raises(ValueError, match="relation"):
            session.push(order[:3] + [foreign])
        assert session.snapshot().tuples_pushed == 0
        session.finish()

    def test_push_feeds_on_cluster_reshufflers_data_only(self, eq5_query, monkeypatch):
        """``schedule_data`` merges onto a machine's feed channel, so every
        tuple a push hands it is DATA bound for an on-cluster reshuffler."""
        from repro.engine.simulator import Simulator
        from repro.engine.stream import MessageKind

        fed = []
        original = Simulator.schedule_data

        def spy(simulator, time, destination, message):
            task = simulator.tasks[destination]
            fed.append((destination, task.hosted_machine, message.kind))
            original(simulator, time, destination, message)

        monkeypatch.setattr(Simulator, "schedule_data", spy)
        session = JoinSession(eq5_query, config=RunConfig(machines=8))
        order = _arrival_order(eq5_query, seed=5)
        for start in range(0, 300, 60):
            session.push(order[start:start + 60])
        reshufflers = set(session._stream.topology.reshuffler_names)
        session.finish()
        assert len(fed) == 300
        assert {destination for destination, _, _ in fed} <= reshufflers
        assert all(machine is not None for _, machine, _ in fed)
        assert {kind for _, _, kind in fed} == {MessageKind.DATA}

    def test_push_rejects_raw_records_naming_make_tuples(self, eq5_query):
        session = JoinSession(eq5_query, config=RunConfig(machines=8))
        order = _arrival_order(eq5_query, seed=5)
        with pytest.raises(TypeError, match="make_tuples"):
            session.push([eq5_query.left_records[0]])
        with pytest.raises(TypeError, match="make_tuples"):
            session.push(order[:3] + [eq5_query.right_records[0]])
        # A rejected chunk ingests nothing.
        assert session.snapshot().tuples_pushed == 0
        session.finish()

    def test_session_requires_a_query(self):
        with pytest.raises(TypeError, match="query"):
            JoinSession(config=RunConfig(machines=8))
