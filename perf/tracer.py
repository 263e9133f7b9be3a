"""Outside-in span tracer: wraps each layer's public entry points.

Used only in the benchmark's *traced* child.  :meth:`Tracer.install`
replaces the entry points listed in :data:`TARGETS` at class / module level —
before any session object exists, so every instance built afterwards resolves
to the wrapper — and :meth:`Tracer.uninstall` puts every original back.
Nothing inside ``src/`` knows about it; tracing from inside the program is a
later change.

Every wrapped call is a span on one ``perf_counter_ns`` stack.  A span's
*self* time is its duration minus the part its child spans (and garbage
collections that interrupted it) cover, so self times partition the wall
clock: summed over all accumulators plus ``gc`` they never exceed the traced
region.  Per-call spans (handlers, probes, transfers) are folded into
``[calls, total_ns, self_ns]`` accumulators on the fly; coarse spans (set-up
pieces, feed, each simulator run, each push, each crash and restart) are also
kept individually, with id and parent id, and written as Chrome trace-event
JSON that opens in Perfetto.
"""

from __future__ import annotations

import gc
import importlib
import json
import time

#: ``(module, class or None, attribute, accumulator, coarse)``.  The
#: accumulator name is ``<layer>.<entry point>``; ``perf/bench.py`` sums
#: accumulators into the per-layer metrics.  A target that no longer exists
#: (a later change renamed or removed it) is skipped and reported under
#: :attr:`Tracer.missing` instead of failing the run.
TARGETS = (
    ("repro.data", None, "generate_dataset", "data.generate", True),
    ("repro.data", None, "make_query", "data.query", True),
    ("repro.engine.stream", None, "make_tuples", "stream.prepare", True),
    ("repro.engine.stream", None, "interleave_streams", "stream.prepare", True),
    ("repro.engine.stream", None, "fluctuating_order", "stream.prepare", True),
    ("repro.api.session", "JoinSession", "run", "session.run", True),
    ("repro.api.session", "JoinSession", "open_stream", "session.open_stream", True),
    ("repro.api.session", "JoinSession", "push", "session.push", True),
    ("repro.api.session", "JoinSession", "finish", "session.finish", True),
    ("repro.core.operator", "GridJoinOperator", "build_execution", "operator.build_execution", True),
    ("repro.core.operator", "GridJoinOperator", "collect_result", "operator.collect_result", True),
    ("repro.engine.simulator", "Simulator", "feed_schedule", "simulator.feed", True),
    ("repro.engine.simulator", "Simulator", "schedule_data", "simulator.feed", False),
    ("repro.engine.simulator", "Simulator", "run", "simulator.run", True),
    ("repro.engine.simulator", "Simulator", "post", "simulator.post", False),
    ("repro.engine.simulator", "Simulator", "post_fanout", "simulator.post", False),
    ("repro.engine.network", "Network", "transfer", "network.transfer", False),
    ("repro.engine.network", "ReliableWire", "on_send", "wire.on_send", False),
    ("repro.core.tasks", "ReshufflerTask", "handle", "tasks.reshuffler", False),
    ("repro.core.tasks", "ReshufflerTask", "handle_drained", "tasks.reshuffler", False),
    ("repro.core.tasks", "JoinerTask", "handle", "tasks.joiner", False),
    ("repro.core.tasks", "JoinerTask", "handle_drained", "tasks.joiner", False),
    ("repro.core.epochs", "EpochJoinerState", "handle_data", "epochs.handle", False),
    ("repro.core.epochs", "EpochJoinerState", "handle_data_batch", "epochs.handle", False),
    ("repro.core.epochs", "EpochJoinerState", "handle_migrated", "epochs.handle", False),
    ("repro.core.epochs", "EpochJoinerState", "handle_signal", "epochs.handle", False),
    ("repro.core.decision", "MigrationController", "check", "decision.check", False),
    ("repro.core.tasks", "Topology", "plan", "migration.plan", False),
    ("repro.joins.local", "LocalJoiner", "insert", "joins.insert", False),
    ("repro.joins.local", "LocalJoiner", "bulk_insert", "joins.insert", False),
    ("repro.joins.local", "LocalJoiner", "absorb", "joins.insert", False),
    ("repro.joins.local", "LocalJoiner", "remove", "joins.insert", False),
    ("repro.joins.local", "LocalJoiner", "probe", "joins.probe", False),
    ("repro.joins.local", "LocalJoiner", "raw_probe", "joins.probe", False),
    ("repro.joins.local", "LocalJoiner", "keyed_raw_probe", "joins.probe", False),
    ("repro.joins.local", "LocalJoiner", "probe_batch", "joins.probe", False),
    ("repro.engine.metrics", "MetricsCollector", "record_output", "metrics.record", False),
    ("repro.engine.metrics", "MetricsCollector", "record_outputs", "metrics.record", False),
    ("repro.engine.metrics", "MetricsCollector", "record_probe_work", "metrics.record", False),
    ("repro.engine.metrics", "MetricsCollector", "record_drained_run", "metrics.record", False),
    ("repro.engine.metrics", "MetricsCollector", "record_input_processed", "metrics.record", False),
    ("repro.engine.metrics", "MetricsCollector", "record_ilf", "metrics.record", False),
    ("repro.engine.metrics", "MetricsCollector", "record_competitive_ratio", "metrics.record", False),
    ("repro.engine.metrics", "MetricsCollector", "record_cardinality_ratio", "metrics.record", False),
    ("repro.storage.checkpoint_store", "CheckpointStore", "log", "checkpoint.log", False),
    ("repro.storage.checkpoint_store", "CheckpointStore", "flush", "checkpoint.log", False),
    ("repro.storage.checkpoint_store", "CheckpointStore", "snapshot", "checkpoint.snapshot", False),
    ("repro.storage.checkpoint_store", "CheckpointStore", "load", "checkpoint.load", False),
    ("repro.core.recovery", "RecoveryManager", "on_crash", "recovery.restart", True),
    ("repro.core.recovery", "RecoveryManager", "on_restart", "recovery.restart", True),
)

#: what a layer whose targets never ran (or no longer resolve) reads as
_IDLE = (0, 0, 0)


class Tracer:
    """Span stack, per-layer accumulators and the kept coarse spans."""

    def __init__(self) -> None:
        #: accumulator name -> ``[calls, total_ns, self_ns]``
        self.layers: dict[str, list[int]] = {}
        #: kept coarse spans: ``(id, parent id, name, layer, start_ns, duration_ns)``
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        #: ``module[.class].attribute`` of every target that did not resolve
        self.missing: list[str] = []
        self.gc_ns = 0
        self.gc_gen2 = 0
        self._stack: list[list[int]] = []  # one [child_ns] frame per open span
        self._open_coarse: list[int] = [0]  # ids of the open coarse spans
        #: ``(owner, attribute, original)`` of everything currently wrapped
        self.originals: list[tuple[object, str, object]] = []
        self._gc_started = 0

    # -------------------------------------------------------------- wrapping

    def install(self) -> None:
        """Wrap every resolvable target and start timing collections."""
        for module_name, class_name, attribute, layer, coarse in TARGETS:
            label = ".".join(filter(None, (module_name, class_name, attribute)))
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            accumulator = self.layers.setdefault(layer, [0, 0, 0])
            wrapper = (
                self._coarse(original, accumulator, label, layer)
                if coarse
                else self._folded(original, accumulator)
            )
            setattr(owner, attribute, wrapper)
            self.originals.append((owner, attribute, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self.originals:
            owner, attribute, original = self.originals.pop()
            setattr(owner, attribute, original)

    def _folded(self, original, accumulator):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                accumulator[0] += 1
                accumulator[1] += elapsed
                accumulator[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _coarse(self, original, accumulator, label, layer):
        stack = self._stack
        open_coarse = self._open_coarse
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            parent = open_coarse[-1]
            span_id = len(spans) + 1
            spans.append(None)  # reserve the id: children close first
            open_coarse.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_coarse.pop()
                stack.pop()
                spans[span_id - 1] = (span_id, parent, label, layer, start, elapsed)
                accumulator[0] += 1
                accumulator[1] += elapsed
                accumulator[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
            return
        elapsed = time.perf_counter_ns() - self._gc_started
        self.gc_ns += elapsed
        if info["generation"] == 2:
            self.gc_gen2 += 1
        if self._stack:
            # A collection is a child of whatever span it interrupted.
            self._stack[-1][0] += elapsed

    # --------------------------------------------------------------- reading

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, _IDLE)[0]

    def total_s(self, layer: str) -> float:
        return self.layers.get(layer, _IDLE)[1] / 1e9

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, _IDLE)[2] / 1e9

    def span_count(self) -> int:
        """Every span recorded, folded ones included."""
        return sum(accumulator[0] for accumulator in self.layers.values())

    def write_chrome_trace(self, path: str, migrations=()) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto).

        Wall-clock spans go to process 1.  ``migrations`` — ``(epoch,
        decided_at, completed_at)`` in *virtual* time, from
        ``RunResult.migration_events`` — go to process 2, whose time axis is
        the simulated clock (one virtual time unit drawn as one second).
        """
        origin = min((span[4] for span in self.spans if span), default=0)
        events = [
            {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "wall clock"}},
            {"ph": "M", "pid": 2, "name": "process_name", "args": {"name": "virtual time"}},
        ]
        for span in self.spans:
            if span is None:
                continue
            span_id, parent, label, layer, start, elapsed = span
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "name": label,
                    "cat": layer,
                    "ts": (start - origin) / 1e3,
                    "dur": elapsed / 1e3,
                    "args": {"id": span_id, "parent": parent},
                }
            )
        for epoch, decided_at, completed_at in migrations:
            events.append(
                {
                    "ph": "X",
                    "pid": 2,
                    "tid": 1,
                    "name": f"migration to epoch {epoch}",
                    "cat": "epochs",
                    "ts": decided_at * 1e6,
                    "dur": (completed_at - decided_at) * 1e6,
                    "args": {"epoch": epoch},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
