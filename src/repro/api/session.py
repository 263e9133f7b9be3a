"""The session facade: one front door for materialised and streaming runs.

A :class:`JoinSession` is one workload, one operator kind and one
:class:`~repro.api.config.RunConfig`, fixed at construction, and exposes the
two ingestion modes of the system:

* **materialised** — :meth:`JoinSession.run` executes a
  :class:`~repro.data.queries.JoinQuery` end to end, exactly like
  ``operator.run()`` always did, and returns a
  :class:`~repro.core.results.RunResult`;
* **streaming** — :meth:`JoinSession.push` feeds chunks of stream tuples
  (built with :func:`~repro.engine.stream.make_tuples`) into a live,
  resumable simulation (opened lazily or explicitly via
  :meth:`JoinSession.open_stream`), returning a mid-run
  :class:`StreamSnapshot` after each chunk; :meth:`JoinSession.finish`
  drains the simulation and returns the final
  :class:`~repro.core.results.RunResult`.  Every pushed tuple is its own
  source message, sent to the reshuffler the materialised path would pick
  for it, so both modes route identically.  This is the unbounded/live-stream
  mode the materialised bench layer cannot express: the input need never be
  materialised up front, and progress can be observed between chunks.

A different query, operator kind or config is a different session; a
config variant is ``dataclasses.replace(config, ...)``.  The operator itself
is built by :func:`build_operator`, the one way to build one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.api.config import RunConfig
from repro.core.mapping import Mapping
from repro.engine.stream import StreamTuple, reshuffler_picker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operator import GridJoinOperator
    from repro.core.results import RunResult
    from repro.data.queries import JoinQuery


def build_operator(kind: str, query: "JoinQuery", config: RunConfig) -> "GridJoinOperator":
    """Construct the operator of ``kind`` (``"Dynamic"``, ``"StaticMid"``, ...).

    Unknown kinds fail with the choices listed.
    """
    # Imported at call time: core imports repro.api.config, so a module-level
    # import would be a cycle.
    from repro.core.baselines import OPERATORS

    operator_class = OPERATORS.get(kind)
    if operator_class is None:
        raise ValueError(
            f"unknown operator {kind!r}; choices: {', '.join(sorted(OPERATORS))}"
        )
    return operator_class(query, config)


@dataclass(frozen=True)
class StreamSnapshot:
    """Mid-run observability of a streaming session.

    Attributes:
        tuples_pushed: input tuples ingested so far.
        virtual_time: current virtual completion time of the work so far.
        events_processed: simulator handler invocations so far.
        output_count: join results produced so far.
        migrations: mapping changes triggered so far.
        mapping: the controller's current ``(n, m)`` mapping.
        max_ilf: peak per-machine stored size observed so far.
        total_storage: current total cluster storage.
        probe_work: joiner probe work units charged so far.
    """

    tuples_pushed: int
    virtual_time: float
    events_processed: int
    output_count: int
    migrations: int
    mapping: Mapping
    max_ilf: float
    total_storage: float
    probe_work: float


class _StreamingRun:
    """State of one incremental run: a live simulator plus the source feed.

    Each ingested tuple is stamped with its arrival time and sent to a
    reshuffler drawn from ``Random(seed)`` — the same draw sequence as the
    materialised ``arrival_order`` path — so a workload is routed identically
    whether it arrives in one materialised schedule or in arbitrary chunks.
    """

    def __init__(self, operator: "GridJoinOperator", collect_outputs: bool = False) -> None:
        self.operator = operator
        self.simulator, self.topology = operator.build_execution(
            collect_outputs=collect_outputs
        )
        self.inter_arrival = operator.config.inter_arrival
        # Destination picking mirrors GridJoinOperator.run(arrival_order=...):
        # a fresh Random(seed) used exclusively for reshuffler choice.
        self._pick = reshuffler_picker(
            random.Random(operator.seed), self.topology.reshuffler_names
        )
        self._pushed = 0
        self.finished = False

    # ------------------------------------------------------------- ingestion

    def push(self, items: Sequence[StreamTuple]) -> StreamSnapshot:
        if self.finished:
            raise RuntimeError("cannot push into a finished streaming session")
        query = self.operator.query
        relations = (query.left_relation, query.right_relation)
        chunk = list(items)
        for item in chunk:
            if not isinstance(item, StreamTuple):
                raise TypeError(
                    "push() accepts StreamTuple objects only, got "
                    f"{type(item).__name__}; wrap raw records with "
                    "repro.engine.stream.make_tuples()"
                )
            if item.relation not in relations:
                raise ValueError(
                    f"pushed tuple belongs to relation {item.relation!r}, "
                    f"expected one of {relations}"
                )
        self._ingest(chunk)
        self.simulator.run()
        return self.snapshot()

    def _ingest(self, chunk: list[StreamTuple]) -> None:
        """Stamp and send every tuple of a validated chunk, in order."""
        inter_arrival = self.inter_arrival
        pick = self._pick
        schedule_data = self.simulator.schedule_data
        pushed = self._pushed
        for item in chunk:
            arrival_time = pushed * inter_arrival
            item.arrival_time = arrival_time
            pushed += 1
            # The tuple is its own message.  schedule_data merges consecutive
            # same-destination ingest messages into the feed channel's run.
            schedule_data(arrival_time, pick(), item)
        self._pushed = pushed

    # ----------------------------------------------------------- observation

    def snapshot(self) -> StreamSnapshot:
        simulator = self.simulator
        metrics = simulator.metrics
        virtual_time = simulator.now
        for machine in simulator.machines:
            virtual_time = max(virtual_time, machine.busy_until)
        controller = simulator.tasks[self.topology.controller_name]
        return StreamSnapshot(
            tuples_pushed=self._pushed,
            virtual_time=virtual_time,
            events_processed=simulator.events_processed,
            output_count=metrics.output_count,
            migrations=metrics.migration_count(),
            mapping=controller.mapping,
            max_ilf=simulator.max_machine_storage(),
            total_storage=simulator.total_storage(),
            probe_work=metrics.probe_work,
        )

    # ----------------------------------------------------------------- finish

    def finish(self) -> "RunResult":
        if self.finished:
            raise RuntimeError("streaming session already finished")
        self.simulator.run()
        self.finished = True
        return self.operator.collect_result(self.simulator, self.topology, self._pushed)


class JoinSession:
    """One query, one operator kind and one config, run materialised or streamed.

    The operator is built here, so an unknown kind or an invalid machine
    count fails at construction.

    Args:
        query: the workload.  The streaming mode uses only its schema
            (relation names, predicate, tuple sizes): just the tuples passed
            to :meth:`push` flow through the operator.
        operator: operator kind (a key of
            :data:`repro.core.baselines.OPERATORS`).
        config: the :class:`RunConfig` of every run; ``None`` is
            ``RunConfig()``.

    Example::

        session = JoinSession(query, config=RunConfig(machines=16, seed=7))
        result = session.run()

        session.push(chunk)          # streaming mode: StreamTuples
        snap = session.push(more)
        final = session.finish()
    """

    def __init__(
        self,
        query: "JoinQuery",
        *,
        operator: str = "Dynamic",
        config: RunConfig | None = None,
    ) -> None:
        self._operator = build_operator(
            operator, query, config if config is not None else RunConfig()
        )
        self._stream: _StreamingRun | None = None
        self._stream_finished = False

    # ------------------------------------------------------ materialised mode

    def run(
        self,
        *,
        arrival_order: Sequence[StreamTuple] | None = None,
        collect_outputs: bool = False,
        max_events: int | None = None,
    ) -> "RunResult":
        """Run the workload end to end in a fresh simulation and return its result."""
        return self._operator.run(
            arrival_order=arrival_order,
            collect_outputs=collect_outputs,
            max_events=max_events,
        )

    # --------------------------------------------------------- streaming mode

    def open_stream(self, *, collect_outputs: bool = False) -> "JoinSession":
        """Open the incremental ingestion mode (the first :meth:`push` opens
        it too, without collecting outputs)."""
        if self._stream is not None:
            raise RuntimeError("a streaming run is already open; finish() it first")
        self._stream = _StreamingRun(self._operator, collect_outputs=collect_outputs)
        self._stream_finished = False
        return self

    def push(self, items: Sequence[StreamTuple]) -> StreamSnapshot:
        """Feed a chunk of tuples into the streaming run and advance it.

        ``items`` are :class:`StreamTuple` objects of either relation, in
        arrival order; build them from raw records with
        :func:`~repro.engine.stream.make_tuples` (a raw record raises
        ``TypeError``).  Each push runs the simulation dry before returning.

        The first push opens the stream lazily; after :meth:`finish` a new
        run must be opened explicitly via :meth:`open_stream` (a stray push
        would otherwise silently start a fresh, empty simulation).
        """
        if self._stream is None:
            if self._stream_finished:
                raise RuntimeError(
                    "the streaming run was finished; call open_stream() to start a new one"
                )
            self.open_stream()
        return self._stream.push(items)

    def snapshot(self) -> StreamSnapshot:
        """Mid-run metrics of the open streaming run."""
        if self._stream is None:
            raise RuntimeError("no streaming run is open")
        return self._stream.snapshot()

    def finish(self) -> "RunResult":
        """Drain the simulation and close the stream."""
        if self._stream is None:
            raise RuntimeError("no streaming run is open")
        stream, self._stream = self._stream, None
        self._stream_finished = True
        return stream.finish()
