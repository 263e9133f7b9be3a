"""One driver per table/figure of the paper's evaluation (§5).

Every driver returns an :class:`ExperimentReport` carrying machine-readable
rows/series plus a formatted plain-text rendition.  The pytest-benchmark
files under ``benchmarks/`` call these drivers with small scale factors; the
same drivers can be called with larger parameters for higher-fidelity runs.

The paper's absolute numbers (seconds on a 220-VM cluster) are not expected
to match — the substrate is a simulator — but the *shapes* are: who wins, by
roughly what factor, and where the crossovers fall.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api import JoinSession, RunConfig, crash_after_events, drop
from repro.bench.harness import ExperimentConfig, build_query, run_single
from repro.bench.report import format_series, format_table
from repro.core.decision import competitive_ratio_bound
from repro.core.mapping import Mapping, optimal_mapping
from repro.data.queries import JoinQuery
from repro.engine.stream import fluctuating_order, make_tuples

#: The four skew settings of Table 2 (Z4 omitted by default to keep CI fast).
SKEW_LABELS = ["Z0", "Z1", "Z2", "Z3", "Z4"]

#: Queries reported in Figs. 6b/6d/7a/7b.
FIGURE_QUERIES = ["EQ5", "EQ7", "BNCI", "BCI"]


@dataclass
class ExperimentReport:
    """Result of one experiment driver."""

    name: str
    rows: list[dict] = field(default_factory=list)
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ---------------------------------------------------------------------------
# Table 2 — skew resilience (runtime under Z0..Z4)
# ---------------------------------------------------------------------------

def table2_skew_resilience(
    scale: float = 0.5,
    machines: int = 16,
    seed: int = 1,
    skews: list[str] | None = None,
    queries: list[str] | None = None,
    memory_capacity: float | None = None,
) -> ExperimentReport:
    """Table 2: runtime of SHJ / Dynamic / StaticMid for EQ5 and EQ7 under skew.

    A finite ``memory_capacity`` reproduces the starred entries (overflow to
    disk) of the paper's table: under skew, SHJ and StaticMid overload a few
    machines past the budget and pay the spill penalty.
    """
    skews = skews or SKEW_LABELS
    queries = queries or ["EQ5", "EQ7"]
    if memory_capacity is None:
        # Budget chosen so the optimal mapping fits comfortably but a skewed
        # hash-partitioned machine does not (mirrors the 2 GB heap of §5).
        probe = ExperimentConfig(machines=machines, scale=scale, skew=0.0, seed=seed)
        query = build_query(queries[0], probe)
        left, right = query.cardinalities
        memory_capacity = 3.0 * (left + right) / machines

    rows = []
    for skew in skews:
        row: dict[str, object] = {"zipf": skew}
        for query_name in queries:
            config = ExperimentConfig(
                machines=machines,
                scale=scale,
                skew=skew,
                seed=seed,
                memory_capacity=memory_capacity,
            )
            query = build_query(query_name, config)
            for operator_kind in ("SHJ", "Dynamic", "StaticMid"):
                result = run_single(operator_kind, query, config)
                label = f"{query_name}/{operator_kind}"
                star = "*" if result.spilled else ""
                row[label] = f"{result.execution_time:.0f}{star}"
        rows.append(row)
    text = format_table(
        rows,
        title=(
            "Table 2 — runtime (virtual time units) under skew; "
            "'*' marks overflow to disk"
        ),
    )
    return ExperimentReport(name="table2", rows=rows, text=text)


# ---------------------------------------------------------------------------
# Fig. 6a / 6c — ILF growth and execution-time progress for EQ5
# ---------------------------------------------------------------------------

def _eq5_operator_runs(scale: float, machines: int, seed: int, skew: str):
    config = ExperimentConfig(machines=machines, scale=scale, skew=skew, seed=seed)
    query = build_query("EQ5", config)
    results = {}
    for operator_kind in ("SHJ", "StaticMid", "Dynamic", "StaticOpt"):
        results[operator_kind] = run_single(operator_kind, query, config)
    return results


def fig6a_ilf_growth(
    scale: float = 0.5, machines: int = 16, seed: int = 1, skew: str = "Z4"
) -> ExperimentReport:
    """Fig. 6a: max per-machine ILF vs fraction of input processed (EQ5)."""
    results = _eq5_operator_runs(scale, machines, seed, skew)
    series = {kind: result.ilf_series for kind, result in results.items()}
    rows = [
        {
            "operator": kind,
            "final_max_ilf": round(result.max_ilf, 1),
            "growth_per_pct": round(result.max_ilf / 100.0, 2),
        }
        for kind, result in results.items()
    ]
    text = (
        format_table(rows, title="Fig. 6a — EQ5 input-load factor growth")
        + "\n"
        + format_series(series, x_label="fraction processed", y_label="max ILF per machine")
    )
    return ExperimentReport(name="fig6a", rows=rows, series=series, text=text)


def fig6c_execution_progress(
    scale: float = 0.5, machines: int = 16, seed: int = 1, skew: str = "Z4"
) -> ExperimentReport:
    """Fig. 6c: execution time vs fraction of input processed (EQ5)."""
    results = _eq5_operator_runs(scale, machines, seed, skew)
    series = {kind: result.progress_series for kind, result in results.items()}
    rows = [
        {"operator": kind, "total_execution_time": round(result.execution_time, 1)}
        for kind, result in results.items()
    ]
    text = (
        format_table(rows, title="Fig. 6c — EQ5 execution-time progress")
        + "\n"
        + format_series(series, x_label="fraction processed", y_label="virtual time")
    )
    return ExperimentReport(name="fig6c", rows=rows, series=series, text=text)


# ---------------------------------------------------------------------------
# Fig. 6b / 6d / 7a / 7b — per-query final ILF, storage, time, throughput, latency
# ---------------------------------------------------------------------------

def _per_query_runs(
    scale: float,
    machines: int,
    seed: int,
    queries: list[str] | None = None,
    operators: tuple[str, ...] = ("StaticMid", "Dynamic", "StaticOpt"),
    include_shj: bool = False,
    inter_arrival: float = 0.0,
    batching: str = "adaptive",
):
    queries = queries or FIGURE_QUERIES
    runs: dict[str, dict[str, object]] = {}
    for query_name in queries:
        skew = "Z4" if query_name in ("EQ5", "EQ7") else "Z0"
        config = ExperimentConfig(
            machines=machines, scale=scale, skew=skew, seed=seed,
            inter_arrival=inter_arrival, batching=batching,
        )
        query = build_query(query_name, config)
        per_op = {}
        operator_list = list(operators)
        if include_shj and query.predicate.kind == "equi":
            operator_list = ["SHJ"] + operator_list
        for operator_kind in operator_list:
            per_op[operator_kind] = run_single(operator_kind, query, config)
        runs[query_name] = per_op
    return runs


def fig6b_final_ilf(
    scale: float = 0.5, machines: int = 16, seed: int = 1, queries: list[str] | None = None
) -> ExperimentReport:
    """Fig. 6b: final ILF per machine and total cluster storage, all queries."""
    runs = _per_query_runs(scale, machines, seed, queries)
    rows = []
    for query_name, per_op in runs.items():
        for operator_kind, result in per_op.items():
            rows.append(
                {
                    "query": query_name,
                    "operator": operator_kind,
                    "max_ilf": round(result.max_ilf, 1),
                    "total_cluster_storage": round(result.total_storage, 1),
                }
            )
    text = format_table(rows, title="Fig. 6b — final input-load factor and cluster storage")
    return ExperimentReport(name="fig6b", rows=rows, text=text)


def fig6d_total_execution_time(
    scale: float = 0.5, machines: int = 16, seed: int = 1, queries: list[str] | None = None
) -> ExperimentReport:
    """Fig. 6d: total execution time for every query and operator."""
    runs = _per_query_runs(scale, machines, seed, queries)
    rows = []
    for query_name, per_op in runs.items():
        for operator_kind, result in per_op.items():
            rows.append(
                {
                    "query": query_name,
                    "operator": operator_kind,
                    "execution_time": round(result.execution_time, 1),
                }
            )
    text = format_table(rows, title="Fig. 6d — total execution time")
    return ExperimentReport(name="fig6d", rows=rows, text=text)


def fig7a_throughput(
    scale: float = 0.5,
    machines: int = 16,
    seed: int = 1,
    queries: list[str] | None = None,
    batching: str = "adaptive",
) -> ExperimentReport:
    """Fig. 7a: average operator throughput for every query and operator.

    ``batching="per_tuple"`` runs the same figure on the reference plane:
    identical numbers (bit-identical virtual times, pinned by the conformance
    suite), produced with far more simulator events.
    """
    runs = _per_query_runs(scale, machines, seed, queries, include_shj=True, batching=batching)
    rows = []
    for query_name, per_op in runs.items():
        for operator_kind, result in per_op.items():
            rows.append(
                {
                    "query": query_name,
                    "operator": operator_kind,
                    "throughput": round(result.throughput, 3),
                    "output_throughput": round(result.output_throughput, 3),
                }
            )
    text = format_table(rows, title="Fig. 7a — average operator throughput")
    return ExperimentReport(name="fig7a", rows=rows, text=text)


def _batch_trace(result) -> str:
    """Compact drained-run size histogram of one run ("size*count ..."), or
    "-" on the per-tuple plane.  Reported next to latency so batching-induced
    latency artefacts are visible in review: a trace full of deep runs under
    a paced workload would mean the controller is queueing tuples it should
    process immediately."""
    histogram = result.batch_histogram
    if not histogram:
        return "-"
    return " ".join(f"{size}*{count}" for size, count in sorted(histogram.items()))


def fig7b_latency(
    scale: float = 0.5,
    machines: int = 16,
    seed: int = 1,
    queries: list[str] | None = None,
    batching: str = "adaptive",
) -> ExperimentReport:
    """Fig. 7b: average tuple latency for every query and operator.

    Arrivals are paced (non-zero inter-arrival gap) so that latency reflects
    processing and adaptation overhead rather than source-side queueing,
    matching the spirit of the paper's measurement.  Every row reports the
    run's batch-size trace alongside the latency (see :func:`_batch_trace`);
    under this paced workload the trace should collapse to (near-)per-tuple
    runs, keeping the latency semantics of the reference plane.
    """
    runs = _per_query_runs(
        scale, machines, seed, queries, inter_arrival=0.15, batching=batching
    )
    rows = []
    for query_name, per_op in runs.items():
        for operator_kind, result in per_op.items():
            rows.append(
                {
                    "query": query_name,
                    "operator": operator_kind,
                    "avg_latency": round(result.average_latency, 2),
                    "batch_trace": _batch_trace(result),
                }
            )
    text = format_table(rows, title="Fig. 7b — average tuple latency")
    return ExperimentReport(name="fig7b", rows=rows, text=text)


# ---------------------------------------------------------------------------
# Fig. 7c / 7d — sweep over how far the optimal mapping is from (√J, √J)
# ---------------------------------------------------------------------------

def _resize_left(query: JoinQuery, target: int, seed: int) -> JoinQuery:
    """Return a copy of ``query`` whose left stream has ``target`` records.

    The paper varies the optimal mapping "by increasing the size of the
    smaller input stream"; records are replicated (with fresh dictionaries)
    or subsampled to reach the requested cardinality.
    """
    rng = random.Random(seed)
    source = query.left_records
    if not source:
        raise ValueError("cannot resize an empty left stream")
    if len(source) >= target:
        records = [dict(record) for record in source[:target]]
    else:
        records = [dict(record) for record in source]
        while len(records) < target:
            records.append(dict(rng.choice(source)))
    return JoinQuery(
        name=query.name,
        left_relation=query.left_relation,
        right_relation=query.right_relation,
        left_records=records,
        right_records=query.right_records,
        predicate=query.predicate,
        left_tuple_size=query.left_tuple_size,
        right_tuple_size=query.right_tuple_size,
        description=query.description,
    )


def fig7cd_mapping_sweep(
    scale: float = 0.5,
    machines: int = 16,
    seed: int = 1,
    operators: tuple[str, ...] = ("StaticMid", "Dynamic", "StaticOpt"),
) -> ExperimentReport:
    """Figs. 7c and 7d: final ILF and throughput as the optimal mapping varies.

    The left (smaller) stream of EQ5 is grown so that the optimal mapping
    moves from ``(1, J)`` towards the square ``(√J, √J)`` scheme, at which
    point StaticMid stops losing and Dynamic's advantage disappears — the
    crossover the paper highlights.
    """
    config = ExperimentConfig(machines=machines, scale=scale, skew="Z0", seed=seed)
    base_query = build_query("EQ5", config)
    right_count = len(base_query.right_records)

    rows = []
    mapping_labels = []
    n = 1
    while n * n <= machines:
        target_mapping = Mapping(n, machines // n)
        # Choose |R| so that the optimal mapping is the target: |R|/n ≈ |S|/m.
        target_left = max(1, int(right_count * target_mapping.n / target_mapping.m))
        query = _resize_left(base_query, target_left, seed)
        label = str(target_mapping)
        mapping_labels.append(label)
        for operator_kind in operators:
            result = run_single(operator_kind, query, config)
            rows.append(
                {
                    "optimal_mapping": label,
                    "operator": operator_kind,
                    "max_ilf": round(result.max_ilf, 1),
                    "total_storage": round(result.total_storage, 1),
                    "throughput": round(result.throughput, 3),
                    "final_mapping": str(result.final_mapping),
                }
            )
        n *= 2
    text = format_table(
        rows,
        title="Figs. 7c/7d — ILF, storage and throughput across optimal mappings",
    )
    return ExperimentReport(name="fig7cd", rows=rows, text=text)


# ---------------------------------------------------------------------------
# Fig. 8a / 8b — weak scalability (in-memory and out-of-core)
# ---------------------------------------------------------------------------

def fig8ab_weak_scaling(
    base_scale: float = 0.25,
    base_machines: int = 8,
    steps: int = 3,
    seed: int = 1,
    queries: tuple[str, ...] = ("EQ5", "EQ7", "BNCI"),
    out_of_core: bool = False,
) -> ExperimentReport:
    """Figs. 8a/8b: execution time and throughput as data and machines double.

    Configuration ``i`` uses ``base_scale · 2^i`` data on ``base_machines ·
    2^i`` joiners.  Perfect weak scaling keeps execution time constant and
    doubles throughput at each step; the replicated smaller relation makes the
    ILF grow slowly, so scaling is near-ideal but not perfect — exactly the
    effect §5.3 discusses.
    """
    rows = []
    for step in range(steps):
        scale = base_scale * (2 ** step)
        machines = base_machines * (2 ** step)
        for query_name in queries:
            config = ExperimentConfig(
                machines=machines, scale=scale, skew="Z0", seed=seed
            )
            query = build_query(query_name, config)
            if out_of_core:
                left, right = query.cardinalities
                config.memory_capacity = 0.5 * (left + right) / machines
            result = run_single("Dynamic", query, config)
            rows.append(
                {
                    "config": f"{scale:g}x/{machines}",
                    "query": query_name,
                    "mode": "out-of-core" if out_of_core else "in-memory",
                    "execution_time": round(result.execution_time, 1),
                    "throughput": round(result.throughput, 3),
                    "max_ilf": round(result.max_ilf, 1),
                    "spilled": result.spilled,
                }
            )
    mode = "out-of-core" if out_of_core else "in-memory"
    text = format_table(rows, title=f"Figs. 8a/8b — weak scalability ({mode})")
    return ExperimentReport(name="fig8ab", rows=rows, text=text)


# ---------------------------------------------------------------------------
# Fig. 8c / 8d — data dynamics (fluctuating arrival ratios)
# ---------------------------------------------------------------------------

def fig8cd_fluctuations(
    scale: float = 0.5,
    machines: int = 16,
    seed: int = 1,
    fluctuation_factors: tuple[int, ...] = (2, 4, 6, 8),
    epsilon: float = 1.0,
) -> ExperimentReport:
    """Figs. 8c/8d: competitive ratio and progress under severe fluctuations.

    The cardinality aspect ratio of the two input streams alternates between
    ``k`` and ``1/k``; the operator starts adapting after a small warm-up
    (<1% of the input, as in §5.4).  The report gives, per ``k``, the maximum
    observed ILF/ILF* after adaptivity initiation, the number of migrations,
    and the execution-time progress series.
    """
    rows = []
    ratio_series: dict[str, list[tuple[float, float]]] = {}
    progress_series: dict[str, list[tuple[float, float]]] = {}
    for factor in fluctuation_factors:
        config = ExperimentConfig(machines=machines, scale=scale, skew="Z0", seed=seed)
        query = build_query("FLUCT_SYM", config)
        rng = random.Random(seed)
        left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
        right = make_tuples(
            query.right_relation, query.right_records, rng, query.right_tuple_size
        )
        total = len(left) + len(right)
        warmup = max(64, total // 100)
        order = fluctuating_order(left, right, fluctuation_factor=factor, warmup=warmup)
        session = JoinSession(
            query,
            config=RunConfig(
                machines=machines,
                seed=seed,
                epsilon=epsilon,
                warmup_tuples=float(warmup),
            ),
        )
        result = session.run(arrival_order=order)
        post_init = [ratio for processed, ratio in result.ratio_series if processed > warmup * 2]
        max_ratio = max(post_init) if post_init else result.max_competitive_ratio
        rows.append(
            {
                "fluctuation_k": factor,
                "migrations": result.migrations,
                "max_ILF_over_ILF*": round(max_ratio, 3),
                "theoretical_bound": round(competitive_ratio_bound(epsilon), 3),
                "execution_time": round(result.execution_time, 1),
            }
        )
        ratio_series[f"k={factor}"] = [
            (float(processed), ratio) for processed, ratio in result.ratio_series
        ]
        progress_series[f"k={factor}"] = result.progress_series
    text = (
        format_table(rows, title="Fig. 8c — ILF/ILF* under fluctuations")
        + "\n"
        + format_series(
            progress_series,
            x_label="fraction processed",
            y_label="virtual time",
            title="Fig. 8d — execution-time progress under fluctuations",
        )
    )
    return ExperimentReport(
        name="fig8cd", rows=rows, series={**ratio_series, **progress_series}, text=text
    )


# ---------------------------------------------------------------------------
# Ablations — design choices called out in DESIGN.md
# ---------------------------------------------------------------------------

def ablation_epsilon(
    scale: float = 0.4,
    machines: int = 16,
    seed: int = 1,
    epsilons: tuple[float, ...] = (0.25, 0.5, 1.0),
) -> ExperimentReport:
    """Theorem 4.2 trade-off: smaller ε adapts more eagerly (lower ILF ratio,
    more migration traffic)."""
    rows = []
    config = ExperimentConfig(machines=machines, scale=scale, skew="Z0", seed=seed)
    query = build_query("EQ5", config)
    for epsilon in epsilons:
        session = JoinSession(
            query, config=RunConfig(machines=machines, seed=seed, epsilon=epsilon)
        )
        result = session.run(arrival_pattern="s_first")
        rows.append(
            {
                "epsilon": epsilon,
                "ratio_bound": round(competitive_ratio_bound(epsilon), 3),
                "migrations": result.migrations,
                "migration_volume": round(result.migration_volume, 1),
                "execution_time": round(result.execution_time, 1),
            }
        )
    text = format_table(rows, title="Ablation — ε trade-off (Theorem 4.2)")
    return ExperimentReport(name="ablation_epsilon", rows=rows, text=text)


def ablation_migration_strategy(
    scale: float = 0.4, machines: int = 16, seed: int = 1
) -> ExperimentReport:
    """Locality-aware (dyadic) vs naive (row-major) state relocation traffic."""
    rows = []
    config = ExperimentConfig(machines=machines, scale=scale, skew="Z0", seed=seed)
    query = build_query("EQ5", config)
    for layout in ("dyadic", "row_major"):
        session = JoinSession(
            query, config=RunConfig(machines=machines, seed=seed, layout=layout)
        )
        result = session.run(arrival_pattern="s_first")
        rows.append(
            {
                "layout": layout,
                "migrations": result.migrations,
                "migration_volume": round(result.migration_volume, 1),
                "execution_time": round(result.execution_time, 1),
            }
        )
    text = format_table(rows, title="Ablation — locality-aware vs naive migration")
    return ExperimentReport(name="ablation_migration", rows=rows, text=text)


def ablation_blocking(
    scale: float = 0.4, machines: int = 16, seed: int = 1
) -> ExperimentReport:
    """Non-blocking epoch protocol (Alg. 3) vs stall-the-world actuation."""
    rows = []
    config = ExperimentConfig(machines=machines, scale=scale, skew="Z0", seed=seed)
    query = build_query("EQ5", config)
    for blocking in (False, True):
        # The blocking protocol runs on the per-tuple plane only.
        batching = "per_tuple" if blocking else "adaptive"
        session = JoinSession(
            query,
            config=RunConfig(
                machines=machines, seed=seed, blocking=blocking, batching=batching
            ),
        )
        result = session.run(arrival_pattern="s_first")
        rows.append(
            {
                "actuation": "blocking" if blocking else "non-blocking",
                "migrations": result.migrations,
                "execution_time": round(result.execution_time, 1),
                "avg_latency": round(result.average_latency, 2),
            }
        )
    text = format_table(rows, title="Ablation — blocking vs non-blocking actuation")
    return ExperimentReport(name="ablation_blocking", rows=rows, text=text)


# ---------------------------------------------------------------------------
# Fault tolerance — checkpoint cadence vs recovery cost
# ---------------------------------------------------------------------------

def recovery_sweep(
    scale: float = 0.4,
    machines: int = 16,
    seed: int = 1,
    intervals: tuple[int | None, ...] = (None, 25, 100, 400),
    inter_arrival: float = 0.0,
) -> ExperimentReport:
    """Checkpoint-cadence trade-off under a mid-run joiner crash.

    A fault-free baseline first measures the run's event count; every swept
    configuration then crashes one joiner at the halfway point and recovers
    it through the checkpoint store.  Frequent snapshots (small interval)
    shorten the journal recovery must replay; ``interval=None`` journals
    without ever snapshotting, so recovery replays the machine's whole
    history.  What a short interval costs in checkpoint bytes is nearly flat:
    between migrations a joiner snapshot is an extending header over the
    journal blocks already written, so ``checkpoint_kb`` is the journal itself
    plus the small reshuffler snapshots (one per interval) and one full
    joiner snapshot per migration — not one copy of every joiner's store per
    interval.  Output counts must match the fault-free baseline on every row
    — recovery is a correctness mechanism, not an approximation.

    Saturated (``inter_arrival=0``, the default) the joiners are mid-migration
    for most of the run, where snapshots wait, so the cadence barely shows in
    either column; a paced sweep keeps them in the NORMAL phase and shows both
    — the replay shrinking with the interval and the bytes staying flat.
    """
    config = ExperimentConfig(machines=machines, scale=scale, skew="Z0", seed=seed)
    query = build_query("EQ5", config)
    baseline = JoinSession(
        query,
        config=RunConfig(machines=machines, seed=seed, inter_arrival=inter_arrival),
    ).run()
    anchor = max(1, baseline.events_processed // 2)
    schedule = [crash_after_events(machines // 2, anchor)]
    rows = [
        {
            "checkpoint_interval": "fault-free",
            "faults": 0,
            "recovery_time": 0.0,
            "tuples_replayed": 0,
            "checkpoint_kb": 0.0,
            "execution_time": round(baseline.execution_time, 1),
            "output_count": baseline.output_count,
        }
    ]
    for interval in intervals:
        run_config = RunConfig(
            machines=machines,
            seed=seed,
            inter_arrival=inter_arrival,
            checkpoint_interval=interval,
            fault_schedule=schedule,
        )
        result = JoinSession(query, config=run_config).run()
        if result.output_count != baseline.output_count:
            raise AssertionError(
                f"checkpoint_interval={interval} changed the output count "
                f"({result.output_count} != {baseline.output_count})"
            )
        rows.append(
            {
                "checkpoint_interval": "journal-only" if interval is None else interval,
                "faults": result.faults_injected,
                "recovery_time": round(result.recovery_time, 2),
                "tuples_replayed": result.tuples_replayed,
                "checkpoint_kb": round(result.checkpoint_overhead / 1024.0, 1),
                "execution_time": round(result.execution_time, 1),
                "output_count": result.output_count,
            }
        )
    text = format_table(
        rows,
        title=(
            f"Recovery sweep — EQ5@Z0, {machines} joiners, inter-arrival "
            f"{inter_arrival:g}, crash at {anchor} events (Dynamic)"
        ),
    )
    return ExperimentReport(name="recovery_sweep", rows=rows, text=text)


# ---------------------------------------------------------------------------
# Unreliable wire — drop rate vs retransmit overhead
# ---------------------------------------------------------------------------

def _uniform_drop_schedule(
    machines: int, rate: float, seed: int, horizon: int = 400
) -> tuple:
    """A deterministic stand-in for a uniform loss rate: an independently
    seeded Bernoulli(``rate``) coin per (directed link, nth) pair, out to
    ``horizon`` frames per link.  Specs whose ``nth`` exceeds a link's actual
    traffic are no-ops, so the horizon only needs to cover the busiest
    link."""
    if rate <= 0.0:
        return ()
    rng = random.Random(f"lossy-wire:{seed}:{rate}")
    return tuple(
        drop((sender, receiver), nth)
        for sender in range(machines)
        for receiver in range(machines)
        if sender != receiver
        for nth in range(1, horizon + 1)
        if rng.random() < rate
    )


def lossy_wire_sweep(
    scale: float = 0.3,
    machines: int = 8,
    seed: int = 1,
    drop_rates: tuple[float, ...] = (0.0, 0.01, 0.05),
) -> ExperimentReport:
    """Completion time and retransmit overhead under uniform frame loss.

    Sweeps deterministic drop schedules approximating 0/1/5 % loss on every
    link.  The reliable-delivery sublayer must mask every schedule — the
    output count is asserted equal to the clean wire's on every row — while
    the retransmit counters and the execution-time slowdown quantify what the
    masking costs.
    """
    config = ExperimentConfig(machines=machines, scale=scale, skew="Z0", seed=seed)
    query = build_query("EQ5", config)
    rows = []
    baseline = None
    for rate in drop_rates:
        # One frame per tuple keeps per-link sequence numbers dense enough
        # for the stride schedule to approximate the target loss rate.
        run_config = RunConfig(
            machines=machines,
            seed=seed,
            network_faults=_uniform_drop_schedule(machines, rate, seed),
        )
        result = JoinSession(query, config=run_config).run()
        if baseline is None:
            baseline = result
        elif result.output_count != baseline.output_count:
            raise AssertionError(
                f"drop rate {rate} changed the output count "
                f"({result.output_count} != {baseline.output_count})"
            )
        sent = (result.wire_counters or {}).get("sent", 0)
        rows.append(
            {
                "drop_rate": f"{rate:.0%}" if rate else "clean",
                "dropped": result.messages_dropped,
                "retransmitted": result.messages_retransmitted,
                "retransmit_pct": (
                    round(100.0 * result.messages_retransmitted / sent, 2)
                    if sent
                    else 0.0
                ),
                "execution_time": round(result.execution_time, 1),
                "slowdown": round(
                    result.execution_time / baseline.execution_time, 3
                ),
                "output_count": result.output_count,
            }
        )
    text = format_table(
        rows,
        title=f"Lossy wire sweep — EQ5@Z0, {machines} joiners, uniform drop rates",
    )
    return ExperimentReport(name="lossy_wire_sweep", rows=rows, text=text)
