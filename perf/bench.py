#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, every metric.

    python3 perf/bench.py [--workload NAME] [--seed 1] [--reps 3]
                          [--seconds S] [--trace {0,1}] [--out FILE]
    python3 perf/bench.py --compare A.json B.json

Run protocol.  This process is a single-threaded parent.  Every repetition
runs in a fresh child interpreter, strictly one at a time: a second run
inside one process is ~25 % slower, ``ru_maxrss`` is process-wide and tuple
ids come from a process-global counter.  Per workload the parent spawns
``--reps`` timed children with tracing off (more while their timed regions
sum to less than ``--seconds``) and reports each end-to-end metric as the
median over them, with min, max and the sample count; then it spawns one
*traced* child (see ``tracer.py``) for the per-layer numbers.  End-to-end
metrics never come from a traced child.  ``--trace 0`` stops after the timed
children, ``--trace 1`` runs one timed child and the traced one and reports
only the per-layer metrics.

Every child does (1) set-up — import the library, generate data, build the
query, wrap tuples, fix the arrival order, construct the session; (2) the
timed region — ``session.run(arrival_order=...)`` or the ``push()`` loop plus
``finish()``; (3) untimed verification against ``reference.py``.  Garbage
collection stays at interpreter defaults: users pay it.

After each workload's table the parent prints one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
repetition, plus each ``push()`` on the streaming workload; it fails on any
exception, a wrong output count, deterministic fields that differ between
repetitions, a missed crash, or wire counters that do not reconcile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")

#: ``(name, unit, better, bound)``: bound is the share of the baseline median
#: by which a metric may get worse before ``--compare`` says ``worse``.
#: ``BENCHMARK.json`` repeats these (the smoke test keeps the two equal).
END_TO_END = (
    ("tuples_per_s", "tuples/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("push_ms_p50", "ms", "lower", 0.24),
    ("push_ms_p99", "ms", "lower", 0.24),
    ("virt_throughput", "tuples/vt", "higher", 0.10),
    ("virt_latency", "vt", "lower", 0.01),
    ("ilf_ratio_max", "ratio", "lower", 0.05),
)
#: Printed, recorded and compared, but not in ``BENCHMARK.json``: the mean
#: output latency is dominated by migration and recovery transients whose
#: timing moves with the seed (35 % spread across seeds on
#: ``stream-faulty-j16``), and the benchmark driver compares runs made with
#: different seeds.  With one seed it repeats exactly.
LEDGER_ONLY = frozenset({"virt_latency"})
#: ``--compare`` never counts a ``setup_s`` difference smaller than this.
SETUP_FLOOR_S = 0.2
#: Default ``--seconds``; equals ``run_seconds`` in ``BENCHMARK.json``.
RUN_SECONDS = 12
#: A whole invocation for one workload must end well inside 180 s.
DEADLINE_S = 170.0


# ------------------------------------------------------------------- child


def _percentile(ordered: list, share: float) -> float:
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def _drive(session, prepared, collect_outputs: bool):
    """The timed region.  Returns the result and every call's latency (ms)."""
    calls_ms = []
    clock = time.perf_counter
    if prepared.push_chunk is None:
        start = clock()
        result = session.run(arrival_order=prepared.order, collect_outputs=collect_outputs)
        calls_ms.append((clock() - start) * 1e3)
        return result, calls_ms
    order = prepared.order
    push = session.push
    for offset in range(0, len(order), prepared.push_chunk):
        chunk = order[offset:offset + prepared.push_chunk]
        start = clock()
        push(items=chunk)
        calls_ms.append((clock() - start) * 1e3)
    return session.finish(), calls_ms


def _verify(prepared, result, check_pairs: bool) -> list[str]:
    """Untimed checks of one repetition; returns what failed."""
    failures = []
    kind, left_attr, right_attr, width = prepared.join
    left_keys = [record[left_attr] for record in prepared.query.left_records]
    right_keys = [record[right_attr] for record in prepared.query.right_records]
    expected = reference.expected_count(kind, left_keys, right_keys, width)
    if result.output_count != expected:
        failures.append(f"output_count {result.output_count} != reference {expected}")
    if result.faults_injected != prepared.crashes:
        failures.append(
            f"faults_injected {result.faults_injected} != scheduled {prepared.crashes}"
        )
    wire = result.wire_counters
    if (wire is not None) != bool(prepared.knobs.get("network_faults")):
        failures.append("wire_counters present without network faults, or missing with them")
    if wire is not None:
        if wire["sent"] != wire["delivered"] + wire["dropped"]:
            failures.append(f"wire: sent != delivered + dropped in {wire}")
        if wire["applied"] != wire["delivered"] - wire["deduped"]:
            failures.append(f"wire: applied != delivered - deduped in {wire}")
    if check_pairs:
        left_index = {item.tuple_id: index for index, item in enumerate(prepared.left)}
        right_index = {item.tuple_id: index for index, item in enumerate(prepared.right)}
        produced: dict = {}
        for left_id, right_id in result.outputs:
            pair = (left_index[left_id], right_index[right_id])
            produced[pair] = produced.get(pair, 0) + 1
        if produced != reference.expected_pairs(kind, left_keys, right_keys, width):
            failures.append("output pair multiset differs from the reference join")
    return failures


def deterministic_fields(result) -> dict:
    """Everything of a ``RunResult`` that must repeat exactly under one seed.

    JSON-safe, so records compare equal across child processes.  Journal
    bytes are left out: pickled tuple ids differ in width between the first
    and a later run of one process (the smoke test runs in-process).
    """
    return {
        "output_count": result.output_count,
        "throughput": result.throughput,
        "average_latency": result.average_latency,
        "max_competitive_ratio": result.max_competitive_ratio,
        "execution_time": result.execution_time,
        "migrations": result.migrations,
        "migration_events": [
            [epoch, list(old), list(new), decided, completed]
            for epoch, old, new, decided, completed in result.migration_events
        ],
        "final_mapping": [result.final_mapping.n, result.final_mapping.m],
        "events_processed": result.events_processed,
        "heap_events": result.heap_events,
        "probe_work": result.probe_work,
        "max_ilf": result.max_ilf,
        "total_storage": result.total_storage,
        "routing_volume": result.routing_volume,
        "migration_volume": result.migration_volume,
        "machine_busy": [list(pair) for pair in result.machine_busy],
        "batch_histogram": sorted((result.batch_histogram or {}).items()),
        "wire_histogram": sorted((result.wire_histogram or {}).items()),
        "faults_injected": result.faults_injected,
        "tuples_replayed": result.tuples_replayed,
        "recovery_time": result.recovery_time,
        "wire_counters": result.wire_counters,
    }


def _histogram_mean(histogram) -> float:
    if not histogram:
        return 0.0
    return sum(size * count for size, count in histogram.items()) / sum(histogram.values())


def layer_metrics(tracer, result, tuples: int, import_s: float, session_s: float) -> dict:
    """The per-layer metrics of one traced run: ``name -> (value, unit)``.

    ``_s`` metrics are *self* seconds of the layer's wrapped entry points
    unless the glossary in README.md says total; counts come from the
    ``RunResult`` and the wrappers.  ``trace.overhead_ratio`` needs an
    untraced run and is added by the caller.
    """
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls
    wire = result.wire_counters or {}
    migration_vt = sum(
        completed - decided
        for _epoch, _old, _new, decided, completed in result.migration_events
        if completed is not None
    )
    rows = (
        ("runtime.import_s", import_s, "s"),
        ("data.generate_s", self_s("data.generate"), "s"),
        ("data.query_s", self_s("data.query"), "s"),
        ("stream.prepare_s", self_s("stream.prepare"), "s"),
        ("stream.tuples", tuples, "count"),
        ("session.build_s", session_s + self_s("session.open_stream"), "s"),
        ("operator.build_execution_s", self_s("operator.build_execution"), "s"),
        ("simulator.feed_s", self_s("simulator.feed"), "s"),
        ("simulator.loop_self_s", self_s("simulator.run"), "s"),
        ("simulator.post_s", self_s("simulator.post"), "s"),
        ("simulator.post_calls", calls("simulator.post"), "count"),
        ("simulator.heap_events", result.heap_events, "count"),
        ("simulator.handler_calls", result.events_processed, "count"),
        ("simulator.heap_events_per_tuple", result.heap_events / tuples, "1/tuple"),
        ("simulator.handler_calls_per_tuple", result.events_processed / tuples, "1/tuple"),
        ("batching.drain_run_mean", _histogram_mean(result.batch_histogram), "tuples"),
        ("batching.wire_run_mean", _histogram_mean(result.wire_histogram), "tuples"),
        ("network.transfer_s", self_s("network.transfer"), "s"),
        ("network.transfer_calls", calls("network.transfer"), "count"),
        ("network.routing_volume_per_tuple", result.routing_volume / tuples, "units/tuple"),
        ("network.migration_volume_per_tuple", result.migration_volume / tuples, "units/tuple"),
        ("tasks.reshuffler_self_s", self_s("tasks.reshuffler"), "s"),
        ("tasks.reshuffler_calls", calls("tasks.reshuffler"), "count"),
        ("tasks.joiner_self_s", self_s("tasks.joiner"), "s"),
        ("tasks.joiner_calls", calls("tasks.joiner"), "count"),
        ("joins.probe_s", self_s("joins.probe"), "s"),
        ("joins.probe_calls", calls("joins.probe"), "count"),
        ("joins.insert_s", self_s("joins.insert"), "s"),
        ("joins.insert_calls", calls("joins.insert"), "count"),
        ("joins.probe_work", result.probe_work, "count"),
        ("joins.outputs", result.output_count, "count"),
        ("joins.match_ratio", result.output_count / max(result.probe_work, 1.0), "ratio"),
        ("metrics.record_s", self_s("metrics.record"), "s"),
        ("metrics.record_calls", calls("metrics.record"), "count"),
        ("epochs.self_s", self_s("epochs.handle"), "s"),
        ("epochs.calls", calls("epochs.handle"), "count"),
        ("epochs.migrations", result.migrations, "count"),
        ("epochs.migration_virtual_time", migration_vt, "vt"),
        ("decision.check_s", self_s("decision.check"), "s"),
        ("decision.checks", calls("decision.check"), "count"),
        ("migration.plan_s", self_s("migration.plan"), "s"),
        ("migration.plans", calls("migration.plan"), "count"),
        ("session.push_calls", calls("session.push"), "count"),
        ("session.push_s", total_s("session.push"), "s"),
        ("session.ingest_self_s", self_s("session.push"), "s"),
        ("session.finish_s", total_s("session.finish"), "s"),
        ("operator.collect_result_s", total_s("operator.collect_result"), "s"),
        ("checkpoint.log_s", self_s("checkpoint.log"), "s"),
        ("checkpoint.log_calls", calls("checkpoint.log"), "count"),
        ("checkpoint.snapshot_s", self_s("checkpoint.snapshot"), "s"),
        ("checkpoint.snapshots", calls("checkpoint.snapshot"), "count"),
        ("checkpoint.load_s", self_s("checkpoint.load"), "s"),
        ("checkpoint.bytes", result.checkpoint_overhead, "bytes"),
        ("recovery.restart_s", self_s("recovery.restart"), "s"),
        ("recovery.faults", result.faults_injected, "count"),
        ("recovery.tuples_replayed", result.tuples_replayed, "count"),
        ("recovery.virtual_time", result.recovery_time, "vt"),
        ("wire.on_send_s", self_s("wire.on_send"), "s"),
        ("wire.sent", wire.get("sent", 0), "count"),
        ("wire.dropped", wire.get("dropped", 0), "count"),
        ("wire.retransmitted", wire.get("retransmitted", 0), "count"),
        ("wire.deduped", wire.get("deduped", 0), "count"),
        ("wire.reordered", wire.get("reordered", 0), "count"),
        ("runtime.gc_s", tracer.gc_ns / 1e9, "s"),
        ("runtime.gc_gen2", tracer.gc_gen2, "count"),
        ("trace.spans", tracer.span_count(), "count"),
        ("trace.targets_missing", len(tracer.missing), "count"),
    )
    return {name: (value, unit) for name, value, unit in rows}


def run_once(
    name: str,
    seed: int,
    size: float = 1.0,
    traced: bool = False,
    check_pairs: bool = False,
    trace_path: str | None = None,
) -> dict:
    """One repetition of one workload in this process; returns its record."""
    started = time.perf_counter()
    from repro.api import JoinSession  # importing the library is set-up

    import_s = time.perf_counter() - started
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        prepared = workloads.BY_NAME[name].build(seed, size)
        session_started = time.perf_counter()
        config, dropped = workloads.make_config(prepared.knobs)
        session = JoinSession(prepared.query, config=config)
        session_s = time.perf_counter() - session_started
        if prepared.push_chunk is not None:
            session.open_stream(collect_outputs=check_pairs)
        setup_done = time.perf_counter()
        result, calls_ms = _drive(session, prepared, check_pairs)
        wall_s = time.perf_counter() - setup_done
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
    tuples = len(prepared.order)
    calls_ms.sort()
    record = {
        "tuples": tuples,
        "pushes": len(calls_ms) if prepared.push_chunk is not None else 0,
        "wall_s": wall_s,
        "config_dropped": dropped,
        "failures": _verify(prepared, result, check_pairs),
        "deterministic": deterministic_fields(result),
        "end_to_end": {
            "tuples_per_s": tuples / wall_s,
            "setup_s": setup_done - started,
            "peak_rss_mb": peak_rss_mb,
            "push_ms_p50": statistics.median(calls_ms),
            "push_ms_p99": _percentile(calls_ms, 0.99),
            "virt_throughput": result.throughput,
            "virt_latency": result.average_latency,
            "ilf_ratio_max": result.max_competitive_ratio,
        },
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(tracer, result, tuples, import_s, session_s)
        record["trace_missing"] = tracer.missing
        if trace_path is not None:
            tracer.write_chrome_trace(
                trace_path,
                [
                    (epoch, decided, completed)
                    for epoch, _old, _new, decided, completed in result.migration_events
                    if completed is not None
                ],
            )
    return record


def _child(spec_json: str) -> int:
    spec = json.loads(spec_json)
    record = run_once(
        spec["workload"], spec["seed"], traced=spec["traced"], trace_path=spec.get("trace_path")
    )
    try:
        import numpy
    except ImportError:  # optional dependency of the library
        numpy = None
    record["python"] = sys.version.split()[0]
    record["numpy"] = numpy.__version__ if numpy is not None else None
    print(json.dumps(record))
    return 0


# ------------------------------------------------------------------ parent


def _spawn(spec: dict, deadline: float) -> dict | None:
    """Run one fresh child interpreter to completion; ``None`` if it failed."""
    tmp_dir = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH")))
    )
    env["TMPDIR"] = tmp_dir  # the checkpoint journal stays inside the checkout
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.abspath(__file__), "--child", json.dumps(spec)]
    try:
        done = subprocess.run(
            command,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out: {spec}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if done.returncode != 0:
        print(f"child failed ({done.returncode}): {spec}\n{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def _problems(record: dict, baseline: dict | None, what: str) -> list[str]:
    """What failed in one child: its own checks, plus any deterministic field
    that differs from the first repetition's."""
    problems = list(record["failures"])
    if baseline is not None:
        fields = record["deterministic"]
        differing = sorted(key for key in baseline if baseline[key] != fields.get(key))
        if differing:
            problems.append(f"{what}: {differing}")
    return problems


def measure(name: str, seed: int, reps: int, seconds: float, trace: int | None) -> dict | None:
    """All children of one workload; the ledger entry, or ``None`` if none ran."""
    deadline = time.monotonic() + DEADLINE_S
    spec = {"workload": name, "seed": seed, "traced": False}
    want = 1 if trace == 1 else reps
    timed: list[dict] = []
    spawned = attempted = failed = 0
    failures: list[str] = []
    measured = 0.0
    while spawned < want or (measured < seconds and trace != 1 and not failed):
        record = _spawn(spec, deadline)
        spawned += 1
        attempted += 1
        if record is None:
            failed += 1
            failures.append("a timed child raised or timed out")
            continue
        attempted += record["pushes"]
        problems = _problems(
            record,
            timed[0]["deterministic"] if timed else None,
            "deterministic fields differ between repetitions",
        )
        if problems:
            failed += 1
            failures.extend(problems)
        timed.append(record)
        measured += record["wall_s"]
    if not timed:
        return None
    first = timed[0]
    entry = {
        "why": workloads.BY_NAME[name].why,
        "seed": seed,
        "tuples": first["tuples"],
        "python": first["python"],
        "numpy": first["numpy"],
        "config_dropped": first["config_dropped"],
        "deterministic": first["deterministic"],
        "end_to_end": {},
        "per_layer": {},
    }
    for metric, unit, _better, _bound in END_TO_END:
        values = [record["end_to_end"][metric] for record in timed]
        entry["end_to_end"][metric] = {
            "unit": unit,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
        }
    if trace != 0:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"{name}.trace.json")
        record = _spawn(dict(spec, traced=True, trace_path=trace_path), deadline)
        attempted += 1
        if record is None:
            failed += 1
            failures.append("the traced child raised or timed out")
        else:
            attempted += record["pushes"]
            problems = _problems(
                record, first["deterministic"], "tracing changed deterministic fields"
            )
            if problems:
                failed += 1
                failures.extend(problems)
            untraced = statistics.median(r["wall_s"] for r in timed)
            record["per_layer"]["trace.overhead_ratio"] = (record["wall_s"] / untraced, "ratio")
            entry["per_layer"] = {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in record["per_layer"].items()
            }
            entry["trace_missing"] = record["trace_missing"]
            entry["trace_file"] = os.path.relpath(trace_path, ROOT)
    entry["ops_attempted"] = attempted
    entry["ops_failed"] = failed
    entry["failures"] = failures
    return entry


def _number(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _report(name: str, entry: dict, trace: int | None) -> None:
    """Print one workload: the readable table, then the JSON result line."""
    print(
        f"{name}  seed={entry['seed']}  tuples={entry['tuples']}  "
        f"ops_attempted={entry['ops_attempted']}  ops_failed={entry['ops_failed']}"
    )
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")
    if entry["config_dropped"]:
        print(f"  config_dropped: {entry['config_dropped']}")
    metrics = {}
    if trace != 1:
        for metric, stats in entry["end_to_end"].items():
            print(
                f"  {metric:<34}{_number(stats['median']):>16} {stats['unit']:<12}"
                f"min {_number(stats['min'])}  max {_number(stats['max'])}  n={stats['n']}"
            )
            if trace is None or metric not in LEDGER_ONLY:
                metrics[metric] = {"value": stats["median"], "unit": stats["unit"]}
    if trace != 0:
        if entry.get("trace_missing"):
            print(f"  trace targets missing: {entry['trace_missing']}")
        for metric, stats in entry["per_layer"].items():
            print(f"  {metric:<34}{_number(stats['value']):>16} {stats['unit']}")
            metrics[metric] = stats
    print(
        json.dumps(
            {
                "correct": entry["ops_failed"] == 0,
                "attempted": entry["ops_attempted"],
                "failed": entry["ops_failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def _environment() -> dict:
    def git(*args):
        try:
            done = subprocess.run(
                ("git", "-C", ROOT) + args, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "size_factor": workloads.SIZE,
    }


def run(args) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no library to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    entries = {}
    for name in names:
        entry = measure(name, args.seed, args.reps, args.seconds, args.trace)
        if entry is None:
            print(f"{name}: no repetition completed", file=sys.stderr)
            return 1
        if args.trace == 1 and not entry["per_layer"]:
            print(f"{name}: the traced run did not complete", file=sys.stderr)
            return 1
        entries[name] = entry
        _report(name, entry, args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(dict(_environment(), workloads=entries), handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


# ----------------------------------------------------------------- compare


def verdict(metric: str, better: str, bound: float, base: dict, other: dict) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` for one metric."""
    median = base["median"]
    change = other["median"] - median
    if metric == "setup_s" and abs(change) < SETUP_FLOOR_S:
        return "same"
    if median == 0:
        return "same" if change == 0 else "unresolved"
    if (base["max"] - base["min"]) / abs(median) > bound:
        return "unresolved"  # the baseline's own spread hides a change this small
    if abs(change) / abs(median) <= bound:
        return "same"
    return "better" if (change > 0) == (better == "higher") else "worse"


def compare(path_a: str, path_b: str) -> int:
    """Apply each metric's bound to two ledger files; non-zero on ``worse``."""
    with open(path_a, encoding="utf-8") as handle:
        ledger_a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        ledger_b = json.load(handle)["workloads"]
    worse = 0
    for name in ledger_a:
        if name not in ledger_b:
            continue
        for metric, _unit, better, bound in END_TO_END:
            base = ledger_a[name]["end_to_end"][metric]
            other = ledger_b[name]["end_to_end"][metric]
            outcome = verdict(metric, better, bound, base, other)
            worse += outcome == "worse"
            print(
                f"{name:<20}{metric:<18}{outcome:<12}"
                f"{base['median']!r} -> {other['median']!r} {base['unit']}"
                f"  (bound {bound:.0%}, {better} is better)"
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3, help="timed children at least")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed regions sum to at least this")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--out", help="write the full ledger entry as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args.child)
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
