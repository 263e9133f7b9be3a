"""Smoke test of the benchmark itself: every workload at 1/50 size, in-process.

Collected by the tier-1 command.  The full-size, fresh-interpreter protocol is
``python3 perf/bench.py``; here the point is that the yardstick is sound —
all named metrics present, outputs equal to the independent reference down to
the pair multiset (crashed and lossy streaming run included), runs repeat
exactly, and tracing is bit-invisible and leaves nothing wrapped behind.
"""

from __future__ import annotations

import json
import os

import pytest

import bench
import tracer as tracer_module
import workloads

SIZE = 1 / 50
SEED = 3


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=[w.name for w in workloads.WORKLOADS])
def runs(request, tmp_path_factory):
    """Two untraced runs and one traced run of one workload, one seed."""
    name = request.param
    trace_path = str(tmp_path_factory.mktemp("trace") / f"{name}.trace.json")
    first = bench.run_once(name, SEED, SIZE, check_pairs=True)
    second = bench.run_once(name, SEED, SIZE, check_pairs=True)
    traced = bench.run_once(name, SEED, SIZE, traced=True, check_pairs=True, trace_path=trace_path)
    return name, first, second, traced, trace_path


def test_contract_lists_the_benchmarks_own_tables(contract):
    assert contract["paths"] == ["perf"]
    assert contract["run_seconds"] == bench.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]] == [
        row for row in bench.END_TO_END if row[0] not in bench.LEDGER_ONLY
    ]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_outputs_equal_the_reference_join(runs):
    _name, first, second, traced, _path = runs
    for record in (first, second, traced):
        assert record["failures"] == []
        assert record["config_dropped"] == []


def test_every_named_metric_is_reported_with_its_unit(runs, contract):
    _name, first, _second, traced, _path = runs
    units = {name: unit for name, unit, _better, _bound in bench.END_TO_END}
    assert set(first["end_to_end"]) == set(units)
    assert all(value > 0 for value in first["end_to_end"].values())
    per_layer = dict(traced["per_layer"], **{"trace.overhead_ratio": (1.0, "ratio")})
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == {
        name: unit for name, (_value, unit) in per_layer.items()
    }
    assert traced["trace_missing"] == []


def test_one_seed_repeats_exactly_and_tracing_is_bit_invisible(runs):
    _name, first, second, traced, _path = runs
    assert second["deterministic"] == first["deterministic"]
    assert traced["deterministic"] == first["deterministic"]


def test_workload_shapes(runs):
    name, first, _second, traced, _path = runs
    fields = first["deterministic"]
    layers = {metric: value for metric, (value, _unit) in traced["per_layer"].items()}
    idle = [m for m in layers if m.split(".")[0] in ("checkpoint", "recovery", "wire")]
    if name == "stream-faulty-j16":
        assert fields["faults_injected"] == 2
        assert first["pushes"] == layers["session.push_calls"] > 1
        assert layers["wire.dropped"] > 0 and layers["recovery.tuples_replayed"] > 0
        assert layers["checkpoint.snapshots"] > 0 and layers["checkpoint.bytes"] > 0
    else:
        assert first["pushes"] == 0
        assert [m for m in idle if layers[m] != 0] == []
    if name == "sat-dense-j16":
        assert fields["migrations"] == 0
    if name == "paced-fluct-j16":
        assert fields["migrations"] >= 1


def test_trace_file_is_chrome_trace_json(runs):
    _name, _first, _second, _traced, path = runs
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = [event for event in events if event["ph"] == "X" and event["pid"] == 1]
    ids = {span["args"]["id"] for span in spans}
    assert spans and all(span["dur"] >= 0 for span in spans)
    assert all(span["args"]["parent"] in ids | {0} for span in spans)


def test_tracer_restores_everything_it_wrapped():
    tracer = tracer_module.Tracer()
    tracer.install()
    wrapped = list(tracer.originals)
    assert len(wrapped) == len(tracer_module.TARGETS) and tracer.missing == []
    assert all(vars(owner)[attribute] is not original for owner, attribute, original in wrapped)
    tracer.uninstall()
    assert all(vars(owner)[attribute] is original for owner, attribute, original in wrapped)
    assert tracer.originals == []


def test_config_tolerance_drops_retired_knobs():
    config, dropped = workloads.make_config({"machines": 8, "retired_knob": 1})
    assert config.machines == 8 and dropped == ["retired_knob"]


def test_compare_verdicts():
    def stats(median, low=None, high=None):
        return {"median": median, "min": low or median, "max": high or median}

    assert bench.verdict("tuples_per_s", "higher", 0.2, stats(100), stats(90)) == "same"
    assert bench.verdict("tuples_per_s", "higher", 0.2, stats(100), stats(70)) == "worse"
    assert bench.verdict("tuples_per_s", "higher", 0.2, stats(100), stats(130)) == "better"
    assert bench.verdict("tuples_per_s", "higher", 0.2, stats(100, 80, 110), stats(70)) == "unresolved"
    assert bench.verdict("setup_s", "lower", 0.25, stats(0.26, 0.2, 0.4), stats(0.40)) == "same"
    assert bench.verdict("setup_s", "lower", 0.25, stats(1.0), stats(1.5)) == "worse"
