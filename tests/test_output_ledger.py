"""The output path: match groups in, a run-length latency ledger out.

Pins the contract of ``MatchGroup`` / ``LatencyLedger`` / ``record_outputs``:

* **unit** — every ledger path (whole-group run, mixed arrivals, clamp at 0,
  a partner newer than the probing tuple, a one-member group) stores exactly
  the float64 values of the per-pair formula, the mean is their single
  ``math.fsum`` and does not depend on recording order, and
  ``collect_outputs=True`` still yields oriented ``(left_id, right_id)`` pairs;
* **differential** — both probe engines on both data planes are the same
  simulation (heap events included) with equal output multisets on migrating
  equi / band / composite joins whose Δ, Δ' and µ emission paths all fire,
  and under a crash too;
* **allocation** — a dense run holds O(probes) ledger entries, not
  O(outputs), and the collector keeps no Python object per join result.
"""

from __future__ import annotations

import gc
import math
import random
from collections import Counter

import pytest

from repro.api import JoinSession, RunConfig, crash_after_events
from repro.core.epochs import EpochJoinerState
from repro.data.queries import JoinQuery
from repro.engine.metrics import LatencyLedger, MatchGroup, MetricsCollector
from repro.engine.stream import StreamTuple, interleave_streams, make_tuples
from repro.joins.predicates import BandPredicate, CompositePredicate, EquiPredicate
from repro.testing import assert_run_equivalent

ENGINES = ["scalar", "vectorized"]


# ---------------------------------------------------------------------------
# (a) unit: groups, ledger paths, exactness
# ---------------------------------------------------------------------------


def _tuple(relation, arrival):
    return StreamTuple(relation=relation, record={}, arrival_time=arrival)


def _pair_latency(item, partner, output_time):
    """The per-pair formula of §5.2, as the collector has always applied it."""
    return max(0.0, output_time - max(item.arrival_time, partner.arrival_time))


def _group(item_arrival, partner_arrivals, item_is_left=True):
    item = _tuple("R" if item_is_left else "S", item_arrival)
    partners = [_tuple("S" if item_is_left else "R", a) for a in partner_arrivals]
    return MatchGroup(item, item_is_left, partners)


#: name -> (item arrival, partner arrivals, output time)
CASES = {
    "run": (5.0, [1.0, 4.5, 5.0, 0.1], 7.3),
    "mixed": (2.0, [1.0, 3.25, 2.0, 6.5], 7.3),
    "clamp_run": (10.0, [10.0, 9.0], 9.0),
    "clamp_mixed": (1.0, [0.5, 12.0, 8.0], 9.0),
    "newer_partner": (1.0, [4.0], 6.1),
    "single": (3.0, [2.0], 3.7),
}


class TestLedgerUnit:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_ledger_holds_the_per_pair_values(self, case):
        item_arrival, partner_arrivals, output_time = CASES[case]
        group = _group(item_arrival, partner_arrivals)
        metrics = MetricsCollector()
        metrics.record_outputs(group, output_time)
        expected = [_pair_latency(group.item, p, output_time) for p in group.partners]
        ledger = metrics.latency_ledger
        assert sorted(ledger) == sorted(expected)
        assert len(ledger) == metrics.output_count == len(expected)
        assert metrics.average_latency() == math.fsum(expected) / len(expected)
        if max(partner_arrivals) <= item_arrival:
            # No partner newer than the probing tuple: one run, no singles.
            assert (len(ledger.run_values), len(ledger.values)) == (1, 0)
            assert list(ledger.run_counts) == [len(expected)]
        else:
            assert (len(ledger.run_values), len(ledger.values)) == (0, len(expected))

    def test_clamp_never_goes_negative(self):
        for case in ("clamp_run", "clamp_mixed"):
            item_arrival, partner_arrivals, output_time = CASES[case]
            metrics = MetricsCollector()
            metrics.record_outputs(_group(item_arrival, partner_arrivals), output_time)
            assert min(metrics.latency_ledger) == 0.0

    def test_record_output_is_a_one_member_group(self):
        left, right = _tuple("R", 1.0), _tuple("S", 5.0)
        single = MetricsCollector(collect_outputs=True)
        single.record_output(left, right, 7.0)
        grouped = MetricsCollector(collect_outputs=True)
        grouped.record_outputs(MatchGroup(left, True, [right]), 7.0)
        assert list(single.latency_ledger) == list(grouped.latency_ledger) == [2.0]
        assert single.outputs == grouped.outputs == [(left.tuple_id, right.tuple_id)]

    def test_mean_is_one_fsum_and_order_independent(self):
        rng = random.Random(11)
        groups = []
        expected = []
        for _ in range(60):
            item_arrival = rng.uniform(0.0, 50.0)
            # Half the groups tie/trail the probing tuple (runs), half mix.
            spread = 0.0 if rng.random() < 0.5 else 30.0
            partners = [
                rng.uniform(0.0, item_arrival + spread) for _ in range(rng.randrange(1, 9))
            ]
            output_time = item_arrival + rng.uniform(-1.0, 40.0)
            group = _group(item_arrival, partners, item_is_left=rng.random() < 0.5)
            groups.append((group, output_time))
            expected.extend(_pair_latency(group.item, p, output_time) for p in group.partners)
        reference = math.fsum(expected) / len(expected)
        means = set()
        for _ in range(5):
            rng.shuffle(groups)
            metrics = MetricsCollector()
            for group, output_time in groups:
                metrics.record_outputs(group, output_time)
            assert metrics.latency_ledger.run_values and metrics.latency_ledger.values
            means.add(metrics.average_latency())
        assert means == {reference}
        assert metrics.output_count == len(expected)

    def test_empty_ledger(self):
        ledger = LatencyLedger()
        assert len(ledger) == 0 and list(ledger) == [] and ledger.mean() == 0.0

    @pytest.mark.parametrize("item_is_left", [True, False])
    def test_groups_iterate_oriented_pairs(self, item_is_left):
        group = _group(1.0, [0.5, 0.7], item_is_left=item_is_left)
        assert len(group) == 2 and group
        pairs = list(group)
        assert pairs == list(group), "iteration must be repeatable"
        for (left, right), partner in zip(pairs, group.partners):
            assert left.relation == "R" and right.relation == "S"
            assert (left if item_is_left else right) is group.item
            assert (right if item_is_left else left) is partner
        metrics = MetricsCollector(collect_outputs=True)
        metrics.record_outputs(group, 2.0)
        assert metrics.outputs == [(l.tuple_id, r.tuple_id) for l, r in pairs]
        assert not MatchGroup(group.item, item_is_left, [])

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("item_is_left", [True, False])
    def test_arrival_bound_feeds_the_same_ledger(self, case, item_is_left):
        """A group carrying its store's arrival bound (here the tightest
        one, its newest partner) records exactly what the partner scan
        records: a run when the bound is no newer than the probing tuple,
        the per-result values otherwise."""
        item_arrival, partner_arrivals, output_time = CASES[case]
        group = _group(item_arrival, partner_arrivals, item_is_left=item_is_left)
        bounded = MatchGroup(
            group.item, item_is_left, group.partners, max(partner_arrivals)
        )
        by_scan = MetricsCollector(collect_outputs=True)
        by_scan.record_outputs(group, output_time)
        by_bound = MetricsCollector(collect_outputs=True)
        by_bound.record_outputs(bounded, output_time)
        for attribute in ("values", "run_values", "run_counts"):
            assert getattr(by_bound.latency_ledger, attribute) == getattr(
                by_scan.latency_ledger, attribute
            )
        assert by_bound.outputs == by_scan.outputs
        assert by_bound.output_count == by_scan.output_count


# ---------------------------------------------------------------------------
# (b) differential: engines x planes on migrating joins, all emission paths
# ---------------------------------------------------------------------------

MACHINES = 8
SEED = 5

PLANES = {
    "per_tuple": {"batch_size": 1},
    "adaptive": {"batching": "adaptive"},
}

PREDICATES = {
    "equi": lambda: EquiPredicate("k", "k"),
    "band": lambda: BandPredicate("k", "k", width=1),
    "composite": lambda: CompositePredicate(
        EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
    ),
}


def _query(kind: str) -> JoinQuery:
    """Match-dense and imbalanced (40 x 360 over 12 keys): Dynamic migrates
    away from the square start mapping mid-stream, and tuples of every
    protocol set find partners."""
    rng = random.Random(17)
    left = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(40)]
    right = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(360)]
    return JoinQuery(
        name=f"LEDGER_{kind.upper()}",
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=PREDICATES[kind](),
    )


def _arrival_order(query):
    rng = random.Random(SEED)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(query.right_relation, query.right_records, rng, query.right_tuple_size)
    return interleave_streams(left, right, rng)


def _run(query, order, **overrides):
    # Near-saturated pacing: the backlog is deep enough that tuples of all
    # four protocol sets meet partners (and the adaptive plane drains long
    # runs), while distinct arrival times make joiners see partners newer
    # than the probing tuple — both ledger layouts get written.
    config = RunConfig(
        machines=MACHINES, seed=SEED, warmup_tuples=16, inter_arrival=0.001, **overrides
    )
    return JoinSession(query, config=config).run(arrival_order=order, collect_outputs=True)


@pytest.fixture()
def emission_paths(monkeypatch):
    """Count the join results each protocol path of Alg. 3 emits."""
    emitted = Counter()

    def counting(name, path):
        original = getattr(EpochJoinerState, name)

        def wrapper(self, *args):
            outcome = original(self, *args)
            actions_list = outcome if isinstance(outcome, list) else [outcome]
            emitted[path] += sum(len(actions.matches) for actions in actions_list)
            return outcome

        monkeypatch.setattr(EpochJoinerState, name, wrapper)

    counting("_handle_delta", "delta")
    counting("_handle_delta_prime", "delta_prime")
    counting("_delta_prime_batch", "delta_prime")
    counting("handle_migrated", "mu")
    return emitted


class TestEnginesAgreeOnEveryPlane:
    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    def test_same_simulation_same_outputs(self, kind, emission_paths):
        query = _query(kind)
        order = _arrival_order(query)
        oracle = _run(query, order, probe_engine="scalar", **PLANES["per_tuple"])
        assert oracle.migrations >= 1, f"{kind}: scenario must migrate"
        assert oracle.output_count > len(order), f"{kind}: scenario must be dense"
        for path in ("delta", "delta_prime", "mu"):
            assert emission_paths[path] > 0, f"{kind}: no result left the {path} path"
        multiset = Counter(oracle.outputs)
        for plane, knobs in PLANES.items():
            reference = _run(query, order, probe_engine="scalar", **knobs)
            # Plane vs plane: heap events legitimately differ, the rest may not.
            assert_run_equivalent(oracle, reference, label=f"{kind}/{plane}")
            for engine in ENGINES[1:]:
                result = _run(query, order, probe_engine=engine, **knobs)
                label = f"{kind}/{plane}/{engine}"
                assert_run_equivalent(reference, result, events=True, label=label)
                assert Counter(result.outputs) == multiset, label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_recovery_cell(self, engine):
        """A crashed machine's replay re-runs the probes but must not emit
        twice: the recovered output multiset is the fault-free twin's, and
        the crashed run is the same simulation on every engine."""
        query = _query("equi")
        order = _arrival_order(query)
        knobs = dict(PLANES["adaptive"], probe_engine=engine)
        twin = _run(query, order, **knobs)
        crashed = _run(
            query, order, fault_schedule=(crash_after_events(3, 150),), **knobs
        )
        assert crashed.faults_injected == 1 and crashed.tuples_replayed > 0
        assert Counter(crashed.outputs) == Counter(twin.outputs)
        if engine != "scalar":
            oracle = _run(
                query,
                order,
                fault_schedule=(crash_after_events(3, 150),),
                **dict(knobs, probe_engine="scalar"),
            )
            assert_run_equivalent(oracle, crashed, events=True, label=f"crash/{engine}")


# ---------------------------------------------------------------------------
# (c) allocation pin: O(probes) ledger entries, no object per result
# ---------------------------------------------------------------------------


def _dense_query(per_side=320) -> JoinQuery:
    rng = random.Random(23)
    records = [
        [{"k": rng.randrange(10), "id": index} for index in range(per_side)]
        for _side in range(2)
    ]
    return JoinQuery(
        name="DENSE_BAND",
        left_relation="A",
        right_relation="B",
        left_records=records[0],
        right_records=records[1],
        predicate=BandPredicate("k", "k", width=4),
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_dense_run_keeps_no_object_per_result(engine, monkeypatch):
    query = _dense_query()
    order = _arrival_order(query)
    seen = {"groups": 0}
    original = MetricsCollector.record_outputs

    def spying(self, matches, output_time):
        seen["collector"] = self
        seen["groups"] += 1
        original(self, matches, output_time)

    monkeypatch.setattr(MetricsCollector, "record_outputs", spying)
    session = JoinSession(
        query,
        config=RunConfig(
            machines=4,
            batching="adaptive",
            inter_arrival=0.0,
            warmup_tuples=len(order),
            probe_engine=engine,
        ),
    )
    gc.collect()
    before = len(gc.get_objects())
    result = session.run(arrival_order=order)
    # The run's stores are garbage by now; the collector is kept alive by
    # ``seen`` and with it everything it retains per result.
    gc.collect()
    growth = len(gc.get_objects()) - before

    assert result.output_count >= 100 * len(order), "workload lost its density"
    ledger = seen["collector"].latency_ledger
    assert len(ledger) == result.output_count
    # Saturated: every arrival ties at t=0, so every group is one run.
    probes = seen["groups"]
    assert probes <= len(order) * 4
    assert len(ledger.values) == 0
    assert len(ledger.run_values) + len(ledger.values) <= probes
    assert growth < probes, (
        f"{growth} GC-tracked objects survived a run of {probes} probes and "
        f"{result.output_count} results"
    )
