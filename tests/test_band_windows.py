"""Index-proven matches: edge-corrected band windows and the arrival bound.

Two facts the indexes keep let the joiner skip per-pair work without changing
a single result:

* **edge-corrected band windows** — for keys of one numeric class the match
  set ``{b : abs(key - b) <= w}`` is one slice of the sorted key list, and
  ``OrderedIndex.band_bounds`` cuts it by that very expression: it bisects
  the rounded window ``[key - w, key + w]`` and moves each edge while the
  expression says so.  A non-float key over an index holding floats beyond
  ``±2**52`` is the one corner where the set may not be a slice; there every
  stored key is tested.  Hypothesis pins every probe path — the batch path,
  the per-tuple path and the Δ/Δ'/µ partition probes of a migration —
  against the brute-force :func:`repro.testing.reference_probe` on small
  ints, ints near ``2**53``, arbitrary finite floats, ints and floats in one
  index (the corner included) and ``bool``; a spy pins that no run calls
  ``BandPredicate.matches``.
* **the arrival bound** — ``JoinIndex.newest_arrival`` bounds every stored
  tuple's arrival on any insert/remove/absorb sequence, and a group whose
  partner is newer than the probing tuple still spills per-result values
  with the exact per-pair mean.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, RunConfig
from repro.core.epochs import EpochJoinerState, JoinerPhase
from repro.core.mapping import GridPlacement, Mapping
from repro.core.migration import plan_migration
from repro.data.queries import JoinQuery
from repro.engine.metrics import MatchGroup, MetricsCollector
from repro.engine.stream import StreamTuple, interleave_streams, make_tuples
from repro.joins.index import OrderedIndex
from repro.joins.local import make_local_joiner
from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    ThetaPredicate,
)
from repro.testing import reference_probe

# ---------------------------------------------------------------------------
# (1) edge-corrected band windows == brute force
# ---------------------------------------------------------------------------

_QUARTERS = st.integers(-40, 40).map(lambda n: n / 4)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _near(magnitude, spread):
    return st.sampled_from([1, -1]).flatmap(
        lambda sign: st.integers(magnitude - spread, magnitude + spread).map(
            lambda k: sign * k
        )
    )


#: Key spaces: one class at a time, and ints and floats in one index.
KEYS = {
    "small_int": st.integers(-20, 20),
    # Either side of 2**53, where an integral float width's window edges
    # stop being exact.
    "near_2_53": _near(2**53, 4),
    "quarter_float": _QUARTERS,
    "float": _FLOATS,
    # Dense finite floats: many pairs sit within an ulp of the band edge.
    "small_float": st.floats(-4, 4, allow_nan=False),
    "mixed": st.one_of(st.integers(-10, 10), _QUARTERS),
    # Beyond ±2**52 ints and floats may disagree on the order of key - b:
    # the corner, where every stored key is tested.
    "mixed_near_2_53": _near(2**53, 12).flatmap(lambda k: st.sampled_from([k, float(k)])),
    "mixed_near_2_54": st.integers(2**54 - 12, 2**54 + 12).flatmap(
        lambda k: st.sampled_from([k, float(k)])
    ),
    "mixed_wide": st.one_of(_near(2**53, 4), _FLOATS),
    "bool": st.one_of(st.booleans(), st.integers(-2, 3)),
}

WIDTHS = {
    "int": st.integers(0, 4),
    "integral_float": st.integers(0, 4).map(float),
    "fractional_float": st.sampled_from([0.25, 0.5, 1.75]),
    "float": st.floats(0, 8, allow_nan=False),
    "wide_float": st.floats(min_value=0, allow_nan=False, allow_infinity=False),
}


@st.composite
def band_cases(draw, min_size=0, max_size=40):
    """A width and a stream of R/S tuples whose ``v`` keys share one space."""
    keys = KEYS[draw(st.sampled_from(sorted(KEYS)))]
    width = draw(WIDTHS[draw(st.sampled_from(sorted(WIDTHS)))])
    spec = draw(
        st.lists(
            st.tuples(st.booleans(), keys),
            min_size=min_size,
            max_size=max_size,
        )
    )
    items = [
        StreamTuple(relation="R" if is_left else "S", record={"v": key})
        for is_left, key in spec
    ]
    return width, items


def _case(width, *stream):
    """A fixed ``band_cases`` draw: ``(relation, key)`` pairs in arrival order."""
    return width, [
        StreamTuple(relation=relation, record={"v": key})
        for relation, key in stream
    ]


#: A float pair at ulp distance from the band edge: ``|k - b| <= w`` holds in
#: both orders, yet ``b`` lies outside ``k``'s rounded window
#: ``[fl(k - w), fl(k + w)]`` and ``k`` outside ``b``'s.
_EDGE_K = -3.1171955258389396e-07
_EDGE_W = 5.137980173045545e-07
_EDGE_B = 2.0207846472066054e-07

#: Edges the random draws may miss: past ``2**53 - |w|`` an int key's float
#: window edge rounds outward (the window holds a key 3 away at width 2.0);
#: a float key stored among ints beyond ``2**53`` makes the predicate's
#: subtraction round (``2**54 + 2`` becomes ``2**54``); an int probing key
#: there rounds the other way; and the ulp-distance float pair above.
EDGE_CASES = (
    _case(2.0, ("S", 2**53 - 2), ("R", 2**53 + 1)),
    _case(2, ("S", float(2**54 + 4)), ("R", 2**54 + 2)),
    _case(3, ("S", 2**54 + 4), ("R", float(2**54))),
    _case(2**53, ("S", -0.5), ("S", 0), ("S", 0.5), ("R", 2**53 + 1)),
    _case(_EDGE_W, ("S", _EDGE_B), ("R", _EDGE_K), ("S", _EDGE_K), ("R", _EDGE_B)),
)


def _predicate(width):
    return BandPredicate("v", "v", width=width)


def _ids(matches):
    return Counter(match.tuple_id for match in matches)


def _pairs(actions):
    return Counter((left.tuple_id, right.tuple_id) for left, right in actions.matches)


def _reference(predicate, stored, item):
    return reference_probe(predicate, stored, item, left_relation="R")


class TestBandWindowsMatchTheReference:
    @given(case=band_cases(), batch_size=st.integers(1, 9))
    @example(case=EDGE_CASES[0], batch_size=2)
    @example(case=EDGE_CASES[1], batch_size=2)
    @example(case=EDGE_CASES[2], batch_size=2)
    @example(case=EDGE_CASES[3], batch_size=4)
    @example(case=EDGE_CASES[4], batch_size=1)
    @settings(max_examples=300, deadline=None)
    def test_probe_batch(self, case, batch_size):
        width, items = case
        predicate = _predicate(width)
        joiner = make_local_joiner(predicate, "R", "S")
        got = []
        for position in range(0, len(items), batch_size):
            got.extend(joiner.probe_batch(items[position:position + batch_size]))
        assert len(got) == len(items)
        for index, (item, (matches, work)) in enumerate(zip(items, got)):
            want_matches, want_work = _reference(predicate, items[:index], item)
            assert _ids(matches) == _ids(want_matches)
            assert work == want_work

    @given(case=band_cases())
    @example(case=EDGE_CASES[0])
    @example(case=EDGE_CASES[1])
    @example(case=EDGE_CASES[2])
    @example(case=EDGE_CASES[3])
    @example(case=EDGE_CASES[4])
    @settings(max_examples=300, deadline=None)
    def test_per_tuple_raw_probe(self, case):
        width, items = case
        predicate = _predicate(width)
        joiner = make_local_joiner(predicate, "R", "S")
        for index, item in enumerate(items):
            matches, inspected = joiner.raw_probe(item)
            want_matches, want_work = _reference(predicate, items[:index], item)
            assert _ids(matches) == _ids(want_matches)
            assert max(inspected, 1) == want_work
            assert joiner.candidate_count(item) == inspected
            joiner.insert(item)

    @given(
        case=band_cases(min_size=24, max_size=60),
        salts=st.randoms(use_true_random=False),
        steps=st.lists(st.sampled_from(["delta", "mu", "delta_prime", "batch"]),
                       min_size=1, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_migration_partition_probes(self, case, salts, steps):
        """The Δ, Δ' and µ paths probe the tag partitions through the keyed
        probe body: every action of a migrating joiner holds the brute-force
        matches of the partitions its protocol step selects, and is charged
        the brute-force count over the whole state once per protocol probe."""
        width, items = case
        predicate = _predicate(width)
        for item in items:
            item.salt = salts.random()
        plan = plan_migration(
            GridPlacement(mapping=Mapping(2, 2)), GridPlacement(mapping=Mapping(1, 4))
        )
        state = EpochJoinerState(
            machine_id=0,
            store=make_local_joiner(predicate, "R", "S"),
            num_reshufflers=2,
            left_relation="R",
        )
        tau, rest = items[: len(items) // 3], items[len(items) // 3:]
        for item in tau:
            state.handle_data(item)
        state.handle_signal(1, plan, "reshuffler-0")
        assert state.phase is JoinerPhase.MIGRATING

        def stored(*names):
            return [
                tuple_
                for name in names
                for relation in "RS"
                for tuple_ in state._parts[name].stored(relation)
            ]

        for step, item in zip(steps * len(rest), rest):
            everything = stored("old_keep", "old_drop", "new", "mu")
            _, work = _reference(predicate, everything, item)
            if step == "delta":
                keep = plan.keeps(0, "R" if item.relation == "R" else "S", item.salt)
                selected = stored("old_keep", "old_drop") + (stored("new") if keep else [])
                probes = 2 if keep else 1
                actions = state.handle_data(item)
            elif step == "mu":
                selected, probes = stored("new"), 1
                actions = state.handle_migrated(item)
            else:
                selected, probes = stored("new", "mu", "old_keep"), 2
                item.epoch = 1  # the reshuffler's in-place pending-epoch tag
                actions = state.handle_data(item) if step == "delta_prime" else None
            if actions is None:
                ((matches, probe_work),) = state.handle_data_batch([item])
            else:
                matches, probe_work = actions.matches, actions.probe_work
            want, _ = _reference(predicate, selected, item)
            assert Counter(
                other.tuple_id for pair in matches for other in pair
                if other is not item
            ) == _ids(want), step
            assert probe_work == probes * work, step


class TestBandBounds:
    def test_slice_is_the_match_set(self):
        """Equal keys at both edges are all taken, and a width whose rounded
        window misses the ulp-distance partner still finds it."""
        index = OrderedIndex(lambda item: item.record["v"])
        keys = [_EDGE_K, _EDGE_B, _EDGE_B, 1.0, 1.0, 1.0]
        for key in keys:
            index.insert(StreamTuple(relation="S", record={"v": key}))
        lo, hi = index.band_bounds(_EDGE_K, _EDGE_W)
        assert index._keys[lo:hi] == [_EDGE_K, _EDGE_B, _EDGE_B]
        assert index.band_bounds(0.0, 1.0) == (0, 6)
        assert index.band_bounds(2.0, -1.0)[0] == index.band_bounds(2.0, -1.0)[1]
        assert index.count_band(1.5, 0.5) == 3

    def test_corner_flag(self):
        """Only a non-float key over an index holding floats, once a key
        involved lies beyond ±2**52, falls back to testing every key; a
        ``float`` key sets the flag for good and ``bool`` does not."""
        index = OrderedIndex(lambda item: item.record["v"])
        for key in (True, 1, 2**60):
            index.insert(StreamTuple(relation="S", record={"v": key}))
        assert not index.float_keys
        assert index.band_bounds(2**60, 1) is not None
        doomed = StreamTuple(relation="S", record={"v": 2.5})
        index.insert(doomed)
        index.remove(doomed)
        assert index.float_keys
        assert index.band_bounds(2**60, 1) is None
        assert index.band_bounds(float(2**60), 1.0) is not None
        small = OrderedIndex(lambda item: item.record["v"])
        small.bulk_insert(
            [StreamTuple(relation="S", record={"v": key}) for key in (-3, 0.5, 7)]
        )
        assert small.float_keys
        assert small.band_bounds(4, 1) is not None
        assert small.band_bounds(2**52 + 1, 1) is None
        assert small.count_band(2**52 + 1, 2**52) == 2


def _band_query(first_left_key=None, shift=0):
    """Dense and imbalanced (40 x 360 over 12 keys, width 1): the Dynamic
    operator migrates mid-stream, so Δ, Δ' and µ probes all run.  ``shift``
    moves every key (int keys at 0, floats at 0.5)."""
    rng = random.Random(17)
    left = [{"k": rng.randrange(12) + shift} for _ in range(40)]
    right = [{"k": rng.randrange(12) + shift} for _ in range(360)]
    if first_left_key is not None:
        left[0]["k"] = first_left_key
    return JoinQuery(
        name="BAND",
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=BandPredicate("k", "k", width=1),
    )


def _order(query, seed=5):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(query.right_relation, query.right_records, rng, query.right_tuple_size)
    return interleave_streams(left, right, rng)


def _counted_run(monkeypatch, query, **knobs):
    calls = Counter()
    original = BandPredicate.matches

    def counting(self, left, right):
        calls["matches"] += 1
        return original(self, left, right)

    monkeypatch.setattr(BandPredicate, "matches", counting)
    config = RunConfig(machines=8, seed=5, warmup_tuples=16, **knobs)
    result = JoinSession(query, config=config).run(arrival_order=_order(query))
    return result, calls["matches"]


class TestWindowDecidesBands:
    @pytest.mark.parametrize("batching", ["per_tuple", "adaptive"])
    def test_int_keyed_run_never_validates_a_pair(self, monkeypatch, batching):
        result, calls = _counted_run(monkeypatch, _band_query(), batching=batching)
        assert result.migrations >= 1, "scenario must migrate"
        assert result.output_count > 0
        assert calls == 0

    @pytest.mark.parametrize(
        "query, int_twin",
        [
            (_band_query(first_left_key=4.0), _band_query(first_left_key=4)),
            (_band_query(shift=0.5), _band_query()),
        ],
        ids=["one_float_key", "float_keys"],
    )
    def test_float_keyed_run_never_validates_a_pair(self, monkeypatch, query, int_twin):
        """Float keys — one among ints, or all of them — take the slice as
        the match set too: the int twin's results, no pair validated."""
        int_result, _ = _counted_run(monkeypatch, int_twin)
        result, calls = _counted_run(monkeypatch, query)
        assert calls == 0
        assert result.output_count == int_result.output_count


class TestFloatBandEdge:
    @pytest.mark.parametrize("stored", ["left", "right"])
    def test_pair_at_the_window_edge_joins(self, stored):
        """Whichever side arrives second, the probe returns exactly the
        pairs ``BandPredicate.matches`` accepts."""
        predicate = BandPredicate("v", "v", width=_EDGE_W)
        left = StreamTuple(relation="R", record={"v": _EDGE_K})
        right = StreamTuple(relation="S", record={"v": _EDGE_B})
        assert predicate.matches(left.record, right.record)
        assert predicate.matches(right.record, left.record)
        first, second = (left, right) if stored == "left" else (right, left)
        joiner = make_local_joiner(predicate, "R", "S")
        (_, _), (matches, _) = joiner.probe_batch([first, second])
        assert [match.tuple_id for match in matches] == [first.tuple_id]


# ---------------------------------------------------------------------------
# (2) the arrival bound
# ---------------------------------------------------------------------------

_JOINERS = {
    "equi": lambda: make_local_joiner(EquiPredicate("v", "v"), "R", "S"),
    "band": lambda: make_local_joiner(BandPredicate("v", "v", width=1), "R", "S"),
    "theta": lambda: make_local_joiner(
        ThetaPredicate(lambda l, r: l["v"] < r["v"]), "R", "S"
    ),
}

_ARRIVALS = st.integers(0, 40).map(lambda n: n / 2)
_TUPLES = st.tuples(st.sampled_from("RS"), st.integers(0, 5), _ARRIVALS)
_OPS = st.one_of(
    st.tuples(st.just("insert"), _TUPLES),
    st.tuples(st.just("insert_keyed"), _TUPLES),
    st.tuples(st.just("bulk_insert"), st.lists(_TUPLES, max_size=5)),
    st.tuples(st.just("absorb"), st.lists(_TUPLES, max_size=5)),
    st.tuples(st.just("remove"), st.integers(0, 50)),
)


def _tuple(spec):
    relation, key, arrival = spec
    return StreamTuple(relation=relation, record={"v": key}, arrival_time=arrival)


class TestArrivalBound:
    @given(kind=st.sampled_from(sorted(_JOINERS)), ops=st.lists(_OPS, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_bound_is_the_newest_arrival_ever_stored(self, kind, ops):
        """Model: per relation, the largest arrival any insert path stored.
        ``remove`` never lowers it, so it bounds whatever is still stored."""
        joiner = _JOINERS[kind]()
        indexes = {"R": joiner._left_index, "S": joiner._right_index}
        newest = {"R": -math.inf, "S": -math.inf}
        for op, arg in ops:
            if op == "remove":
                stored = list(joiner.stored("R")) + list(joiner.stored("S"))
                if stored:
                    assert joiner.remove(stored[arg % len(stored)])
                continue
            items = [_tuple(arg)] if op in ("insert", "insert_keyed") else [
                _tuple(spec) for spec in arg
            ]
            for item in items:
                newest[item.relation] = max(newest[item.relation], item.arrival_time)
            if op == "insert":
                joiner.insert(items[0])
            elif op == "insert_keyed":
                index = indexes[items[0].relation]
                if hasattr(index, "insert_keyed"):
                    index.insert_keyed(items[0].record["v"], items[0])
                else:
                    index.insert(items[0])
            elif op == "bulk_insert":
                for relation in "RS":
                    joiner.bulk_insert(relation, [i for i in items if i.relation == relation])
            else:
                other = joiner.fresh()
                for item in items:
                    other.insert(item)
                joiner.absorb(other)
            for relation in "RS":
                bound = indexes[relation].newest_arrival
                assert bound == newest[relation]
                stored = [item.arrival_time for item in joiner.stored(relation)]
                assert not stored or bound >= max(stored)
            assert joiner.arrival_bound(True) == newest["S"]
            assert joiner.arrival_bound(False) == newest["R"]

    def test_bounded_group_never_reads_its_partners(self):
        """A group whose bound is no newer than the probing tuple is one
        ledger run decided without touching a partner."""
        item = StreamTuple(relation="R", record={}, arrival_time=3.0)
        metrics = MetricsCollector()
        metrics.record_outputs(MatchGroup(item, True, [object(), object()], 3.0), 5.5)
        assert list(metrics.latency_ledger.run_values) == [2.5]
        assert list(metrics.latency_ledger.run_counts) == [2]
        assert len(metrics.latency_ledger.values) == 0

    def test_newer_partner_still_spills_exact_values(self, monkeypatch):
        """Paced out-of-order arrivals: a joiner stores a tuple that arrived
        after one it probes next, so some store-bounded group has a newer
        partner.  It must spill per-result values, and the run's mean must be
        the single fsum of the per-pair formula."""
        expected: list[float] = []
        bounded_spills = Counter()
        original = MetricsCollector.record_outputs

        def spying(self, matches, output_time):
            arrival = matches.item.arrival_time
            newest = max(partner.arrival_time for partner in matches.partners)
            if matches.bound != math.inf and newest > arrival:
                bounded_spills["groups"] += 1
            expected.extend(
                max(0.0, output_time - max(arrival, partner.arrival_time))
                for partner in matches.partners
            )
            original(self, matches, output_time)
            spying.collector = self

        monkeypatch.setattr(MetricsCollector, "record_outputs", spying)
        query = _band_query()
        config = RunConfig(
            machines=8, seed=5, warmup_tuples=16, inter_arrival=0.001,
            batching="adaptive",
        )
        result = JoinSession(query, config=config).run(arrival_order=_order(query))
        assert bounded_spills["groups"] > 0, "no bounded group had a newer partner"
        ledger = spying.collector.latency_ledger
        assert len(ledger.values) > 0 and len(ledger.run_values) > 0
        assert len(expected) == result.output_count
        assert result.average_latency == math.fsum(expected) / len(expected)
