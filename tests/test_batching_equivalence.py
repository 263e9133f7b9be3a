"""Batched / per-tuple data-plane equivalence.

Batching is a transport optimisation: for any batch size the operator must
produce exactly the same join output (as tuple-id pairs), the same number of
migrations and the same final mapping as the per-tuple data plane
(``batch_size=1``), which itself reproduces the seed behaviour
event-for-event.  Both runs are fed the *same* arrival order (the same
``StreamTuple`` objects) so tuple ids and salts are directly comparable.

Every batched run's output is also the brute-force join of its input
(:func:`repro.testing.reference_join`, as a multiset), and the batch probe
is pinned against per-member handling: at every batch size, a twin run whose
joiners handle each DATA batch member by member (``handle_data`` then
``_apply``, patched in below) must be an identical simulation — the batch
probe is a wall-clock optimisation only.

The virtual-time equality assertions double as the pin for **per-batch cost
aggregation** (``JoinerTask._apply_data_batch``): the batch path charges one
handler invocation's costs through the aggregated bookkeeping while the
per-member twin runs ``_apply`` per member; if aggregation ever perturbed
per-member cost attribution (float order, storage factors, output emission
charges), ``execution_time`` — and the per-output latency totals behind
``average_latency`` — would diverge between the two.
"""

import random
from collections import Counter

import pytest
from repro.testing import (
    NETWORK_FIELDS,
    TIMING_FIELDS,
    assert_run_equivalent,
    reference_outputs,
)

from repro.api import RunConfig
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.core.tasks import JoinerTask
from repro.data.queries import make_query
from repro.engine.stream import interleave_streams, make_tuples
from repro.engine.task import MessageKind

BATCH_SIZES = (8, 64)


def _arrival_order(query, seed):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


def _run(operator_class, query, order, batch_size, **kwargs):
    config = RunConfig(machines=8, seed=5, batch_size=batch_size, **kwargs)
    operator = operator_class(query, config=config)
    return operator.run(arrival_order=order, collect_outputs=True)


def _per_member_twin(operator_class, query, order, batch_size, monkeypatch, **kwargs):
    """The run again, with every DATA batch handled member by member."""
    batch_path = JoinerTask._handle_batch

    def per_member(self, message, ctx):
        if message.meta.get("inner") is not MessageKind.DATA:
            return batch_path(self, message, ctx)
        sink = {}
        for item in message.payload:
            self._apply(self.state.handle_data(item), item, ctx, migrated=False, sink=sink)
        self._flush_migrations(sink, ctx)

    with monkeypatch.context() as patch:
        patch.setattr(JoinerTask, "_handle_batch", per_member)
        return _run(operator_class, query, order, batch_size=batch_size, **kwargs)


def _assert_equivalent(operator_class, query, monkeypatch, **kwargs):
    order = _arrival_order(query, seed=5)
    reference = _run(operator_class, query, order, batch_size=1, **kwargs)
    assert reference.outputs is not None
    assert Counter(reference.outputs) == reference_outputs(query, order)
    for batch_size in BATCH_SIZES:
        batched = _run(operator_class, query, order, batch_size=batch_size, **kwargs)
        # Across fixed-plane batch sizes only the *results* are pinned:
        # virtual-time compression legitimately shifts the epoch edge, so the
        # timing and per-category volume fields are named in ignore= — every
        # field NOT named stays strict, unlike the old coarse switches.
        assert_run_equivalent(
            reference, batched,
            ignore=TIMING_FIELDS | NETWORK_FIELDS,
            label=f"batch_size={batch_size}",
        )
        # Per-member handling at the same batch size must be a bit-identical
        # simulation: identical probe work, output timing, storage peaks and
        # network traffic.  This doubles as the pin for the per-batch
        # aggregated cost bookkeeping (JoinerTask._apply_data_batch).
        twin = _per_member_twin(
            operator_class, query, order, batch_size, monkeypatch, **kwargs
        )
        assert batched.probe_work > 0
        assert_run_equivalent(
            twin, batched, label=f"per-member-vs-batch@batch_size={batch_size}"
        )


class TestBatchedEquivalence:
    @pytest.mark.parametrize("blocking", [False, True])
    def test_adaptive_equi_join(self, small_dataset, blocking, monkeypatch):
        query = make_query("EQ5", small_dataset)
        _assert_equivalent(
            AdaptiveJoinOperator, query, monkeypatch, warmup_tuples=16, blocking=blocking
        )

    def test_adaptive_under_skew(self, skewed_dataset, monkeypatch):
        query = make_query("EQ5", skewed_dataset)
        _assert_equivalent(AdaptiveJoinOperator, query, monkeypatch, warmup_tuples=16)

    @pytest.mark.parametrize("blocking", [False, True])
    def test_static_operator(self, small_dataset, blocking, monkeypatch):
        query = make_query("EQ5", small_dataset)
        _assert_equivalent(StaticMidOperator, query, monkeypatch, blocking=blocking)

    def test_adaptive_band_join(self, small_dataset, monkeypatch):
        query = make_query("BNCI", small_dataset)
        _assert_equivalent(AdaptiveJoinOperator, query, monkeypatch, warmup_tuples=16)


class TestBatchedAccounting:
    def test_batching_reduces_events(self, small_dataset):
        """Batches amortise simulator events without changing the output.

        (Network volume is *not* compared across batch sizes: virtual-time
        compression shifts where the epoch edge falls in the stream, so the
        mapping under which edge tuples are routed — and hence their fan-out —
        may legitimately differ.  Per-message volume exactness is covered by
        the engine-level batch tests.)
        """
        query = make_query("EQ5", small_dataset)
        order = _arrival_order(query, seed=5)
        per_tuple = _run(AdaptiveJoinOperator, query, order, batch_size=1, warmup_tuples=16)
        batched = _run(AdaptiveJoinOperator, query, order, batch_size=64, warmup_tuples=16)
        assert batched.events_processed * 3 < per_tuple.events_processed
        assert batched.output_count == per_tuple.output_count

    def test_batch_size_recorded_in_result(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        order = _arrival_order(query, seed=5)
        result = _run(StaticMidOperator, query, order, batch_size=64)
        assert result.batch_size == 64
        assert result.events_processed > 0

    def test_invalid_batch_size_rejected(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        with pytest.raises(ValueError):
            StaticMidOperator(query, config=RunConfig(machines=8, batch_size=0))
