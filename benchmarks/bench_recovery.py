"""Fault tolerance — checkpoint cadence vs recovery cost under a joiner crash,
plus the unreliable wire's loss-rate vs retransmit-overhead trade-off."""

from conftest import run_report

from repro.bench.experiments import lossy_wire_sweep, recovery_sweep


def test_recovery_sweep(benchmark):
    report = run_report(
        benchmark,
        recovery_sweep,
        scale=0.4,
        machines=16,
        seed=1,
        intervals=(None, 25, 100, 400),
    )
    rows = {row["checkpoint_interval"]: row for row in report.rows}
    baseline = rows["fault-free"]
    # Every crashed row recovered: one fault, positive recovery time, and the
    # fault-free output count (the driver itself asserts count equality).
    for key, row in rows.items():
        if key == "fault-free":
            continue
        assert row["faults"] == 1
        assert row["recovery_time"] > 0.0
        assert row["output_count"] == baseline["output_count"]
        assert row["checkpoint_kb"] > 0.0
    # Snapshotting bounds the journal: the most frequent cadence must not
    # replay more than the journal-only configuration.
    assert rows[25]["tuples_replayed"] <= rows["journal-only"]["tuples_replayed"]


def test_recovery_sweep_paced_joiner_dominated(benchmark):
    """A larger, paced row: four joiners hold the whole state and stay in the
    NORMAL phase between migrations, so they snapshot every interval."""
    report = run_report(
        benchmark,
        recovery_sweep,
        scale=1.0,
        machines=4,
        seed=1,
        intervals=(None, 25),
        inter_arrival=1.0,
    )
    rows = {row["checkpoint_interval"]: row for row in report.rows}
    assert rows[25]["faults"] == rows["journal-only"]["faults"] == 1
    # Here the cadence pays off in replay ...
    assert rows[25]["tuples_replayed"] < rows["journal-only"]["tuples_replayed"]
    # ... and costs next to nothing in bytes: extending snapshots add headers
    # to the journal, not a copy of every joiner's store per interval (8x
    # the journal at this size).
    assert rows[25]["checkpoint_kb"] <= 1.25 * rows["journal-only"]["checkpoint_kb"]


def test_lossy_wire_sweep(benchmark):
    report = run_report(
        benchmark,
        lossy_wire_sweep,
        scale=0.3,
        machines=8,
        seed=1,
        drop_rates=(0.0, 0.01, 0.05),
    )
    rows = {row["drop_rate"]: row for row in report.rows}
    clean = rows["clean"]
    assert clean["dropped"] == 0 and clean["retransmitted"] == 0
    for key in ("1%", "5%"):
        # Every lossy row is fully masked: drops happened, each was covered
        # by at least one retransmission, and the output count is unchanged.
        assert rows[key]["dropped"] > 0
        assert rows[key]["retransmitted"] >= rows[key]["dropped"]
        assert rows[key]["output_count"] == clean["output_count"]
    assert rows["5%"]["dropped"] > rows["1%"]["dropped"]
