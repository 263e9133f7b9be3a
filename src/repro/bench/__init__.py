"""The paper scoreboard: which of the paper's claims this repository reproduces.

:mod:`repro.bench.claims` holds one table of claims — figure or theorem,
sweep, metric, paper value, bound — and the sweeps that measure them through
:class:`repro.api.JoinSession`; :mod:`repro.bench.cli` prints the table as a
scoreboard (``python -m repro.bench all``).  ``benchmarks/bench_claims.py``
asserts every row at the calibrated base point, and the tier-1 suite runs the
whole scoreboard at smoke scale.
"""
