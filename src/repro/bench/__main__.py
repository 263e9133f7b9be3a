"""``python -m repro.bench`` — print the paper scoreboard from the command line."""

from repro.bench.cli import main

main()
