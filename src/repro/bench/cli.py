"""Command-line view of the paper scoreboard.

    python -m repro.bench all
    python -m repro.bench fig6b fig8cd --scale 0.2 --machines 8 --seed 3

Each figure or theorem name prints its rows of
:data:`repro.bench.claims.CLAIMS` — claim, paper value, measured value, bound
and verdict — and ``all`` prints the whole scoreboard.  ``--scale``,
``--machines`` and ``--seed`` set the base point every sweep derives its own
point from; the defaults are the base point the bounds are calibrated at.
The sweeps pin their remaining knobs themselves (they regenerate the paper's
evaluation, e.g. the blocking ablation's ``batching="per_tuple"`` run); to
run an arbitrary :class:`repro.api.RunConfig`, use
:class:`repro.api.JoinSession` directly.
"""

from __future__ import annotations

import argparse
from typing import Mapping, Sequence

from repro.bench.claims import BASE, CLAIMS, FIGURES, Scoreboard


def format_table(rows: Sequence[Mapping[str, object]], title: str | None = None) -> str:
    """Render ``rows`` (dicts sharing the first row's keys) as an aligned
    plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0])
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = [title] if title else []
    lines.append(" | ".join(str(column).ljust(widths[column]) for column in columns))
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="The scoreboard of 'Scalable and Adaptive Online Joins' (VLDB 2014).",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        metavar="FIGURE",
        help=f"figures or theorems to check: {', '.join(FIGURES)}, or 'all'",
    )
    parser.add_argument("--scale", type=float, default=BASE[0], help="base dataset scale")
    parser.add_argument(
        "--machines", type=int, default=BASE[1], help="base number of joiners (power of two)"
    )
    parser.add_argument("--seed", type=int, default=BASE[2], help="base random seed")
    return parser


def run(argv: list[str] | None = None) -> list[dict]:
    """Parse ``argv``, measure the requested claims and print their rows."""
    parser = build_parser()
    args = parser.parse_args(argv)

    names = set(FIGURES) if "all" in args.figures else set(args.figures)
    unknown = sorted(names - set(FIGURES))
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    rows = Scoreboard(args.scale, args.machines, args.seed).rows(
        claim for claim in CLAIMS if claim.figure in names
    )
    title = (
        f"Paper scoreboard at scale {args.scale:g}, "
        f"{args.machines} machines, seed {args.seed}"
    )
    if (args.scale, args.machines, args.seed) != BASE:
        title += " (bounds are calibrated at scale {:g}, {} machines, seed {})".format(*BASE)
    print(format_table(rows, title=title))
    return rows


def main() -> None:  # pragma: no cover - thin wrapper
    run()


if __name__ == "__main__":  # pragma: no cover
    main()
