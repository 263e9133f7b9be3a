"""Order-book style band join — the motivating scenario of the paper's intro.

Algorithmic-trading order books match buy and sell orders whose prices are
within a small band of each other.  Neither stream's size nor the price
distribution is known in advance, which is exactly the setting the adaptive
operator targets: an arbitrary (non-equi) join predicate over two unbounded
streams whose relative sizes drift over time.

This example builds two synthetic order streams (bids and asks), joins them
with a band predicate on price, and shows how the operator adapts its
(n, m)-mapping as the ask stream becomes much larger than the bid stream.

Run with::

    python examples/order_book_band_join.py
"""

import random

from repro import BandPredicate
from repro.api import JoinSession, RunConfig
from repro.data.queries import JoinQuery


def build_order_book_query(num_bids: int = 400, num_asks: int = 4000, seed: int = 11) -> JoinQuery:
    """Two streams of limit orders joined on |bid.price - ask.price| <= 0.05."""
    rng = random.Random(seed)

    def order(side: str, order_id: int) -> dict:
        return {
            "order_id": order_id,
            "side": side,
            "symbol": rng.choice(["AAPL", "MSFT", "GOOG"]),
            "price": round(rng.gauss(100.0, 2.0), 2),
            "quantity": rng.randint(1, 500),
        }

    bids = [order("BUY", i) for i in range(num_bids)]
    asks = [order("SELL", i) for i in range(num_asks)]
    return JoinQuery(
        name="ORDER_BOOK",
        left_relation="BIDS",
        right_relation="ASKS",
        left_records=bids,
        right_records=asks,
        predicate=BandPredicate("price", "price", width=0.05),
        description="order book matching candidates: bid/ask prices within 5 cents",
    )


def main() -> None:
    query = build_order_book_query()
    print(query.summary())
    print()

    config = RunConfig(machines=16, seed=11)
    dynamic = JoinSession(query, operator="Dynamic", config=config).run()
    static = JoinSession(query, operator="StaticMid", config=config).run()

    print(f"{'operator':<12} {'exec time':>10} {'max ILF':>9} {'matches':>9} {'mapping':>9}")
    for result in (dynamic, static):
        print(
            f"{result.operator:<12} {result.execution_time:>10.1f} {result.max_ilf:>9.1f} "
            f"{result.output_count:>9d} {str(result.final_mapping):>9}"
        )
    print()
    print(
        f"The ask stream is {len(query.right_records) // len(query.left_records)}x larger than "
        f"the bid stream, so the adaptive operator migrates from the square mapping to "
        f"{dynamic.final_mapping} and stores {static.max_ilf / max(dynamic.max_ilf, 1e-9):.1f}x "
        "less data per machine than the static square grid."
    )


if __name__ == "__main__":
    main()
