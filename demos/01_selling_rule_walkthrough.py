"""Walk through the selling rule on a tiny hand-checkable bid sequence.

The rule: when a new bid arrives, the highest remaining bid is executed,
unless the new bid is at least as high - then it just joins the queue.
"""

from soc_auction import AuctionEngine, Rule, run_sequence

PRICES = [14, 15, 18, 13, 16, 12, 10]


def main():
    print("bids in arrival order:", PRICES)
    print()

    eng = AuctionEngine(Rule.CLASSIC)
    for price in PRICES:
        sale = eng.submit_bid(price)
        pool = sorted(eng.remaining_prices().tolist(), reverse=True)
        if sale is None:
            print(f"bid {price:>4} -> no sale            pool {pool}")
        else:
            print(f"bid {price:>4} -> SOLD {sale.price:g} "
                  f"(arrived as bid #{sale.accepted_bid_index})  pool {pool}")
    print()
    print(f"{eng.accepted_count} of {eng.bids_seen} bids sold, "
          f"income {eng.total_income:g}")
    print("only the three largest offers were executed, in the order "
          "18, 16, 15")
    print()

    # the same sequence under the two variants
    for rule in (Rule.TWO_CONSECUTIVE, Rule.ACCEPT_ALL):
        res = run_sequence(rule, PRICES)
        print(f"{rule.value:>15}: sale prices {res.sale_prices.tolist()}, "
              f"income {res.total_income:g}")


if __name__ == "__main__":
    main()
