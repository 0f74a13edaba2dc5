"""Base prices and the pay-what-you-want baseline.

A posted base price truncates the bid law from below. The accept-all
baseline (every bid is a sale) collects the plain mean of the law per bid;
the auction rule collects only the tail above x_c but still earns more per
bid than the frozen pool would suggest.
"""

from soc_auction import (Exponential, Rule, SeedSpec, Truncated, parse_model,
                         run_sequence, sample, theory_summary)

N = 100_000


def income_per_bid(model, rule, stream):
    prices = sample(model, SeedSpec(2025, stream), N)
    return run_sequence(rule, prices, collect_trajectory=False).total_income / N


def main():
    inner = Exponential(rate=1.0)
    print(f"bid law: {inner.spec_string()}  (mean 1.0)")
    print()

    for label, rule in (("auction (classic)", Rule.CLASSIC),
                        ("pay what you want", Rule.ACCEPT_ALL)):
        per_bid = income_per_bid(inner, rule, 0)
        print(f"  {label:<22} income per bid {per_bid:.4f}")
    ts = theory_summary(inner)
    print(f"  theory for the auction: {ts.expected_ti_per_bid:.4f} "
          f"(tail mean above x_c = {ts.xc:.4f})")
    print()

    print("with a base price (same bidder population, low offers excluded):")
    for base in (0.5, 1.0, 2.0):
        model = Truncated(base=base, inner=inner)
        per_bid = income_per_bid(model, Rule.CLASSIC, int(base * 10))
        ts = theory_summary(model)
        print(f"  base {base:>4}: x_c {ts.xc:.4f}, income per bid "
              f"{per_bid:.4f} (theory {ts.expected_ti_per_bid:.4f})")
    print()
    print("note: a higher base price raises income per bid only if the same")
    print("bidders keep bidding; the model cannot say how the bid law reacts")

    # models parse from text too (the CLI grammar)
    spec = "truncated:base=1.0,inner=exponential:rate=1.0"
    print()
    print(f"parsed from text: {parse_model(spec).spec_string()}")


if __name__ == "__main__":
    main()
