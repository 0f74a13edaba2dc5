"""Sales avalanches: runs of consecutive sales above the critical price.

Their durations are heavy-tailed (the empirical mean keeps growing with the
run length), and the survival function follows a power law over a wide
range of durations.
"""

import numpy as np

from soc_auction import (LogNormal, Rule, SeedSpec, fit_power_tail,
                         run_sequence, sample, segment_avalanches,
                         theory_summary)

MODEL = LogNormal(0.0, 0.3)
N = 500_000
K_MIN, K_MAX = 20, 3000


def main():
    xc = theory_summary(MODEL).xc
    prices = sample(MODEL, SeedSpec(77, 0), N)
    res = run_sequence(Rule.CLASSIC, prices, collect_trajectory=False)
    av = segment_avalanches(res.sale_prices, xc)

    print(f"N = {N} bids -> {res.n_sales} sales -> "
          f"{av.n_avalanches} complete avalanches")
    print(f"durations: mean {av.durations.mean():.0f}, "
          f"median {np.median(av.durations):.0f}, max {av.durations.max()}")
    print(f"censored end runs excluded: left {av.left_censored_length}, "
          f"right {av.right_censored_length}")
    print()

    # the fit carries the survival points it fitted
    fit = fit_power_tail(av.durations, K_MIN, K_MAX, n_bootstrap=150, seed=1)
    print(f"survival P(tau > k), log-spaced grid on [{K_MIN}, {K_MAX}]:")
    for k, p in zip(fit.k[::6], fit.survival[::6]):
        bar = "#" * max(1, int(60 * p / fit.survival[0]))
        print(f"  k={k:>5d}  P={p:.4f}  {bar}")
    print()
    print(f"robust tail fit: slope {fit.slope:.3f} ± {fit.stderr:.3f} "
          f"over {fit.n_points} points")
    print("a slope near -0.5 means the mean avalanche duration diverges")


if __name__ == "__main__":
    main()
