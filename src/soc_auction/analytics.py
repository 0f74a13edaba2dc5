"""Theory predictions and empirical run analysis.

Theory side: critical price, expected income per bid, and the first-order
income-variance approximation

    var(TI)/N  ~  (1 - pc) var(Y) + b E[Y]^2

where Y is the sale-price law (the bid law renormalized above the critical
price) and b is the asymptotic variance constant of the accepted-bid count.

Empirical side: goodness-of-fit of sale/frozen prices against their
truncated limit laws, avalanche segmentation, and robust power-law tail
fitting of avalanche durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (E_INV, PriceModel, _resample_blocks,
                            critical_price)
from .errors import InfiniteMomentError, InsufficientDataError

# Asymptotic variance constant of the accepted-bid count, var ~ b N.
B_DEFAULT = 0.0383


# =====================================================================
# Theory summary
# =====================================================================

@dataclass(frozen=True)
class TheorySummary:
    """Asymptotic predictions for one price model at a given pc.

    Moment-dependent fields are None when the model's mean or variance
    diverges; the flags say which.
    """

    pc: float
    xc: float
    expected_sales_fraction: float
    b_constant: float
    expected_ti_per_bid: Optional[float]
    mean_Y: Optional[float]
    var_Y: Optional[float]
    af_approx: Optional[float]
    infinite_mean: bool = False
    infinite_variance: bool = False


def theory_summary(model: PriceModel, pc: float = E_INV,
                   b: float = B_DEFAULT) -> TheorySummary:
    """Critical price, per-bid income, and the variance approximation.

    Heavy-tailed models with infinite mean (or variance) yield a partial
    summary with explicit flags instead of numbers. A b that is not finite
    and >= 0, or a value past the range of a double, is a ValueError.
    """
    if not 0 <= b < math.inf:
        raise ValueError(f"b must be finite and >= 0, got {b}")
    xc = critical_price(model, pc)
    accepted = 1.0 - pc
    ti_per_bid = mean_y = var_y = af = None
    try:
        ti_per_bid = model.tail_mean(xc)
        mean_y = ti_per_bid / accepted
        var_y = model.tail_moment2(xc) / accepted - mean_y ** 2
        af = accepted * var_y + b * mean_y ** 2
    except InfiniteMomentError:
        pass  # the first moment that diverged leaves itself and the rest None
    except (OverflowError, ZeroDivisionError):
        af = math.inf  # a moment is past the largest double
    if not all(math.isfinite(v) for v in (xc, ti_per_bid, mean_y, var_y, af)
               if v is not None):
        raise ValueError(f"{model.spec_string()}: past the range of a double")
    return TheorySummary(pc=pc, xc=xc, expected_sales_fraction=accepted,
                         b_constant=b, expected_ti_per_bid=ti_per_bid,
                         mean_Y=mean_y, var_Y=var_y, af_approx=af,
                         infinite_mean=ti_per_bid is None,
                         infinite_variance=var_y is None)


def empirical_critical_price(prices, pc: float = E_INV) -> float:
    """Model-free alternative: the empirical pc-quantile of all bids."""
    if not 0 < pc < 1:
        raise ValueError(f"pc must be in (0, 1), got {pc}")
    prices = np.asarray(prices, dtype=float)
    if prices.size == 0:
        raise ValueError("empty price sample")
    return float(np.quantile(prices, pc))


# =====================================================================
# Goodness-of-fit of sale / frozen price distributions
# =====================================================================

def ks_statistic(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a continuous cdf."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(s), dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic critical value sqrt(-ln(alpha/2)/2) / sqrt(n)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


@dataclass(frozen=True)
class DistributionChecks:
    """KS distances of a run against the two truncated limit laws."""

    ks_sales_above: float
    n_sales_above: int
    ks_remaining_below: float
    n_remaining_below: int
    frac_sales_at_or_below_xc: float
    xc_used: float


def empirical_distribution_checks(sales, remaining, model: PriceModel,
                                  xc: float) -> DistributionChecks:
    """Compare sale prices above xc with the upper law h = f/(1-F(xc)) and
    remaining prices at or below xc with the lower law g = f/F(xc).

    Also reports the fraction of sales at or below xc, which should vanish
    for long runs.
    """
    sale_prices = np.asarray(sales, dtype=float)
    rem_prices = np.asarray(remaining, dtype=float)
    if len(sale_prices) == 0:
        raise ValueError("no sales: run too short for distribution checks")

    fxc = float(model.cdf(xc))
    above = sale_prices[sale_prices > xc]
    below = rem_prices[rem_prices <= xc]
    if len(above) == 0 or len(below) == 0:
        raise ValueError("run too short: no prices on one side of xc")

    ks_above = ks_statistic(above, lambda y: (np.asarray(model.cdf(y)) - fxc) / (1.0 - fxc))
    ks_below = ks_statistic(below, lambda x: np.asarray(model.cdf(x)) / fxc)
    frac = float(np.mean(sale_prices <= xc))
    return DistributionChecks(
        ks_sales_above=ks_above, n_sales_above=len(above),
        ks_remaining_below=ks_below, n_remaining_below=len(below),
        frac_sales_at_or_below_xc=frac, xc_used=xc)


# =====================================================================
# Avalanches
# =====================================================================

@dataclass(frozen=True)
class AvalancheSet:
    """Durations of complete avalanches: maximal runs of consecutive sale
    prices strictly above xc, delimited on both sides by a sale at or below
    xc. End runs without a delimiter are censored and excluded from
    `durations`; their lengths are kept so the sale count can be audited.

    When no delimiter exists at all, the whole run counts once (as the
    left-censored run) and both censoring flags are set.
    """

    durations: np.ndarray
    left_censored_first: bool
    right_censored_last: bool
    left_censored_length: int
    right_censored_length: int
    xc_used: float
    n_sales: int

    @property
    def n_avalanches(self) -> int:
        return len(self.durations)


def segment_avalanches(sales, xc: float) -> AvalancheSet:
    """Split the ordered sale-price sequence into avalanche durations.

    A sale exactly at xc counts as a delimiter (at-or-below side).
    """
    prices = np.asarray(sales, dtype=float)
    n = len(prices)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return AvalancheSet(empty, False, False, 0, 0, xc, 0)

    above = prices > xc
    if above.all():
        return AvalancheSet(empty, True, True, n, 0, xc, n)

    change = np.flatnonzero(np.diff(above.view(np.int8)))
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [n - 1]))
    lens = (ends - starts + 1)
    is_above = above[starts]

    left = int(lens[0]) if is_above[0] else 0
    right = int(lens[-1]) if is_above[-1] else 0
    complete = is_above & (starts > 0) & (ends < n - 1)
    return AvalancheSet(lens[complete].astype(np.int64), left > 0, right > 0,
                        left, right, xc, n)


_LOG_GRID_POINTS = 60


def _log_grid(k_min, k_max, n_points: int) -> np.ndarray:
    """Log-spaced integers in [k_min, k_max], deduplicated."""
    if not 1 <= k_min < k_max:
        raise ValueError(f"need 1 <= k_min < k_max, got [{k_min}, {k_max}]")
    return np.unique(np.round(np.logspace(math.log10(k_min), math.log10(k_max),
                                          n_points)).astype(np.int64))


def survival_function(durations, *, grid: str = "all", k_min: int = 1,
                      k_max: Optional[int] = None,
                      n_points: int = _LOG_GRID_POINTS,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival P(tau > k).

    grid="all": every integer k from 0 to max(durations).
    grid="log": log-spaced integers in [k_min, k_max], deduplicated, with
    zero-survival points dropped (they have no log representation).
    """
    d = np.sort(np.asarray(durations, dtype=np.int64))
    n = len(d)
    if n == 0:
        raise ValueError("empty durations")
    if grid == "all":
        ks = np.arange(0, d[-1] + 1, dtype=np.int64)
    elif grid == "log":
        ks = _log_grid(k_min, int(d[-1]) if k_max is None else k_max, n_points)
    else:
        raise ValueError(f"grid must be 'all' or 'log', got {grid!r}")
    p = 1.0 - np.searchsorted(d, ks, side="right") / n
    if grid == "log":
        keep = p > 0
        ks, p = ks[keep], p[keep]
    return ks, p


@dataclass(frozen=True)
class TailFit:
    """Power-law fit of the survival tail over k in [k_min, k_max]."""

    slope: float
    stderr: float
    k_min: int
    k_max: int
    n_points: int


def _median_slopes(logk: np.ndarray, logp: np.ndarray,
                   valid: np.ndarray) -> np.ndarray:
    """Median of the slopes (logp[j] - logp[i]) / (logk[j] - logk[i]) of each
    row of `logp`, over the pairs of its `valid` points with distinct `logk`,
    as np.median takes it; NaN for a row with no such pair."""
    i, j = np.triu_indices(len(logk), 1)
    dx = logk[j] - logk[i]
    slopes = logp[:, j] - logp[:, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes /= dx
    # a pair left out is NaN, which sorts after every slope
    slopes[~(valid[:, i] & valid[:, j]) | (dx == 0)] = np.nan
    slopes.sort(axis=1)
    # the middle value, or the mean of the two middle values
    pairs = len(dx) - np.count_nonzero(np.isnan(slopes), axis=1)
    rows = np.arange(len(pairs))
    hi, lo = slopes[rows, pairs // 2], slopes[rows, (pairs - 1) // 2]
    return np.where(pairs % 2 == 1, hi, (lo + hi) / 2)


def _bootstrap_slopes(d: np.ndarray, k_min, k_max, n_bootstrap: int,
                      seed: int) -> np.ndarray:
    """The tail-fit slope of the log-grid survival of each resample of `d`,
    in draw order, leaving out resamples with < 3 positive points. Each
    resample is cut down at once to its survival counts on the grid."""
    try:
        ks = _log_grid(k_min, k_max, _LOG_GRID_POINTS)
    except ValueError:
        return np.empty(0)  # no grid, so no resample has a survival to fit
    if len(d) == 0:
        return np.empty(0)
    logk = np.log(ks)
    boots = []
    for rows in _resample_blocks(
            {"d": d}, n_bootstrap, seed,
            cut=lambda v: np.searchsorted(np.sort(v), ks, side="right")):
        p = 1.0 - rows["d"] / len(d)
        valid = (p > 0) & (ks >= k_min) & (ks <= k_max)
        keep = np.count_nonzero(valid, axis=1) >= 3
        valid = valid[keep]
        logp = np.log(np.where(valid, p[keep], 1.0))
        boots.append(_median_slopes(logk, logp, valid))
    return np.concatenate(boots)


def fit_power_tail(survival: tuple[np.ndarray, np.ndarray], k_min: int,
                   k_max: int, *, durations=None, n_bootstrap: int = 250,
                   seed: int = 0) -> TailFit:
    """Slope of log P(tau > k) versus log k: the median of the slopes
    between the survival points in [k_min, k_max], over every pair with
    distinct k (`_median_slopes`), in any order of the points.

    Scale-free and resistant to the finite-size drop at the far tail.
    When the raw durations are supplied, stderr is the standard deviation
    of the same slope over the `n_bootstrap` resamples of the durations
    that `_resample_blocks` draws from `seed`, with the log-grid survival
    recomputed per resample and resamples with < 3 positive points left
    out; otherwise stderr is NaN.
    """
    ks, p = survival
    ks = np.asarray(ks)
    p = np.asarray(p, dtype=float)
    inside = (ks >= k_min) & (ks <= k_max) & (p > 0)
    n_in = int(inside.sum())
    if n_in < 10:
        raise InsufficientDataError(
            f"only {n_in} survival points in [{k_min}, {k_max}], need >= 10")
    logk, logp = np.log(ks[inside]), np.log(p[None, inside])
    slope = float(_median_slopes(logk, logp, np.ones_like(logp, bool))[0])
    if math.isnan(slope):
        raise InsufficientDataError("no distinct k pairs to form slopes")

    stderr = math.nan
    if durations is not None and n_bootstrap > 0:
        boots = _bootstrap_slopes(np.asarray(durations, dtype=np.int64),
                                  k_min, k_max, n_bootstrap, seed)
        if len(boots) >= 2:
            stderr = float(np.std(boots, ddof=1))

    return TailFit(slope=slope, stderr=stderr, k_min=int(k_min),
                   k_max=int(k_max), n_points=n_in)
