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
from dataclasses import dataclass, field
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
    and >= 0, a value past the range of a double, or a var_Y that is not
    > 0 is a ValueError.
    """
    if not 0 <= b < math.inf:
        raise ValueError(f"b must be finite and >= 0, got {b}")
    xc = critical_price(model, pc)
    accepted = 1.0 - pc
    ti_per_bid = mean_y = var_y = af = None
    try:
        ti_per_bid = model.tail_moment(xc, 1)
        mean_y = ti_per_bid / accepted
        var_y = model.tail_moment(xc, 2) / accepted - mean_y ** 2
        af = accepted * var_y + b * mean_y ** 2
    except InfiniteMomentError:
        pass  # the first moment that diverged leaves itself and the rest None
    except (OverflowError, ZeroDivisionError):
        af = math.inf  # a moment is past the largest double
    if not all(math.isfinite(v) for v in (xc, ti_per_bid, mean_y, var_y, af)
               if v is not None):
        raise ValueError(f"{model.spec_string()}: past the range of a double")
    if var_y is not None and not var_y > 0:
        raise ValueError(f"{model.spec_string()}: var_Y = {var_y!r} is not > 0; "
                         "E[Y^2] - E[Y]^2 is lost to rounding")
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
    ok = np.isfinite(prices) & (prices > 0)
    if not ok.all():
        raise ValueError(f"prices must be finite and > 0, "
                         f"got {prices[np.argmin(ok)]}")
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
    if not n > 0:
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


def _log_grid(k_min, k_max) -> np.ndarray:
    """_LOG_GRID_POINTS log-spaced integers in [k_min, k_max], deduplicated,
    in increasing order; a rounded point past a bound is left out. A range
    other than 1 <= k_min < k_max <= 2**53, where every integer is a double,
    is a ValueError."""
    if not 1 <= k_min < k_max <= 2 ** 53:
        raise ValueError(f"need 1 <= k_min < k_max <= 2**53, "
                         f"got [{k_min}, {k_max}]")
    ks = np.unique(np.round(np.logspace(math.log10(k_min), math.log10(k_max),
                                        _LOG_GRID_POINTS)).astype(np.int64))
    return ks[(ks >= k_min) & (ks <= k_max)]


def _survival(durations, ks) -> np.ndarray:
    """P(tau > k) = 1 - #{tau <= k} / n at each k of `ks`. Durations must be
    whole numbers >= 1; the first that is not is named in a ValueError."""
    d = np.asarray(durations)
    if d.size == 0:
        raise ValueError("empty durations")
    bad = np.flatnonzero(~((d >= 1) & (np.floor(d) == d) & np.isfinite(d)))
    if len(bad):
        raise ValueError(f"durations must be whole numbers >= 1, got "
                         f"{d[bad[0]]} at index {bad[0]}")
    return 1.0 - np.searchsorted(np.sort(d), ks, side="right") / len(d)


# Kept for the bench alone: bench/workloads.py checks a fig2 refusal with it,
# and bench/tracer.py wraps it by name. The package reads the same points
# from `fit_power_tail(...).k` and `.survival`.
def survival_function(durations, *, grid: str, k_min: float, k_max: float,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The points `fit_power_tail(durations, k_min, k_max)` fits: the
    log-spaced integers k of [k_min, k_max] with P(tau > k) > 0, and those
    survivals. `grid` other than "log" is a ValueError."""
    if grid != "log":
        raise ValueError(f"grid must be 'log', got {grid!r}")
    ks = _log_grid(k_min, k_max)
    p = _survival(durations, ks)
    return ks[p > 0], p[p > 0]


@dataclass(frozen=True)
class TailFit:
    """Power-law fit of the survival tail; k_min and k_max are the first and
    last points of the log grid it fitted, and `k` and `survival` are the
    points it fitted, those of the grid with survival > 0."""

    slope: float
    stderr: float
    k_min: int
    k_max: int
    k: np.ndarray = field(compare=False, repr=False)
    survival: np.ndarray = field(compare=False, repr=False)

    @property
    def n_points(self) -> int:
        return len(self.k)


def _median_slopes(ks: np.ndarray,
                   p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of survivals `p` on the strictly increasing grid `ks`:
    the median of the slopes (log p[j] - log p[i]) / (log k[j] - log k[i])
    over the pairs of its points with p > 0, as np.median takes it (NaN for
    a row with no such pair), and the number of those points."""
    valid = p > 0
    n = np.count_nonzero(valid, axis=1)
    logk, logp = np.log(ks), np.log(np.where(valid, p, 1.0))
    i, j = np.triu_indices(len(ks), 1)
    slopes = logp[:, j] - logp[:, i]
    slopes /= logk[j] - logk[i]
    # a pair left out is NaN, which sorts after every slope; one more NaN
    # column gives a row with no pair a value to read, even on a grid of < 2
    slopes[~(valid[:, i] & valid[:, j])] = np.nan
    slopes = np.sort(np.pad(slopes, ((0, 0), (0, 1)),
                            constant_values=np.nan), axis=1)
    # the middle value, or the mean of the two middle values
    pairs, rows = n * (n - 1) // 2, np.arange(len(p))
    hi, lo = slopes[rows, pairs // 2], slopes[rows, (pairs - 1) // 2]
    return np.where(pairs % 2 == 1, hi, (lo + hi) / 2), n


def _bootstrap_slopes(d: np.ndarray, ks: np.ndarray, n_bootstrap: int,
                      seed: int) -> np.ndarray:
    """The tail-fit slope on the grid `ks` of each resample of `d` that
    `_resample_blocks` draws from `seed`, in draw order, leaving out
    resamples with < 3 positive survival points. Each resample is cut down
    at once to its survival row."""
    boots = [np.empty(0)]
    for rows in _resample_blocks({"d": d}, n_bootstrap, seed,
                                 cut=lambda v: _survival(v, ks)):
        slopes, n = _median_slopes(ks, rows["d"])
        boots.append(slopes[n >= 3])
    return np.concatenate(boots)


def fit_power_tail(durations, k_min: float, k_max: float, *,
                   n_bootstrap: int = 250, seed: int = 0) -> TailFit:
    """Slope of log P(tau > k) versus log k over the log-spaced integers k
    of [k_min, k_max] (`_log_grid`) with P(tau > k) > 0: the median of the
    slopes between every two of these points (`_median_slopes`), which the
    fit carries as `k` and `survival`. At least 10 points are needed.

    Scale-free and resistant to the finite-size drop at the far tail.
    stderr is the standard deviation of the same slope over the
    `n_bootstrap` resamples of the durations, in their given order, that
    `_resample_blocks` draws from `seed`, leaving out resamples with < 3
    positive points; it is NaN when fewer than 2 are kept (always for
    n_bootstrap = 0). The fit reports the grid's first and last points as
    its k_min and k_max; whole-number bounds below 1e14 are their own grid
    ends. A negative n_bootstrap or a range other than
    1 <= k_min < k_max <= 2**53 is a ValueError.
    """
    if n_bootstrap < 0:
        raise ValueError(f"n_bootstrap must be >= 0, got {n_bootstrap}")
    d, ks = np.asarray(durations), _log_grid(k_min, k_max)
    p = _survival(d, ks)
    (slope,), (n_points,) = _median_slopes(ks, p[None])
    if n_points < 10:
        raise InsufficientDataError(f"only {n_points} survival points in "
                                    f"[{k_min}, {k_max}], need >= 10")
    boots = _bootstrap_slopes(d, ks, n_bootstrap, seed)
    stderr = float(np.std(boots, ddof=1)) if len(boots) >= 2 else math.nan
    return TailFit(slope=float(slope), stderr=stderr, k_min=int(ks[0]),
                   k_max=int(ks[-1]), k=ks[p > 0], survival=p[p > 0])
