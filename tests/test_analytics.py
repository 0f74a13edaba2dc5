"""Analytics tests: theory summary values, avalanche segmentation, survival,
and the robust tail fit against synthetic power-law oracles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soc_auction import (E_INV, Exponential, InsufficientDataError, LogNormal,
                         Pareto, Rule, SeedSpec, Uniform, analytics,
                         empirical_critical_price,
                         empirical_distribution_checks, fit_power_tail,
                         ks_critical_value, ks_statistic, parse_model, quantile,
                         run_sequence, sample, segment_avalanches,
                         survival_function, theory_summary)
from test_distributions import ALL_MODELS


# =====================================================================
# theory_summary
# =====================================================================

def test_theory_summary_lognormal_reference_values():
    ts = theory_summary(LogNormal(0, 0.3))
    assert ts.xc == pytest.approx(0.90371, abs=1e-5)
    assert ts.expected_ti_per_bid == pytest.approx(0.7720651, abs=1e-5)
    assert ts.af_approx == pytest.approx(0.102, abs=1e-3)
    assert ts.expected_sales_fraction == pytest.approx(1 - E_INV, rel=1e-12)
    assert not ts.infinite_mean and not ts.infinite_variance


def test_theory_summary_internal_consistency():
    for model in (LogNormal(0, 0.3), Exponential(0.7), Uniform(0.2, 2.0)):
        for pc in (0.2, E_INV, 0.6):
            ts = theory_summary(model, pc=pc)
            assert ts.expected_ti_per_bid == pytest.approx(
                (1 - pc) * ts.mean_Y, rel=1e-9)
            assert ts.af_approx == pytest.approx(
                (1 - pc) * ts.var_Y + ts.b_constant * ts.mean_Y ** 2, rel=1e-12)


@pytest.mark.parametrize("model", [m for m in ALL_MODELS
                                   if theory_summary(m).var_Y is not None],
                         ids=lambda m: m.spec_string())
def test_theory_summary_matches_the_reference_moments(model, tail_moment_ref):
    # mean_Y = E[X; X > xc] / (1 - pc), var_Y = E[(X - mean_Y)^2; X > xc] / (1 - pc)
    ts = theory_summary(model)
    accepted = 1.0 - ts.pc
    mean_y = tail_moment_ref(model, ts.xc, 1) / accepted
    assert ts.mean_Y == pytest.approx(mean_y, rel=1e-13)
    assert ts.var_Y == pytest.approx(
        tail_moment_ref(model, ts.xc, 2, centre=mean_y) / accepted, rel=1e-13)


def test_theory_summary_exponential_closed_forms():
    ts = theory_summary(Exponential(1.0))
    xc = -math.log(1 - E_INV)
    assert ts.xc == pytest.approx(xc, rel=1e-12)
    assert ts.expected_ti_per_bid == pytest.approx((xc + 1) * math.exp(-xc), rel=1e-12)


def test_theory_summary_infinite_mean_flags():
    ts = theory_summary(Pareto(1.0, 1.5))
    assert ts.infinite_mean and ts.infinite_variance
    assert ts.expected_ti_per_bid is None
    assert ts.mean_Y is None and ts.var_Y is None and ts.af_approx is None
    assert ts.xc > 0  # critical price still defined

    ts = theory_summary(Pareto(1.0, 2.5))
    assert not ts.infinite_mean and ts.infinite_variance
    assert ts.expected_ti_per_bid is not None
    assert ts.var_Y is None and ts.af_approx is None


def test_theory_summary_domain():
    with pytest.raises(ValueError):
        theory_summary(Uniform(0, 1), pc=1.0)
    for b in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="b must be finite and >= 0"):
            theory_summary(Uniform(0, 1), b=b)
    # E[X^2] is e^1800 and e^1002; 2 / rate^2 divides by an underflowed 0
    for model in (LogNormal(0, 30), LogNormal(500, 1), Exponential(1e-300)):
        with pytest.raises(ValueError, match="past the range of a double"):
            theory_summary(model)


# E[Y^2] - E[Y]^2 cancels to noise: the variance comes out < 0, or 0 from
# an E[Y^2] that underflowed
NONPOSITIVE_VARIANCE_SPECS = ["uniform:lo=0,hi=1e-160", "lognormal:mu=-700,sigma=1",
                              "uniform:lo=1e9,hi=1000000001"]


@pytest.mark.parametrize("spec", NONPOSITIVE_VARIANCE_SPECS)
def test_theory_summary_refuses_a_variance_not_above_zero(spec):
    model = parse_model(spec)
    with pytest.raises(ValueError, match=rf"^{re.escape(model.spec_string())}: "
                       r"var_Y = \S+ is not > 0"):
        theory_summary(model)


@pytest.mark.parametrize("call, message", [
    (lambda: quantile(LogNormal(0, 0.3), math.nan), r"must be in \[0, 1\), got nan"),
    (lambda: empirical_critical_price([1.0, math.nan, 3.0]),
     "prices must be finite and > 0, got nan"),
    (lambda: ks_critical_value(math.nan), "n must be positive, got nan"),
], ids=["quantile", "empirical_critical_price", "ks_critical_value"])
def test_nan_fails_the_range_check(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_empirical_critical_price():
    prices = np.arange(1.0, 101.0)
    assert empirical_critical_price(prices, 0.5) == pytest.approx(50.5)
    with pytest.raises(ValueError, match="empty price sample"):
        empirical_critical_price([])


# =====================================================================
# avalanche segmentation
# =====================================================================

def test_segment_avalanches_hand_example():
    av = segment_avalanches(np.array([0.5, 1.2, 1.3, 0.8, 1.1, 0.7]), xc=1.0)
    assert av.durations.tolist() == [2, 1]
    assert not av.left_censored_first and not av.right_censored_last
    assert av.n_sales == 6


def test_segment_avalanches_left_censored():
    av = segment_avalanches(np.array([1.2, 1.3, 0.8]), xc=1.0)
    assert av.durations.tolist() == []
    assert av.left_censored_first and av.left_censored_length == 2
    assert not av.right_censored_last


def test_segment_avalanches_all_above():
    av = segment_avalanches(np.array([1.2, 1.3, 1.1]), xc=1.0)
    assert av.durations.tolist() == []
    assert av.left_censored_first and av.right_censored_last
    assert av.left_censored_length + av.right_censored_length == 3


def test_segment_avalanches_empty_and_boundary():
    av = segment_avalanches(np.array([]), xc=1.0)
    assert av.durations.tolist() == [] and av.n_sales == 0
    # a sale exactly at xc delimits
    av = segment_avalanches(np.array([0.5, 1.2, 1.0, 1.3, 0.4]), xc=1.0)
    assert av.durations.tolist() == [1, 1]


def test_segmentation_conserves_sale_count():
    rng = np.random.default_rng(3)
    for _ in range(50):
        prices = rng.lognormal(0, 0.3, int(rng.integers(5, 4000)))
        xc = float(rng.uniform(0.7, 1.2))
        av = segment_avalanches(prices, xc)
        n_delimiters = int(np.sum(prices <= xc))
        assert (av.durations.sum() + n_delimiters + av.left_censored_length
                + av.right_censored_length) == len(prices)


# =====================================================================
# survival function
# =====================================================================

def test_survival_function_direct_counts():
    k, p = survival_function([1, 1, 2, 5])
    sf = dict(zip(k.tolist(), p.tolist()))
    assert sf[0] == 1.0
    assert sf[1] == 0.5
    assert sf[2] == 0.25
    assert sf[4] == 0.25
    assert sf[5] == 0.0
    assert (np.diff(p) <= 0).all()


def test_survival_function_constant_durations():
    k, p = survival_function([3, 3, 3])
    sf = dict(zip(k.tolist(), p.tolist()))
    assert sf[2] == 1.0 and sf[3] == 0.0


def test_survival_function_log_grid():
    durations = np.arange(1, 2001)
    k, p = survival_function(durations, grid="log", k_min=1, k_max=1000)
    assert len(k) == len(np.unique(k))
    assert (p > 0).all()
    assert (np.diff(p) <= 0).all()
    # the largest k_max the grid takes
    assert len(survival_function(durations, grid="log", k_min=1, k_max=2 ** 53)[0])


@pytest.mark.parametrize("k_min, k_max", [(1, 3.5), (10.5, 12), (2.5, 1000.5)])
def test_log_grid_stays_inside_the_k_range(k_min, k_max):
    # rounding a log-spaced point can step past a bound that is not whole
    k, _ = survival_function(np.arange(1, 2001), grid="log", k_min=k_min,
                             k_max=k_max)
    assert len(k) > 0 and k_min <= k.min() and k.max() <= k_max


def test_survival_function_errors():
    with pytest.raises(ValueError):
        survival_function([])
    with pytest.raises(ValueError):
        survival_function([1, 2], grid="bogus")
    with pytest.raises(ValueError):
        survival_function([1, 2], grid="log", k_min=5, k_max=2)
    with pytest.raises(ValueError, match=r"k_max <= 2\*\*53"):
        survival_function([1, 2], grid="log", k_min=1, k_max=math.inf)


@pytest.mark.parametrize("kwargs", [{"k_min": 2, "k_max": 3}, {"k_min": 2},
                                    {"k_max": 3}])
def test_survival_function_all_grid_refuses_a_k_range(kwargs):
    with pytest.raises(ValueError, match="grid='all'"):
        survival_function([1, 2, 3, 4], **kwargs)


@pytest.mark.parametrize("kwargs", [{}, {"k_min": 2}, {"k_max": 3}])
def test_survival_function_log_grid_needs_a_k_range(kwargs):
    with pytest.raises(ValueError, match="grid='log'"):
        survival_function([1, 2, 3, 4], grid="log", **kwargs)


@pytest.mark.parametrize("durations, named", [
    ([1.5, 2.7, 3.9], "1.5 at index 0"), ([2, 0, -3, 5], "0 at index 1"),
    ([1.0, 2.0, math.nan], "nan at index 2"), ([3, math.inf], "inf at index 1")])
@pytest.mark.parametrize("survival", [
    survival_function,
    lambda d: survival_function(d, grid="log", k_min=1, k_max=10),
    lambda d: fit_power_tail(d, 1, 10)])
def test_durations_must_be_whole_numbers_from_one(durations, named, survival):
    with pytest.raises(ValueError, match=f"whole numbers >= 1, got {named}$"):
        survival(durations)


# =====================================================================
# power-law tail fit
# =====================================================================

def test_fit_recovers_exact_power_law():
    # the i-th of n durations is ceil((n / i) ** (1 / 0.54)), so
    # ceil(n k^-0.54) - 1 of them exceed k: a survival of k^-0.54 up to 1/n;
    # np.ceil gives them as whole-valued floats, which are accepted
    n = 1_000_000
    durations = np.ceil((n / np.arange(1, n + 1)) ** (1 / 0.54))
    fit = fit_power_tail(durations, 10, 10_000, n_bootstrap=0)
    assert fit.slope == pytest.approx(-0.54, abs=1e-4)
    assert fit.n_points == len(analytics._log_grid(10, 10_000))
    assert math.isnan(fit.stderr)  # no bootstrap


def sample_discrete_power_law(alpha, n, s_max, seed):
    """Direct-sampling oracle for P(tau = s) ∝ s^-alpha, s = 1..s_max."""
    s = np.arange(1, s_max + 1, dtype=float)
    pmf = s ** -alpha
    cdf = np.cumsum(pmf) / pmf.sum()
    u = SeedSpec(seed).generator().random(n)
    return 1 + np.searchsorted(cdf, u, side="left")


# past 2**53 the grid's int64 cast no longer holds every rounded point
@pytest.mark.parametrize("k_min, k_max", [(0, 15), (-1, 15), (5, 5), (6, 5),
                                          (1, 2 ** 53 + 1), (1, 1e20),
                                          (1, math.inf)])
def test_fit_refuses_a_k_range_outside_one_to_k_max(k_min, k_max):
    durations = np.tile(np.arange(1, 16), 3)
    with pytest.raises(ValueError, match=r"need 1 <= k_min < k_max"):
        fit_power_tail(durations, k_min, k_max)
    assert fit_power_tail(durations, 1, 15).slope == -1.0


@pytest.mark.parametrize("k_min, k_max, ends", [
    (10.5, 999.5, (11, 925)), (2.5, 1000.5, (3, 1000)), (10, 999, (10, 999))])
def test_fit_reports_the_ends_of_the_grid_it_fitted(k_min, k_max, ends):
    fit = fit_power_tail(np.arange(1, 3000), k_min, k_max, n_bootstrap=0)
    assert (fit.k_min, fit.k_max) == ends


def test_fit_refuses_a_negative_n_bootstrap():
    durations = np.tile(np.arange(1, 16), 3)
    with pytest.raises(ValueError, match="n_bootstrap must be >= 0, got -3"):
        fit_power_tail(durations, 1, 15, n_bootstrap=-3)


def test_fit_matches_discrete_power_law_oracle():
    # P(tau = s) ~ s^-1.5 implies survival exponent -0.5
    durations = sample_discrete_power_law(1.5, 200_000, 10_000_000, seed=55)
    fit = fit_power_tail(durations, 10, 10_000, n_bootstrap=60, seed=1)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)
    assert fit.stderr == 0.0043343144872637724


def fig2_durations(seed):
    """The complete avalanche durations of `replicate fig2 --seed <seed>`."""
    model = LogNormal(0, 0.3)
    prices = sample(model, SeedSpec(seed, 0), 2_000_000)
    res = run_sequence(Rule.CLASSIC, prices, collect_trajectory=False)
    return segment_avalanches(res.sale_prices, theory_summary(model).xc).durations


# the bootstrap draws its resamples in a fixed order, so stderr repeats exactly
@pytest.mark.parametrize("seed, stderr", [(1, 0.07125709670456348),
                                          (3, 0.07542273162803853),
                                          (1007, 0.08903607729654077)])
def test_fig2_tail_fit_stderr_is_pinned(seed, stderr):
    fit = fit_power_tail(fig2_durations(seed), 100, 10_000, seed=seed)
    assert fit.stderr == stderr


def test_tail_fit_stderr_drops_sparse_resamples():
    # 11 of the 250 resamples draw none of 14, 30 and 999, so they keep at
    # most 2 positive survival points on the grid and are left out
    d = np.array([1] * 55 + [11, 12, 14, 30, 999])
    fit = fit_power_tail(d, 10, 1000, seed=4)
    assert fit.stderr == 1.0382142986523566


def median_pairwise_slope(k, p) -> float:
    """np.median of the slopes between every two points with distinct log k;
    NaN when there is no such pair."""
    logk, logp = np.log(k), np.log(p)
    slopes = [(logp[b] - logp[a]) / (logk[b] - logk[a])
              for a, b in itertools.combinations(range(len(k)), 2)
              if logk[a] != logk[b]]
    return float(np.median(slopes)) if slopes else math.nan


def bootstrap_one_resample_at_a_time(d, k_min, k_max, n_bootstrap, seed):
    """The tail-fit bootstrap as one survival and one median per resample."""
    rng = SeedSpec(seed).generator()
    boots = []
    for _ in range(n_bootstrap):
        resample = rng.choice(d, size=len(d), replace=True)
        k, p = survival_function(resample, grid="log", k_min=k_min, k_max=k_max)
        inside = (k >= k_min) & (k <= k_max)
        if inside.sum() >= 3:
            boots.append(median_pairwise_slope(k[inside], p[inside]))
    return boots


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       alpha=st.floats(1.2, 2.5), k_min=st.sampled_from([1, 2, 10, 10.5]),
       span=st.floats(2.0, 2000.0), n_bootstrap=st.integers(1, 40))
def test_batched_bootstrap_matches_one_resample_at_a_time(seed, n, alpha, k_min,
                                                          span, n_bootstrap):
    d = sample_discrete_power_law(alpha, n, 100_000, seed)
    k_max = k_min * span
    got = analytics._bootstrap_slopes(d, analytics._log_grid(k_min, k_max),
                                      n_bootstrap, seed)
    assert got.tolist() == bootstrap_one_resample_at_a_time(d, k_min, k_max,
                                                            n_bootstrap, seed)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(durations=st.lists(st.integers(1, 80), min_size=1, max_size=200),
       k_min=st.sampled_from([1, 2, 3.5]), k_max=st.sampled_from([30, 60, 99.5]))
@example(durations=list(range(1, 40)), k_min=1, k_max=30)   # linear survival
@example(durations=[7, 3] * 5, k_min=1, k_max=60)           # two points
@example(durations=list(range(1, 40)), k_min=1, k_max=99.5)  # P = 0 past 39
def test_fit_slope_is_the_median_of_pairwise_slopes(durations, k_min, k_max):
    # drawn durations come in any order, and repeat often
    ks, p = survival_function(durations, grid="log", k_min=k_min, k_max=k_max)
    if len(ks) < 10:
        with pytest.raises(InsufficientDataError,
                           match=f"only {len(ks)} survival points"):
            fit_power_tail(durations, k_min, k_max, n_bootstrap=0)
    else:
        fit = fit_power_tail(durations, k_min, k_max, n_bootstrap=0)
        assert fit.slope == median_pairwise_slope(ks, p)
        # the fit carries the very points it fitted
        assert np.array_equal(fit.k, ks) and fit.k.dtype == ks.dtype
        assert (np.array_equal(fit.survival, p)
                and fit.survival.dtype == p.dtype)
        assert fit.n_points == len(fit.k)
        assert fit.k_min <= fit.k[0] and fit.k[-1] <= fit.k_max


def test_fit_too_few_points_names_count():
    # only k = 100, 108 and 117 of the grid on [100, 10^4] lie below 120
    with pytest.raises(InsufficientDataError, match="only 3 survival points"):
        fit_power_tail([120, 120], 100, 10_000)


# the grid on [1, 1.4] is the one point k = 1, and [10.2, 10.8] holds no
# integer: no pair of points to take a slope from
@pytest.mark.parametrize("k_min, k_max, count", [(1, 1.4, 1), (10.2, 10.8, 0)])
def test_fit_on_a_grid_of_fewer_than_two_points_names_count(k_min, k_max,
                                                            count):
    with pytest.raises(InsufficientDataError,
                       match=f"only {count} survival points"):
        fit_power_tail([5, 5, 5], k_min, k_max)


# =====================================================================
# distribution checks
# =====================================================================

def test_distribution_checks_moderate_run():
    model = LogNormal(0, 0.3)
    prices = sample(model, SeedSpec(61, 0), 50_000)
    res = run_sequence(Rule.CLASSIC, prices)
    ts = theory_summary(model)
    checks = empirical_distribution_checks(res.sale_prices,
                                           res.remaining_prices, model, ts.xc)
    assert checks.n_sales_above + checks.n_remaining_below <= 50_000
    assert checks.frac_sales_at_or_below_xc < 0.05
    assert checks.ks_sales_above < 3 * ks_critical_value(checks.n_sales_above, 0.01)
    assert checks.ks_remaining_below < 3 * ks_critical_value(checks.n_remaining_below, 0.01)


def test_distribution_checks_empty_sales_error():
    model = LogNormal(0, 0.3)
    with pytest.raises(ValueError):
        empirical_distribution_checks(np.array([]), np.array([1.0]), model, 0.9)


def test_ks_statistic_against_known_cdf():
    u = SeedSpec(71).generator().random(20_000)
    stat = ks_statistic(u, lambda x: x)
    assert stat < ks_critical_value(len(u), 0.01)
    # a wrong null is rejected
    stat_bad = ks_statistic(u ** 2, lambda x: x)
    assert stat_bad > ks_critical_value(len(u), 0.01)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -1.0, math.nan])
def test_ks_critical_value_names_a_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be in"):
        ks_critical_value(100, alpha)


def test_mean_avalanche_duration_grows_with_run_length():
    model = LogNormal(0, 0.3)
    xc = theory_summary(model).xc
    means = []
    for n, stream in ((30_000, 0), (1_000_000, 1)):
        prices = sample(model, SeedSpec(81, stream), n)
        res = run_sequence(Rule.CLASSIC, prices, collect_trajectory=False)
        av = segment_avalanches(res.sale_prices, xc)
        means.append(av.durations.mean())
    assert means[1] > means[0]
