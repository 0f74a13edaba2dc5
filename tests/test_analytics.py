"""Analytics tests: theory summary values, avalanche segmentation, survival,
and the robust tail fit against synthetic power-law oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soc_auction import (E_INV, Exponential, InsufficientDataError, LogNormal,
                         Pareto, Rule, SeedSpec, Uniform, analytics,
                         empirical_critical_price,
                         empirical_distribution_checks, fit_power_tail,
                         ks_critical_value, ks_statistic, run_sequence,
                         sample, segment_avalanches, survival_function,
                         theory_summary)


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
    k, p = survival_function(durations, grid="log", k_min=1, k_max=1000,
                             n_points=30)
    assert len(k) == len(np.unique(k))
    assert (p > 0).all()
    assert (np.diff(p) <= 0).all()


def test_survival_function_errors():
    with pytest.raises(ValueError):
        survival_function([])
    with pytest.raises(ValueError):
        survival_function([1, 2], grid="bogus")
    with pytest.raises(ValueError):
        survival_function([1, 2], grid="log", k_min=5, k_max=2)


# =====================================================================
# power-law tail fit
# =====================================================================

def test_fit_recovers_exact_power_law():
    k = np.unique(np.round(np.logspace(1, 4, 80)).astype(int))
    p = k.astype(float) ** -0.54
    fit = fit_power_tail((k, p), 10, 10_000)
    assert fit.slope == pytest.approx(-0.54, abs=1e-6)
    assert fit.n_points == len(k)
    assert math.isnan(fit.stderr)  # no durations supplied


def sample_discrete_power_law(alpha, n, s_max, seed):
    """Direct-sampling oracle for P(tau = s) ∝ s^-alpha, s = 1..s_max."""
    s = np.arange(1, s_max + 1, dtype=float)
    pmf = s ** -alpha
    cdf = np.cumsum(pmf) / pmf.sum()
    u = SeedSpec(seed).generator().random(n)
    return 1 + np.searchsorted(cdf, u, side="left")


def test_fit_matches_discrete_power_law_oracle():
    # P(tau = s) ~ s^-1.5 implies survival exponent -0.5
    durations = sample_discrete_power_law(1.5, 200_000, 10_000_000, seed=55)
    k, p = survival_function(durations, grid="log", k_min=10, k_max=10_000)
    fit = fit_power_tail((k, p), 10, 10_000, durations=durations,
                         n_bootstrap=60, seed=1)
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
    d = fig2_durations(seed)
    survival = survival_function(d, grid="log", k_min=100, k_max=10_000)
    fit = fit_power_tail(survival, 100, 10_000, durations=d, seed=seed)
    assert fit.stderr == stderr


def test_tail_fit_stderr_drops_sparse_resamples():
    # 11 of the 250 resamples draw none of 14, 30 and 999, so they keep at
    # most 2 positive survival points on the grid and are left out
    d = np.array([1] * 55 + [11, 12, 14, 30, 999])
    survival = survival_function(d, grid="log", k_min=10, k_max=1000)
    fit = fit_power_tail(survival, 10, 1000, durations=d, seed=4)
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
    got = analytics._bootstrap_slopes(d, k_min, k_max, n_bootstrap, seed)
    assert got.tolist() == bootstrap_one_resample_at_a_time(d, k_min, k_max,
                                                            n_bootstrap, seed)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(st.integers(1, 60), st.floats(1e-9, 1.0)),
                       min_size=10, max_size=40))
@example(points=[(k, 1.0 / k) for k in range(30, 10, -2)])  # distinct, descending
@example(points=[(7, 0.5), (3, 0.9)] * 5)                   # two k, each repeated
@example(points=[(7, 0.5)] * 12)                            # no distinct k pair
def test_fit_slope_is_the_median_of_pairwise_slopes(points):
    # drawn points come in any order, and k repeats often
    ks, p = map(np.array, zip(*points))
    want = median_pairwise_slope(ks, p)
    if math.isnan(want):
        with pytest.raises(InsufficientDataError, match="no distinct k pairs"):
            fit_power_tail((ks, p), 1, 60)
    else:
        assert fit_power_tail((ks, p), 1, 60).slope == want


def test_fit_too_few_points_names_count():
    k = np.array([120, 300, 900])
    p = np.array([0.5, 0.2, 0.05])
    with pytest.raises(InsufficientDataError, match="3"):
        fit_power_tail((k, p), 100, 10_000)


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
