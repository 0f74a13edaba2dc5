"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (run with `pytest -s` to stream
them). Monte Carlo criteria use pre-registered master seeds, 1000 + the
criterion number, with replica stream ids equal to replica indices.

The two replica-heavy criteria (6 and 11) take a few minutes combined; the
rest of the suite finishes in seconds.
"""

import math
import os
import time

import numpy as np
import pytest

from soc_auction import (E_INV, LogNormal, Rule, SeedSpec,
                         empirical_distribution_checks, estimate_af,
                         estimate_b, fit_power_tail, ks_critical_value,
                         oracle_run, quantile, run_replicas, run_sequence,
                         sample, segment_avalanches, theory_summary,
                         ti_normality, uniform_stream)

MODEL = LogNormal(0.0, 0.3)
WORKERS = min(2, os.cpu_count() or 1)
TI_PER_BID = 0.7720651


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    res = run_sequence(Rule.CLASSIC, [14, 15, 18, 13, 16, 12, 10])
    elapsed = time.perf_counter() - t0
    ok = (res.sale_prices.tolist() == [18.0, 16.0, 15.0]
          and res.trigger_indices.tolist() == [4, 6, 7]
          and sorted(res.remaining_prices.tolist()) == [10.0, 12.0, 13.0, 14.0])
    assert report(1, ok, f"sales {res.sale_prices.tolist()}, triggers "
                         f"{res.trigger_indices.tolist()}, {elapsed*1e3:.2f} ms")


def test_criterion_02_critical_price():
    xc = theory_summary(MODEL).xc
    ok = abs(xc - 0.90371) <= 1e-5
    assert report(2, ok, f"xc = {xc:.7f} vs 0.90371 ± 1e-5")


def test_criterion_03_acceptance_fraction_single_run():
    t0 = time.perf_counter()
    prices = sample(MODEL, SeedSpec(1003, 0), 1_000_000)
    res = run_sequence(Rule.CLASSIC, prices, collect_trajectory=False)
    elapsed = time.perf_counter() - t0
    err = abs(res.sales_fraction - (1 - E_INV))
    ok = err < 0.002
    assert report(3, ok, f"|Ñ/N − (1−e⁻¹)| = {err:.6f} < 0.002 "
                         f"({elapsed:.2f} s)")


def test_criterion_04_rank_invariance():
    from soc_auction import Exponential, Uniform
    u = uniform_stream(SeedSpec(1004, 0), 100_000)
    runs = [run_sequence(Rule.CLASSIC, quantile(m, u))
            for m in (Uniform(0, 1), Exponential(1.0), MODEL)]
    ok = all(np.array_equal(runs[0].ntilde, r.ntilde)
             and np.array_equal(runs[0].accepted_indices, r.accepted_indices)
             and np.array_equal(runs[0].trigger_indices, r.trigger_indices)
             for r in runs[1:])
    assert report(4, ok, "identical Ñ trajectories and index sets across "
                         "uniform/exponential/log-normal at N = 1e5")


def test_criterion_05_mean_income():
    t0 = time.perf_counter()
    reps = run_replicas(MODEL, Rule.CLASSIC, 10_000, 200, master_seed=1005,
                        workers=WORKERS)
    ti_per_bid = np.array([r.total_income / r.n_bids for r in reps])
    mean = ti_per_bid.mean()
    se = ti_per_bid.std(ddof=1) / math.sqrt(len(reps))
    clause1 = abs(mean - TI_PER_BID) < 3 * se

    # band claim on a grid: theory inside mean ± 3 sd for all N >= 50
    grid = np.array([10, 20, 30, 40, 50, 75, 100, 150, 200, 300, 500, 700, 1000])
    tis = np.empty((200, len(grid)))
    for r in range(200):
        prices = sample(MODEL, SeedSpec(1005, r), 1000)
        res = run_sequence(Rule.CLASSIC, prices, collect_trajectory=False)
        cum = np.cumsum(res.sale_prices)
        pos = np.searchsorted(res.trigger_indices, grid, side="right")
        tis[r] = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
    m, sd = tis.mean(axis=0), tis.std(axis=0, ddof=1)
    theory = TI_PER_BID * grid
    big = grid >= 50
    clause2 = bool(((theory >= m - 3 * sd) & (theory <= m + 3 * sd))[big].all())
    elapsed = time.perf_counter() - t0
    ok = clause1 and clause2
    assert report(5, ok, f"mean TI/N = {mean:.7f} vs {TI_PER_BID} "
                         f"(|diff| = {abs(mean - TI_PER_BID):.7f}, 3SE = {3*se:.7f}); "
                         f"band holds for N ≥ 50: {clause2} ({elapsed:.1f} s)")


def test_criterion_06_variance_constants():
    t0 = time.perf_counter()
    results = {n: run_replicas(MODEL, Rule.CLASSIC, n, 500,
                               master_seed=10060 + i, workers=WORKERS)
               for i, n in enumerate((10_000, 30_000, 100_000))}
    b_est = estimate_b(results, n_bootstrap=300)
    af_est = estimate_af(results[100_000], n_bootstrap=300)
    af_theory = theory_summary(MODEL).af_approx
    elapsed = time.perf_counter() - t0
    ok_b = 0.034 <= b_est.point <= 0.043
    ok_af = 0.08 <= af_est.point <= 0.11
    ok_theory = abs(af_theory - 0.102) <= 1e-3
    ok = ok_b and ok_af and ok_theory
    assert report(6, ok, f"b = {b_est.point:.4f} ∈ [0.034, 0.043]: {ok_b}; "
                         f"a_f = {af_est.point:.4f} ∈ [0.08, 0.11]: {ok_af}; "
                         f"first-order a_f = {af_theory:.4f} = 0.102 ± 0.001: "
                         f"{ok_theory} ({elapsed:.0f} s)")


def test_criterion_07_avalanche_tail():
    t0 = time.perf_counter()
    prices = sample(MODEL, SeedSpec(1007, 0), 2_000_000)
    res = run_sequence(Rule.CLASSIC, prices, collect_trajectory=False)
    xc = theory_summary(MODEL).xc
    av = segment_avalanches(res.sale_prices, xc)
    fit = fit_power_tail(av.durations, 100, 10_000, seed=1007)
    elapsed = time.perf_counter() - t0
    ok = abs(fit.slope - (-0.54)) <= 0.10
    assert report(7, ok, f"slope = {fit.slope:.4f} vs −0.54 ± 0.10 "
                         f"(stderr {fit.stderr:.3f}, {av.n_avalanches} avalanches, "
                         f"{elapsed:.1f} s)")


def test_criterion_08_two_consecutive_variant():
    t0 = time.perf_counter()
    prices = sample(MODEL, SeedSpec(1008, 0), 1_000_000)
    res = run_sequence(Rule.TWO_CONSECUTIVE, prices, collect_trajectory=False)
    elapsed = time.perf_counter() - t0
    err = abs(res.sales_fraction - 0.5)
    ok = err < 0.01
    assert report(8, ok, f"|Ñ/N − 0.5| = {err:.6f} < 0.01 ({elapsed:.2f} s)")


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    rules = [Rule.CLASSIC, Rule.TWO_CONSECUTIVE]
    checked = 0
    all_ok = True
    for case in range(1000):
        n = int(rng.integers(1, 201))
        kind = case % 3
        if kind == 0:
            prices = rng.lognormal(0, 0.3, n)
        elif kind == 1:
            prices = rng.exponential(1.0, n) + 1e-12
        else:
            prices = rng.integers(1, 10, n).astype(float)  # tie-heavy
        rule = rules[case % 2]
        fast = run_sequence(rule, prices)
        slow = oracle_run(rule, prices)
        same = (np.array_equal(fast.sale_prices, slow.sale_prices)
                and np.array_equal(fast.accepted_indices, slow.accepted_indices)
                and np.array_equal(fast.trigger_indices, slow.trigger_indices)
                and np.array_equal(fast.ntilde, slow.ntilde)
                and np.array_equal(fast.remaining_prices, slow.remaining_prices)
                and np.array_equal(fast.remaining_indices, slow.remaining_indices))
        all_ok = all_ok and same
        checked += 1
    elapsed = time.perf_counter() - t0
    assert report(9, all_ok, f"{checked} random sequences, both rules, "
                             f"exact match ({elapsed:.1f} s)")


def test_criterion_10_conservation_and_truncation():
    t0 = time.perf_counter()
    prices = sample(MODEL, SeedSpec(1010, 0), 1_000_000)
    res = run_sequence(Rule.CLASSIC, prices, collect_trajectory=False)
    lhs = math.fsum([res.total_income] + res.remaining_prices.tolist())
    rhs = math.fsum(prices.tolist())
    conserved = abs(lhs - rhs) <= 1e-9 * abs(rhs)

    xc = theory_summary(MODEL).xc
    checks = empirical_distribution_checks(res.sale_prices,
                                           res.remaining_prices, MODEL, xc)
    ks_sales_ok = checks.ks_sales_above < ks_critical_value(
        checks.n_sales_above, 0.01)
    ks_rem_ok = checks.ks_remaining_below < ks_critical_value(
        checks.n_remaining_below, 0.01)
    frac_ok = checks.frac_sales_at_or_below_xc < 0.01
    elapsed = time.perf_counter() - t0
    ok = conserved and ks_sales_ok and ks_rem_ok and frac_ok
    assert report(10, ok,
                  f"conservation |Δ|/Σ = {abs(lhs-rhs)/abs(rhs):.2e} ≤ 1e-9: "
                  f"{conserved}; KS sales {checks.ks_sales_above:.5f} < "
                  f"{ks_critical_value(checks.n_sales_above, 0.01):.5f}: {ks_sales_ok}; "
                  f"KS remaining {checks.ks_remaining_below:.5f} < "
                  f"{ks_critical_value(checks.n_remaining_below, 0.01):.5f}: {ks_rem_ok}; "
                  f"frac ≤ xc = {checks.frac_sales_at_or_below_xc:.5f} < 0.01: "
                  f"{frac_ok} ({elapsed:.1f} s)")


def test_criterion_11_ti_normality():
    t0 = time.perf_counter()
    reps = run_replicas(MODEL, Rule.CLASSIC, 100_000, 1000, master_seed=1011,
                        workers=WORKERS)
    diag = ti_normality(reps)
    elapsed = time.perf_counter() - t0
    ok = abs(diag.skewness) < 0.15 and abs(diag.excess_kurtosis) < 0.3
    assert report(11, ok, f"skewness = {diag.skewness:+.4f} (< 0.15), "
                          f"excess kurtosis = {diag.excess_kurtosis:+.4f} "
                          f"(< 0.3) ({elapsed:.0f} s)")
