"""Monte Carlo tests: replica determinism, estimator values and error paths."""

import functools
import math

import numpy as np
import pytest

from soc_auction import (E_INV, InsufficientDataError, LogNormal, ReplicaResult,
                         Rule, SeedSpec, Uniform, _kernel, estimate_af,
                         estimate_b, estimate_pc, montecarlo, quantile,
                         run_replicas, run_sequence, sample, ti_normality,
                         uniform_stream)

from conftest import needs_kernel


def test_run_replicas_deterministic_and_worker_invariant():
    model = LogNormal(0, 0.3)
    serial = run_replicas(model, Rule.CLASSIC, 2000, 8, master_seed=5)
    again = run_replicas(model, Rule.CLASSIC, 2000, 8, master_seed=5)
    parallel = run_replicas(model, Rule.CLASSIC, 2000, 8, master_seed=5, workers=2)
    assert serial == again == parallel
    assert [r.replica_id for r in serial] == list(range(8))
    assert all(r.seed == SeedSpec(5, r.replica_id) for r in serial)


@needs_kernel
def test_pool_workers_build_the_kernel_into_a_cold_cache(tmp_path, monkeypatch):
    model = LogNormal(0, 0.3)  # its draw check runs the kernel's ndtri here
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "load", functools.cache(_kernel.load.__wrapped__))
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)  # a pool, on any host
    pooled = run_replicas(model, Rule.CLASSIC, 2000, 8, master_seed=5, workers=2)
    # the workers built it, not this process
    assert _kernel.load.cache_info().currsize == 0
    [lib] = (tmp_path / "soc_auction").iterdir()  # one kernel, no temp file
    assert lib.suffix == ".so"
    assert pooled == run_replicas(model, Rule.CLASSIC, 2000, 8, master_seed=5)


def test_pool_starts_at_most_one_worker_per_replica(monkeypatch):
    started = []

    class SerialPool:  # records the pool size, then maps in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    model = LogNormal(0, 0.3)
    serial = run_replicas(model, Rule.CLASSIC, 500, 3, master_seed=5)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 64)
    assert run_replicas(model, Rule.CLASSIC, 500, 3, master_seed=5,
                        workers=4096) == serial
    assert run_replicas(model, Rule.CLASSIC, 500, 1, master_seed=5,
                        workers=4096) == serial[:1]
    assert started == [3]
    # nor more than one per CPU, and none on one CPU
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
    assert run_replicas(model, Rule.CLASSIC, 500, 3, master_seed=5,
                        workers=4096) == serial
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
    assert run_replicas(model, Rule.CLASSIC, 500, 3, master_seed=5,
                        workers=4096) == serial
    assert started == [3, 2]


def test_replica_matches_direct_run():
    model = LogNormal(0, 0.3)
    [rep] = run_replicas(model, Rule.CLASSIC, 1500, 1, master_seed=9)
    res = run_sequence(Rule.CLASSIC, sample(model, SeedSpec(9, 0), 1500))
    assert rep.n_sales == res.n_sales
    assert rep.total_income == res.total_income
    assert rep.n_sales <= rep.n_bids - 1  # first bid never sells


def test_accept_all_replicas_income_is_plain_sum():
    model = Uniform(0, 1)
    reps = run_replicas(model, Rule.ACCEPT_ALL, 500, 5, master_seed=11)
    for r in reps:
        draws = sample(model, r.seed, 500)
        assert r.total_income == pytest.approx(math.fsum(draws.tolist()), rel=1e-15)
        assert r.n_sales == r.n_bids


def test_run_replicas_validation():
    with pytest.raises(ValueError):
        run_replicas(Uniform(0, 1), Rule.CLASSIC, 0, 3, 1)
    with pytest.raises(ValueError):
        run_replicas(Uniform(0, 1), Rule.CLASSIC, 10, 0, 1)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            run_replicas(Uniform(0, 1), Rule.CLASSIC, 10, 3, 1, workers=workers)


# =====================================================================
# estimate_pc
# =====================================================================

def test_estimate_pc_accept_all_is_zero():
    reps = run_replicas(Uniform(0, 1), Rule.ACCEPT_ALL, 300, 4, master_seed=2)
    est = estimate_pc(reps)
    assert est.point == 0.0
    assert est.ci_low <= est.point <= est.ci_high


def test_estimate_pc_classic_near_conjecture():
    reps = run_replicas(LogNormal(0, 0.3), Rule.CLASSIC, 30_000, 30, master_seed=3)
    est = estimate_pc(reps)
    assert abs(est.point - E_INV) < 0.002
    assert 0 < est.point < 1
    assert est.n_replicas == 30


def test_estimate_pc_two_consecutive_near_half():
    reps = run_replicas(LogNormal(0, 0.3), Rule.TWO_CONSECUTIVE, 50_000, 10,
                        master_seed=4)
    est = estimate_pc(reps)
    assert abs(est.point - 0.5) < 0.01


def test_estimate_pc_errors():
    reps = run_replicas(Uniform(0, 1), Rule.CLASSIC, 100, 1, master_seed=1)
    with pytest.raises(InsufficientDataError):
        estimate_pc(reps)
    mixed = (run_replicas(Uniform(0, 1), Rule.CLASSIC, 100, 2, master_seed=1)
             + run_replicas(Uniform(0, 1), Rule.CLASSIC, 200, 2, master_seed=1))
    with pytest.raises(ValueError, match="n_bids"):
        estimate_pc(mixed)


# =====================================================================
# distribution-free mean sales fraction (rank invariance across models)
# =====================================================================

def test_mean_sales_fraction_distribution_free():
    from soc_auction import Exponential
    b_var = 0.0383
    target = 1 - E_INV
    for n_bids, n_reps, stream_base in ((1000, 8, 0), (10_000, 16, 100),
                                        (100_000, 12, 200)):
        fracs = []
        for r in range(n_reps):
            u = uniform_stream(SeedSpec(606, stream_base + r), n_bids)
            per_model = []
            for m in (Uniform(0, 1), Exponential(1.0), LogNormal(0, 0.3)):
                res = run_sequence(Rule.CLASSIC, quantile(m, u),
                                   collect_trajectory=False)
                per_model.append(res.n_sales / n_bids)
            # identical decisions for identical ranks
            assert per_model[0] == per_model[1] == per_model[2]
            fracs.append(per_model[0])
        se = math.sqrt(b_var / n_bids / n_reps)
        assert abs(np.mean(fracs) - target) < 3 * se


# =====================================================================
# estimate_b / estimate_af
# =====================================================================

def test_estimate_b_small_scale():
    model = LogNormal(0, 0.3)
    results = {n: run_replicas(model, Rule.CLASSIC, n, 150, master_seed=70 + i)
               for i, n in enumerate((1000, 3000, 10_000))}
    est = estimate_b(results, n_bootstrap=200)
    assert 0.02 < est.point < 0.06
    assert est.ci_low <= est.point <= est.ci_high
    # var(n_sales)/N is roughly flat in N, supporting the linear scaling
    per_n = [np.var([r.n_sales for r in res], ddof=1) / n
             for n, res in results.items()]
    assert max(per_n) / min(per_n) < 1.8


def test_estimate_b_accept_all_is_zero():
    model = Uniform(0, 1)
    results = {n: run_replicas(model, Rule.ACCEPT_ALL, n, 120, master_seed=80 + i)
               for i, n in enumerate((200, 400, 800))}
    est = estimate_b(results)
    assert est.point == 0.0


def test_estimate_b_matches_binomial_sixth():
    # b should be roughly (1/6) pc (1 - pc)
    model = LogNormal(0, 0.3)
    results = {n: run_replicas(model, Rule.CLASSIC, n, 150, master_seed=90 + i)
               for i, n in enumerate((2000, 5000, 12_000))}
    est = estimate_b(results, n_bootstrap=100)
    reference = E_INV * (1 - E_INV) / 6
    assert est.point == pytest.approx(reference, abs=0.012)


def test_estimate_b_errors_name_the_deficient_n():
    model = Uniform(0, 1)
    ok = run_replicas(model, Rule.CLASSIC, 100, 120, master_seed=1)
    short = run_replicas(model, Rule.CLASSIC, 250, 20, master_seed=2)
    with pytest.raises(InsufficientDataError, match="250"):
        estimate_b({100: ok, 250: short,
                    400: run_replicas(model, Rule.CLASSIC, 400, 120, master_seed=3)})
    with pytest.raises(InsufficientDataError, match="3 distinct"):
        estimate_b({100: ok, 250: ok})


def test_bootstrap_bounds_are_pinned():
    # the resamples are drawn in a fixed order, so the bounds repeat exactly
    model = LogNormal(0, 0.3)
    results = {n: run_replicas(model, Rule.CLASSIC, n, 120, master_seed=s)
               for n, s in ((1000, 50), (2000, 51), (4000, 52))}
    est = estimate_b(results, n_bootstrap=200)
    assert est.point == 0.03625200065916053
    assert (est.ci_low, est.ci_high) == (0.030063555111421225,
                                         0.04100442959341612)
    assert est.n_replicas == 360
    reps = run_replicas(model, Rule.CLASSIC, 1000, 250, master_seed=77)
    est = estimate_af(reps, n_bootstrap=200)
    assert est.point == 0.09464302343589348
    assert (est.ci_low, est.ci_high) == (0.07953323081047207,
                                         0.10874274805456272)
    assert est.n_replicas == 250


def test_estimate_af_accept_all_matches_model_variance():
    model = Uniform(0, 1)
    reps = run_replicas(model, Rule.ACCEPT_ALL, 2000, 300, master_seed=5)
    est = estimate_af(reps, n_bootstrap=200)
    true_var = 1.0 / 12.0
    sd = true_var * math.sqrt(2.0 / (len(reps) - 1))
    assert abs(est.point - true_var) < 4 * sd
    assert est.ci_low <= est.point <= est.ci_high


def test_estimate_af_errors():
    model = Uniform(0, 1)
    reps = run_replicas(model, Rule.CLASSIC, 100, 150, master_seed=6)
    with pytest.raises(InsufficientDataError):
        estimate_af(reps)


@pytest.mark.parametrize("estimator, kwargs, name", [
    (estimate_pc, {"level": 1.5}, "level"),
    (estimate_pc, {"level": -1.0}, "level"),
    (estimate_pc, {"level": 1.0}, "level"),
    (estimate_pc, {"level": math.nan}, "level"),
    (estimate_b, {"level": 0.0}, "level"),
    (estimate_b, {"n_bootstrap": 0}, "n_bootstrap"),
    (estimate_af, {"level": 2.0}, "level"),
    (estimate_af, {"n_bootstrap": 0}, "n_bootstrap"),
    (estimate_af, {"n_bootstrap": -3}, "n_bootstrap"),
])
def test_estimator_arguments_get_named_errors(estimator, kwargs, name):
    reps = {n: run_replicas(Uniform(0, 1), Rule.CLASSIC, n, 200, master_seed=n)
            for n in (100, 200, 300)}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        estimator(reps if estimator is estimate_b else reps[100], **kwargs)


# =====================================================================
# normality diagnostics
# =====================================================================

def test_ti_normality_accept_all_clt():
    model = Uniform(0, 1)
    reps = run_replicas(model, Rule.ACCEPT_ALL, 2000, 600, master_seed=7)
    diag = ti_normality(reps)
    assert abs(diag.skewness) < 0.3
    assert abs(diag.excess_kurtosis) < 0.6


def test_ti_normality_degenerate_is_nan():
    reps = [ReplicaResult(i, 100, 100, 42.0, SeedSpec(0, i)) for i in range(600)]
    diag = ti_normality(reps)
    assert math.isnan(diag.skewness) and math.isnan(diag.excess_kurtosis)


def test_ti_normality_requires_replicas():
    reps = [ReplicaResult(i, 100, 60, 40.0 + i, SeedSpec(0, i)) for i in range(100)]
    with pytest.raises(InsufficientDataError):
        ti_normality(reps)
