"""Replica orchestration and estimation of the limit constants.

Replica r always draws its prices from SeedSpec(master_seed, r), so results
are deterministic for fixed inputs and independent of how many workers run
them or in which order they finish: aggregation is a plain fold in
replica_id order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .distributions import PriceModel, SeedSpec, sample
from .engine import Rule, run_sequence
from .errors import InsufficientDataError


@dataclass(frozen=True)
class ReplicaResult:
    """End-of-run summary of one independent auction replica."""

    replica_id: int
    n_bids: int
    n_sales: int
    total_income: float
    seed: SeedSpec


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    ci_low: float
    ci_high: float
    n_replicas: int
    level: float


def _z_value(level: float) -> float:
    return float(ndtri(0.5 + level / 2.0))


def map_replicas(fn, jobs: list, workers: int = 1) -> list:
    """Apply `fn` to each job, in a pool of `workers` processes when
    workers > 1.

    Results come back in job order, so they do not depend on the worker
    count. `fn` must be a module-level function so the pool can send it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    chunk = max(1, len(jobs) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunk))


def _one_replica(job) -> ReplicaResult:
    model, rule, n_bids, master_seed, replica_id = job
    seed = SeedSpec(master_seed, replica_id)
    prices = sample(model, seed, n_bids)
    result = run_sequence(rule, prices, collect_trajectory=False)
    return ReplicaResult(replica_id=replica_id, n_bids=n_bids,
                         n_sales=result.n_sales,
                         total_income=result.total_income, seed=seed)


def run_replicas(model: PriceModel, rule: Rule | str, n_bids: int,
                 n_replicas: int, master_seed: int, *,
                 workers: int = 1) -> list[ReplicaResult]:
    """Run independent replicas; output is invariant under `workers`."""
    if n_bids < 1:
        raise ValueError(f"n_bids must be >= 1, got {n_bids}")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    rule = Rule(rule)
    jobs = [(model, rule, n_bids, master_seed, r) for r in range(n_replicas)]
    return map_replicas(_one_replica, jobs, workers)


def _check_uniform_n(results: list[ReplicaResult]) -> int:
    ns = {r.n_bids for r in results}
    if len(ns) != 1:
        raise ValueError(f"replicas mix different n_bids: {sorted(ns)}")
    return ns.pop()


def estimate_pc(results: list[ReplicaResult], level: float = 0.95) -> EstimateWithCI:
    """Estimate the never-accepted fraction: 1 - mean(n_sales)/N.

    Normal-approximation CI from the replica spread.
    """
    if len(results) < 2:
        raise InsufficientDataError(f"need >= 2 replicas, got {len(results)}")
    n = _check_uniform_n(results)
    fracs = np.array([r.n_sales / n for r in results])
    point = 1.0 - float(fracs.mean())
    se = float(fracs.std(ddof=1)) / math.sqrt(len(fracs))
    z = _z_value(level)
    return EstimateWithCI(point, point - z * se, point + z * se,
                          len(results), level)


def estimate_b(results_by_n: dict[int, list[ReplicaResult]],
               level: float = 0.95, n_bootstrap: int = 500,
               seed: int = 0) -> EstimateWithCI:
    """Slope of var(n_sales) versus N through the origin.

    Weighted least squares with inverse variance-of-variance weights
    (under near-normality var(S^2) ~ 2 V^2 / (R - 1)); CI by bootstrap
    over replicas within each N.
    """
    if len(results_by_n) < 3:
        raise InsufficientDataError(
            f"need >= 3 distinct N values, got {len(results_by_n)}")
    for n, res in results_by_n.items():
        if len(res) < 100:
            raise InsufficientDataError(
                f"need >= 100 replicas at N={n}, got {len(res)}")
        if any(r.n_bids != n for r in res):
            raise ValueError(f"replica list at key N={n} contains other n_bids")

    counts = {n: np.array([r.n_sales for r in res], dtype=float)
              for n, res in results_by_n.items()}

    def slope_of(samples: dict[int, np.ndarray]) -> float:
        ns = np.array(sorted(samples), dtype=float)
        v = np.array([samples[int(n)].var(ddof=1) for n in ns])
        r = np.array([len(samples[int(n)]) for n in ns], dtype=float)
        if not v.any():
            return 0.0  # degenerate counts (e.g. accept-all): flat at zero
        w = (r - 1.0) / (2.0 * np.maximum(v, v[v > 0].min() * 1e-12) ** 2)
        return float((w * ns * v).sum() / (w * ns * ns).sum())

    point = slope_of(counts)
    rng = SeedSpec(seed).generator()
    boots = np.empty(n_bootstrap)
    for i in range(n_bootstrap):
        resampled = {n: rng.choice(c, size=len(c), replace=True)
                     for n, c in counts.items()}
        boots[i] = slope_of(resampled)
    lo, hi = np.quantile(boots, [(1 - level) / 2, (1 + level) / 2])
    n_total = sum(len(res) for res in results_by_n.values())
    return EstimateWithCI(point, min(float(lo), point), max(float(hi), point),
                          n_total, level)


def estimate_af(results: list[ReplicaResult], level: float = 0.95,
                n_bootstrap: int = 500, seed: int = 0) -> EstimateWithCI:
    """Per-bid income variance: var(total_income) / N, bootstrap CI."""
    if len(results) < 200:
        raise InsufficientDataError(f"need >= 200 replicas, got {len(results)}")
    n = _check_uniform_n(results)
    ti = np.array([r.total_income for r in results])
    point = float(ti.var(ddof=1)) / n
    rng = SeedSpec(seed).generator()
    boots = np.empty(n_bootstrap)
    for i in range(n_bootstrap):
        boots[i] = rng.choice(ti, size=len(ti), replace=True).var(ddof=1) / n
    lo, hi = np.quantile(boots, [(1 - level) / 2, (1 + level) / 2])
    return EstimateWithCI(point, min(float(lo), point), max(float(hi), point),
                          len(results), level)


class NormalityDiagnostics(NamedTuple):
    skewness: float
    excess_kurtosis: float


def ti_normality(results: list[ReplicaResult]) -> NormalityDiagnostics:
    """Sample skewness and excess kurtosis of total income across replicas.

    NaN when the incomes are degenerate (zero variance).
    """
    if len(results) < 500:
        raise InsufficientDataError(f"need >= 500 replicas, got {len(results)}")
    _check_uniform_n(results)
    ti = np.array([r.total_income for r in results])
    c = ti - ti.mean()
    m2 = float(np.mean(c ** 2))
    if m2 == 0.0:
        return NormalityDiagnostics(math.nan, math.nan)
    skew = float(np.mean(c ** 3)) / m2 ** 1.5
    kurt = float(np.mean(c ** 4)) / m2 ** 2 - 3.0
    return NormalityDiagnostics(skew, kurt)
