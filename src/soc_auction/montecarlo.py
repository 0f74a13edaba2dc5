"""Replica orchestration and estimation of the limit constants.

`_one_replica` is the one place that addresses a replica's seed: replica r
draws its prices from SeedSpec(master_seed, r) and is folded without a
trajectory. `map_replicas` returns each replica's reduction in replica
order, so results do not depend on the worker count. Its process pool is
kept between calls (`_pool`), one per process.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .distributions import (PriceModel, SeedSpec, _ndtri, _resample_blocks,
                            sample)
from .engine import Rule, RunResult, run_sequence
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


def _check_level(level: float) -> None:
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")


def _one_replica(model: PriceModel, rule: Rule, n_bids: int,
                 master_seed: int, reduce, replica_id: int):
    seed = SeedSpec(master_seed, replica_id)
    prices = sample(model, seed, n_bids)
    return reduce(seed, run_sequence(rule, prices, collect_trajectory=False))


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (workers, pid, executor) of the one pool this process keeps, or None
_POOL = None


def _close_pool(cancel_futures: bool = False) -> None:
    """Shut the kept pool down, joining its workers, and forget it. A pool
    inherited through fork is only forgotten: its workers are the parent's."""
    global _POOL
    if _POOL is not None:
        _, pid, pool = _POOL
        _POOL = None
        if pid == os.getpid():
            pool.shutdown(wait=True, cancel_futures=cancel_futures)


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` processes, started on first use and
    kept for later calls; concurrent.futures joins it at interpreter exit.

    A pool of another size is shut down first, so its manager thread is
    gone before the new pool forks."""
    global _POOL
    if _POOL is None or _POOL[:2] != (workers, os.getpid()):
        _close_pool()
        _POOL = (workers, os.getpid(), ProcessPoolExecutor(max_workers=workers))
    return _POOL[2]


def map_replicas(model: PriceModel, rule: Rule | str, n_bids: int,
                 n_replicas: int, master_seed: int, reduce,
                 workers: int = 1) -> list:
    """`reduce(seed, run)` of each replica in replica order.

    When min(workers, n_replicas, CPUs) is more than one, the replicas run
    in `_pool` of that many processes, which later calls of the same size
    reuse. Its workers are forked by the call that starts it, so `reduce`
    must pickle by reference to a module they can import. An exception out
    of the pool shuts it down; the next call starts a new one. Threads of
    one process must not call it at once: they would share the pool."""
    if n_bids < 1:
        raise ValueError(f"n_bids must be >= 1, got {n_bids}")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    one = partial(_one_replica, model, Rule(rule), n_bids, master_seed, reduce)
    # a pool forks all its workers up front
    workers = min(workers, n_replicas, _cpus())
    if workers == 1:
        return [one(r) for r in range(n_replicas)]
    chunk = max(1, n_replicas // (workers * 8))
    try:
        return list(_pool(workers).map(one, range(n_replicas), chunksize=chunk))
    except BaseException:
        _close_pool(cancel_futures=True)
        raise


def _summary(seed: SeedSpec, run: RunResult) -> ReplicaResult:
    return ReplicaResult(seed.stream_id, run.n_bids, run.n_sales,
                         run.total_income, seed)


def run_replicas(model: PriceModel, rule: Rule | str, n_bids: int,
                 n_replicas: int, master_seed: int, *,
                 workers: int = 1) -> list[ReplicaResult]:
    """Run independent replicas; output is invariant under `workers`."""
    return map_replicas(model, rule, n_bids, n_replicas, master_seed,
                        _summary, workers)


def _check_uniform_n(results: list[ReplicaResult]) -> int:
    ns = {r.n_bids for r in results}
    if len(ns) != 1:
        raise ValueError(f"replicas mix different n_bids: {sorted(ns)}")
    return ns.pop()


def _bootstrap_ci(stat, samples: dict, level: float, n_bootstrap: int,
                  seed: int) -> EstimateWithCI:
    """`stat(samples)` with a percentile CI over the resamples that
    `_resample_blocks(samples, n_bootstrap, seed)` draws.

    `stat` reduces the last axis, so it takes a block of resamples at once:
    the resamples of each array are the rows of one matrix.
    """
    _check_level(level)
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be >= 1, got {n_bootstrap}")
    point = float(stat(samples))
    boots = np.concatenate([stat(rows) for rows in
                            _resample_blocks(samples, n_bootstrap, seed)])
    lo, hi = np.quantile(boots, [(1 - level) / 2, (1 + level) / 2])
    return EstimateWithCI(point, min(float(lo), point), max(float(hi), point),
                          sum(map(len, samples.values())), level)


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
    _check_level(level)
    z = float(_ndtri(0.5 + level / 2.0))
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

    def slope_of(samples: dict[int, np.ndarray]) -> np.ndarray:
        ns = np.array(sorted(samples), dtype=float)
        v = np.stack([samples[int(n)].var(axis=-1, ddof=1) for n in ns], axis=-1)
        r = np.array([samples[int(n)].shape[-1] for n in ns], dtype=float)
        # degenerate counts (e.g. accept-all) have no positive variance to
        # floor at; any finite floor leaves their slope flat at zero
        pos = np.where(v > 0, v, np.inf).min(axis=-1, keepdims=True)
        floor = np.where(pos < np.inf, pos * 1e-12, 1.0)
        w = (r - 1.0) / (2.0 * np.maximum(v, floor) ** 2)
        return (w * ns * v).sum(axis=-1) / (w * ns * ns).sum(axis=-1)

    return _bootstrap_ci(slope_of, counts, level, n_bootstrap, seed)


def estimate_af(results: list[ReplicaResult], level: float = 0.95,
                n_bootstrap: int = 500, seed: int = 0) -> EstimateWithCI:
    """Per-bid income variance: var(total_income) / N, bootstrap CI."""
    if len(results) < 200:
        raise InsufficientDataError(f"need >= 200 replicas, got {len(results)}")
    n = _check_uniform_n(results)
    ti = np.array([r.total_income for r in results])
    return _bootstrap_ci(lambda s: s[n].var(axis=-1, ddof=1) / n, {n: ti},
                         level, n_bootstrap, seed)


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
