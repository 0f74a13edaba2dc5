"""Fixtures shared by the test modules."""

import mpmath
import pytest
from mpmath import mp, mpf

from soc_auction import _kernel, montecarlo
from soc_auction.distributions import (Exponential, LogNormal, Pareto,
                                       Truncated, Uniform)


# for tests that compare the kernel with its fallbacks: skipped once, before
# Hypothesis runs any example, when the kernel cannot be built
needs_kernel = pytest.mark.skipif(_kernel.load() is None,
                                  reason="the C kernel cannot be built here")


@pytest.fixture
def fresh_pool():
    """No kept replica pool when the test starts, and none after it: workers
    forked earlier would keep the functions the test patches. Ask for it
    after `monkeypatch`, so it closes the pool before the patches are
    undone."""
    montecarlo._close_pool()
    yield
    montecarlo._close_pool()


@pytest.fixture(params=["c", "python"])
def backend(request, monkeypatch, fresh_pool):
    """The package runs on the C kernel, or on its fallbacks: the Python heap
    fold `_fold`, `math.fsum`, scipy's ndtr/ndtri and the CSV cells of
    `cli._cells`. Replica pools started in the test fork with its backend."""
    if request.param == "python":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    elif not _kernel.load():
        pytest.skip("the C kernel cannot be built here")
    return request.param


def _tail_moment_mp(m, c, power, centre):
    """E[(X - centre)^power; X > c] by mpmath.quad of the density, in a
    variable where the integrand decays fast; power 0 is P(X > c)."""
    if isinstance(m, Truncated):
        base = mpf(m.base)
        return (_tail_moment_mp(m.inner, max(c, base), power, centre)
                / _tail_moment_mp(m.inner, base, 0, 0))
    if isinstance(m, Exponential):
        # x = a + s / rate: the density's own scale, whatever the rate
        a, lam = max(c, 0), mpf(m.rate)
        return mp.exp(-lam * a) * mpmath.quad(
            lambda s: (a + s / lam - centre) ** power * mp.exp(-s),
            [0, power + 1, mp.inf])
    if isinstance(m, Uniform):
        lo, hi = mpf(m.lo), mpf(m.hi)
        return mpmath.quad(lambda x: (x - centre) ** power,
                           [min(max(c, lo), hi), hi]) / (hi - lo)
    if isinstance(m, LogNormal):
        # t = log x, split at mu + power sigma^2, where x^power times the
        # normal density of t peaks
        mu, sig = mpf(m.mu), mpf(m.sigma)
        lo, peak = (mp.log(c) if c > 0 else -mp.inf), mu + power * sig ** 2
        return mpmath.quad(
            lambda t: (mp.exp(t) - centre) ** power
            * mp.exp(-((t - mu) / sig) ** 2 / 2),
            [lo, peak, mp.inf] if lo < peak else [lo, mp.inf],
        ) / (sig * mp.sqrt(2 * mp.pi))
    # Pareto, over t = log x: the density times dx is
    # (alpha - 1) xmin^(alpha - 1) exp((1 - alpha) t) dt
    xmin, alpha = mpf(m.xmin), mpf(m.alpha)
    return (alpha - 1) * xmin ** (alpha - 1) * mpmath.quad(
        lambda t: (mp.exp(t) - centre) ** power * mp.exp((1 - alpha) * t),
        [mp.log(max(c, xmin)), mp.inf])


def tail_moment_reference(m, c, power, centre=0.0):
    """E[(X - centre)^power; X > c] for any price law, as a float from
    25-digit arithmetic, independent of each family's closed form."""
    with mp.workdps(25):
        return float(_tail_moment_mp(m, mpf(c), power, mpf(centre)))


@pytest.fixture(scope="session")
def tail_moment_ref():
    """`tail_moment_reference`, for the tests of the truncated moments."""
    return tail_moment_reference
