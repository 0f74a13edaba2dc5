"""Price-law models: seeded sampling, survival/cdf/quantile, truncated moments.

All sampling is inverse-transform from a reproducible uniform stream, so two
models driven by the same SeedSpec see the same underlying uniforms. That is
what makes the engine's rank-invariance property directly testable.

The pinned generator is Philox4x64-10 keyed through
``numpy.random.SeedSequence(entropy=master_seed, spawn_key=(stream_id,))``.
Philox is counter-based, and both its bit stream and ``Generator.random``'s
uniform-double conversion are stable across platforms and numpy releases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InfiniteMomentError, ModelSpecError

# Conjectured asymptotic never-accepted fraction for the classic selling rule.
E_INV = math.exp(-1.0)

# Smallest uniform fed to quantile functions: a draw of exactly 0.0 would map
# to a non-positive price, which the engine rejects.
_U_FLOOR = 2.0 ** -53


# =====================================================================
# Seeded uniform streams
# =====================================================================

@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    Distinct stream_ids under one master_seed give statistically independent
    streams (SeedSequence spawn keys), so replicas can run concurrently
    without sharing state.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


def uniform_stream(seed: SeedSpec, n: int) -> np.ndarray:
    """n uniforms in [0, 1) from the stream addressed by `seed`."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return seed.generator().random(n)


_BOOT_BLOCK = 64  # resamples per block: bounds the memory a block takes


def _resample_blocks(samples: dict, n_bootstrap: int, seed: int,
                     cut=lambda v: v):
    """`n_bootstrap` bootstrap resamples of every array in `samples`, drawn
    with replacement from SeedSpec(seed), resample after resample and in
    dict order, as dicts of row matrices of at most _BOOT_BLOCK rows each.
    The row kept of a drawn array v is `cut(v)`, taken at once."""
    rng = SeedSpec(seed).generator()
    for start in range(0, n_bootstrap, _BOOT_BLOCK):
        block = min(_BOOT_BLOCK, n_bootstrap - start)
        rows = {}
        for b in range(block):
            for k, v in samples.items():
                row = cut(rng.choice(v, size=len(v), replace=True))
                if b == 0:
                    rows[k] = np.empty((block, *row.shape), row.dtype)
                rows[k][b] = row
        yield rows


# =====================================================================
# Price models
# =====================================================================

class PriceModel:
    """A bid-price law on the positive reals, written on the survival side.

    Subclasses are frozen dataclasses that provide, elementwise and without
    domain checks,

        _sf(x)   survival P(X > x), 1 below the support
        _isf(q)  its inverse: the price whose survival is q, for q in (0, 1]

    and the two truncated moments used by the income theory:

        tail_mean(c)    = integral of x f(x) over [c, inf)
        tail_moment2(c) = integral of x^2 f(x) over [c, inf)

    The public cdf is 1 - _sf. Quantiles and draws come from
    _ppf(u) = _isf(1 - u), unless a family keeps a closed form of its own.
    Survival terms keep full relative precision in the upper tail, where a
    base price truncates; the cdf is exact to absolute rounding only.

    A family's spec is its lower-case class name and its fields in order,
    e.g. ``lognormal:mu=0,sigma=0.3``; `parse_model` reads it back.
    """

    def _sf(self, x):
        raise NotImplementedError

    def _isf(self, q):
        raise NotImplementedError

    def _ppf(self, u):
        """Quantile on arrays of valid probabilities; no domain checks."""
        return self._isf(1.0 - np.asarray(u, dtype=float))

    def cdf(self, x):
        return _scalarize(x, 1.0 - self._sf(np.asarray(x, dtype=float)))

    def tail_mean(self, c: float) -> float:
        raise NotImplementedError

    def tail_moment2(self, c: float) -> float:
        raise NotImplementedError

    def spec_string(self) -> str:
        body = ",".join(f"{f.name}={_spec_number(getattr(self, f.name))}"
                        for f in fields(self))
        return f"{type(self).__name__.lower()}:{body}"


def _scalarize(x, val):
    if np.ndim(x) == 0:
        return float(val)
    return val


def _spec_number(v: float) -> str:
    """Short ``:g`` form when it reads back exactly, else the full repr."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


@dataclass(frozen=True)
class Exponential(PriceModel):
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def _sf(self, x):
        return np.exp(-self.rate * np.maximum(x, 0.0))

    def _isf(self, q):
        return -np.log(q) / self.rate

    def _ppf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def tail_mean(self, c):
        c = max(c, 0.0)
        return (c + 1.0 / self.rate) * math.exp(-self.rate * c)

    def tail_moment2(self, c):
        c = max(c, 0.0)
        lam = self.rate
        return (c * c + 2.0 * c / lam + 2.0 / lam ** 2) * math.exp(-lam * c)


@dataclass(frozen=True)
class LogNormal(PriceModel):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def _sf(self, x):
        with np.errstate(divide="ignore"):  # log(0) = -inf: survival 1
            return ndtr((self.mu - np.log(np.maximum(x, 0.0))) / self.sigma)

    def _isf(self, q):
        return np.exp(self.mu - self.sigma * ndtri(q))

    def _ppf(self, u):
        return np.exp(self.mu + self.sigma * ndtri(np.asarray(u, dtype=float)))

    def tail_mean(self, c):
        m = math.exp(self.mu + 0.5 * self.sigma ** 2)
        if c <= 0:
            return m
        return m * ndtr((self.mu + self.sigma ** 2 - math.log(c)) / self.sigma)

    def tail_moment2(self, c):
        m2 = math.exp(2.0 * self.mu + 2.0 * self.sigma ** 2)
        if c <= 0:
            return m2
        return m2 * ndtr((self.mu + 2.0 * self.sigma ** 2 - math.log(c)) / self.sigma)


@dataclass(frozen=True)
class Uniform(PriceModel):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"lo must be >= 0, got {self.lo}")
        if not self.hi > self.lo:
            raise ValueError(f"hi must be > lo, got hi={self.hi}, lo={self.lo}")

    def _sf(self, x):
        return np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)

    def _isf(self, q):
        return self.hi - (self.hi - self.lo) * q

    def _ppf(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)

    def tail_mean(self, c):
        c = min(max(c, self.lo), self.hi)
        return (self.hi ** 2 - c ** 2) / (2.0 * (self.hi - self.lo))

    def tail_moment2(self, c):
        c = min(max(c, self.lo), self.hi)
        return (self.hi ** 3 - c ** 3) / (3.0 * (self.hi - self.lo))


@dataclass(frozen=True)
class Pareto(PriceModel):
    """Power-law price model with density exponent alpha.

    f(x) = (alpha - 1) xmin^(alpha-1) x^(-alpha) on [xmin, inf), so the
    survival function decays like x^(1-alpha). The mean is finite only for
    alpha > 2 and the second moment only for alpha > 3.
    """

    xmin: float = 1.0
    alpha: float = 2.5

    def __post_init__(self):
        if not self.xmin > 0:
            raise ValueError(f"xmin must be > 0, got {self.xmin}")
        if not self.alpha > 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")

    def _sf(self, x):
        return (self.xmin / np.maximum(x, self.xmin)) ** (self.alpha - 1.0)

    def _isf(self, q):
        return self.xmin * q ** (-1.0 / (self.alpha - 1.0))

    def tail_mean(self, c):
        if self.alpha <= 2:
            raise InfiniteMomentError(
                f"Pareto mean is infinite for alpha <= 2 (alpha={self.alpha})")
        c = max(c, self.xmin)
        a = self.alpha
        return (a - 1.0) / (a - 2.0) * self.xmin ** (a - 1.0) * c ** (2.0 - a)

    def tail_moment2(self, c):
        if self.alpha <= 3:
            raise InfiniteMomentError(
                f"Pareto second moment is infinite for alpha <= 3 (alpha={self.alpha})")
        c = max(c, self.xmin)
        a = self.alpha
        return (a - 1.0) / (a - 3.0) * self.xmin ** (a - 1.0) * c ** (3.0 - a)


@dataclass(frozen=True)
class Truncated(PriceModel):
    """Lower truncation of another law at a base price.

    Models a posted base price: bids below it cannot be offered, so the
    inner law is renormalized on [base_price, inf) by its survival mass
    there. Working on the survival side keeps far-tail bases exact.
    """

    base_price: float
    inner: PriceModel

    def __post_init__(self):
        if not self.base_price > 0:
            raise ValueError(f"base_price must be > 0, got {self.base_price}")
        # _isf hands the innermost law q times every enclosing mass; at the
        # smallest q a draw can have, that product must stay a normal double
        q, law = _U_FLOOR, self
        while isinstance(law, Truncated):
            q, law = q * law._mass(), law.inner
        if not q >= np.finfo(float).tiny:
            raise ValueError(
                f"base_price={self.base_price} leaves too little probability "
                "mass above it for double-precision draws")

    def _mass(self) -> float:
        return float(self.inner._sf(self.base_price))

    def _sf(self, x):
        return self.inner._sf(np.maximum(x, self.base_price)) / self._mass()

    def _isf(self, q):
        # the clamp absorbs the inner inverse landing an ulp below the base
        return np.maximum(self.inner._isf(q * self._mass()), self.base_price)

    def tail_mean(self, c):
        return self.inner.tail_mean(max(c, self.base_price)) / self._mass()

    def tail_moment2(self, c):
        return self.inner.tail_moment2(max(c, self.base_price)) / self._mass()

    def spec_string(self):
        return (f"truncated:base={_spec_number(self.base_price)},"
                f"inner={self.inner.spec_string()}")


# =====================================================================
# Operations
# =====================================================================

def sample(model: PriceModel, seed: SeedSpec, n: int) -> np.ndarray:
    """n i.i.d. draws by inverse transform of the stream's uniforms.

    A uniform of exactly 0.0 is nudged to 2^-53 so every price is strictly
    positive; this preserves ranks and determinism.
    """
    u = uniform_stream(seed, n)
    np.maximum(u, _U_FLOOR, out=u)
    return model._ppf(u)


def quantile(model: PriceModel, p):
    """Smallest x with cdf(x) >= p, for p in [0, 1)."""
    pa = np.asarray(p, dtype=float)
    if np.any(pa < 0) or np.any(pa >= 1):
        raise ValueError(f"quantile level must be in [0, 1), got {p}")
    return _scalarize(p, model._ppf(pa))


def critical_price(model: PriceModel, pc: float = E_INV) -> float:
    """Threshold x_c with cdf(x_c) = pc.

    Bids above x_c are asymptotically the ones that sell under the classic
    rule; pc defaults to the conjectured 1/e.
    """
    if not 0 < pc < 1:
        raise ValueError(f"pc must be in (0, 1), got {pc}")
    return float(quantile(model, pc))


def tail_moment_quad(model: PriceModel, c: float, power: int = 1) -> float:
    """Quadrature route for the truncated moments.

    Integrates quantile(u)^power du on [cdf(c), 1): the substitution
    u = F(x) turns a heavy tail in x into an endpoint singularity in u that
    adaptive Gauss-Kronrod handles well. Serves as an independent
    cross-check of the closed forms, and as the fallback for models
    without one.
    """
    u0 = float(model.cdf(c))
    if u0 >= 1.0:
        return 0.0

    def integrand(u):
        return float(model._ppf(u)) ** power

    from scipy import integrate  # here, so importing the package skips it

    with warnings.catch_warnings():
        # near machine precision QUADPACK reports roundoff in its
        # extrapolation table; the returned value is still well inside the
        # 1e-9 relative target
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _err = integrate.quad(integrand, u0, 1.0, epsabs=0.0,
                                   epsrel=1e-10, limit=400)
    return val


# =====================================================================
# Textual model specifiers
# =====================================================================

_FAMILIES = {
    cls.__name__.lower(): (cls, tuple(f.name for f in fields(cls)))
    for cls in (Exponential, LogNormal, Uniform, Pareto)
}


def parse_model(text: str) -> PriceModel:
    """Parse specifiers like ``lognormal:mu=0,sigma=0.3`` or
    ``truncated:base=1.0,inner=exponential:rate=1``.

    For ``truncated`` the ``inner=`` field must come last; it consumes the
    rest of the string, so inner specs can nest.
    """
    text = text.strip()
    family, _, rest = text.partition(":")
    family = family.strip().lower()

    if family == "truncated":
        idx = rest.find("inner=")
        if idx < 0:
            raise ModelSpecError("truncated: missing field 'inner'")
        head = rest[:idx].rstrip(", ")
        inner = parse_model(rest[idx + len("inner="):])
        fields = _parse_fields("truncated", head, ("base",))
        if "base" not in fields:
            raise ModelSpecError("truncated: missing field 'base'")
        try:
            return Truncated(base_price=fields["base"], inner=inner)
        except ValueError as e:
            raise ModelSpecError(f"truncated: {e}") from e

    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES) + ["truncated"])
        raise ModelSpecError(f"unknown model family '{family}' (expected one of: {known})")

    cls, names = _FAMILIES[family]
    fields = _parse_fields(family, rest, names)
    missing = [k for k in names if k not in fields]
    if missing:
        raise ModelSpecError(f"{family}: missing field '{missing[0]}'")
    try:
        return cls(**fields)
    except ValueError as e:
        raise ModelSpecError(f"{family}: {e}") from e


def _parse_fields(family: str, text: str, allowed: tuple[str, ...]) -> dict[str, float]:
    fields: dict[str, float] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise ModelSpecError(f"{family}: expected 'field=value', got '{part}'")
        if key not in allowed:
            raise ModelSpecError(f"{family}: unexpected field '{key}'")
        if key in fields:
            raise ModelSpecError(f"{family}: duplicate field '{key}'")
        try:
            fields[key] = float(value)
        except ValueError:
            raise ModelSpecError(f"{family}: bad value for '{key}': '{value.strip()}'") from None
    return fields
