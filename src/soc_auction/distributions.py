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
from dataclasses import dataclass, fields

import numpy as np

from . import _kernel
from .errors import InfiniteMomentError, ModelSpecError

# Conjectured asymptotic never-accepted fraction for the classic selling rule.
E_INV = math.exp(-1.0)

# Smallest uniform fed to quantile functions: a draw of exactly 0.0 would map
# to a non-positive price, which the engine rejects.
_U_FLOOR = 2.0 ** -53


def _normal(name: str, x):
    """scipy.special's `name` (ndtr or ndtri) of x: from the C kernel's
    Cephes port, bit for bit, when it loads, else from scipy, imported here
    at first use. Keeps the shape of x; a 0-d x gives an np.float64."""
    kernel = _kernel.load()
    if not kernel:
        import scipy.special
        return getattr(scipy.special, name)(x)
    arr = np.asarray(x, dtype=np.float64, order="C")
    out = np.empty_like(arr)
    getattr(kernel, name)(arr.ctypes.data, out.ctypes.data, arr.size)
    return out[()]


def _ndtr(x):
    """The standard normal cdf."""
    return _normal("ndtr", x)


def _ndtri(p):
    """The standard normal quantile."""
    return _normal("ndtri", p)


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

    def __post_init__(self):
        if min(self.master_seed, self.stream_id) < 0:
            raise ValueError(f"seeds must be >= 0, got master_seed={self.master_seed}, "
                             f"stream_id={self.stream_id}")

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
    The row kept of a drawn array v is `cut(v)`, taken at once. Each draw
    indexes v as `Generator.choice(v, len(v))` does, with the same stream."""
    rng = SeedSpec(seed).generator()
    for start in range(0, n_bootstrap, _BOOT_BLOCK):
        block = min(_BOOT_BLOCK, n_bootstrap - start)
        rows = {}
        for b in range(block):
            for k, v in samples.items():
                row = cut(v[rng.integers(0, len(v), size=len(v))])
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

    and the truncated moment used by the income theory (power 1 gives the
    income per bid, power 2 its variance):

        tail_moment(c, power) = integral of x^power f(x) over [c, inf)

    The public cdf is 1 - _sf. Quantiles and draws come from
    _ppf(u) = _isf(1 - u), unless a family keeps a closed form of its own.
    Survival terms keep full relative precision in the upper tail, where a
    base price truncates; the cdf is exact to absolute rounding only.

    A family's spec is its lower-case class name and its fields in order,
    e.g. ``lognormal:mu=0,sigma=0.3``, with a law-valued field written as
    that law's own spec; `parse_model` reads it back.
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

    def tail_moment(self, c: float, power: int) -> float:
        raise NotImplementedError

    def _check_draws(self):
        """Refuse a law whose draws leave the finite positive doubles: the
        quantiles at the smallest and largest uniforms a draw can see must
        both be finite and > 0. Each family calls it last in __post_init__."""
        with np.errstate(all="ignore"):
            ends = self._ppf(np.array([_U_FLOOR, 1.0 - 2.0 ** -53]))
        if not (np.isfinite(ends).all() and (ends > 0).all()):
            lo, hi = map(float, ends)
            raise ValueError(f"draws leave the finite positive doubles: "
                             f"quantile(2^-53) = {lo!r}, quantile(1 - 2^-53) = {hi!r}")

    def spec_string(self) -> str:
        body = ",".join(f"{f.name}={_spec_value(getattr(self, f.name))}"
                        for f in fields(self))
        return f"{type(self).__name__.lower()}:{body}"


def _scalarize(x, val):
    if np.ndim(x) == 0:
        return float(val)
    return val


def _spec_value(v) -> str:
    """A law as its own spec; a number in its short ``:g`` form when that
    reads back exactly, else its full repr."""
    if isinstance(v, PriceModel):
        return v.spec_string()
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


@dataclass(frozen=True)
class Exponential(PriceModel):
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        self._check_draws()

    def _sf(self, x):
        return np.exp(-self.rate * np.maximum(x, 0.0))

    def _isf(self, q):
        return -np.log(q) / self.rate

    def _ppf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def tail_moment(self, c, power):
        # e^(-lam c) sum_j power!/j! c^j / lam^(power-j), from j = power down.
        # c^j is a product, not c ** j: libm's pow(c, 2) is not always c * c
        c = max(c, 0.0)
        lam = self.rate
        total = 0.0
        for j in range(power, -1, -1):
            coef = math.factorial(power) // math.factorial(j)
            total += coef * math.prod([c] * j) / lam ** (power - j)
        return total * math.exp(-lam * c)


@dataclass(frozen=True)
class LogNormal(PriceModel):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        self._check_draws()

    def _sf(self, x):
        with np.errstate(divide="ignore"):  # log(0) = -inf: survival 1
            return _ndtr((self.mu - np.log(np.maximum(x, 0.0))) / self.sigma)

    def _isf(self, q):
        return np.exp(self.mu - self.sigma * _ndtri(q))

    def _ppf(self, u):
        return np.exp(self.mu + self.sigma * _ndtri(np.asarray(u, dtype=float)))

    def tail_moment(self, c, power):
        s2 = power * self.sigma ** 2
        m = math.exp(power * self.mu + 0.5 * power * s2)
        if c <= 0:
            return m
        return m * _ndtr((self.mu + s2 - math.log(c)) / self.sigma)


@dataclass(frozen=True)
class Uniform(PriceModel):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"lo must be >= 0, got {self.lo}")
        if not self.hi > self.lo:
            raise ValueError(f"hi must be > lo, got hi={self.hi}, lo={self.lo}")
        self._check_draws()

    def _sf(self, x):
        return np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)

    def _isf(self, q):
        return self.hi - (self.hi - self.lo) * q

    def _ppf(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)

    def tail_moment(self, c, power):
        c = min(max(c, self.lo), self.hi)
        k = power + 1
        return (self.hi ** k - c ** k) / (k * (self.hi - self.lo))


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
        self._check_draws()

    def _sf(self, x):
        return (self.xmin / np.maximum(x, self.xmin)) ** (self.alpha - 1.0)

    def _isf(self, q):
        return self.xmin * q ** (-1.0 / (self.alpha - 1.0))

    def tail_moment(self, c, power):
        if self.alpha <= power + 1:
            raise InfiniteMomentError(
                f"Pareto moment {power} is infinite for alpha <= {power + 1} "
                f"(alpha={self.alpha})")
        c = max(c, self.xmin)
        a, k = self.alpha, power + 1.0
        return (a - 1.0) / (a - k) * self.xmin ** (a - 1.0) * c ** (k - a)


@dataclass(frozen=True)
class Truncated(PriceModel):
    """Lower truncation of another law at a base price.

    Models a posted base price: bids below it cannot be offered, so the
    inner law is renormalized on [base, inf) by its survival mass
    there. Working on the survival side keeps far-tail bases exact.
    """

    base: float
    inner: PriceModel

    def __post_init__(self):
        if not self.base > 0:
            raise ValueError(f"base must be > 0, got {self.base}")
        # _isf hands the innermost law q times every enclosing mass; at the
        # smallest q a draw can have, that product must stay a normal double
        q, law = _U_FLOOR, self
        while isinstance(law, Truncated):
            q, law = q * law._mass(), law.inner
        if not q >= np.finfo(float).tiny:
            raise ValueError(
                f"base={self.base} leaves too little probability "
                "mass above it for double-precision draws")
        self._check_draws()

    def _mass(self) -> float:
        return float(self.inner._sf(self.base))

    def _sf(self, x):
        return self.inner._sf(np.maximum(x, self.base)) / self._mass()

    def _isf(self, q):
        # the clamp absorbs the inner inverse landing an ulp below the base
        return np.maximum(self.inner._isf(q * self._mass()), self.base)

    def tail_moment(self, c, power):
        return self.inner.tail_moment(max(c, self.base), power) / self._mass()


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
    if not np.all((pa >= 0) & (pa < 1)):
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


# =====================================================================
# Textual model specifiers
# =====================================================================

_FAMILIES = {cls.__name__.lower(): cls
             for cls in (Exponential, LogNormal, Uniform, Pareto, Truncated)}


def parse_model(text: str) -> PriceModel:
    """Parse specifiers like ``lognormal:mu=0,sigma=0.3`` or
    ``truncated:base=1.0,inner=exponential:rate=1``.

    A law-valued field (``inner=``) must come last; it consumes the rest of
    the string, so specs can nest.
    """
    family, _, rest = text.strip().partition(":")
    family = family.strip().lower()
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ModelSpecError(f"unknown model family '{family}' (expected one of: {known})")

    cls = _FAMILIES[family]
    names = [f.name for f in fields(cls)]
    values = {}
    if "inner" in names:
        rest, sep, inner = rest.partition("inner=")
        if sep:
            values["inner"] = parse_model(inner)
    values.update(_parse_fields(family, rest, [k for k in names if k != "inner"]))
    missing = [k for k in names if k not in values]
    if missing:
        raise ModelSpecError(f"{family}: missing field '{missing[0]}'")
    try:
        return cls(**values)
    except ValueError as e:
        raise ModelSpecError(f"{family}: {e}") from e


def _parse_fields(family: str, text: str, allowed: list[str]) -> dict[str, float]:
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
