"""Price-model tests: quantile/cdf consistency, truncated moments against
a high-precision mpmath reference and elementary integrals, seeded
sampling, spec parsing, and the kernel's normal cdf and quantile against
scipy's."""

import dataclasses
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import soc_auction
from soc_auction import (E_INV, Exponential, InfiniteMomentError, LogNormal,
                         ModelSpecError, Pareto, SeedSpec, Truncated, Uniform,
                         _kernel, critical_price, ks_critical_value,
                         ks_statistic, parse_model, quantile, sample,
                         theory_summary, uniform_stream)
from soc_auction.distributions import _ndtr, _ndtri, _resample_blocks

from conftest import needs_kernel

ALL_MODELS = [
    Exponential(1.0),
    Exponential(0.4),
    LogNormal(0.0, 0.3),
    LogNormal(1.0, 1.0),
    Uniform(0.0, 1.0),
    Uniform(0.5, 4.0),
    Pareto(1.0, 2.5),
    Pareto(2.0, 4.5),
    Truncated(1.0, Exponential(1.0)),
    Truncated(1.0, LogNormal(0.0, 0.3)),
    Truncated(2.0, Truncated(1.0, Exponential(0.7))),
    LogNormal(0.123456789, 0.3),
    Truncated(1.23456789, Exponential(1.0)),
]


def bisect_quantile(model, p, lo=1e-12, hi=1e9, iters=200):
    """Independent quantile oracle: bisection on the cdf."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# =====================================================================
# quantile / cdf
# =====================================================================

@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_quantile_cdf_round_trip(model):
    ps = np.linspace(0.0, 0.999, 1000)
    xs = quantile(model, ps)
    back = np.asarray(model.cdf(xs))
    assert np.max(np.abs(back - ps)) <= 1e-12


def test_quantile_domain_errors():
    m = Uniform(0, 1)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            quantile(m, bad)
    with pytest.raises(ValueError):
        quantile(m, np.array([0.2, 1.0]))


def test_quantile_scalar_and_array():
    m = Exponential(1.0)
    v = quantile(m, 0.5)
    assert isinstance(v, float)
    arr = quantile(m, np.array([0.1, 0.5]))
    assert arr.shape == (2,)


def test_uniform_quantile_is_identity():
    assert quantile(Uniform(0, 1), E_INV) == pytest.approx(E_INV, abs=1e-15)


def test_lognormal_critical_price_reference_value():
    xc = critical_price(LogNormal(0, 0.3), E_INV)
    assert xc == pytest.approx(0.90371, abs=1e-5)


def test_exponential_critical_price_closed_form_and_bisection():
    m = Exponential(1.0)
    xc = critical_price(m, E_INV)
    closed = -math.log(1.0 - E_INV)
    assert xc == pytest.approx(closed, rel=1e-12)
    assert xc == pytest.approx(0.4586751, abs=1e-7)
    assert xc == pytest.approx(bisect_quantile(m, E_INV, hi=50.0), rel=1e-9)


def test_critical_price_domain():
    with pytest.raises(ValueError):
        critical_price(Uniform(0, 1), 0.0)
    with pytest.raises(ValueError):
        critical_price(Uniform(0, 1), 1.0)


def test_truncated_critical_price_at_least_base():
    m = LogNormal(0, 0.3)
    base = 2.0 * critical_price(m, E_INV)
    t = Truncated(base, m)
    assert critical_price(t, E_INV) >= base


@pytest.mark.parametrize("inner", [m for m in ALL_MODELS if not isinstance(m, Truncated)],
                         ids=lambda m: m.spec_string())
def test_truncated_small_quantiles_at_least_base(inner):
    # bases from the body of the inner law out to far in its upper tail
    levels = np.concatenate([np.linspace(0.001, 0.999, 400),
                             1.0 - np.geomspace(1e-3, 1e-13, 200)])
    bases = np.unique(quantile(inner, levels))
    bases = bases[bases > 0]
    lows = np.array([quantile(Truncated(float(b), inner), [0.0, 1e-12, 1e-6])
                     for b in bases])
    assert (lows >= bases[:, None]).all()


# =====================================================================
# truncated moments
# =====================================================================

def test_lognormal_tail_mean_reference_value():
    m = LogNormal(0, 0.3)
    xc = critical_price(m, E_INV)
    assert m.tail_moment(xc, 1) == pytest.approx(0.7720651, abs=1e-5)


def test_exponential_tail_mean_closed_form(tail_moment_ref):
    m = Exponential(1.0)
    xc = -math.log(1.0 - E_INV)
    expected = (xc + 1.0) * math.exp(-xc)
    assert m.tail_moment(xc, 1) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.9220585, abs=1e-6)
    assert m.tail_moment(xc, 1) == pytest.approx(tail_moment_ref(m, xc, 1), rel=1e-14)


def test_uniform_tail_moments_elementary(tail_moment_ref):
    m = Uniform(0, 1)
    c = E_INV
    assert m.tail_moment(c, 1) == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-12)
    assert m.tail_moment(c, 1) == pytest.approx(0.4323324, abs=1e-7)
    assert m.tail_moment(c, 2) == pytest.approx((1 - math.exp(-3)) / 3, rel=1e-12)
    assert m.tail_moment(c, 2) == pytest.approx(tail_moment_ref(m, c, 2), rel=1e-14)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_tail_mean_at_zero_is_mean(model, tail_moment_ref):
    assert model.tail_moment(0.0, 1) == pytest.approx(
        tail_moment_ref(model, 0.0, 1), rel=1e-14)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_tail_mean_non_increasing(model):
    cs = np.linspace(quantile(model, 0.0), quantile(model, 0.99), 25)
    vals = [model.tail_moment(float(c), 1) for c in cs]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_closed_forms_match_quadrature_on_random_parameters(tail_moment_ref):
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        kind = checked % 5
        if kind == 0:
            m = Exponential(rate=float(rng.uniform(0.2, 3.0)))
        elif kind == 1:
            m = LogNormal(mu=float(rng.uniform(-1, 1)), sigma=float(rng.uniform(0.1, 1.2)))
        elif kind == 2:
            m = Uniform(lo=float(rng.uniform(0, 1)), hi=float(rng.uniform(1.5, 5)))
        elif kind == 3:
            m = Pareto(xmin=float(rng.uniform(0.5, 2)), alpha=float(rng.uniform(3.2, 6)))
        else:
            m = Truncated(float(rng.uniform(0.5, 1.5)), Exponential(float(rng.uniform(0.3, 2))))
        c = float(quantile(m, float(rng.uniform(0.05, 0.9))))
        for power in (1, 2):
            assert m.tail_moment(c, power) == pytest.approx(
                tail_moment_ref(m, c, power), rel=1e-14)
        checked += 1


def two_method_closed_form(m, c, power):
    """Reference: the truncated moments as separate first- and second-moment
    formulas per family, operation for operation."""
    if isinstance(m, Truncated):
        return two_method_closed_form(m.inner, max(c, m.base), power) / m._mass()
    if isinstance(m, Exponential):
        c, lam = max(c, 0.0), m.rate
        if power == 1:
            return (c + 1.0 / lam) * math.exp(-lam * c)
        return (c * c + 2.0 * c / lam + 2.0 / lam ** 2) * math.exp(-lam * c)
    if isinstance(m, LogNormal):
        if power == 1:
            mom, shift = math.exp(m.mu + 0.5 * m.sigma ** 2), m.sigma ** 2
        else:
            mom, shift = math.exp(2.0 * m.mu + 2.0 * m.sigma ** 2), 2.0 * m.sigma ** 2
        if c <= 0:
            return mom
        return mom * ndtr((m.mu + shift - math.log(c)) / m.sigma)
    if isinstance(m, Uniform):
        c = min(max(c, m.lo), m.hi)
        if power == 1:
            return (m.hi ** 2 - c ** 2) / (2.0 * (m.hi - m.lo))
        return (m.hi ** 3 - c ** 3) / (3.0 * (m.hi - m.lo))
    a = m.alpha
    if a <= power + 1:
        raise InfiniteMomentError
    c = max(c, m.xmin)
    if power == 1:
        return (a - 1.0) / (a - 2.0) * m.xmin ** (a - 1.0) * c ** (2.0 - a)
    return (a - 1.0) / (a - 3.0) * m.xmin ** (a - 1.0) * c ** (3.0 - a)


def outcome(f, *args):
    """The exact bits of f(*args), or the type of the error it raised."""
    try:
        return float.hex(f(*args))
    except (ArithmeticError, InfiniteMomentError) as e:
        return type(e).__name__


_pos = dict(allow_nan=False, allow_infinity=False)
_laws = st.one_of(
    st.builds(Exponential, st.floats(1e-300, 1e300, **_pos)),
    st.builds(LogNormal, st.floats(-50, 50, **_pos), st.floats(1e-3, 5, **_pos)),
    st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(0, 100, **_pos),
              st.floats(1e-3, 100, **_pos)),
    st.builds(Pareto, st.floats(1e-2, 1e2, **_pos), st.floats(1.1, 10, **_pos)),
)
_truncated = st.builds(Truncated, st.floats(1e-2, 5, **_pos),
                       st.one_of(st.builds(Exponential, st.floats(0.1, 5)),
                                 st.builds(LogNormal, st.floats(-1, 1),
                                           st.floats(0.1, 1.5))))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(m=st.one_of(_laws, _truncated),
       c=st.one_of(st.just(0.0), st.floats(-10, 1e3, **_pos)),
       power=st.sampled_from([1, 2]))
@example(m=Exponential(1.0), c=E_INV, power=2)
@example(m=Exponential(1.0), c=10.142426998871324, power=2)  # c ** 2 != c * c
@example(m=Uniform(2.0, 3.0), c=1.0, power=2)       # below the support
@example(m=Pareto(2.0, 3.5), c=0.5, power=2)        # below the support
@example(m=LogNormal(0.0, 0.3), c=-1.0, power=1)    # below the support
@example(m=Pareto(1.0, 2.5), c=2.0, power=2)        # diverges
@example(m=Exponential(1e-300), c=1.0, power=2)     # 2 / lam^2 underflows
@example(m=Exponential(1e300), c=1.0, power=2)      # lam^2 overflows
def test_tail_moment_is_bit_identical_to_two_method_closed_forms(m, c, power):
    assert outcome(m.tail_moment, c, power) == outcome(
        two_method_closed_form, m, c, power)


@pytest.mark.parametrize("power", [1, 2])
def test_pareto_moment_diverges_through_alpha_power_plus_one(power):
    with pytest.raises(InfiniteMomentError):
        Pareto(1.0, power + 1.0).tail_moment(2.0, power)
    just_above = math.nextafter(power + 1.0, math.inf)
    assert math.isfinite(Pareto(1.0, just_above).tail_moment(2.0, power))


def test_pareto_infinite_moments():
    with pytest.raises(InfiniteMomentError):
        Pareto(1.0, 1.5).tail_moment(2.0, 1)
    with pytest.raises(InfiniteMomentError):
        Pareto(1.0, 2.5).tail_moment(2.0, 2)
    # a finite-mean heavy tail still integrates
    assert Pareto(1.0, 2.5).tail_moment(2.0, 1) > 0
    with pytest.raises(InfiniteMomentError):
        Truncated(2.0, Pareto(1.0, 1.5)).tail_moment(0.0, 1)


@pytest.mark.parametrize("spec", [
    "exponential:rate=1e-310", "lognormal:mu=800,sigma=1",
    "pareto:xmin=1e300,alpha=1.001", "uniform:lo=0,hi=inf",
    "truncated:base=1e250,inner=pareto:xmin=1,alpha=1.2",
    "exponential:rate=1e308",  # the smallest draws round to 0
])
def test_law_whose_draws_leave_the_doubles_is_refused(spec):
    # a quantile at 2^-53 or 1 - 2^-53 overflows to inf or underflows to 0
    with pytest.raises(ModelSpecError, match="finite positive doubles"):
        parse_model(spec)


def test_pareto_density_exponent_convention():
    # survival decays with exponent alpha-1
    m = Pareto(1.0, 2.5)
    x = 10.0
    assert 1.0 - m.cdf(x) == pytest.approx(x ** -1.5, rel=1e-12)
    assert m.tail_moment(0.0, 1) == pytest.approx(1.5 / 0.5, rel=1e-12)


# =====================================================================
# sampling
# =====================================================================

def test_sampling_determinism_bit_identical():
    m = LogNormal(0, 0.3)
    a = sample(m, SeedSpec(42, 3), 5000)
    b = sample(m, SeedSpec(42, 3), 5000)
    assert np.array_equal(a, b)
    c = sample(m, SeedSpec(42, 4), 5000)
    assert not np.array_equal(a, c)


def test_uniform_stream_matches_sample_transform():
    m = Exponential(2.0)
    u = uniform_stream(SeedSpec(5, 1), 1000)
    drawn = sample(m, SeedSpec(5, 1), 1000)
    assert np.allclose(drawn, quantile(m, u), rtol=0, atol=0)


@pytest.mark.parametrize("seed", [(-1, 0), (0, -1)])
def test_negative_seed_is_refused_at_construction(seed):
    with pytest.raises(ValueError, match="seeds must be >= 0, got "
                       f"master_seed={seed[0]}, stream_id={seed[1]}"):
        SeedSpec(*seed)


def test_sample_support_and_positivity():
    xs = sample(Uniform(0, 1), SeedSpec(1, 0), 3)
    assert ((xs > 0) & (xs < 1)).all()
    assert len(sample(Uniform(0, 1), SeedSpec(1, 0), 0)) == 0


@pytest.mark.parametrize("base, inner", [(1.0, Exponential(1.0)),
                                         (8.0, LogNormal(0.0, 0.3)),
                                         (9.0, LogNormal(0.0, 0.3)),
                                         (40.0, Exponential(1.0))],
                         ids=["exp-base1", "lognormal-base8", "lognormal-base9",
                              "exp-base40"])
def test_truncated_draws_finite_at_least_base_and_distinct(base, inner):
    # bases far in the inner law's upper tail, where almost no mass is left
    xs = sample(Truncated(base, inner), SeedSpec(1, 0), 100_000)
    assert np.isfinite(xs).all()
    assert (xs >= base).all()
    assert len(np.unique(xs)) == len(xs)


@pytest.mark.parametrize("base, inner", [
    (708.0, Exponential(1.0)),  # mass normal, mass * 2^-53 not
    (740.0, Exponential(1.0)),  # mass itself subnormal
    (700.0, Truncated(650.0, Exponential(1.0))),  # outer mass alone is fine
], ids=["exp-base708", "exp-base740", "nested-exp-base700"])
def test_truncation_mass_too_small_for_the_sampler_is_rejected(base, inner):
    # the sampler's smallest survival level 2^-53, scaled by every enclosing
    # mass, must stay a normal double, or the far quantiles lose their digits
    with pytest.raises(ValueError, match="mass"):
        Truncated(base, inner)


def test_truncation_far_in_the_tail_keeps_exact_quantiles():
    t = Truncated(660.0, Exponential(1.0))
    assert float(quantile(t, 1 - 2.0 ** -53)) == pytest.approx(
        660.0 + 53 * math.log(2.0), rel=0, abs=1e-12)


def test_truncated_exponential_far_tail_is_memoryless():
    t = Truncated(40.0, Exponential(1.0))
    assert t.tail_moment(0.0, 1) == pytest.approx(41.0, rel=1e-12)
    assert t.tail_moment(0.0, 2) == pytest.approx(40.0 ** 2 + 2 * 40.0 + 2, rel=1e-12)


def test_lognormal_sample_mean_against_closed_form():
    m = LogNormal(0, 0.3)
    n = 1_000_000
    xs = sample(m, SeedSpec(2024, 0), n)
    true_mean = math.exp(0.045)
    true_sd = math.sqrt((math.exp(0.09) - 1) * math.exp(0.09))
    se = true_sd / math.sqrt(n)
    assert abs(xs.mean() - true_mean) < 3 * se


def test_truncated_sampling_ks_below_critical():
    t = Truncated(1.0, Exponential(1.0))
    xs = sample(t, SeedSpec(77, 0), 100_000)
    stat = ks_statistic(xs, t.cdf)
    assert stat < ks_critical_value(len(xs), 0.01)


# =====================================================================
# model construction and parsing
# =====================================================================

def test_constructor_validation():
    with pytest.raises(ValueError, match="rate"):
        Exponential(0.0)
    with pytest.raises(ValueError, match="sigma"):
        LogNormal(0, -0.3)
    with pytest.raises(ValueError, match="hi"):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError, match="lo"):
        Uniform(-1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        Pareto(1.0, 1.0)
    with pytest.raises(ValueError, match="xmin"):
        Pareto(0.0, 2.5)
    with pytest.raises(ValueError, match="base"):
        Truncated(0.0, Exponential(1.0))
    with pytest.raises(ValueError, match="mass"):
        Truncated(2.0, Uniform(0.0, 1.0))


def test_parse_model_families():
    assert parse_model("exponential:rate=1.0") == Exponential(1.0)
    assert parse_model("lognormal:mu=0,sigma=0.3") == LogNormal(0.0, 0.3)
    assert parse_model("uniform:lo=0,hi=1") == Uniform(0.0, 1.0)
    assert parse_model("pareto:xmin=1,alpha=2.5") == Pareto(1.0, 2.5)
    t = parse_model("truncated:base=1.0,inner=lognormal:mu=0,sigma=0.3")
    assert t == Truncated(1.0, LogNormal(0.0, 0.3))


def test_parse_model_nested_truncation():
    t = parse_model("truncated:base=2.0,inner=truncated:base=1.0,inner=exponential:rate=0.7")
    assert t == Truncated(2.0, Truncated(1.0, Exponential(0.7)))
    assert parse_model(t.spec_string()) == t


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.spec_string())
def test_spec_string_round_trip(model):
    assert parse_model(model.spec_string()) == model


# short values read back from their ``:g`` form, the rest need a full repr
_spec_numbers = st.one_of(st.integers(-3, 3).map(lambda k: 10.0 ** k),
                          st.floats(0.01, 10, allow_nan=False, allow_infinity=False))


@st.composite
def _spec_laws(draw, depth=0):
    """Any family, truncations nested up to depth 3; laws a constructor
    refuses are skipped."""
    families = [Exponential, LogNormal, Uniform, Pareto] + [Truncated] * (depth < 3)
    cls = draw(st.sampled_from(families))
    if cls is Truncated:
        args = (draw(_spec_numbers), draw(_spec_laws(depth + 1)))
    else:
        args = [draw(_spec_numbers) for _ in range(2 - (cls is Exponential))]
    try:
        return cls(*args)
    except ValueError:
        assume(False)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(m=_spec_laws())
@example(m=Truncated(0.1 + 0.2, Truncated(1e-3, Truncated(2.0, LogNormal(-1 / 3, 0.3)))))
def test_spec_string_and_parse_model_are_inverse(m):
    s = m.spec_string()
    assert parse_model(s) == m
    assert parse_model(s).spec_string() == s


def test_parse_model_errors_name_the_field():
    with pytest.raises(ModelSpecError, match="'weibull' .expected one of: exponential, "
                       "lognormal, pareto, truncated, uniform.$"):
        parse_model("weibull:k=2")
    with pytest.raises(ModelSpecError, match="sigma"):
        parse_model("lognormal:mu=0")
    with pytest.raises(ModelSpecError, match="sigma"):
        parse_model("lognormal:mu=0,sigma=abc")
    with pytest.raises(ModelSpecError, match="foo"):
        parse_model("uniform:lo=0,hi=1,foo=2")
    with pytest.raises(ModelSpecError, match="rate"):
        parse_model("exponential:rate=1,rate=2")
    with pytest.raises(ModelSpecError, match="inner"):
        parse_model("truncated:base=1.0")
    with pytest.raises(ModelSpecError, match="base"):
        parse_model("truncated:inner=exponential:rate=1")
    with pytest.raises(ModelSpecError, match="rate"):
        parse_model("exponential:rate=-2")
    with pytest.raises(ModelSpecError, match="field=value"):
        parse_model("exponential:rate")


def test_models_are_immutable_and_hashable():
    m = LogNormal(0, 0.3)
    with pytest.raises(Exception):
        m.sigma = 0.5
    assert hash(m) == hash(LogNormal(0, 0.3))


def test_package_import_leaves_quadrature_unloaded():
    # the package integrates nothing: every truncated moment is a closed form
    code = ("import sys, soc_auction; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry makes the star import itself fail
    namespace = {}
    exec("from soc_auction import *", namespace)
    assert set(soc_auction.__all__) <= namespace.keys()


# =====================================================================
# the normal cdf and quantile: the kernel's Cephes port against scipy
# =====================================================================

def _with_neighbours(values):
    return [w for v in values for w in (np.nextafter(v, -np.inf), v,
                                        np.nextafter(v, np.inf))]


# every branch edge of Cephes ndtri, erf, erfc and ndtr, and either side
_NDTRI_EDGES = [0.0, 1.0, 2.0 ** -53, 2.0 ** -1074, math.inf, -math.inf,
                math.nan, -1.0, 2.0,
                *_with_neighbours([0.5, math.exp(-2), 1 - math.exp(-2),
                                   math.exp(-32), 1 - 2.0 ** -53])]
_NDTR_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan,
               *_with_neighbours([s * k * r for s in (1, -1) for k in (1, 8)
                                  for r in (math.sqrt(0.5), math.sqrt(2))]),
               *_with_neighbours([1.0, -1.0, math.sqrt(2 * 709.782712893384),
                                  -math.sqrt(2 * 709.782712893384)]),
               *np.linspace(-39.5, -37.0, 51), *np.linspace(37.0, 39.5, 51)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(0, 300),
       dtype=st.sampled_from([np.float64, np.int64]),
       n_bootstrap=st.integers(1, 3))
def test_resamples_are_generator_choice_draws(seed, n, dtype, n_bootstrap):
    # each resample indexes v with Generator.integers; Generator.choice on a
    # twin generator draws the same values from the same stream
    v = (np.arange(n, dtype=dtype) * 3 - n) // 2  # distinct values
    twin = SeedSpec(seed).generator()
    [rows] = _resample_blocks({"v": v}, n_bootstrap, seed)
    assert rows["v"].dtype == v.dtype
    assert rows["v"].shape == (n_bootstrap, n)
    for row in rows["v"]:
        assert np.array_equal(row, twin.choice(v, size=n, replace=True))


def _hex_bits(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values).ravel()]


def _assert_scipy_bits(name, values):
    values = np.array(values, dtype=float)
    ours = {"ndtr": _ndtr, "ndtri": _ndtri}[name](values)
    assert _hex_bits(ours) == _hex_bits(getattr(scipy.special, name)(values))


@needs_kernel
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(0.0, 1.0),
    st.floats(),
    st.integers(0, 0x3FF0000000000000).map(  # bit patterns over [0, 1]
        lambda bits: float(np.int64(bits).view(np.float64)))), max_size=50))
@example(values=_NDTRI_EDGES)
def test_kernel_ndtri_is_scipy_bit_for_bit(values):
    _assert_scipy_bits("ndtri", values)


@needs_kernel
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(-40.0, 40.0), st.floats()),
                       max_size=50))
@example(values=_NDTR_EDGES)
def test_kernel_ndtr_is_scipy_bit_for_bit(values):
    _assert_scipy_bits("ndtr", values)


def test_normal_functions_keep_the_shape_on_both_backends(backend):
    assert type(_ndtr(0.25)) is np.float64
    assert type(_ndtri(np.float64(0.25))) is np.float64
    assert _ndtri(np.full((2, 3), 0.25)).shape == (2, 3)
    assert _ndtr([0.5, 1.5]).shape == (2,)


def _lognormal_outputs():
    m = LogNormal(0.0, 0.3)
    ts = theory_summary(m)
    return (_hex_bits(sample(m, SeedSpec(7, 0), 20_000)),
            _hex_bits(m.cdf(np.linspace(0.0, 5.0, 1001))),
            [(type(v), repr(v)) for v in dataclasses.astuple(ts)])


@needs_kernel
def test_lognormal_draws_cdf_and_theory_equal_on_both_backends(monkeypatch):
    fast = _lognormal_outputs()
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert _lognormal_outputs() == fast


def test_lognormal_commands_import_no_scipy():
    # with the kernel loaded, the package needs scipy for nothing
    code = textwrap.dedent("""\
        import sys
        import soc_auction as sa
        if not sa._kernel.load():
            raise SystemExit("no kernel")
        m = sa.parse_model("lognormal:mu=0,sigma=0.3")
        sa.theory_summary(m)
        sa.sample(m, sa.SeedSpec(1), 1000)
        sa.estimate_pc(sa.run_replicas(m, "classic", 200, 4, master_seed=1))
        print(sorted(k for k in sys.modules if k.partition(".")[0] == "scipy"))
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    if proc.stderr.strip() == "no kernel":
        pytest.skip("the C kernel cannot be built here")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
