"""Engine unit tests: selling rules, state invariants, oracle equivalence."""

import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from soc_auction import (AuctionEngine, Bid, LogNormal, Rule, RunResult,
                         SaleRecord, SeedSpec, engine, oracle_run, quantile,
                         run_sequence, sample, uniform_stream)

WORKED_PRICES = [14, 15, 18, 13, 16, 12, 10]


def assert_same_run(a: RunResult, b: RunResult) -> None:
    for f in dataclasses.fields(RunResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def test_worked_example_classic():
    res = run_sequence(Rule.CLASSIC, WORKED_PRICES)
    assert res.sale_prices.tolist() == [18.0, 16.0, 15.0]
    assert res.trigger_indices.tolist() == [4, 6, 7]
    assert res.accepted_indices.tolist() == [3, 5, 2]
    assert sorted(res.remaining_prices.tolist()) == [10.0, 12.0, 13.0, 14.0]
    assert res.ntilde.tolist() == [0, 0, 0, 1, 1, 2, 3]
    assert res.total_income == 49.0


def test_worked_example_sale_records():
    eng = AuctionEngine("classic")
    records = [eng.submit_bid(float(p)) for p in WORKED_PRICES]
    assert [r for r in records if r is not None] == [
        SaleRecord(1, 18.0, 3, 4),
        SaleRecord(2, 16.0, 5, 6),
        SaleRecord(3, 15.0, 2, 7),
    ]
    assert eng.remaining_bids() == [Bid(1, 14.0), Bid(4, 13.0), Bid(6, 12.0),
                                    Bid(7, 10.0)]
    res = run_sequence("classic", WORKED_PRICES)
    assert res.remaining_indices.tolist() == [1, 4, 6, 7]


def test_single_bid_no_sale():
    res = run_sequence(Rule.CLASSIC, [3.25])
    assert res.n_sales == 0
    assert res.remaining_prices.tolist() == [3.25]
    assert res.ntilde.tolist() == [0]


def test_increasing_sequence_never_sells():
    res = run_sequence(Rule.CLASSIC, [1, 2, 3, 4, 5])
    assert res.n_sales == 0
    assert len(res.remaining_prices) == 5


def test_decreasing_sequence_sells_all_but_one():
    res = run_sequence(Rule.CLASSIC, [5, 4, 3, 2, 1])
    assert res.sale_prices.tolist() == [5.0, 4.0, 3.0, 2.0]
    assert res.remaining_prices.tolist() == [1.0]


def test_descending_permutation_sells_n_minus_1():
    vals = sorted([2.5, 7.1, 3.3, 9.9, 4.2, 8.8], reverse=True)
    res = run_sequence(Rule.CLASSIC, vals)
    assert res.n_sales == len(vals) - 1


def test_tie_does_not_trigger():
    res = run_sequence(Rule.CLASSIC, [5, 5])
    assert res.n_sales == 0
    # an equal bid joins the queue; the next lower bid executes the earliest max
    res = run_sequence(Rule.CLASSIC, [5, 5, 4])
    assert res.n_sales == 1
    assert res.accepted_indices.tolist() == [1]
    assert sorted(res.remaining_prices.tolist()) == [4.0, 5.0]


def test_accept_all():
    res = run_sequence(Rule.ACCEPT_ALL, [14, 15, 18])
    assert res.sale_prices.tolist() == [14.0, 15.0, 18.0]
    assert res.total_income == 47.0
    assert res.ntilde.tolist() == [1, 2, 3]
    assert len(res.remaining_prices) == 0
    assert res.accepted_indices.tolist() == [1, 2, 3]


def test_empty_run():
    res = run_sequence(Rule.CLASSIC, [])
    assert res.n_bids == 0 and res.n_sales == 0
    assert res.total_income == 0.0
    o = oracle_run(Rule.CLASSIC, [])
    assert o.n_bids == 0 and o.n_sales == 0


def test_two_consecutive_hand_trace():
    # max executes when the last two consecutive arrivals are both below it
    res = run_sequence(Rule.TWO_CONSECUTIVE, [10, 9, 8, 12, 11, 7])
    assert res.sale_prices.tolist() == [10.0, 12.0]
    assert res.accepted_indices.tolist() == [1, 4]
    assert res.trigger_indices.tolist() == [3, 6]
    assert res.ntilde.tolist() == [0, 0, 1, 1, 1, 2]
    assert sorted(res.remaining_prices.tolist()) == [7.0, 8.0, 9.0, 11.0]


def test_two_consecutive_chains_along_descent():
    res = run_sequence(Rule.TWO_CONSECUTIVE, [10, 9, 8, 7, 6])
    assert res.sale_prices.tolist() == [10.0, 9.0, 8.0]
    assert res.ntilde.tolist() == [0, 0, 1, 2, 3]


def test_two_consecutive_higher_arrival_interrupts():
    # arrival at or above the max restarts the pair window
    res = run_sequence(Rule.TWO_CONSECUTIVE, [10, 9, 11, 8, 7])
    assert res.sale_prices.tolist() == [11.0]
    assert res.trigger_indices.tolist() == [5]


def test_engine_matches_run_sequence():
    prices = sample(LogNormal(0, 0.3), SeedSpec(11, 0), 400)
    for rule in Rule:
        eng = AuctionEngine(rule)
        records = [r for r in (eng.submit_bid(p) for p in prices) if r is not None]
        res = run_sequence(rule, prices)
        assert [r.price for r in records] == res.sale_prices.tolist()
        assert [r.accepted_bid_index for r in records] == res.accepted_indices.tolist()
        assert [r.trigger_bid_index for r in records] == res.trigger_indices.tolist()
        assert eng.accepted_count == res.n_sales
        assert eng.total_income == res.total_income
        assert eng.remaining_prices().tolist() == res.remaining_prices.tolist()


def test_submit_rejects_nonpositive_price_without_state_change():
    eng = AuctionEngine(Rule.CLASSIC)
    eng.submit_bid(2.0)
    for bad in (0.0, -1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            eng.submit_bid(bad)
    assert eng.bids_seen == 1
    assert eng.n_remaining == 1


def test_run_sequence_rejects_nonpositive():
    with pytest.raises(ValueError):
        run_sequence(Rule.CLASSIC, [1.0, 0.0])
    with pytest.raises(ValueError):
        run_sequence(Rule.CLASSIC, np.array([1.0, -2.0]))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            run_sequence(Rule.CLASSIC, [1.0, bad, 0.5])
        with pytest.raises(ValueError):
            run_sequence(Rule.CLASSIC, np.array([1.0, bad, 0.5]))
    for shape in (2.0, [[1.0, 2.0], [3.0, 4.0]]):  # the fold reads a flat vector
        with pytest.raises(ValueError, match="flat"):
            run_sequence(Rule.CLASSIC, shape)


def test_conservation_identity(backend):
    rng = np.random.default_rng(7)
    for rule in Rule:
        for _ in range(20):
            n = int(rng.integers(1, 400))
            prices = rng.lognormal(0, 0.5, n)
            res = run_sequence(rule, prices)
            lhs = math.fsum([res.total_income] + res.remaining_prices.tolist())
            rhs = math.fsum(prices.tolist())
            assert math.isclose(lhs, rhs, rel_tol=1e-9)


def test_step_bound_and_size_identity():
    prices = sample(LogNormal(0, 0.3), SeedSpec(13, 0), 2000)
    for rule in (Rule.CLASSIC, Rule.TWO_CONSECUTIVE):
        res = run_sequence(rule, prices)
        steps = np.diff(np.concatenate(([0], res.ntilde)))
        assert set(np.unique(steps)) <= {0, 1}
        k = np.arange(1, len(prices) + 1)
        n_remaining = k - res.ntilde
        assert (n_remaining >= 1).all()
    assert res.n_bids - res.n_sales == len(res.remaining_prices)


def test_sale_dominance_and_trigger_order():
    prices = sample(LogNormal(0, 0.3), SeedSpec(17, 0), 3000)
    for rule in (Rule.CLASSIC, Rule.TWO_CONSECUTIVE):
        res = run_sequence(rule, prices)
        trigger_prices = prices[res.trigger_indices - 1]
        assert (res.sale_prices > trigger_prices).all()
        assert (np.diff(res.trigger_indices) > 0).all()


def test_rank_invariance_small():
    from soc_auction import Exponential, Uniform
    u = uniform_stream(SeedSpec(19, 0), 3000)
    base = run_sequence(Rule.CLASSIC, quantile(LogNormal(0, 0.3), u))
    for m in (Uniform(0, 1), Exponential(1.0)):
        res = run_sequence(Rule.CLASSIC, quantile(m, u))
        assert np.array_equal(res.ntilde, base.ntilde)
        assert np.array_equal(res.accepted_indices, base.accepted_indices)
        assert np.array_equal(res.trigger_indices, base.trigger_indices)


def test_oracle_equivalence_random_sequences(backend):
    rng = np.random.default_rng(23)
    for case in range(120):
        n = int(rng.integers(1, 200))
        if case % 3 == 0:
            prices = rng.lognormal(0, 0.3, n)
        elif case % 3 == 1:
            prices = rng.uniform(0.01, 1.0, n)
        else:
            prices = rng.integers(1, 8, n).astype(float)  # rich in ties
        rule = [Rule.CLASSIC, Rule.TWO_CONSECUTIVE, Rule.ACCEPT_ALL][case % 3]
        assert_same_run(run_sequence(rule, prices), oracle_run(rule, prices))


# the backend fixture is set once per test and holds for every example
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prices=st.lists(st.integers(1, 5).map(float), max_size=60),
       cut=st.integers(0, 60))
def test_fold_oracle_engine_agree_on_ties(backend, prices, cut):
    for rule in Rule:
        fast = run_sequence(rule, prices)
        assert_same_run(fast, oracle_run(rule, prices))

        eng = AuctionEngine(rule)
        records = [eng.submit_bid(p) for p in prices]
        sales = [r for r in records if r is not None]
        assert [r.price for r in sales] == fast.sale_prices.tolist()
        assert [r.accepted_bid_index for r in sales] == fast.accepted_indices.tolist()
        assert [r.trigger_bid_index for r in sales] == fast.trigger_indices.tolist()
        assert np.cumsum([r is not None for r in records]).tolist() == fast.ntilde.tolist()
        assert [b.index for b in eng.remaining_bids()] == fast.remaining_indices.tolist()
        assert eng.remaining_prices().tolist() == fast.remaining_prices.tolist()

        # an engine pickled mid-run finishes like the uninterrupted one
        part = AuctionEngine(rule)
        for p in prices[:cut]:
            part.submit_bid(p)
        part = pickle.loads(pickle.dumps(part))
        assert [part.submit_bid(p) for p in prices[cut:]] == records[cut:]
        assert part.total_income == eng.total_income
        assert part.remaining_bids() == eng.remaining_bids()


_lognormal_prices = st.builds(
    lambda seed, n: np.random.default_rng(seed).lognormal(0, 0.5, n).tolist(),
    st.integers(0, 2**32 - 1), st.integers(0, 300))


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prices=st.one_of(st.lists(st.integers(1, 5).map(float), max_size=300),
                        _lognormal_prices))
def test_conservation_property(backend, prices):
    # income plus the remaining pool is every bid
    for rule in Rule:
        res = run_sequence(rule, prices)
        lhs = math.fsum([res.total_income, *res.remaining_prices.tolist()])
        assert math.isclose(lhs, math.fsum(prices), rel_tol=1e-9)


def test_income_overflow_is_a_named_error(backend):
    # every rule sells both 1.7e308 bids, whose sum is past the largest double
    prices = [1.7e308, 1.0, 1.0] * 2
    for rule in Rule:
        with pytest.raises(ValueError, match="total income overflows a double"):
            run_sequence(rule, prices)
        eng = AuctionEngine(rule)
        for p in prices:
            eng.submit_bid(p)
        with pytest.raises(ValueError, match="total income overflows a double"):
            eng.total_income


def kernel_sum(values) -> float:
    arr = np.ascontiguousarray(values, dtype=float)
    return engine._kernel().exact_sum(arr.ctypes.data, len(arr))


def fsum_or_inf(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


# Hypothesis's own mix of floats, and uniform bit patterns, which spread
# evenly over every binary exponent, subnormals included
_positive_doubles = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False),
    st.integers(1, 0x7FEFFFFFFFFFFFFF).map(
        lambda bits: float(np.int64(bits).view(np.float64))))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(values=st.lists(_positive_doubles, max_size=200))
@example(values=[1.0, 2**-53])                # a tie: stays at the even 1.0
@example(values=[1.0, 2**-53, 2**-106])       # just past the tie: rounds up
@example(values=[2**-106, 2**-53, 1.0])
@example(values=[1e-16, 1.0, 1e16])
@example(values=[2.0**1023, 2.0**970])        # a tie just below overflow
@example(values=[1.7976931348623157e308, 2.0**970])  # a tie that overflows
@example(values=[1.7976931348623157e308] * 2)
@example(values=[0.1] * 100_000)
@example(values=[5e-324] * 4096)
def test_exact_sum_matches_fsum(values):
    if not engine._kernel():
        pytest.skip("the C fold kernel cannot be built here")
    # on an intermediate overflow fsum raises and the kernel returns inf
    assert kernel_sum(values).hex() == fsum_or_inf(values).hex()


def income_or_error(total) -> str:
    # a drawn list can sum past the largest double
    try:
        return total().hex()
    except ValueError as e:
        return str(e)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prices=st.lists(_positive_doubles, max_size=60))
@example(prices=[1.0, 2**-53, 2**-106])  # just past a tie: rounds up
def test_engine_income_is_run_sequence_income(backend, prices):
    for rule in Rule:
        eng = AuctionEngine(rule)
        for p in prices:
            eng.submit_bid(p)
        assert (income_or_error(lambda: eng.total_income)
                == income_or_error(lambda: run_sequence(rule, prices).total_income))


@pytest.mark.parametrize("rule", [Rule.CLASSIC, Rule.TWO_CONSECUTIVE])
def test_kernel_matches_python_fold(rule, monkeypatch):
    if not engine._kernel():
        pytest.skip("the C fold kernel cannot be built here")
    prices = sample(LogNormal(0, 0.3), SeedSpec(37, 0), 200_000)
    fast = run_sequence(rule, prices)
    monkeypatch.setattr(engine, "_kernel", lambda: None)
    assert_same_run(fast, run_sequence(rule, prices))


def test_fold_falls_back_when_kernel_cannot_be_built(tmp_path, monkeypatch):
    prices = sample(LogNormal(0, 0.3), SeedSpec(41, 0), 3000)
    load = engine._kernel.__wrapped__
    monkeypatch.setattr(engine, "_kernel", lambda: None)
    expected = [run_sequence(rule, prices) for rule in Rule]
    (tmp_path / "file").write_text("")
    for env in ({"PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "c")},
                {"XDG_CACHE_HOME": str(tmp_path / "file")}):  # no cc; no cache dir
        with monkeypatch.context() as m:
            for k, v in env.items():
                m.setenv(k, v)
            m.setattr(engine, "_kernel", functools.cache(load))  # a cold cache
            for rule, want in zip(Rule, expected):
                assert_same_run(run_sequence(rule, prices), want)
            assert engine._kernel() is None
            assert engine._kernel.cache_info().misses == 1  # tried once


def test_worked_example_oracle():
    fast = run_sequence(Rule.CLASSIC, WORKED_PRICES)
    slow = oracle_run(Rule.CLASSIC, WORKED_PRICES)
    assert np.array_equal(fast.sale_prices, slow.sale_prices)
    assert np.array_equal(fast.remaining_prices, slow.remaining_prices)


def test_engine_state_is_transferable():
    eng = AuctionEngine(Rule.TWO_CONSECUTIVE)
    prices = sample(LogNormal(0, 0.3), SeedSpec(31, 0), 300)
    for p in prices[:150]:
        eng.submit_bid(p)
    clone = pickle.loads(pickle.dumps(eng))
    tail_a = [eng.submit_bid(p) for p in prices[150:]]
    tail_b = [clone.submit_bid(p) for p in prices[150:]]
    assert tail_a == tail_b
    assert eng.total_income == clone.total_income


def test_bid_and_salerecord_shapes():
    b = Bid(index=1, price=2.0)
    assert b.price == 2.0
    r = SaleRecord(1, 9.0, 3, 4)
    assert r.price == 9.0 and r.trigger_bid_index == 4


def test_new_engine_initial_state():
    for rule in Rule:
        eng = AuctionEngine(rule)
        assert eng.bids_seen == 0
        assert eng.accepted_count == 0
        assert eng.total_income == 0.0
        assert eng.n_remaining == 0
    eng = AuctionEngine(Rule.CLASSIC)
    assert eng.submit_bid(1.0) is None  # first bid enters with no comparison
    assert eng.accepted_count == 0
