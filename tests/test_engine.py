"""Engine unit tests: selling rules, state invariants, oracle equivalence."""

import dataclasses
import functools
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from soc_auction import (AuctionEngine, Bid, LogNormal, Pareto, Rule,
                         RunResult, SaleRecord, SeedSpec, Uniform, _kernel,
                         engine,
                         oracle_run, quantile, run_sequence, sample,
                         uniform_stream)

from conftest import needs_kernel

WORKED_PRICES = [14, 15, 18, 13, 16, 12, 10]


# the public fields, and the pool built on first read from the private one
RUN_ATTRS = (*(f.name for f in dataclasses.fields(RunResult)
               if not f.name.startswith("_")),
             "remaining_prices", "remaining_indices")


def assert_same_run(a: RunResult, b: RunResult) -> None:
    for name in RUN_ATTRS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert x == y, name


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


def test_pool_reads_repeat_with_their_dtypes(backend):
    prices = sample(LogNormal(0, 0.3), SeedSpec(53, 0), 20_000)
    for rule in Rule:
        res = run_sequence(rule, prices)
        first = res.remaining_prices, res.remaining_indices
        assert first[0].dtype == np.float64 and first[1].dtype == np.int64
        for x, y in zip(first, (res.remaining_prices, res.remaining_indices)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_run_result_pickles_before_and_after_its_first_read(backend):
    prices = sample(LogNormal(0, 0.3), SeedSpec(59, 0), 20_000)
    for rule in Rule:
        res = run_sequence(rule, prices)
        unread = pickle.loads(pickle.dumps(res))
        res.remaining_indices
        read = pickle.loads(pickle.dumps(res))
        assert_same_run(unread, res)
        assert_same_run(read, res)


def test_pool_is_the_engine_pool_past_the_heap_cap(backend):
    prices = sample(LogNormal(0, 0.3), SeedSpec(61, 0), 20_000)
    for rule in Rule:
        eng = AuctionEngine(rule)
        for p in prices:
            eng.submit_bid(p)
        res = run_sequence(rule, prices)
        assert eng.remaining_bids() == [
            Bid(j, x) for j, x in zip(res.remaining_indices.tolist(),
                                      res.remaining_prices.tolist())]


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
    from soc_auction import Exponential
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


def kernel_sum(values, cuts=()) -> float:
    """The kernel's sum of `values`, added range by range between the sorted
    `cuts`; inf or nan once a partial is not finite."""
    kernel = _kernel.load()
    arr = np.ascontiguousarray(values, dtype=float)
    income = np.zeros(kernel.sum_state_bytes, dtype=np.uint8)
    for lo, hi in itertools.pairwise((0, *cuts, len(arr))):
        kernel.sum_add(income.ctypes.data, arr[lo:].ctypes.data, hi - lo)
    return kernel.sum_round(income.ctypes.data)


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


@needs_kernel
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
    # on an intermediate overflow fsum raises and the kernel returns inf
    assert kernel_sum(values).hex() == fsum_or_inf(values).hex()


@st.composite
def _split_sums(draw):
    """Values as `test_exact_sum_matches_fsum` draws them, and cuts between
    them: empty ranges, single values and long runs alike."""
    values = draw(st.lists(_positive_doubles, max_size=200))
    cuts = draw(st.lists(st.integers(0, len(values)), max_size=12))
    return values, sorted(cuts)


@needs_kernel
@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(split=_split_sums())
@example(split=([1.0, 2**-53], [1]))                  # a tie, split
@example(split=([1.0, 2**-53, 2**-106], [1, 2]))      # past the tie, one by one
@example(split=([2**-106, 2**-53, 1.0], [0, 0, 2, 3]))  # empty ranges
@example(split=([1e-16, 1.0, 1e16], [2]))
@example(split=([2.0**1023, 2.0**970], [1]))
@example(split=([1.7976931348623157e308, 2.0**970], [1]))
@example(split=([1.7976931348623157e308] * 3, [1, 2]))  # overflow, then more
@example(split=([0.1] * 100_000, [1, 4096, 50_000, 99_999]))
@example(split=([5e-324] * 4096, [2048]))
def test_exact_sum_in_ranges_matches_fsum(split):
    values, cuts = split
    assert kernel_sum(values, cuts).hex() == fsum_or_inf(values).hex()


def test_income_overflow_in_a_middle_range_is_a_named_error(backend):
    # the second 1.7e308 sale (at bid 6 under the classic rule, at bid 7
    # under the two-consecutive rule) passes the largest double in the range
    # of bids 6 and 7; the kernel fold stops there and reads no later range
    prices = np.array([1.0, 1.7e308, 1.0, 1.0, 1.7e308, 1.0, 1.0, 1.0, 1.0, 1.0])
    for rule in (Rule.CLASSIC, Rule.TWO_CONSECUTIVE):
        ends = iter([2, 5, 7, 8, 10])
        with pytest.raises(ValueError, match="total income overflows a double"):
            engine._run_ranges(rule, prices, ends)
        assert list(ends) == ([8, 10] if backend == "c" else [])


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


def python_fold(rule, prices) -> RunResult:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        return run_sequence(rule, prices)


@needs_kernel
@pytest.mark.parametrize("rule", [Rule.CLASSIC, Rule.TWO_CONSECUTIVE])
def test_kernel_matches_python_fold(rule):
    # the paper's law, a heavy tail and a bounded one
    for model, seed in ((LogNormal(0, 0.3), 37), (Pareto(1.0, 1.5), 43),
                        (Uniform(0.0, 1.0), 47)):
        prices = sample(model, SeedSpec(seed, 0), 200_000)
        assert_same_run(run_sequence(rule, prices), python_fold(rule, prices))
    # the paper's law at the replica ladder's sizes, where the kernel's top
    # stack shifts most
    for n in (1000, 2000, 5000):
        for replica in range(30):
            prices = sample(LogNormal(0, 0.3), SeedSpec(53, replica), n)
            assert_same_run(run_sequence(rule, prices),
                            python_fold(rule, prices))


def block_prices(seed: int, n: int, ties: bool) -> list[float]:
    """Rising, falling and noisy blocks around a drifting level; with `ties`,
    on a grid of quarters."""
    rng = np.random.default_rng(seed)
    blocks, level, size = [], 0.0, 0
    while size < n:
        k = int(rng.integers(10, 3000))
        level += rng.normal(0, 0.3)
        kind = rng.integers(3)
        if kind == 2:
            x = level + rng.normal(0, 0.5, k)
        else:
            x = level + (1 - 2 * kind) * np.linspace(0, rng.uniform(0, 2), k)
        blocks.append(x)
        size += k
    prices = np.exp(np.concatenate(blocks)[:n])
    if ties:
        prices = np.round(prices * 4) / 4 + 0.25
    return prices.tolist()


# the kernel holds the entries at or above a threshold entry in its top
# stack and a heap behind it, and the rest in a bucket; one rebalance step
# moves the threshold: up when a push brings the heap to 4096 entries, which
# spill into the bucket and return their top quarter, and down when the
# stack and the heap run empty, which refill from the bucket's top entries;
# past a few thousand bids these runs do both, at ties too
_block_runs = st.builds(block_prices, st.integers(0, 2**32 - 1),
                        st.integers(5_000, 40_000), st.booleans())


@needs_kernel
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(prices=_block_runs)
@example(prices=[2.5] * 20_000)
@example(prices=[*range(1, 20_001), *range(20_000, 0, -1)])  # rise, then fall
def test_kernel_fold_past_its_heap_cap_matches_python_fold(prices):
    for rule in (Rule.CLASSIC, Rule.TWO_CONSECUTIVE):
        assert_same_run(run_sequence(rule, prices), python_fold(rule, prices))


_TOP = 64  # the capacity of the kernel fold's top stack (TOP in _kernel.c)


def stack_prices(segments, step: float) -> list[float]:
    """Segments on a grid of `step`, each starting where the last one ended:
    a rise of `a` steps (for "flat", `a` equal prices), then a descent of `c`
    steps from its last price; `c` teeth of a sawtooth of period `a`; or `a`
    prices within 8 steps of the level, drawn with seed `c`."""
    units, level = [], 0
    for kind, a, c in segments:
        if kind in ("rise", "flat"):
            part = [level + k * (kind == "rise") for k in range(a)]
            part += [part[-1] - k for k in range(c)]
        elif kind == "saw":
            part = [*range(level, level + a)] * c
        else:
            part = (level + np.random.default_rng(c).integers(-8, 9, a)).tolist()
        units += part
        level = part[-1]
    low = min(units)
    return [(u - low + 1) * step for u in units]


# rises and flat runs of the stack's capacity and around it fill it and
# spill its bottom into the heap, the longest until the heap's threshold
# rises; the descents sell from the stack, insert into it and drain it into
# the heap; on the coarse grid, arrivals tie with the stack's entries, its
# bottom entry and the heap's root
_stack_runs = st.builds(
    stack_prices,
    st.lists(st.one_of(
        st.tuples(st.sampled_from(["rise", "flat"]),
                  st.sampled_from([_TOP - 1, _TOP, _TOP + 1, 2 * _TOP,
                                   5 * _TOP + 1, 70 * _TOP]),
                  st.integers(0, 3 * _TOP)),
        st.tuples(st.just("saw"), st.integers(2, 3 * _TOP), st.integers(1, 12)),
        st.tuples(st.just("ties"), st.integers(1, 4 * _TOP),
                  st.integers(0, 2**32 - 1))), min_size=1, max_size=10),
    st.sampled_from([1.0, 0.25, 3.0]))


@needs_kernel
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(prices=_stack_runs)
# a rise past the heap's cap, then random low prices: the slowest input
# measured for the fold
@example(prices=[*range(1, 5_001),
                 *np.random.default_rng(0).uniform(0.1, 1.0, 5_000).tolist()])
# both rebalance triggers in one run: a rise; a fall whose sales empty the
# stack and the heap, which refill from the bucket's top eighth (~6,000
# entries, past the heap's 4096) before later sales take the heap below
# 4096; then a rise past the old maximum, whose new maxima spill from the
# full stack and bring the heap back to 4096, which raises the threshold
@example(prices=[*range(1, 50_001), *range(50_000, 39_000, -1),
                 *range(50_001, 60_001)])
# a shorter fall leaves the heap past 4096 entries when the rise starts: its
# pushes grow the heap and must not raise the threshold
@example(prices=[*range(1, 50_001), *range(50_000, 42_000, -1),
                 *range(50_001, 55_001)])
def test_kernel_fold_top_stack_matches_python_fold(prices):
    for rule in (Rule.CLASSIC, Rule.TWO_CONSECUTIVE):
        assert_same_run(run_sequence(rule, prices), python_fold(rule, prices))


_RISE_FALL_RISE = [*range(1, 50_001), *range(50_000, 39_000, -1),
                   *range(50_001, 60_001)]


@st.composite
def _cut_runs(draw):
    """A run of `_block_runs` or `_stack_runs`, and the ends of the ranges
    to fold it in: random cuts, some around single bids, and len(run)."""
    prices = draw(st.one_of(_block_runs, _stack_runs))
    n = len(prices)
    cuts = draw(st.lists(st.integers(0, n), max_size=30))
    singles = draw(st.lists(st.integers(0, n - 1), max_size=10))
    return prices, sorted({*cuts, *singles, *(i + 1 for i in singles), n})


@needs_kernel
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(run=_cut_runs())
# one bid per range: a range ends at every bid, among them the bid whose
# push raises the threshold and the bid whose sale refills the heap (both
# happen in this run, see test_kernel_fold_top_stack_matches_python_fold)
@example(run=(_RISE_FALL_RISE, range(1, len(_RISE_FALL_RISE) + 1)))
# equal prices: the first 64 fill the stack, and the push of the bid at
# index 4159 brings the heap to 4096 entries and raises the threshold; a
# range ends on each side of that bid
@example(run=([2.5] * 5_000, [1, 2, 3, 4_159, 4_160, 5_000]))
def test_kernel_fold_in_ranges_is_the_whole_fold(run):
    # every rule, folded over the cuts, gives the one-range fold and the
    # Python fold; the kernel's pool also comes in the same order
    prices, ends = run
    arr = np.asarray(prices, dtype=float)
    for rule in Rule:
        parts = engine._run_ranges(rule, arr, ends)
        whole = engine._run_ranges(rule, arr, (len(arr),))
        assert_same_run(parts, whole)
        assert np.array_equal(parts._pool, whole._pool)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_kernel, "load", lambda: None)
            assert_same_run(engine._run_ranges(rule, arr, ends), parts)


def test_fold_falls_back_when_kernel_cannot_be_built(tmp_path, monkeypatch):
    prices = sample(LogNormal(0, 0.3), SeedSpec(41, 0), 3000)
    load = _kernel.load.__wrapped__
    monkeypatch.setattr(_kernel, "load", lambda: None)
    expected = [run_sequence(rule, prices) for rule in Rule]
    (tmp_path / "file").write_text("")
    for env in ({"PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "c")},
                {"XDG_CACHE_HOME": str(tmp_path / "file")}):  # no cc; no cache dir
        with monkeypatch.context() as m:
            for k, v in env.items():
                m.setenv(k, v)
            m.setattr(_kernel, "load", functools.cache(load))  # a cold cache
            for rule, want in zip(Rule, expected):
                assert_same_run(run_sequence(rule, prices), want)
            assert _kernel.load() is None
            assert _kernel.load.cache_info().misses == 1  # tried once


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
