"""Sequential auction state machine: the highest-remaining-bid selling rule.

Classic rule: at each arrival the highest remaining bid is executed, except
when the new bid is greater than or equal to that maximum; the new bid always
joins the pool. The first bid enters with no comparison, and a tying bid does
not trigger a sale.

Two-consecutive variant: the highest remaining bid is executed only when the
last two consecutive arrivals are both strictly below it (sliding window, so
a long descent executes one maximum per arrival). Calibrates to a critical
fraction of about one half.

Accept-all baseline: every bid is immediately a sale of itself.

`run_sequence` folds a whole price list of either comparison rule with the
C kernel's `fold` (see `_kernel`), and sums the income of every rule with
its `sum_add` and `sum_round`, a port of `math.fsum`. Where no kernel can
be built or loaded it runs `_fold`, the Python heap loop, and `math.fsum`,
with the same outputs about fifty times slower. The kernel's fold resumes
where it stopped, so `_run_ranges` folds a run range by range while the
prices past the range are still being written: `cli` draws the bids of
every single run of a model on a second thread, with the outputs of one
range.
`AuctionEngine` feeds one bid at a time through `_fold` and sums its income
with the same `_total_income`. `oracle_run` rescans the pool at every step
and shares no rule code with either: it is the independent reference the
tests compare against. Prices must be finite and > 0.
"""

from __future__ import annotations

import ctypes
import enum
import heapq
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernel


class Rule(str, enum.Enum):
    CLASSIC = "classic"
    TWO_CONSECUTIVE = "two-consecutive"
    ACCEPT_ALL = "accept-all"


@dataclass(frozen=True, slots=True)
class Bid:
    """One offered price, in arrival order (1-based index)."""
    index: int
    price: float


@dataclass(frozen=True, slots=True)
class SaleRecord:
    """An executed transaction.

    trigger_bid_index is the arrival that caused the execution; for the
    classic rule its price is strictly below the executed price. The
    accepted bid may have arrived at any earlier position.
    """
    sale_ordinal: int
    price: float
    accepted_bid_index: int
    trigger_bid_index: int


class AuctionEngine:
    """Incremental engine: one state, strictly sequential submissions.

    Each bid goes through the same heap fold as `run_sequence`, so a run
    fed bid by bid gives the same sales and pool as the whole-list fold.
    Counts and income derive from the pool and the sale prices: each read
    of `total_income` sums the sales with `run_sequence`'s `_total_income`
    (same bits; past the largest double, its ValueError), ~10 ms per 1.26e6
    sales on a 2-core Xeon (~55 ms without the C kernel). A sale keeps 8 B.
    """

    def __init__(self, rule: Rule | str = Rule.CLASSIC):
        self.rule = Rule(rule)
        self._armed = True  # may a lower arrival execute the maximum?
        self._heap: list[tuple[float, int]] = []  # (-price, index)
        self._sold = array("d")  # sale prices in sale order

    @property
    def bids_seen(self) -> int:
        return len(self._heap) + len(self._sold)  # each bid is pooled or sold

    @property
    def accepted_count(self) -> int:
        return len(self._sold)

    @property
    def total_income(self) -> float:
        return _total_income(np.frombuffer(self._sold))

    @property
    def n_remaining(self) -> int:
        return len(self._heap)

    def submit_bid(self, price: float) -> Optional[SaleRecord]:
        """Process one arriving bid; returns the SaleRecord if a sale fired."""
        if not 0 < price < math.inf:
            raise ValueError(f"bid price must be finite and > 0, got {price}")
        i = self.bids_seen + 1
        if self.rule is Rule.ACCEPT_ALL:
            sold, j = price, i
        else:
            sale_p, acc, _, self._armed = _fold(
                (price,), self._heap, self._armed, i - 1,
                self.rule is Rule.TWO_CONSECUTIVE)
            if not sale_p:
                return None
            sold, j = sale_p[0], acc[0]
        self._sold.append(sold)
        return SaleRecord(len(self._sold), sold, j, i)

    def remaining_bids(self) -> list[Bid]:
        """Remaining pool as Bid objects, sorted by arrival index."""
        items = sorted(self._heap, key=lambda t: t[1])
        return [Bid(j, -negp) for negp, j in items]

    def remaining_prices(self) -> np.ndarray:
        """Remaining prices sorted by arrival index."""
        return np.array([b.price for b in self.remaining_bids()], dtype=float)


# =====================================================================
# Whole-run folds
# =====================================================================

@dataclass(eq=False)
class RunResult:
    """Outputs of folding the selling rule over a full price sequence.

    Arrays only, so multi-million-bid runs stay cheap. `ntilde[k-1]` is the
    number of sales after the k-th arrival; `run_sequence` fills it only
    when called with collect_trajectory=True and leaves it empty otherwise.
    The unsold pool is kept as the fold leaves it, 0-based indices into the
    validated prices in no order; `remaining_indices` (1-based, in arrival
    order) and `remaining_prices` are built from it on first read. Those
    prices are the array the run was given, when it was already a
    contiguous float64 vector, so change it in place only after that read.
    """

    rule: Rule
    n_bids: int
    sale_prices: np.ndarray
    accepted_indices: np.ndarray
    trigger_indices: np.ndarray
    ntilde: np.ndarray
    total_income: float
    _prices: np.ndarray = field(repr=False)
    _pool: np.ndarray = field(repr=False)

    @property
    def n_sales(self) -> int:
        return len(self.sale_prices)

    @property
    def sales_fraction(self) -> float:
        return self.n_sales / self.n_bids if self.n_bids else 0.0

    @cached_property
    def remaining_indices(self) -> np.ndarray:
        return np.sort(self._pool) + 1

    @cached_property
    def remaining_prices(self) -> np.ndarray:
        return self._prices[self.remaining_indices - 1]


def _check_prices(arr: np.ndarray) -> None:
    """Refuse prices that are not all finite and > 0, naming the first."""
    ok = (arr > 0) & (arr < math.inf)
    if not ok.all():
        raise ValueError(f"bid prices must be finite and > 0, got {arr.flat[np.argmin(ok)]}")


def _validate_prices(prices) -> np.ndarray:
    """The prices as a contiguous float64 vector, the layout the C fold reads."""
    arr = np.asarray(prices, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"bid prices must be a flat sequence, got shape {arr.shape}")
    _check_prices(arr)
    return np.ascontiguousarray(arr)


def _fold(pl, heap: list[tuple[float, int]], armed: bool, i: int,
          two_consecutive: bool):
    """The selling rule over a binary max-heap of (-price, index).

    Folds the arrivals `pl` into `heap` in place; `i` is the index of the
    last arrival already folded. `armed` says whether a lower arrival may
    execute the maximum: classic never clears it; two-consecutive sets it
    after each arrival to whether that arrival is below the pool maximum.
    Returns the sales (prices, accepted and trigger indices) and the new
    `armed` flag.
    """
    heappush = heapq.heappush
    heapreplace = heapq.heapreplace
    sale_p: list[float] = []
    acc: list[int] = []
    trig: list[int] = []
    ap, aa, at = sale_p.append, acc.append, trig.append
    for x in pl:
        i += 1
        if armed and heap and x < -heap[0][0]:
            negz, j = heapreplace(heap, (-x, i))
            ap(-negz)
            aa(j)
            at(i)
        else:
            heappush(heap, (-x, i))
        if two_consecutive:
            armed = x < -heap[0][0]
    return sale_p, acc, trig, armed


def _finite_income(total: float) -> float:
    if not math.isfinite(total):
        raise ValueError("total income overflows a double")
    return total


def _total_income(sale_p: np.ndarray) -> float:
    """The sum of the sale prices rounded once, as `math.fsum` gives it: from
    the C kernel's `sum_add` and `sum_round` when it loads, else from
    `math.fsum`."""
    kernel = _kernel.load()
    if kernel:
        income = ctypes.create_string_buffer(kernel.sum_state_bytes)
        kernel.sum_add(income, sale_p.ctypes.data, len(sale_p))
        return _finite_income(kernel.sum_round(income))
    try:
        return _finite_income(math.fsum(sale_p))
    except OverflowError:
        return _finite_income(math.inf)


def _ntilde(trigger_indices: np.ndarray, n: int) -> np.ndarray:
    """Running sale count after each arrival."""
    fired = np.zeros(n, dtype=np.int64)
    fired[trigger_indices - 1] = 1
    return np.cumsum(fired)


def run_sequence(rule: Rule | str, prices, *,
                 collect_trajectory: bool = True) -> RunResult:
    """Fold the selling rule over an ordered price list.

    Equivalent to submitting each price to a fresh AuctionEngine. The two
    comparison rules fold in the C kernel (a 2e6-bid run in about 0.06 s on
    a 2-core Xeon), or about fifty times slower (about 3 s) in the Python
    heap fold `_fold` when no kernel can be built; both give the same
    outputs. `total_income` is the exactly rounded sum of the sale prices,
    the value `math.fsum` gives, in both; a sum past the largest double is
    a ValueError. `ntilde` is built only when collect_trajectory is true.
    """
    arr = _validate_prices(prices)
    run = _run_ranges(Rule(rule), arr, (len(arr),))
    if collect_trajectory:
        run.ntilde = _ntilde(run.trigger_indices, run.n_bids)
    return run


def _run_ranges(rule: Rule, arr: np.ndarray, ends) -> RunResult:
    """`run_sequence` of checked prices that may still be being written,
    with an empty `ntilde`. Each value of `ends` is the end of the next
    range of `arr` whose prices are written and checked, the last one
    len(arr), so another thread may still be writing the prices past it.
    The C kernel folds the comparison rules range by range, and every cut
    gives the same outputs; accept-all and the Python fold, which holds the
    interpreter lock, wait for the last range."""
    n = len(arr)
    kernel = rule is not Rule.ACCEPT_ALL and _kernel.load()
    if kernel:
        # one buffer of n entries each for the sale prices, the accepted and
        # the trigger indices, the pool and the kernel's binary heap (at
        # most 4096 entries, except after a refill with the top eighth of a
        # bucket of more than 32768), then the fold's and the sum's states
        # (both whole words): one allocation and one pointer read, a fixed
        # cost that short replicas pay on every run
        work = np.empty(5 * n + (kernel.fold_state_bytes + kernel.sum_state_bytes) // 8,
                        dtype=np.int64)
        work[5 * n:] = 0  # zero bytes: a fresh fold and an empty sum
        base = work.ctypes.data
        outs = [base + 8 * n * k for k in range(5)]
        state = outs[4] + 8 * n
        income = state + kernel.fold_state_bytes
        p = arr.ctypes.data
        two_consecutive = rule is Rule.TWO_CONSECUTIVE
        lo = s = 0
        for hi in ends:
            s0, s = s, kernel.fold(state, p, lo, hi, two_consecutive, *outs)
            # this range's sales join the income as they are made
            if kernel.sum_add(income, outs[0] + 8 * s0, s - s0) < 0:
                break  # past the largest double: `_finite_income` refuses it
            lo = hi
        sale_p = work[:s].view(np.float64)
        acc, trig, pool = work[n:n + s], work[2 * n:2 * n + s], work[3 * n:4 * n - s]
        total = _finite_income(kernel.sum_round(income))
    else:
        for _ in ends:
            pass
        if rule is Rule.ACCEPT_ALL:
            sale_p = arr.copy()
            acc = trig = np.arange(1, n + 1, dtype=np.int64)
            pool = np.empty(0, dtype=np.int64)
        else:
            entries: list[tuple[float, int]] = []
            sale_p, acc, trig, _ = _fold(arr.tolist(), entries, True, 0,
                                         rule is Rule.TWO_CONSECUTIVE)
            sale_p = np.array(sale_p, dtype=float)
            acc, trig = np.array(acc, dtype=np.int64), np.array(trig, dtype=np.int64)
            pool = np.array([j for _, j in entries], dtype=np.int64) - 1
        total = _total_income(sale_p)
    return RunResult(
        rule=rule, n_bids=n, sale_prices=sale_p, accepted_indices=acc,
        trigger_indices=trig, ntilde=np.empty(0, dtype=np.int64),
        total_income=total, _prices=arr, _pool=pool,
    )


def oracle_run(rule: Rule | str, prices) -> RunResult:
    """Reference implementation: re-derives the pool maximum by full scan at
    every step. Quadratic, intended for sequences up to a few thousand bids;
    shares no max-retrieval code with run_sequence.
    """
    rule = Rule(rule)
    arr = _validate_prices(prices)
    pl = arr.tolist()
    n = len(pl)
    ntilde = np.empty(n, dtype=np.int64)

    rem: list[tuple[float, int]] = []  # (price, index), insertion order
    sale_p: list[float] = []
    acc: list[int] = []
    trig: list[int] = []
    prev_price: Optional[float] = None

    for i, x in enumerate(pl, start=1):
        if rule is Rule.ACCEPT_ALL:
            sale_p.append(x)
            acc.append(i)
            trig.append(i)
        else:
            mi = -1
            z = -math.inf
            for t, (p, _) in enumerate(rem):
                if p > z:
                    z = p
                    mi = t
            if rule is Rule.CLASSIC:
                fire = mi >= 0 and x < z
            else:
                fire = mi >= 0 and x < z and prev_price is not None and prev_price < z
            if fire:
                p, j = rem.pop(mi)
                sale_p.append(p)
                acc.append(j)
                trig.append(i)
            rem.append((x, i))
            prev_price = x
        ntilde[i - 1] = len(sale_p)

    return RunResult(
        rule=rule, n_bids=n,
        sale_prices=np.asarray(sale_p, dtype=float),
        accepted_indices=np.asarray(acc, dtype=np.int64),
        trigger_indices=np.asarray(trig, dtype=np.int64),
        ntilde=ntilde,
        total_income=math.fsum(sale_p),
        _prices=arr, _pool=np.array([j - 1 for _, j in rem], dtype=np.int64),
    )
