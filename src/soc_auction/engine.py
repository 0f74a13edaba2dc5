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

`run_sequence` folds a whole price list of either comparison rule in the C
kernel `_fold.c`, compiled on first use with the system C compiler (`cc`)
into `$XDG_CACHE_HOME/soc_auction` (else `~/.cache/soc_auction`), and sums
the income of every rule there with `exact_sum`, a port of `math.fsum`.
Where no kernel can be built or loaded it runs `_fold`, the Python heap
loop, and `math.fsum`, with the same outputs about twenty times slower.
`AuctionEngine` feeds one bid at a time through `_fold` and sums its income
with the same `_total_income`. `oracle_run` rescans the pool at every step
and shares no rule code with either: it is the independent reference the
tests compare against. Prices must be finite and > 0.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


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
    (same bits; past the largest double, its ValueError), ~25 ms per 1.26e6
    sales on a 2-core Xeon (~0.1 s without the C kernel). A sale keeps 8 B.
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
    """

    rule: Rule
    n_bids: int
    sale_prices: np.ndarray
    accepted_indices: np.ndarray
    trigger_indices: np.ndarray
    ntilde: np.ndarray
    remaining_prices: np.ndarray
    remaining_indices: np.ndarray
    total_income: float

    @property
    def n_sales(self) -> int:
        return len(self.sale_prices)

    @property
    def sales_fraction(self) -> float:
        return self.n_sales / self.n_bids if self.n_bids else 0.0


def _validate_prices(prices) -> np.ndarray:
    """The prices as a contiguous float64 vector, the layout the C fold reads."""
    arr = np.asarray(prices, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"bid prices must be a flat sequence, got shape {arr.shape}")
    ok = (arr > 0) & (arr < math.inf)
    if not ok.all():
        raise ValueError(f"bid prices must be finite and > 0, got {arr[np.argmin(ok)]}")
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


_CC = ("cc", "-O2", "-shared", "-fPIC")


@functools.cache
def _kernel():
    """The C kernels of `_fold.c`, compiled with the system C compiler into
    the per-user cache on first use; None if they cannot be built or loaded.
    Tried once per process."""
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    src = Path(__file__).with_name("_fold.c")
    try:
        key = hashlib.sha256(src.read_bytes() + " ".join(_CC).encode())
        xdg = os.environ.get("XDG_CACHE_HOME", "")  # a relative one is invalid
        cache = (Path(xdg) if os.path.isabs(xdg)
                 else Path.home() / ".cache") / "soc_auction"
        lib = cache / f"_fold-{key.hexdigest()[:16]}.so"
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            # pool workers may build at once: each writes its own file and
            # renames it into place
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
            os.close(fd)
            try:
                subprocess.run([*_CC, "-o", tmp, str(src)], check=True,
                               capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
        fold, exact_sum = kernel.fold, kernel.exact_sum
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
    fold.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int,
                     *[ctypes.c_void_p] * 4]
    fold.restype = ctypes.c_int64
    exact_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    exact_sum.restype = ctypes.c_double
    return kernel


def _fold_run(arr: np.ndarray, two_consecutive: bool):
    """The sales of a whole run and its pool as sorted 0-based indices:
    from the C kernel when it loads, else from `_fold`."""
    n = len(arr)
    kernel = _kernel()
    if kernel:
        sale_p = np.empty(n)
        acc, trig, heap = (np.empty(n, dtype=np.int64) for _ in range(3))
        s = kernel.fold(arr.ctypes.data, n, two_consecutive,
                        sale_p.ctypes.data, acc.ctypes.data, trig.ctypes.data,
                        heap.ctypes.data)
        return sale_p[:s], acc[:s], trig[:s], np.sort(heap[:n - s])
    entries: list[tuple[float, int]] = []
    sale_p, acc, trig, _ = _fold(arr.tolist(), entries, True, 0, two_consecutive)
    pool = np.sort(np.array([j for _, j in entries], dtype=np.int64)) - 1
    return (np.array(sale_p, dtype=float), np.array(acc, dtype=np.int64),
            np.array(trig, dtype=np.int64), pool)


def _total_income(sale_p: np.ndarray) -> float:
    """The sum of the sale prices rounded once, as `math.fsum` gives it: from
    the C kernel's `exact_sum` when it loads, else from `math.fsum`."""
    kernel = _kernel()
    try:
        total = (kernel.exact_sum(sale_p.ctypes.data, len(sale_p)) if kernel
                 else math.fsum(sale_p))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("total income overflows a double")
    return total


def _ntilde(trigger_indices: np.ndarray, n: int) -> np.ndarray:
    """Running sale count after each arrival."""
    fired = np.zeros(n, dtype=np.int64)
    fired[trigger_indices - 1] = 1
    return np.cumsum(fired)


def run_sequence(rule: Rule | str, prices, *,
                 collect_trajectory: bool = True) -> RunResult:
    """Fold the selling rule over an ordered price list.

    Equivalent to submitting each price to a fresh AuctionEngine. The two
    comparison rules fold in the C kernel (a 2e6-bid run in about 0.1 s on
    a 2-core Xeon), or in the Python heap fold `_fold` when no kernel can
    be built (about 2 s); both give the same outputs. `total_income` is the
    exactly rounded sum of the sale prices, the value `math.fsum` gives, in
    both; a sum past the largest double is a ValueError. `ntilde` is built
    only when collect_trajectory is true.
    """
    rule = Rule(rule)
    arr = _validate_prices(prices)
    n = len(arr)
    if rule is Rule.ACCEPT_ALL:
        sale_p = arr.copy()
        acc = trig = np.arange(1, n + 1, dtype=np.int64)
        pool = np.empty(0, dtype=np.int64)
    else:
        sale_p, acc, trig, pool = _fold_run(arr, rule is Rule.TWO_CONSECUTIVE)
    return RunResult(
        rule=rule, n_bids=n, sale_prices=sale_p, accepted_indices=acc,
        trigger_indices=trig,
        ntilde=_ntilde(trig, n) if collect_trajectory else np.empty(0, dtype=np.int64),
        remaining_prices=arr[pool], remaining_indices=pool + 1,
        total_income=_total_income(sale_p),
    )


def oracle_run(rule: Rule | str, prices) -> RunResult:
    """Reference implementation: re-derives the pool maximum by full scan at
    every step. Quadratic, intended for sequences up to a few thousand bids;
    shares no max-retrieval code with run_sequence.
    """
    rule = Rule(rule)
    pl = _validate_prices(prices).tolist()
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

    rem.sort(key=lambda t: t[1])
    return RunResult(
        rule=rule, n_bids=n,
        sale_prices=np.asarray(sale_p, dtype=float),
        accepted_indices=np.asarray(acc, dtype=np.int64),
        trigger_indices=np.asarray(trig, dtype=np.int64),
        ntilde=ntilde,
        remaining_prices=np.array([p for p, _ in rem], dtype=float),
        remaining_indices=np.array([j for _, j in rem], dtype=np.int64),
        total_income=math.fsum(sale_p),
    )
