"""Command-line surface: simulate runs, compute theory, fit avalanches, and
replicate the reference figures as plottable data files.

Exit codes: 0 success, 2 configuration error (or a run too large for
memory), 3 I/O error, 4 insufficient data. All outputs are deterministic
given the configuration and seed; reruns produce byte-identical CSV bodies.
A single run of a model (`simulate`, `avalanches`, `replicate fig1a|fig2`)
draws the next block of bids on a second thread while the fold takes the
blocks already drawn, with the outputs of drawing them all first.
Every CSV cell follows one rule (in `_write_csv`): reals at 17 significant
digits, which round-trips doubles losslessly; integers bare; an empty cell
where no sale fired. When the C kernel loads it writes each block of float64
and int64 columns in integer arithmetic alone, rounding reals of magnitude
2**-53 to 2**128 (about 1.1e-16 to 3.4e38) to 17 digits exactly. It
declines a block that holds any other real, and `_cells` writes that block
in the same bytes. `LC_NUMERIC` changes no cell.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import queue
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from . import _kernel, analytics, engine, montecarlo
from .distributions import (E_INV, PriceModel, SeedSpec, _inverse_transform,
                            critical_price, parse_model)
from .distributions import sample  # uncalled: bench/test_bench.py reads cli.sample
from .engine import Rule, RunResult, run_sequence
from .errors import InsufficientDataError, ModelSpecError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4

# Canonical replicate configurations (model, size, replicas, master seed).
FIG_MODEL = "lognormal:mu=0,sigma=0.3"
FIG1A_N = 1000
FIG1A_SEED = 900          # canonical single run showing the sharp cut
FIG1B_N = 1000
FIG1B_REPLICAS = 200
FIG1B_SEED = 1005
FIG1B_GRID = (10, 20, 30, 40, 50, 75, 100, 150, 200, 300, 500, 700, 1000)
FIG2_N = 2_000_000
FIG2_SEED = 1007
FIG2_KMIN, FIG2_KMAX = 100, 10_000
FIG2_TARGET_SLOPE = -0.54
FIG2_TOLERANCE = 0.10


# A single run of a model draws PIPELINE_BLOCK bids at a time on a second
# thread while the fold takes the blocks already drawn.
PIPELINE_BLOCK = 1 << 14

CSV_BLOCK_ROWS = 1 << 12  # rows formatted at once: bounds the text held in memory
# the longest cell of each column kind that the kernel formats, as in
# `_kernel.c`: "-1.2345678901234568e-05" and "-9223372036854775808"
_CELL_BYTES = {np.dtype(np.float64): 23, np.dtype(np.int64): 20}


def _cells(col: np.ndarray) -> list[str]:
    fmt = "{:.17g}".format if col.dtype.kind == "f" else str
    cells = list(map(fmt, np.ma.getdata(col).tolist()))
    for i in np.flatnonzero(np.ma.getmaskarray(col)).tolist():
        cells[i] = ""
    return cells


def _text_rows(cols: list[np.ndarray]):
    """Rows [lo, hi) of `cols` as CSV bytes, cell by cell in Python."""
    def rows(lo: int, hi: int) -> bytes:
        cells = [_cells(c[lo:hi]) for c in cols]
        return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()
    return rows


def _kernel_rows(kernel, cols: list[np.ndarray]):
    """Rows [lo, hi) of `cols` as CSV bytes, formatted by the kernel's
    `csv_rows` into one reused buffer, or None for a block it declines;
    None instead of the closure when a column is neither float64 nor int64."""
    import ctypes

    data = [np.ascontiguousarray(np.ma.getdata(c)) for c in cols]
    if any(d.dtype not in _CELL_BYTES for d in data):
        return None
    masks = [None if m is np.ma.nomask else np.ascontiguousarray(m)
             for m in map(np.ma.getmask, cols)]
    ptrs = ctypes.c_void_p * len(cols)
    kinds = "".join(d.dtype.kind for d in data).encode()
    row_bytes = sum(_CELL_BYTES[d.dtype] for d in data) + len(cols)  # + separators
    buf = np.empty(CSV_BLOCK_ROWS * row_bytes, dtype=np.uint8)

    def rows(lo: int, hi: int) -> memoryview:
        # pointers into `data` and `masks`, which this closure keeps alive
        # (either may hold a contiguous copy that nothing else refers to)
        n = kernel.csv_rows(ptrs(*(d.ctypes.data for d in data)), kinds,
                            ptrs(*(None if m is None else m.ctypes.data
                                   for m in masks)),
                            len(cols), lo, hi, buf.ctypes.data)
        return buf.data[:n] if n >= 0 else None
    return rows


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Equal-length columns under their names, in dict order. The one format
    rule: reals at 17 significant digits (a lossless double round trip),
    integers bare, masked entries as empty cells. The kernel writes each
    block of float64 and int64 columns whose unmasked reals lie in 2**-53 <=
    |x| < 2**128, and `_cells` every other block, in the same bytes. Every
    command writes `path` inside `_publishing`'s staging directory, which it
    removes on any failure, so a failed write leaves no file."""
    cols = list(columns.values())
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("CSV columns differ in length: " + ", ".join(
            f"{name}={len(c)}" for name, c in columns.items()))
    kernel = _kernel.load()
    text = _text_rows(cols)
    rows = (kernel and _kernel_rows(kernel, cols)) or text
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for lo in range(0, n, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n)
            fh.write(rows(lo, hi) or text(lo, hi))


def _json_text(obj: dict) -> str:
    """The one JSON text rule, for files and for stdout alike."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, obj: dict) -> None:
    """`obj` as `_json_text`. Every command writes `path` inside
    `_publishing`'s staging directory, which it removes on any failure, so
    a failed write leaves no file."""
    with open(path, "w") as fh:
        fh.write(_json_text(obj))


def _load_prices_file(path: str) -> np.ndarray:
    text = Path(path).read_text()  # missing file surfaces as an I/O error
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            raise ModelSpecError(f"{path}:{lineno}: not a number: '{line}'")
        if not 0 < v < np.inf:
            raise ModelSpecError(
                f"{path}:{lineno}: prices must be finite and > 0, got {v}")
        values.append(v)
    if not values:
        raise ModelSpecError(f"{path}: no prices")
    return np.asarray(values, dtype=float)


def _run(model: PriceModel | None, rule: Rule | str, n: int, seed: int,
         prices: np.ndarray | None = None,
         trajectory: bool = False) -> tuple[RunResult, np.ndarray]:
    """The one fold behind every single-run command: of `prices` when they
    are given, else of `n` draws of `model` from stream 0 of the master
    `seed`, made on a second thread while the fold takes the blocks already
    drawn. `ntilde` is built only with `trajectory`."""
    if prices is not None:
        return run_sequence(rule, prices, collect_trajectory=trajectory), prices
    prices = np.empty(n)
    with _drawing(model, SeedSpec(seed, 0).generator(), prices) as ends:
        return engine._run_ranges(Rule(rule), prices, ends, trajectory), prices


@contextlib.contextmanager
def _drawing(model: PriceModel, gen, prices: np.ndarray):
    """Fill `prices` with the draws `sample` makes from the generator `gen`,
    on a second thread and PIPELINE_BLOCK at a time, each block checked as
    `run_sequence` checks prices; yields an iterator over the end of each
    block once it is ready. An error on that thread is raised from the
    iterator. On exit, also when the body raises, the thread is told to stop
    and is joined. It calls no public function of the package: those are
    the boundaries that the bench tracer wraps, on one stack of spans."""
    ready = queue.SimpleQueue()
    stop = threading.Event()

    def draw():
        try:
            for lo in range(0, len(prices), PIPELINE_BLOCK):
                if stop.is_set():
                    return
                block = prices[lo:lo + PIPELINE_BLOCK]
                gen.random(out=block)
                block[...] = _inverse_transform(model, block)
                engine._check_prices(block)
                ready.put(lo + len(block))
        except BaseException as e:  # raised again by `ends`
            ready.put(e)

    def ends():
        hi = 0
        while hi < len(prices):
            hi = ready.get()
            if isinstance(hi, BaseException):
                raise hi
            yield hi

    thread = threading.Thread(target=draw, name="soc-auction-draw")
    thread.start()
    try:
        yield ends()
    finally:
        stop.set()
        thread.join()


# The asymptotic never-accepted fraction p_c of each comparison rule: the
# conjectured 1/e for the classic rule, and for the two-consecutive rule a
# measured 1/2 (0.49999 over 40 replicas of 10^6 bids of lognormal
# sigma=0.3, 95% CI 0.49991-0.50008).
RULE_PC = {Rule.CLASSIC: E_INV, Rule.TWO_CONSECUTIVE: 0.5}


def _pc(ns) -> float:
    """--pc, else the rule's own never-accepted fraction; accept-all sells
    every bid and keeps the classic rule's 1/e, to compare against."""
    return ns.pc if ns.pc is not None else RULE_PC.get(Rule(ns.rule), E_INV)


def _xc_for(model: PriceModel | None, prices: np.ndarray | None,
            pc: float) -> float:
    """Theoretical critical price when the model is known, else the
    empirical pc-quantile of the submitted bids; a ValueError for a pc
    outside (0, 1)."""
    if model is not None:
        return critical_price(model, pc)
    return analytics.empirical_critical_price(prices, pc)


def _formats(ns) -> set[str]:
    fmts = {f.strip() for f in ns.format.split(",") if f.strip()}
    bad = fmts - {"csv", "json"}
    if bad:
        raise ModelSpecError(f"--format: unknown format '{sorted(bad)[0]}'")
    if not fmts:
        raise ModelSpecError("--format: need at least one of csv, json")
    return fmts


@contextlib.contextmanager
def _publishing(ns):
    """A fresh hidden directory inside `--out` to write a command's files
    into; once the body succeeds they move into `--out` together. If a move
    fails, the files already moved are removed, so a failed command leaves
    none of its files; the staging directory never outlives the command."""
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield stage
        published = []
        try:
            for f in sorted(stage.iterdir()):
                os.replace(f, out / f.name)
                published.append(out / f.name)
        except BaseException:
            for f in published:
                f.unlink(missing_ok=True)
            raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


# =====================================================================
# Subcommands
# =====================================================================

def cmd_simulate(ns) -> int:
    fmts = _formats(ns)
    model = None if ns.model is None else parse_model(ns.model)
    prices = None if ns.prices_file is None else _load_prices_file(ns.prices_file)
    pc = _pc(ns)
    xc = _xc_for(model, prices, pc)  # refuses a bad --pc before the run
    result, prices = _run(model, ns.rule, ns.n, ns.seed, prices,
                          trajectory="csv" in fmts)
    with _publishing(ns) as out:
        if "csv" in fmts:
            bid_index = np.arange(1, result.n_bids + 1)
            sale_flag = np.diff(result.ntilde, prepend=0)
            sale_price = np.zeros(result.n_bids)
            sale_price[result.trigger_indices - 1] = result.sale_prices
            no_sale = sale_flag == 0
            _write_csv(out / "events.csv", {
                "bid_index": bid_index, "price": prices, "sale_flag": sale_flag,
                "sale_price": np.ma.array(sale_price, mask=no_sale),
                "trigger_index": np.ma.array(bid_index, mask=no_sale),
                "ntilde": result.ntilde})
        if "json" in fmts:
            _write_json(out / "summary.json", {
                "n_bids": result.n_bids,
                "n_sales": result.n_sales,
                "total_income": result.total_income,
                "sales_fraction": result.sales_fraction,
                "xc_used": xc,
                "pc": pc,
                "rule": Rule(ns.rule).value,
                "model": model.spec_string() if model is not None else None,
                "master_seed": None if ns.prices_file is not None else ns.seed,
            })
    return EXIT_OK


def cmd_theory(ns) -> int:
    model = parse_model(ns.model)
    summary = analytics.theory_summary(model, pc=ns.pc, b=ns.b)
    payload = {"model": model.spec_string(), **dataclasses.asdict(summary)}
    if ns.out is not None:
        with _publishing(ns) as out:
            _write_json(out / "theory.json", payload)
    print(_json_text(payload), end="")
    return EXIT_OK


def _avalanche_fit(sale_prices: np.ndarray, xc: float, k_min: int, k_max: int,
                   seed: int) -> tuple[analytics.AvalancheSet, analytics.TailFit]:
    """Complete avalanches of a run and the tail fit of their survival."""
    avalanches = analytics.segment_avalanches(sale_prices, xc)
    if avalanches.n_avalanches == 0:
        raise InsufficientDataError(
            "no complete avalanches: run too short or threshold too extreme")
    fit = analytics.fit_power_tail(avalanches.durations, k_min, k_max,
                                   seed=seed)
    return avalanches, fit


def cmd_avalanches(ns) -> int:
    if ns.rule == Rule.ACCEPT_ALL:
        raise ModelSpecError("--rule accept-all sells every bid: no avalanches")
    fmts = _formats(ns)
    analytics._log_grid(ns.kmin, ns.kmax)  # refuses a bad k range before the run
    model = None if ns.model is None else parse_model(ns.model)
    prices = None if ns.prices_file is None else _load_prices_file(ns.prices_file)
    xc = _xc_for(model, prices, _pc(ns))  # and a bad --pc too
    result, prices = _run(model, ns.rule, ns.n, ns.seed, prices)
    # fit before writing, so a failed fit leaves no output behind
    avalanches, fit = _avalanche_fit(result.sale_prices, xc, ns.kmin, ns.kmax,
                                     ns.seed)
    with _publishing(ns) as out:
        if "csv" in fmts:
            _write_csv(out / "durations.csv", {"duration": avalanches.durations})
            _write_csv(out / "survival.csv", {"k": fit.k, "survival": fit.survival})
        if "json" in fmts:
            _write_json(out / "tail_fit.json", {
                "slope": fit.slope, "stderr": fit.stderr, "k_min": fit.k_min,
                "k_max": fit.k_max, "n_points": fit.n_points,
                "n_avalanches": avalanches.n_avalanches,
                "left_censored_first": avalanches.left_censored_first,
                "right_censored_last": avalanches.right_censored_last,
                "xc_used": xc,
            })
    return EXIT_OK


def _incomes_at(grid: np.ndarray, seed: SeedSpec, run: RunResult) -> np.ndarray:
    """A run's total income after each grid count of bids."""
    cum = np.cumsum(run.sale_prices)
    pos = np.searchsorted(run.trigger_indices, grid, side="right")
    return np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)


def _figure_setup() -> tuple[PriceModel, analytics.TheorySummary]:
    model = parse_model(FIG_MODEL)
    return model, analytics.theory_summary(model)


def cmd_fig1a(ns) -> int:
    model, theory = _figure_setup()
    result, prices = _run(model, Rule.CLASSIC, FIG1A_N, ns.seed)
    accepted = np.zeros(FIG1A_N, dtype=np.int64)
    accepted[result.accepted_indices - 1] = 1
    share = float(np.mean(result.sale_prices > theory.xc))
    with _publishing(ns) as out:
        _write_csv(out / "fig1a.csv", {"bid_index": np.arange(1, FIG1A_N + 1),
                                       "price": prices, "accepted": accepted})
        _write_json(out / "fig1a_verdict.json", {
            "figure": "fig1a", "n_bids": FIG1A_N, "seed": ns.seed,
            "xc": theory.xc, "share_accepted_above_xc": share,
            "threshold": 0.99, "pass": share >= 0.99,
        })
    return EXIT_OK


def cmd_fig1b(ns) -> int:
    model, theory = _figure_setup()
    if ns.replicas < 2:
        raise ModelSpecError(
            f"--replicas must be >= 2 for the fig1b band, got {ns.replicas}")
    grid = np.asarray(FIG1B_GRID, dtype=np.int64)
    tis = np.array(montecarlo.map_replicas(
        model, Rule.CLASSIC, FIG1B_N, ns.replicas, ns.seed,
        functools.partial(_incomes_at, grid), ns.threads))
    mean = tis.mean(axis=0)
    sd = tis.std(axis=0, ddof=1)
    low, high = mean - 3 * sd, mean + 3 * sd
    theory_line = theory.expected_ti_per_bid * grid
    inside = (theory_line >= low) & (theory_line <= high)
    all_inside = bool(inside[grid >= 50].all())
    with _publishing(ns) as out:
        _write_csv(out / "fig1b.csv", {
            "n_bids": grid, "mean_ti": mean, "sd_ti": sd, "band_low": low,
            "band_high": high, "theory_ti": theory_line})
        _write_json(out / "fig1b_verdict.json", {
            "figure": "fig1b", "n_bids": FIG1B_N, "replicas": ns.replicas,
            "seed": ns.seed, "ti_per_bid_theory": theory.expected_ti_per_bid,
            "n_grid_points": int(len(grid)),
            "all_inside_band_n_ge_50": all_inside, "pass": all_inside,
        })
    return EXIT_OK


def cmd_fig2(ns) -> int:
    model, theory = _figure_setup()
    result, _ = _run(model, Rule.CLASSIC, FIG2_N, ns.seed)
    avalanches, fit = _avalanche_fit(result.sale_prices, theory.xc,
                                     FIG2_KMIN, FIG2_KMAX, ns.seed)
    ks, ps = fit.k, fit.survival
    anchor = ps[0] / ks[0] ** fit.slope
    err = abs(fit.slope - FIG2_TARGET_SLOPE)
    with _publishing(ns) as out:
        _write_csv(out / "fig2.csv", {"k": ks, "survival": ps,
                                      "fit_survival": anchor * ks ** fit.slope})
        _write_json(out / "fig2_verdict.json", {
            "figure": "fig2", "n_bids": FIG2_N, "seed": ns.seed,
            "n_avalanches": avalanches.n_avalanches,
            "slope": fit.slope, "stderr": fit.stderr,
            "target_slope": FIG2_TARGET_SLOPE, "tolerance": FIG2_TOLERANCE,
            "pass": bool(err <= FIG2_TOLERANCE),
        })
    return EXIT_OK


# =====================================================================
# Parser
# =====================================================================

def _add_model_flags(p: argparse.ArgumentParser, source, pc: float | None,
                     pc_text: str) -> None:
    """--model on `source`: `p` itself, where it is required, or a group of
    exclusive price sources; and --pc on `p`, with default `pc`."""
    source.add_argument("--model", required=source is p,
                        help="price model spec, e.g. lognormal:mu=0,sigma=0.3 "
                        "or truncated:base=1.2,inner=<spec> for a posted base price")
    p.add_argument("--pc", type=float, default=pc,
                   help=f"never-accepted fraction for the critical price (default {pc_text})")


def _bid_count(text: str) -> int:
    """An integral count >= 1, written as an int or a float ('1e5')."""
    try:
        v = float(text)
        if v >= 1 and v.is_integer():
            return int(v)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got '{text}'")


def _add_run_flags(p: argparse.ArgumentParser, n: int) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    _add_model_flags(p, source, None,
                     "the rule's own: 1/2 for two-consecutive, else 1/e")
    source.add_argument("--prices-file", help="one price per line, in place of --model")
    p.add_argument("--rule", choices=[r.value for r in Rule], default="classic")
    p.add_argument("--n", type=_bid_count, default=n,
                   help=f"number of bids, e.g. 1000 or 1e5 (default {n})")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", default="csv,json",
                   help="comma list from {csv,json} (default both)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soc-auction",
        description="Highest-remaining-bid auction: simulation and analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one auction, write event log + summary")
    _add_run_flags(p, n=1000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("theory", help="theoretical summary for a price model")
    _add_model_flags(p, p, E_INV, "1/e")
    p.add_argument("--b", type=float, default=analytics.B_DEFAULT,
                   help="accepted-count variance constant")
    p.add_argument("--out", default=None, help="also write theory.json here")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("avalanches", help="segment avalanches and fit the tail")
    _add_run_flags(p, n=2_000_000)
    p.add_argument("--kmin", type=int, default=100)
    p.add_argument("--kmax", type=int, default=10_000)
    p.set_defaults(func=cmd_avalanches)

    figures = sub.add_parser("replicate", help="reproduce a reference figure as data"
                             ).add_subparsers(dest="figure", required=True)
    for name, func, seed in (("fig1a", cmd_fig1a, FIG1A_SEED),
                             ("fig1b", cmd_fig1b, FIG1B_SEED),
                             ("fig2", cmd_fig2, FIG2_SEED)):
        p = figures.add_parser(name)
        p.add_argument("--seed", type=int, default=seed,
                       help=f"master seed (default {seed}, the canonical one)")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
    p = figures.choices["fig1b"]
    p.add_argument("--replicas", type=int, default=FIG1B_REPLICAS,
                   help=f"number of replicas (default {FIG1B_REPLICAS})")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the replicas (results unchanged)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except InsufficientDataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
