"""Benchmark of the soc_auction package: end-to-end and traced per-layer runs.

    python3 bench/run.py --workload fig2 --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --trace 1

One run repeats the workload's operation for `--seconds` seconds, checks
every output, prints each metric with its unit and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With `--trace 0`
the metrics are the end-to-end ones of BENCHMARK.json (measured untraced);
with `--trace 1` they are the per-layer ones, from one traced operation.
A full record (machine, inputs, per-operation times, fingerprints, extra
metrics) goes to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
PIN_SEED = 1
SETUP_REPEATS = 3

# Metrics reported beside the gated ones, in the record and on stdout.
EXTRA_UNITS = {
    "error_rate": "ratio",
    "wall_p50_s": "s",
    "wall_max_s": "s",
    "ops": "count",
    "trace.wall_s": "s",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import soc_auction
soc_auction.theory_summary(soc_auction.parse_model(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def _import_package():
    """Import soc_auction from this checkout's src/, never from elsewhere."""
    if not (SRC / "soc_auction" / "__init__.py").is_file():
        raise SystemExit(f"error: no soc_auction package under {SRC}")
    sys.path.insert(0, str(SRC))
    import soc_auction

    if Path(soc_auction.__file__).resolve().parent != SRC / "soc_auction":
        raise SystemExit(f"error: imported soc_auction from {soc_auction.__file__}")
    return soc_auction


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _machine() -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MB)."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def _setup_seconds(model_spec: str) -> float:
    """Import + parse the model + theory_summary, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), model_spec],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def _load_pin(workload: str, size: str, seed: int):
    if seed != PIN_SEED:
        return None
    pins = json.loads((BENCH / "pins.json").read_text())
    return pins.get(workload, {}).get(size)


class Run:
    """Bookkeeping of one workload run: operations attempted and failed."""

    def __init__(self, wl, pin):
        self.wl = wl
        self.pin = pin
        self.reference = None   # fingerprint of the first good operation
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0

    def execute(self, workers=None):
        """One timed operation; returns (wall_s, output or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(workers)
        except Exception as e:  # counted as a failed operation, then reported
            self._fail(f"operation raised {type(e).__name__}: {e}")
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, out

    def verify(self, out) -> None:
        """The output must repeat byte for byte, and match the pin."""
        if out is None:
            return
        fp = self.wl.fingerprint(out)
        if self.reference is None:
            self.reference = fp
            if self.pin is not None and fp != self.pin:
                self._fail(f"fingerprint {fp} differs from pinned {self.pin}")
        elif fp != self.reference:
            self._fail(f"output changed between operations: {fp}")

    def _fail(self, message: str) -> None:
        self.failed_ops += 1
        self.failures.append(message)

    def check(self, out) -> None:
        """Invariants; every operation wrote the same bytes, so a broken
        invariant fails all of them."""
        if out is None:
            return
        bad = self.wl.check(out)
        if bad:
            self.failures.extend(bad)
            self.failed_ops = self.attempted


def _repeat(run: Run, seconds: float, workers=None):
    """Operations for `seconds` (at least one); stops early rather than
    start an operation that would likely run past the budget.

    Each operation starts from the same heap: the previous output is dropped
    and the garbage collector run, untimed, so the collections inside an
    operation are the same every time. Returns the operation times and the
    last operation's output (None if it raised)."""
    walls, out = [], None
    start = time.perf_counter()
    while True:
        out = None
        gc.collect()
        wall, out = run.execute(workers)
        run.verify(out)
        walls.append(wall)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, out


def _untraced(wl, run: Run, args) -> tuple[dict, dict]:
    walls, last = _repeat(run, args.seconds)
    rss = _peak_rss_mb()
    run.check(last)
    # After the RSS reading: the set-up processes are children too.
    setup = [_setup_seconds(wl.input_record()["model"])
             for _ in range(SETUP_REPEATS)]
    # The mean over the whole run: co-tenant load on the shared host slows
    # every operation of a stretch of seconds to minutes by up to 1.9x, so a
    # run's operation times are bimodal. Across runs the mean spread least;
    # the median and the minimum jump with which mode a run fell in.
    wall = statistics.fmean(walls)
    metrics = {"setup_s": statistics.median(setup), "wall_s": wall,
               "bids_per_s": wl.bids_per_op / wall, "peak_rss_mb": rss}
    detail = {"op_wall_s": walls, "wall_p50_s": statistics.median(walls),
              "wall_max_s": max(walls), "ops": len(walls),
              "setup_samples_s": setup}
    return metrics, detail


def _traced(wl, run: Run, args, run_id: str) -> tuple[dict, dict]:
    from tracer import Tracer

    walls, last = _repeat(run, args.seconds / 2)
    run.check(last)
    tracer = Tracer(run_id)
    ops = [("op", wl.workers)]
    if wl.workers > 1:
        # Wrappers in this process cannot see work done in pool children.
        ops.append(("op_workers_1", 1))
    per_op, traced_walls = {}, {}
    with tracer:
        for label, workers in ops:
            tracer.counts.clear()
            gc.collect()
            with tracer.span(f"bench.{label}") as root:
                _, out = run.execute(workers)
            traced_walls[label] = tracer.duration_ns(root) / 1e9
            per_op[label] = tracer.metrics(root)
            run.verify(out)
    nesting = tracer.nesting_errors()
    if nesting:
        run.failures.extend(nesting[:10])
        run.failed_ops = run.attempted
    metrics = dict(per_op["op"])
    metrics["montecarlo.parallel_efficiency"] = 0.0
    metrics["montecarlo.pool_overhead_s"] = 0.0
    if "op_workers_1" in per_op:
        one = per_op["op_workers_1"]
        for key, value in one.items():
            if key.startswith(("distributions.", "engine.")):
                metrics[key] = value
        t1, t2 = one["montecarlo.run_replicas_s"], metrics["montecarlo.run_replicas_s"]
        metrics["montecarlo.parallel_efficiency"] = t1 / (wl.workers * t2)
        metrics["montecarlo.pool_overhead_s"] = t2 - (
            one["distributions.sample_s"] + one["engine.run_sequence_s"]) / wl.workers
    metrics["trace.overhead_s"] = traced_walls["op"] - statistics.fmean(walls)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{wl.name}-{args.size}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    detail = {"op_wall_s": walls, "traced_wall_s": traced_walls,
              "per_op": per_op, "spans_file": str(spans_path.relative_to(ROOT)),
              "n_spans": len(tracer.names)}
    return metrics, detail


def run_one(args) -> int:
    _import_package()
    from soc_auction import parse_model, theory_summary

    from workloads import MODEL_SPEC, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    spec = _spec()
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in gated}
    run_id = uuid.uuid4().hex
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS))
    try:
        theory_summary(parse_model(MODEL_SPEC))  # warm lazy imports
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        run = Run(wl, _load_pin(wl.name, args.size, args.seed))
        if args.trace:
            metrics, detail = _traced(wl, run, args, run_id)
        else:
            metrics, detail = _untraced(wl, run, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    error_rate = run.failed_ops / run.attempted
    record = {
        "run_id": run_id, "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "workers": wl.workers,
        "input": wl.input_record(), "bids_per_op": wl.bids_per_op,
        "machine": _machine(),
        "attempted": run.attempted, "failed": run.failed_ops,
        "error_rate": error_rate, "failures": run.failures,
        "fingerprint": run.reference, "pinned": run.pin is not None,
        "metrics": metrics, **detail,
    }
    (RESULTS / f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {wl.name} seed={args.seed} size={args.size} "
          f"bids/op={wl.bids_per_op} ops={run.attempted} "
          f"workers={wl.workers} pinned={run.pin is not None}")
    for failure in run.failures:
        print(f"# FAILED: {failure}")
    shown = {**metrics, "error_rate": error_rate,
             **{k: v for k, v in detail.items() if k in EXTRA_UNITS}}
    for name, value in sorted(shown.items()):
        unit = units.get(name) or EXTRA_UNITS[name]
        print(f"{wl.name:14s} {name:40s} {value:16.6f} {unit}")
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": run.failed_ops,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="simulate-csv, fig2, replica-ladder or all")
    parser.add_argument("--seed", type=int, default=PIN_SEED,
                        help="workload seed; inputs are made from it")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long to repeat the operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced operation")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        _import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
