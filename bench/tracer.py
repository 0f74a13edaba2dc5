"""Span tracer for the traced benchmark run.

Wraps public functions of the soc_auction layers from outside the package:
each wrapped call records one span (name, start, end, parent) in memory.
Counts that later changes may cite (sales, bytes written, ...) are recorded
by the same wrappers. `Tracer.metrics` derives per-layer self times from the
spans; `write_spans` dumps them once the run has ended.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("distributions", "engine", "analytics", "montecarlo", "cli")


def _run_sequence_name(args, kwargs) -> str:
    from soc_auction.engine import Rule

    rule = Rule(args[0] if args else kwargs["rule"]).value.replace("-", "_")
    traj = "_trajectory" if kwargs.get("collect_trajectory", True) else ""
    return f"engine.run_sequence.{rule}{traj}"


def _count_fold(counts, name, args, kwargs, result):
    counts[f"bids:{name}"] += result.n_bids
    counts["engine.sales"] += result.n_sales
    counts["engine.remaining"] += len(result.remaining_prices)


def _count_sample(counts, name, args, kwargs, result):
    counts["bids:distributions.sample"] += len(result)


def _count_replicas(counts, name, args, kwargs, result):
    counts["montecarlo.replicas"] += len(result)


def _count_bytes(counts, name, args, kwargs, result):
    size = os.path.getsize(args[0])
    counts["cli.bytes_written"] += size
    counts[f"bytes:{name}"] += size


# (module, attribute path, span name or None for "<layer>.<attr>",
#  span-name function, count hook)
TARGETS = (
    ("distributions", "sample", None, None, _count_sample),
    ("distributions", "uniform_stream", None, None, None),
    ("distributions", "parse_model", None, None, None),
    ("distributions", "critical_price", None, None, None),
    ("distributions", "SeedSpec.generator", "distributions.generator", None, None),
    ("engine", "run_sequence", None, _run_sequence_name, _count_fold),
    ("analytics", "theory_summary", None, None, None),
    ("analytics", "segment_avalanches", None, None, None),
    ("analytics", "survival_function", None, None, None),
    ("analytics", "fit_power_tail", None, None, None),
    ("montecarlo", "run_replicas", None, None, _count_replicas),
    ("montecarlo", "estimate_b", None, None, None),
    ("montecarlo", "estimate_pc", None, None, None),
    ("montecarlo", "estimate_af", None, None, None),
    ("cli", "main", None, None, None),
    ("cli", "_write_csv", "cli.write_csv", None, _count_bytes),
    ("cli", "_write_json", "cli.write_json", None, _count_bytes),
)


def _noop():
    return None


class Tracer:
    """Span i is (names[i], starts[i], ends[i], parents[i]): perf_counter
    nanoseconds, and the index of the enclosing span (-1 for a root). All
    spans of one tracer share `run_id`.

    Spans live in flat arrays rather than one object per span, so recording
    allocates nothing the garbage collector tracks: collections triggered by
    the tracer would otherwise land in arbitrary spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._outside_ns = None

    @property
    def spans(self) -> list[tuple[str, int, int, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def duration_ns(self, i: int) -> int:
        return self.ends[i] - self.starts[i]

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, start: int) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(0)
        self.parents.append(self._stack[-1])
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (not a layer); yields its
        index."""
        i = self._open(name, time.perf_counter_ns())
        try:
            yield i
        finally:
            self._stack.pop()
            self.ends[i] = time.perf_counter_ns()

    def _wrap(self, fn, name, name_of, count):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, counts = self._stack, self.counts
        now = time.perf_counter_ns

        # The bookkeeping sits between the two clock reads, so it is charged
        # to the wrapped layer rather than left uncovered in the caller.
        def traced(*args, **kwargs):
            start = now()
            i = len(names)
            names.append(name_of(args, kwargs) if name_of else name)
            starts.append(start)
            ends.append(0)
            parents.append(stack[-1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, names[i], args, kwargs, result)
                return result
            finally:
                stack.pop()
                ends[i] = now()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target, wherever the package binds it."""
        import importlib

        modules = [m for k, m in list(sys.modules.items())
                   if k == "soc_auction" or k.startswith("soc_auction.")]
        for mod_name, path, name, name_of, count in TARGETS:
            owner = importlib.import_module(f"soc_auction.{mod_name}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name or f"{mod_name}.{attr}",
                                 name_of, count)
            holders = [owner] if cls else [
                m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived numbers ---------------------------------------------------

    def subtree(self, root: int) -> list[int]:
        """Indices of `root` and every span below it."""
        parents = self.parents
        inside = {root}
        for i in range(root + 1, len(parents)):
            if parents[i] in inside:
                inside.add(i)
        return sorted(inside)

    def self_times(self, idx: list[int]) -> dict[int, int]:
        """Span duration minus the time its direct children cover (ns)."""
        own = {i: self.duration_ns(i) for i in idx}
        for i in idx:
            parent = self.parents[i]
            if parent in own:
                own[parent] -= self.duration_ns(i)
        return own

    def nesting_errors(self) -> list[str]:
        """Spans that do not lie inside their parent, or are unfinished."""
        errors = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {i} {name} ends before it starts")
            if parent >= 0 and not (self.starts[parent] <= start
                                    and end <= self.ends[parent]):
                errors.append(f"span {i} {name} is outside parent "
                              f"{self.names[parent]}")
        return errors

    def metrics(self, root: int) -> dict[str, float]:
        """Per-layer metrics of the span tree under `root` (a bench span)."""
        idx = self.subtree(root)
        own = self.self_times(idx)
        total = defaultdict(int)   # inclusive ns per span name
        calls = defaultdict(int)
        layer_self = defaultdict(int)
        for i in idx:
            name = self.names[i]
            total[name] += self.duration_ns(i)
            calls[name] += 1
            layer_self[name.split(".")[0]] += own[i]
        counts = self.counts
        wall_ns = self.duration_ns(root)

        def s(name):
            return total[name] / 1e9

        def per_bid(name):
            bids = counts[f"bids:{name}"]
            return total[name] / bids if bids else 0.0

        fold = {k: v for k, v in total.items()
                if k.startswith("engine.run_sequence.")}
        csv_s = s("cli.write_csv")
        covered = sum(layer_self[layer] for layer in LAYERS)
        main_self = sum(own[i] for i in idx if self.names[i] == "cli.main")
        out = {
            "distributions.sample_s": s("distributions.sample"),
            "distributions.sample_ns_per_bid": per_bid("distributions.sample"),
            "distributions.generator_calls": calls["distributions.generator"],
            "engine.run_sequence_s": sum(fold.values()) / 1e9,
            "engine.sales": counts["engine.sales"],
            "engine.remaining": counts["engine.remaining"],
            "analytics.theory_summary_s": s("analytics.theory_summary"),
            "analytics.segment_avalanches_s": s("analytics.segment_avalanches"),
            "analytics.survival_function_s": s("analytics.survival_function"),
            "analytics.survival_function_calls": calls["analytics.survival_function"],
            "analytics.fit_power_tail_s": s("analytics.fit_power_tail"),
            "montecarlo.run_replicas_s": s("montecarlo.run_replicas"),
            "montecarlo.replicas_per_s": (
                counts["montecarlo.replicas"] / s("montecarlo.run_replicas")
                if total["montecarlo.run_replicas"] else 0.0),
            "montecarlo.estimate_b_s": s("montecarlo.estimate_b"),
            "montecarlo.estimate_af_s": s("montecarlo.estimate_af"),
            "cli.write_csv_s": csv_s,
            "cli.write_json_s": s("cli.write_json"),
            "cli.bytes_written": counts["cli.bytes_written"],
            "cli.csv_mb_per_s": (counts["bytes:cli.write_csv"] / 1e6 / csv_s
                                 if csv_s else 0.0),
            "cli.main_self_s": main_self / 1e9,
        }
        for variant in ("classic", "classic_trajectory", "two_consecutive"):
            out[f"engine.fold_ns_per_bid.{variant}"] = per_bid(
                f"engine.run_sequence.{variant}")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        # Calling a wrapper costs time before its first and after its last
        # clock read; that time lands in the caller, not in any layer.
        outside_ns = (len(idx) - 1) * self.outside_ns_per_span()
        out["trace.wall_s"] = wall_ns / 1e9
        out["trace.outside_s"] = outside_ns / 1e9
        out["trace.uncovered_s"] = (wall_ns - covered) / 1e9
        out["trace.coverage"] = covered / max(wall_ns - outside_ns, covered, 1)
        return out

    def outside_ns_per_span(self, calls: int = 50_000) -> float:
        """Cost of one traced call that falls outside its span (ns): a loop
        over a traced no-op, minus its spans, minus the same loop untraced.
        Measured once per tracer."""
        if self._outside_ns is None:
            probe = Tracer("calibration")
            traced = probe._wrap(_noop, "calibration", None, None)
            now = time.perf_counter_ns
            t0 = now()
            for _ in range(calls):
                _noop()
            plain = now() - t0
            t0 = now()
            for _ in range(calls):
                traced()
            loop = now() - t0
            inside = sum(probe.ends) - sum(probe.starts)
            self._outside_ns = max(loop - inside - plain, 0) / calls
        return self._outside_ns

    def write_spans(self, path) -> None:
        """One CSV row per span; start/end are perf_counter nanoseconds."""
        with open(path, "w") as fh:
            fh.write("run_id,span,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{name},{start},{end},{parent}\n")
