"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from soc_auction import cli, distributions, montecarlo  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "pins.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_small_run_emits_every_metric_and_passes(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    gated = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in gated} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_outputs_are_byte_identical(workload, tmp_path):
    wl = WORKLOADS[workload](1, "small", tmp_path)
    plain = wl.fingerprint(wl.run())
    with Tracer("test") as tracer, tracer.span("bench.op"):
        traced = wl.fingerprint(wl.run())
    assert plain == traced == PINS[workload]["small"]
    assert len(tracer.spans) > 1


def test_spans_nest_and_cover_the_operation(tmp_path):
    wl = WORKLOADS["fig2"](1, "small", tmp_path)
    with Tracer("test") as tracer, tracer.span("bench.op"):
        wl.run()
    assert tracer.nesting_errors() == []
    for name, start, end, parent in tracer.spans[1:]:
        assert parent >= 0
        assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]
    m = tracer.metrics(0)
    # one survival curve for the figure plus one per bootstrap resample
    assert m["analytics.survival_function_calls"] == 251
    assert m["trace.coverage"] >= 0.9
    assert m["cli.main_self_s"] < m["trace.wall_s"]


def test_fig2_refusal_is_accepted_only_when_justified(tmp_path):
    # At 2e5 bids, seed 56 leaves no survival point in [100, 1e4]
    wl = WORKLOADS["fig2"](56, "small", tmp_path)
    out = wl.run()
    assert out == cli.EXIT_DATA
    assert wl.fingerprint(out) == {"exit": cli.EXIT_DATA}
    assert wl.check(out) == []
    (wl.out / "fig2.csv").write_text("k,survival,fit_survival\n")
    assert wl.check(out) != []


def test_tracer_restores_every_wrapped_function():
    before = (cli.main, cli._write_csv, cli.sample, montecarlo.run_sequence,
              distributions.SeedSpec.generator)
    with Tracer("test"):
        assert cli.main is not before[0]
        assert montecarlo.run_sequence is not before[3]
    assert (cli.main, cli._write_csv, cli.sample, montecarlo.run_sequence,
            distributions.SeedSpec.generator) == before


def test_checks_catch_a_changed_output(tmp_path):
    wl = WORKLOADS["simulate-csv"](1, "small", tmp_path)
    out = wl.run()
    assert wl.check(out) == []
    events = out / "events.csv"
    lines = events.read_text().splitlines(keepends=True)
    row = lines[100].split(",")
    row[5] = str(int(row[5]) + 1) + "\n"  # ntilde off by one
    lines[100] = ",".join(row)
    events.write_text("".join(lines))
    assert wl.fingerprint(out) != PINS["simulate-csv"]["small"]
    assert any("ntilde" in failure for failure in wl.check(out))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "fig2", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
