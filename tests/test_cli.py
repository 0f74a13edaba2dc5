"""CLI tests: file schemas, round trips, determinism, exit codes."""

import argparse
import csv
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import textwrap
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soc_auction import (Rule, SeedSpec, _kernel, cli, parse_model,
                         run_sequence, sample)
from soc_auction.cli import (CSV_BLOCK_ROWS, FIG1B_GRID, FIG1B_N, FIG1B_SEED,
                             FIG_MODEL, _write_csv, build_parser, main)

from conftest import needs_kernel

WORKED = "14\n15\n18\n13\n16\n12\n10\n"


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def exit_code(argv):
    """main's exit code, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_simulate_worked_example_prices_file(tmp_path):
    pf = tmp_path / "prices.txt"
    pf.write_text(WORKED)
    rc = main(["simulate", "--prices-file", str(pf), "--rule", "classic",
               "--out", str(tmp_path)])
    assert rc == 0
    # integer-valued reals are bare, the sale cells empty where none fired
    assert (tmp_path / "events.csv").read_text() == (
        "bid_index,price,sale_flag,sale_price,trigger_index,ntilde\n"
        "1,14,0,,,0\n2,15,0,,,0\n3,18,0,,,0\n4,13,1,18,4,1\n"
        "5,16,0,,,1\n6,12,1,16,6,2\n7,10,1,15,7,3\n")
    rows = read_csv(tmp_path / "events.csv")
    assert len(rows) == 7
    sold = [(float(r["sale_price"]), int(r["trigger_index"])) for r in rows
            if r["sale_flag"] == "1"]
    assert sold == [(18.0, 4), (16.0, 6), (15.0, 7)]
    assert [int(r["ntilde"]) for r in rows] == [0, 0, 0, 1, 1, 2, 3]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_sales"] == 3
    assert summary["total_income"] == 49.0
    assert summary["model"] is None and summary["master_seed"] is None


def test_write_csv_format_rule(backend, tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, {
        "i": np.array([1, -2, 30]),
        "x": np.array([0.1, 5.0, 1e300]),
        "m": np.ma.array([2.5, 7.0, 3.0], mask=[False, True, False]),
    })
    assert path.read_bytes() == (
        b"i,x,m\n"
        b"1,0.10000000000000001,2.5\n"
        b"-2,5,\n"
        b"30,1.0000000000000001e+300,3\n")


def test_write_csv_across_block_boundary(backend, tmp_path):
    n = CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    ints = rng.integers(-10**12, 10**12, n)
    reals = rng.lognormal(0, 3, n)
    masked = np.ma.array(rng.normal(size=n), mask=rng.random(n) < 0.4)
    path = tmp_path / "t.csv"
    _write_csv(path, {"a": ints, "b": reals, "c": masked})
    naive = "a,b,c\n" + "".join(
        ",".join((str(int(a)), f"{float(b):.17g}",
                  "" if c is np.ma.masked else f"{float(c):.17g}")) + "\n"
        for a, b, c in zip(ints, reals, masked))
    assert path.read_text() == naive


def _as_doubles(bits):
    return np.asarray(bits, dtype=np.int64).view(np.float64)


def _in_range(v):
    """The entries of `v` that the kernel writes: 2**-53 <= |x| < 2**128.
    A block holding any other real goes to `cli._cells`."""
    return v[(np.abs(v) >= 2.0**-53) & (np.abs(v) < 2.0**128)]


_INT64 = st.integers(-2**63, 2**63 - 1)
# Hypothesis's own mix of floats, and uniform bit patterns: every exponent,
# subnormals, and NaNs of either sign and any payload
_DOUBLES = st.one_of(st.floats(), _INT64.map(lambda b: float(_as_doubles(b))))
# the same two, of either sign, within the kernel's range: biased exponents
# 1023 - 53 to 1023 + 127
_IN_RANGE = st.builds(
    lambda x, neg: -x if neg else x,
    st.one_of(st.floats(2.0**-53, 2.0**128, exclude_max=True),
              st.integers(970 << 52, (1151 << 52) - 1).map(
                  lambda b: float(_as_doubles(b)))),
    st.booleans())


@st.composite
def _csv_columns(draw):
    n = draw(st.integers(0, 30))
    # most frames hold only reals that the kernel writes; one in four may
    # hold any real, and its blocks mostly go to `_cells`
    reals = _DOUBLES if draw(st.integers(0, 3)) == 0 else _IN_RANGE
    columns = {}
    for j in range(draw(st.integers(1, 4))):
        real = draw(st.booleans())
        col = np.array(draw(st.lists(reals if real else _INT64,
                                     min_size=n, max_size=n)),
                       dtype=np.float64 if real else np.int64)
        if draw(st.booleans()):
            col = np.ma.array(col, mask=draw(st.lists(
                st.booleans(), min_size=n, max_size=n)))
        columns[f"c{j}"] = col
    return columns


_POW10_ULPS = _as_doubles(
    np.array([float(f"1e{e}") for e in range(-300, 301)]).view(np.int64)[:, None]
    + np.arange(-40, 41)).ravel()
# dyadic values exactly halfway between two 17-digit decimals (18
# significant digits, the last a 5), where the tie goes to the even digit
_HALFWAY = np.array([v for v in (
    *(k + f for k in (10**15, 10**15 + 1, 1234567890123456, 2**51 - 1)
      for f in (0.25, 0.75)),
    *(m * 2.0**-j for m in range(1, 200, 2) for j in range(1, 80)))
    if (d := Decimal(v).as_tuple().digits)[-1] == 5 and len(d) == 18])
_SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                     5e-324, -5e-324, 2.0**-1074 * 12345, 2.0**-1022 - 2.0**-1074,
                     # NaNs with a payload, the second with its sign bit
                     *_as_doubles([0x7FF8000000000001, -0x0007FFFFFFFFFFFF])])
_LONGEST = np.full(CSV_BLOCK_ROWS, -1.2345678901234568e-05)  # 23 bytes
# the kernel writes 2**-53 <= |x| < 2**128 by integer arithmetic and
# declines a block with any other real: each end of that range, and one ulp
# past each
_EXACT_ENDS = np.array([2.0**-53, np.nextafter(2.0**-53, 0),
                        np.nextafter(2.0**128, 0), 2.0**128])
# whole numbers, 40 ulps either side of 2**53, 1e16, 1e17 and 2**64
_WHOLE = _as_doubles(np.array([2.0**53, 1e16, 1e17, 2.0**64]).view(np.int64)[:, None]
                     + np.arange(-40, 41)).ravel()
# doubles just below a power of ten that their 17 digits round up to
_CARRIES = np.array([v for v in _as_doubles(
    np.array([float(f"1e{e}") for e in range(-323, 309)]).view(np.int64)[:, None]
    - np.arange(3)).ravel()
    if Decimal(v) < (t := Decimal(f"{v:.17g}")) and t.normalize().as_tuple().digits == (1,)])
_SIGNED_LOGNORMAL = (np.random.default_rng(1).lognormal(0, 3, 10**4)
                     * np.random.default_rng(2).choice([-1.0, 1.0], 10**4))
# three blocks, each declined by one real out of the kernel's range: at the
# first and last rows of the first block, the first of the second, and the
# one row of the third
_DECLINED_ROWS = np.linspace(1.0, 2.0, 2 * CSV_BLOCK_ROWS + 1)
_DECLINED_ROWS[[0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, -1]] = [
    0.0, 1e-300, math.inf, 1e300]


@needs_kernel
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(columns=_csv_columns())
@example(columns={"pow10": _POW10_ULPS, "neg": -_POW10_ULPS[::-1]})
@example(columns={"pow10": _in_range(_POW10_ULPS),
                  "neg": -_in_range(_POW10_ULPS)[::-1]})
@example(columns={"half": np.concatenate([_HALFWAY, -_HALFWAY])})
@example(columns={"x": _SPECIAL, "i": np.arange(len(_SPECIAL))})
@example(columns={"i": np.array([-2**63, 2**63 - 1, 0, -1], dtype=np.int64)})
@example(columns={"x": _LONGEST, "m": np.ma.array(_LONGEST, mask=False),
                  "i": np.full(CSV_BLOCK_ROWS, -2**63, dtype=np.int64)})
@example(columns={"x": np.zeros(0), "i": np.zeros(0, dtype=np.int64)})
@example(columns={"x": np.ones(5), "m": np.ma.array(np.ones(5), mask=True)})
@example(columns={"x": np.linspace(0, 1, 40)[::2],  # strided: copied
                  "m": np.ma.array(np.arange(40), mask=np.arange(40) % 3 == 0)[::2]})
@example(columns={"x": np.linspace(0, 1, CSV_BLOCK_ROWS - 1)})
@example(columns={"x": np.linspace(0, 1, CSV_BLOCK_ROWS + 1),
                  "i": np.ma.array(np.arange(CSV_BLOCK_ROWS + 1),
                                   mask=np.arange(CSV_BLOCK_ROWS + 1) % 3 == 0)})
@example(columns={"ends": _EXACT_ENDS, "neg": -_EXACT_ENDS})
@example(columns={"ends": _in_range(_EXACT_ENDS), "neg": -_in_range(_EXACT_ENDS)})
@example(columns={"whole": _WHOLE, "neg": -_WHOLE})
@example(columns={"carry": np.concatenate([_CARRIES, -_CARRIES])})
@example(columns={"carry": _in_range(np.concatenate([_CARRIES, -_CARRIES]))})
@example(columns={"x": _DECLINED_ROWS, "i": np.arange(len(_DECLINED_ROWS))})
@example(columns={"x": _SIGNED_LOGNORMAL})
def test_kernel_csv_rows_equal_python_cells(columns):
    with tempfile.TemporaryDirectory() as d:
        fast, slow = Path(d) / "c.csv", Path(d) / "py.csv"
        _write_csv(fast, columns)
        with mock.patch.object(_kernel, "load", lambda: None):  # `_cells`
            _write_csv(slow, columns)
        assert fast.read_bytes() == slow.read_bytes()


@needs_kernel
def test_kernel_writes_in_range_blocks_without_python_cells(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(3)
    nan_where_masked = np.ma.array(rng.lognormal(0, 3, n), mask=rng.random(n) < 0.3)
    nan_where_masked.data[nan_where_masked.mask] = math.nan  # masked: not declined
    columns = {"x": rng.lognormal(0, 3, n) * rng.choice([-1.0, 1.0], n),
               "m": nan_where_masked,
               "i": rng.integers(-2**63, 2**63 - 1, n, endpoint=True),
               "longest": np.full(n, -1.2345678901234568e-05)}
    with mock.patch.object(_kernel, "load", lambda: None):
        _write_csv(tmp_path / "py.csv", columns)

    def no_cells(col):
        raise AssertionError("a block went to cli._cells")

    with mock.patch.object(cli, "_cells", no_cells):
        _write_csv(tmp_path / "c.csv", columns)
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()


@needs_kernel
def test_kernel_csv_rows_ignore_the_numeric_locale(tmp_path):
    # a locale whose decimal point is a comma, compiled beside the test
    localedef = shutil.which("localedef")
    if localedef:
        subprocess.run([localedef, "-i", "de_DE", "-f", "UTF-8",
                        str(tmp_path / "de_DE.UTF-8")], capture_output=True)
    if not (tmp_path / "de_DE.UTF-8").is_dir():
        pytest.skip("no decimal-comma locale can be built here")
    code = textwrap.dedent("""\
        import locale, sys
        from pathlib import Path
        import numpy as np
        from soc_auction import _kernel
        from soc_auction.cli import _write_csv
        locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
        assert locale.localeconv()["decimal_point"] == ","
        assert _kernel.load()
        # the first file's one block goes to `cli._cells` (-1e-300 is out
        # of the kernel's range), the second file's to the kernel
        _write_csv(Path(sys.argv[1]), {"x": np.array([0.5, -1e-300, 1e20])})
        _write_csv(Path(sys.argv[2]), {"x": np.array([0.5, -1e-10, 1e20])})
        """)
    out, exact = tmp_path / "t.csv", tmp_path / "exact.csv"
    subprocess.run([sys.executable, "-c", code, str(out), str(exact)],
                   check=True, env={**os.environ, "LOCPATH": str(tmp_path)})
    assert out.read_bytes() == b"x\n0.5\n-1e-300\n1e+20\n"
    assert exact.read_bytes() == b"x\n0.5\n-1e-10\n1e+20\n"


@pytest.mark.parametrize("columns", [
    {"a": np.arange(3), "b": np.arange(2.0)},
    {"a": np.arange(2.0), "b": np.ma.array(np.arange(3), mask=[0, 1, 0])},
])
def test_write_csv_refuses_unequal_columns(backend, tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"a=\d, b=\d"):
        _write_csv(path, columns)
    assert list(tmp_path.iterdir()) == []


def test_simulate_model_run_and_refold_round_trip(tmp_path):
    rc = main(["simulate", "--model", "lognormal:mu=0,sigma=0.3",
               "--rule", "classic", "--n", "3000", "--seed", "42",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "events.csv")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(rows) == summary["n_bids"] == 3000
    # offline refold of the event log reproduces the summary exactly
    sale_prices = [float(r["sale_price"]) for r in rows if r["sale_flag"] == "1"]
    assert len(sale_prices) == summary["n_sales"]
    assert math.fsum(sale_prices) == summary["total_income"]
    assert int(rows[-1]["ntilde"]) == summary["n_sales"]
    assert summary["sales_fraction"] == summary["n_sales"] / summary["n_bids"]
    # sales fraction near 1 - 1/e
    assert abs(summary["sales_fraction"] - (1 - math.exp(-1))) < 0.03
    assert summary["xc_used"] == pytest.approx(0.90371, abs=1e-5)


@needs_kernel
def test_outputs_equal_on_both_backends(tmp_path, monkeypatch):
    pf = tmp_path / "prices.txt"
    pf.write_text(WORKED)
    runs = {rule.value: ["simulate", "--model", FIG_MODEL, "--rule", rule.value,
                         "--n", "5000", "--seed", "3"] for rule in Rule}
    runs["prices-file"] = ["simulate", "--prices-file", str(pf)]
    runs["avalanches"] = ["avalanches", "--model", FIG_MODEL, "--n", "50000",
                          "--seed", "1", "--kmin", "2", "--kmax", "200"]
    runs["fig1a"] = ["replicate", "fig1a"]
    runs["fig1b"] = ["replicate", "fig1b", "--replicas", "20"]
    outputs = {}
    for backend in ("c", "python"):
        if backend == "python":
            monkeypatch.setattr(_kernel, "load", lambda: None)
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / backend / name)]) == 0
        outputs[backend] = {p.relative_to(tmp_path / backend): p.read_bytes()
                            for p in (tmp_path / backend).rglob("*.*")}
    assert sum(p.suffix == ".csv" for p in outputs["c"]) == 8
    assert outputs["c"] == outputs["python"]


def test_simulate_n_accepts_float_notation(tmp_path):
    for n, out in (("1000", tmp_path / "int"), ("1e3", tmp_path / "float")):
        assert main(["simulate", "--model", "lognormal:mu=0,sigma=0.3",
                     "--n", n, "--seed", "4", "--out", str(out)]) == 0
    assert ((tmp_path / "int" / "events.csv").read_bytes()
            == (tmp_path / "float" / "events.csv").read_bytes())


@pytest.mark.parametrize("n", ["1.5", "0", "-3", "abc", "inf", "nan"])
def test_simulate_rejects_bad_n(tmp_path, n):
    pf = tmp_path / "prices.txt"
    pf.write_text(WORKED)
    out = tmp_path / "out"
    for source in (["--model", "uniform:lo=0,hi=1"], ["--prices-file", str(pf)]):
        assert exit_code(["simulate", *source, "--n", n, "--out", str(out)]) == 2
        assert not out.exists()


def test_simulate_accept_all_income_is_sum(tmp_path):
    rc = main(["simulate", "--model", "uniform:lo=0,hi=1", "--rule",
               "accept-all", "--n", "10", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "events.csv")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_sales"] == 10
    assert math.fsum(float(r["price"]) for r in rows) == pytest.approx(
        summary["total_income"], rel=1e-15)


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["simulate", "--model", "exponential:rate=1.0", "--n", "500",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_simulate_format_subsets(tmp_path):
    rc = main(["simulate", "--model", "uniform:lo=0,hi=1", "--n", "50",
               "--seed", "1", "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    assert (tmp_path / "events.csv").exists()
    assert not (tmp_path / "summary.json").exists()


def test_simulate_base_price_truncates(tmp_path):
    rc = main(["simulate", "--model", "truncated:base=2.0,inner=exponential:rate=1.0",
               "--n", "400", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "events.csv")
    assert min(float(r["price"]) for r in rows) >= 2.0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["model"] == "truncated:base=2,inner=exponential:rate=1"


@pytest.mark.parametrize("command", ["simulate", "avalanches", "theory"])
def test_base_price_flag_is_a_usage_error(tmp_path, capsys, command):
    # a base price is spelled only as a truncated: model spec
    out = tmp_path / "out"
    rc = exit_code([command, "--model", "exponential:rate=1.0",
                    "--base-price", "2.0", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--base-price" in captured.err and captured.out == ""
    assert not out.exists()


def test_seed_defaults_to_zero_and_ignores_the_environment(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("SOC_AUCTION_SEED", "99")
    assert main(["simulate", "--model", "uniform:lo=0,hi=1", "--n", "100",
                 "--out", str(a)]) == 0
    assert main(["simulate", "--model", "uniform:lo=0,hi=1", "--n", "100",
                 "--seed", "0", "--out", str(b)]) == 0
    for name in ("events.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_invalid_model_spec_exit_2_names_field(tmp_path, capsys):
    rc = main(["simulate", "--model", "lognormal:mu=0", "--n", "10",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "sigma" in capsys.readouterr().err
    rc = main(["theory", "--model", "exponential:rate=oops"])
    assert rc == 2
    assert "rate" in capsys.readouterr().err


def test_base_too_far_in_the_tail_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--model", "truncated:base=708,inner=exponential:rate=1",
               "--n", "10", "--out", str(out)])
    assert rc == 2
    assert "mass" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exit_3(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc = main(["simulate", "--model", "uniform:lo=0,hi=1", "--n", "10",
               "--out", str(blocker)])
    assert rc == 3


def test_failed_write_leaves_no_file(backend, tmp_path, monkeypatch, capsys):
    written = []

    class FullDisk:
        """A file whose writes fail once the header is written."""

        def __init__(self, *args):
            self.fh = open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if written:
                raise OSError("No space left on device")
            written.append(bytes(data))
            return self.fh.write(data)

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    rc = main(["simulate", "--model", "uniform:lo=0,hi=1", "--n", "10",
               "--out", str(tmp_path), "--format", "csv"])
    assert rc == 3
    assert "No space left" in capsys.readouterr().err
    assert written == [
        b"bid_index,price,sale_flag,sale_price,trigger_index,ntilde\n"]
    assert list(tmp_path.iterdir()) == []


# each command that writes more than one file, and the file it writes last
LAST_OUTPUT = {
    "simulate": (["simulate", "--model", FIG_MODEL, "--n", "1000"],
                 "summary.json"),
    "avalanches": (["avalanches", "--model", FIG_MODEL, "--n", "50000",
                    "--seed", "1", "--kmin", "2", "--kmax", "200"],
                   "tail_fit.json"),
    "fig1a": (["replicate", "fig1a"], "fig1a_verdict.json"),
    "fig1b": (["replicate", "fig1b", "--replicas", "20"], "fig1b_verdict.json"),
    "fig2": (["replicate", "fig2"], "fig2_verdict.json"),
}


@pytest.mark.parametrize("command", LAST_OUTPUT)
def test_blocked_last_output_leaves_no_file(tmp_path, monkeypatch, capsys,
                                            command):
    # a fig2 small enough to fit quickly, on a k range its run can fill
    monkeypatch.setattr(cli, "FIG2_N", 50_000)
    monkeypatch.setattr(cli, "FIG2_KMIN", 2)
    monkeypatch.setattr(cli, "FIG2_KMAX", 200)
    argv, last = LAST_OUTPUT[command]
    assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
    written = sorted(p.name for p in (tmp_path / "ok").iterdir())
    assert last in written and not any(n.startswith(".") for n in written)
    (tmp_path / "out" / last).mkdir(parents=True)  # no file can go there
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "out").iterdir()] == [last]
    assert not any((tmp_path / "out" / last).iterdir())


def test_missing_model_and_prices_is_config_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "10", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--model" in err and "--prices-file" in err


@pytest.mark.parametrize("command", ["simulate", "avalanches"])
def test_model_and_prices_file_together_is_a_usage_error(tmp_path, capsys, command):
    # a run takes its prices from one source: the file or draws of the model
    pf = tmp_path / "prices.txt"
    pf.write_text(WORKED)
    out = tmp_path / "out"
    rc = exit_code([command, "--prices-file", str(pf), "--model",
                    "lognormal:mu=0,sigma=0.3", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err and captured.out == ""
    assert not out.exists()


def test_theory_without_model_is_a_usage_error(capsys):
    assert exit_code(["theory"]) == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "uniform:lo=0,hi=1", "--n", "10"],
    ["avalanches", "--model", "lognormal:mu=0,sigma=0.3", "--n", "1000"],
    ["replicate", "fig1a"],
])
def test_negative_seed_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main([*argv, "--seed", "-1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "master_seed=-1" in err and "seeds must be >= 0" in err
    assert not out.exists()


def test_bad_prices_file_is_config_error(tmp_path, capsys):
    pf = tmp_path / "prices.txt"
    for bad in ("-1.0", "inf", "nan"):
        pf.write_text(f"3.0\n{bad}\n")
        rc = main(["simulate", "--prices-file", str(pf), "--out", str(tmp_path)])
        assert rc == 2
        assert "prices.txt:2" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()


def test_income_overflow_is_config_error(backend, tmp_path, capsys):
    pf = tmp_path / "prices.txt"
    pf.write_text("1.7e308\n1.0\n1.7e308\n1.0\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--prices-file", str(pf), "--out", str(out)])
    assert rc == 2
    assert "total income overflows a double" in capsys.readouterr().err
    assert not out.exists()


def test_empty_prices_file_is_config_error(tmp_path, capsys):
    pf = tmp_path / "prices.txt"
    out = tmp_path / "out"
    for text in ("", "\n  \n\t\n"):
        pf.write_text(text)
        for command in ("simulate", "avalanches"):
            rc = main([command, "--prices-file", str(pf), "--out", str(out)])
            assert rc == 2
            assert "prices.txt" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())


def test_theory_lognormal_values(capsys):
    rc = main(["theory", "--model", "lognormal:mu=0,sigma=0.3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xc"] == pytest.approx(0.90371, abs=1e-5)
    assert payload["expected_ti_per_bid"] == pytest.approx(0.7720651, abs=1e-5)
    assert payload["af_approx"] == pytest.approx(0.102, abs=1e-3)


def test_theory_uniform_xc(capsys):
    rc = main(["theory", "--model", "uniform:lo=0,hi=1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xc"] == pytest.approx(math.exp(-1), rel=1e-12)


def test_theory_out_writes_the_bytes_it_prints(tmp_path, capsys):
    rc = main(["theory", "--model", "lognormal:mu=0,sigma=0.3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "theory.json").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--model", "lognormal:mu=0,sigma=0.3", "--b", "nan"],
    ["--model", "lognormal:mu=0,sigma=0.3", "--b", "inf"],
    ["--model", "lognormal:mu=0,sigma=30"],
    ["--model", "lognormal:mu=500,sigma=1"],
    ["--model", "exponential:rate=1e-300"],
    ["--model", "uniform:lo=0,hi=1e-160"],        # var_Y < 0 from cancellation
    ["--model", "lognormal:mu=-700,sigma=1"],     # var_Y = 0: E[Y^2] underflows
    ["--model", "uniform:lo=1e9,hi=1000000001"],  # var_Y < 0 from cancellation
])
def test_theory_out_of_range_is_config_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["theory", *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["theory", "simulate"])
@pytest.mark.parametrize("spec", ["exponential:rate=1e-310",
                                  "lognormal:mu=800,sigma=1",
                                  "pareto:xmin=1e300,alpha=1.001"])
def test_law_past_the_doubles_is_config_error(tmp_path, capsys, command, spec):
    out = tmp_path / "out"
    assert main([command, "--model", spec, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {spec.partition(':')[0]}: draws leave")
    assert captured.out == ""
    assert not out.exists()


def test_avalanches_k_range_below_one_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["avalanches", "--model", "uniform:lo=0,hi=1", "--n", "1000",
               "--kmin", "0", "--kmax", "50", "--out", str(out)])
    assert rc == 2
    assert "need 1 <= k_min < k_max" in capsys.readouterr().err
    assert not out.exists()


def test_avalanches_k_range_past_the_exact_integers_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["avalanches", "--model", "lognormal:mu=0,sigma=0.3", "--n",
               "20000", "--kmin", "1", "--kmax", "99999999999999999999",
               "--out", str(out)])
    assert rc == 2
    assert "need 1 <= k_min < k_max <= 2**53" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_is_config_error(tmp_path, monkeypatch, capsys):
    def no_memory(model, seed, n):
        raise MemoryError(f"Unable to allocate {8 * n} bytes")

    monkeypatch.setattr("soc_auction.cli.sample", no_memory)
    out = tmp_path / "out"
    rc = main(["simulate", "--model", "uniform:lo=0,hi=1", "--n", "1e13",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 80000000000000 bytes\n")
    assert not out.exists()


def test_theory_infinite_mean_flags(tmp_path, capsys):
    rc = main(["theory", "--model", "pareto:xmin=1,alpha=1.5",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "theory.json").read_text())
    assert set(payload) == {
        "model", "pc", "xc", "expected_sales_fraction", "b_constant",
        "expected_ti_per_bid", "mean_Y", "var_Y", "af_approx",
        "infinite_mean", "infinite_variance"}
    assert payload["infinite_mean"] is True
    assert payload["expected_ti_per_bid"] is None


def test_avalanches_synthetic_alternating(tmp_path, capsys):
    # repeating 3, 1, 0.5 sells 3, 1, 3, 1, ... and the empirical critical
    # price sits at 1, so sale prices alternate around it: every avalanche
    # lasts exactly one sale. There is then no tail to fit in any window,
    # so the command reports insufficient data and writes nothing.
    pf = tmp_path / "prices.txt"
    pf.write_text("3.0\n1.0\n0.5\n" * 100)
    out = tmp_path / "out"
    rc = main(["avalanches", "--prices-file", str(pf), "--kmin", "2",
               "--kmax", "50", "--out", str(out)])
    assert rc == 4
    assert "survival points" in capsys.readouterr().err
    for name in ("durations.csv", "survival.csv", "tail_fit.json"):
        assert not (out / name).exists()


def test_avalanches_moderate_run_writes_fit(tmp_path):
    rc = main(["avalanches", "--model", "lognormal:mu=0,sigma=0.3", "--n",
               "300000", "--seed", "1", "--kmin", "5", "--kmax", "2000",
               "--out", str(tmp_path)])
    assert rc == 0
    fit = json.loads((tmp_path / "tail_fit.json").read_text())
    assert set(fit) == {
        "slope", "stderr", "k_min", "k_max", "n_points", "n_avalanches",
        "left_censored_first", "right_censored_last", "xc_used"}
    assert fit["k_min"] == 5 and fit["k_max"] == 2000
    assert -1.2 < fit["slope"] < -0.1
    assert fit["n_points"] >= 10
    assert fit["n_avalanches"] > 0
    surv = read_csv(tmp_path / "survival.csv")
    ps = [float(r["survival"]) for r in surv]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    rc2 = main(["avalanches", "--model", "lognormal:mu=0,sigma=0.3", "--n",
                "300000", "--seed", "1", "--kmin", "5", "--kmax", "2000",
                "--out", str(tmp_path / "again")])
    assert rc2 == 0
    assert ((tmp_path / "tail_fit.json").read_bytes()
            == (tmp_path / "again" / "tail_fit.json").read_bytes())


def test_avalanches_accept_all_is_refused_before_it_folds(tmp_path, capsys,
                                                         monkeypatch):
    def no_sample(model, seed, n):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "sample", no_sample)
    out = tmp_path / "out"
    rc = main(["avalanches", "--model", "lognormal:mu=0,sigma=0.3", "--rule",
               "accept-all", "--n", "1000", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "accept-all" in captured.err and captured.out == ""
    assert not out.exists()


def test_avalanches_too_small_run_exit_4(tmp_path, capsys):
    pf = tmp_path / "prices.txt"
    pf.write_text("1.0\n2.0\n3.0\n")  # increasing: no sales at all
    rc = main(["avalanches", "--prices-file", str(pf), "--out", str(tmp_path)])
    assert rc == 4


def test_replicate_fig1a(tmp_path):
    rc = main(["replicate", "fig1a", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "fig1a.csv")
    assert len(rows) == 1000
    verdict = json.loads((tmp_path / "fig1a_verdict.json").read_text())
    assert verdict["pass"] is True
    assert verdict["share_accepted_above_xc"] >= 0.99
    accepted = sum(int(r["accepted"]) for r in rows)
    assert 0 < accepted < 1000


def test_replicate_fig1b_small(tmp_path):
    rc = main(["replicate", "fig1b", "--replicas", "40", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "fig1b.csv")
    verdict = json.loads((tmp_path / "fig1b_verdict.json").read_text())
    assert verdict["pass"] is True
    for r in rows:
        assert float(r["band_low"]) <= float(r["theory_ti"]) <= float(r["band_high"])
    # the band is the spread of replica r's income, seeded SeedSpec(seed, r)
    model = parse_model(FIG_MODEL)
    grid = np.array(FIG1B_GRID)
    tis = []
    for r in range(40):
        run = run_sequence(Rule.CLASSIC,
                           sample(model, SeedSpec(FIG1B_SEED, r), FIG1B_N))
        income = np.zeros(FIG1B_N)
        income[run.trigger_indices - 1] = run.sale_prices
        tis.append(np.cumsum(income)[grid - 1])
    tis = np.array(tis)
    assert [int(r["n_bids"]) for r in rows] == list(FIG1B_GRID)
    assert [float(r["mean_ti"]) for r in rows] == tis.mean(axis=0).tolist()
    assert [float(r["sd_ti"]) for r in rows] == tis.std(axis=0, ddof=1).tolist()
    # the worker pool returns replicas in order: same bytes as one process
    pooled = tmp_path / "pooled"
    rc = main(["replicate", "fig1b", "--replicas", "40", "--threads", "2",
               "--out", str(pooled)])
    assert rc == 0
    for name in ("fig1b.csv", "fig1b_verdict.json"):
        assert (pooled / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("replicas", ["1", "0", "-2"])
def test_replicate_fig1b_needs_two_replicas(tmp_path, capsys, replicas):
    # one replica has no spread to draw the band from
    out = tmp_path / "out"
    rc = main(["replicate", "fig1b", "--replicas", replicas, "--out", str(out)])
    assert rc == 2
    assert "--replicas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_replicate_fig1b_rejects_nonpositive_threads(tmp_path, capsys, threads):
    out = tmp_path / "out"
    rc = main(["replicate", "fig1b", "--replicas", "4", "--threads", threads,
               "--out", str(out)])
    assert rc == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("figure", ["fig1a", "fig2"])
def test_replicate_rejects_fig1b_only_flags(tmp_path, figure):
    for flags in (["--threads", "-3"], ["--replicas", "0"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["replicate", figure, *flags, "--out", str(tmp_path)])
        assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_replicate_fig2(tmp_path):
    rc = main(["replicate", "fig2", "--out", str(tmp_path)])
    assert rc == 0
    verdict = json.loads((tmp_path / "fig2_verdict.json").read_text())
    assert verdict["pass"] is True
    assert abs(verdict["slope"] - verdict["target_slope"]) <= verdict["tolerance"]
    rows = read_csv(tmp_path / "fig2.csv")
    assert len(rows) >= 10
    ks = [int(r["k"]) for r in rows]
    assert min(ks) >= 100 and max(ks) <= 10_000


def test_replicate_fig2_without_avalanches_is_insufficient_data(
        tmp_path, monkeypatch, capsys):
    # at 5e5 bids seed 8 has no complete avalanche: no run of sales above
    # xc is delimited on both sides
    monkeypatch.setattr("soc_auction.cli.FIG2_N", 500_000)
    out = tmp_path / "out"
    rc = main(["replicate", "fig2", "--seed", "8", "--out", str(out)])
    assert rc == 4
    assert "no complete avalanches" in capsys.readouterr().err
    assert not out.exists()


def test_cli_subprocess_entry_and_usage_error():
    proc = subprocess.run([sys.executable, "-m", "soc_auction", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "soc_auction", "simulate",
                           "--rule", "bogus"], capture_output=True, text=True)
    assert proc.returncode == 2
    for command in ("simulate", "avalanches"):  # --threads is replicate's only
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "2"])
        assert exc.value.code == 2


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _dests(parser):
    return {a.dest for a in parser._actions if a.dest != "help"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    commands = _subcommands(build_parser())
    model = {"model", "pc"}
    run = model | {"rule", "n", "prices_file", "seed", "out", "format"}
    assert _dests(commands["simulate"]) == run
    assert _dests(commands["avalanches"]) == run | {"kmin", "kmax"}
    assert _dests(commands["theory"]) == model | {"b", "out"}
    assert _dests(commands["replicate"]) == {"figure"}
    figures = _subcommands(commands["replicate"])
    assert _dests(figures["fig1a"]) == _dests(figures["fig2"]) == {"seed", "out"}
    assert _dests(figures["fig1b"]) == {"seed", "out", "replicas", "threads"}
    # the shared flags keep each command's own defaults
    source = ["--model", "exponential:rate=1"]
    assert commands["simulate"].parse_args(source).n == 1000
    assert commands["simulate"].parse_args(source).seed == 0
    assert commands["avalanches"].parse_args(source).n == 2_000_000
    assert commands["theory"].parse_args(source).out is None


def _readme_commands():
    """Every `soc-auction ...` command in the README's bash blocks, with
    backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["soc-auction"]:
                yield argv[1:]


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert len(commands) >= 8
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: soc-auction {shlex.join(argv)}")
