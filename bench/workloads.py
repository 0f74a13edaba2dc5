"""The benchmark's workloads.

Each workload makes its inputs from the workload seed, runs one end-to-end
operation through the public API or the CLI (`run`), reduces the outputs to
a fingerprint that must repeat byte for byte (`fingerprint`), and checks
invariants that hold for any seed (`check`, a list of failure messages).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from soc_auction import (E_INV, AuctionEngine, SeedSpec, analytics, cli,
                         montecarlo, oracle_run, parse_model, run_sequence,
                         sample)

MODEL_SPEC = "lognormal:mu=0,sigma=0.3"
ORACLE_PREFIX = 2000
FIG2_FILES = ("fig2.csv", "fig2_verdict.json")
WORKERS = min(2, os.cpu_count() or 1)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[bytes, list[tuple[bytes, ...]]]:
    """Header and columns of a CSV written by the CLI."""
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        raise ValueError(f"{path.name} does not end with a newline")
    header, *lines = data[:-1].split(b"\n")
    return header, list(zip(*(line.split(b",") for line in lines)))


class Workload:
    name: str
    sizes: dict
    workers = 1

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.n = self.sizes[size]
        self.model = parse_model(MODEL_SPEC)

    @property
    def bids_per_op(self) -> int:
        return self.n

    def input_record(self) -> dict:
        return {"n_bids": self.n, "program_seed": self.seed,
                "model": MODEL_SPEC}

    def run(self, workers=None):
        """One end-to-end operation; returns what fingerprint/check read."""
        raise NotImplementedError

    def fingerprint(self, out) -> dict:
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError


class SimulateCsv(Workload):
    name = "simulate-csv"
    sizes = {"full": 100_000, "small": 20_000}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.out = workdir / "simulate"
        self.argv = ["simulate", "--model", MODEL_SPEC, "--rule", "classic",
                     "--n", str(self.n), "--seed", str(seed),
                     "--format", "csv,json", "--out", str(self.out)]

    def run(self, workers=None):
        code = cli.main(self.argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"soc-auction simulate exited with {code}")
        return self.out

    def fingerprint(self, out):
        return {f: _sha256(self.out / f) for f in ("events.csv", "summary.json")}

    def check(self, out):
        bad = []
        header, cols = _read_csv(self.out / "events.csv")
        summary = json.loads((self.out / "summary.json").read_text())
        if header != b"bid_index,price,sale_flag,sale_price,trigger_index,ntilde":
            return [f"events.csv header {header!r}"]
        idx = np.array(cols[0]).astype(np.int64)
        price = np.array(cols[1]).astype(float)
        flag = np.array(cols[2]).astype(np.int64)
        sold = flag == 1
        sale_price = np.array([v or b"nan" for v in cols[3]]).astype(float)
        trigger = np.array([v or b"0" for v in cols[4]]).astype(np.int64)
        ntilde = np.array(cols[5]).astype(np.int64)

        expected = sample(self.model, SeedSpec(self.seed, 0), self.n)
        if len(idx) != self.n or not np.array_equal(idx, np.arange(1, self.n + 1)):
            return [f"events.csv has {len(idx)} rows, expected 1..{self.n}"]
        if not np.array_equal(price, expected):
            bad.append("price column differs from the seeded input stream")
        if not np.isin(flag, (0, 1)).all():
            bad.append("sale_flag outside {0, 1}")
        if not (np.array_equal(trigger[sold], idx[sold])
                and (trigger[~sold] == 0).all()
                and np.isnan(sale_price[~sold]).all()
                and np.isfinite(sale_price[sold]).all()):
            bad.append("sale columns inconsistent with sale_flag")
        if (np.diff(ntilde) < 0).any():
            bad.append("ntilde decreases")
        if not np.array_equal(ntilde, np.cumsum(flag)):
            bad.append("ntilde is not the running count of sales")
        if not (sale_price[sold] > price[sold]).all():
            bad.append("a sale fired without a strictly lower trigger bid")

        # Conservation: every sale takes one earlier, still-unsold bid, and
        # income plus the remaining pool equals all bids.
        sales = sale_price[sold]
        order = np.argsort(price, kind="stable")
        pos = np.searchsorted(price[order], sales)
        pos = np.minimum(pos, self.n - 1)
        accepted = order[pos]
        if not (np.array_equal(price[accepted], sales)
                and (accepted < idx[sold] - 1).all()
                and len(np.unique(accepted)) == len(accepted)):
            bad.append("a sale price is not an earlier unsold bid")
        remaining = np.ones(self.n, dtype=bool)
        remaining[accepted] = False
        income = math.fsum(sales.tolist())
        if not math.isclose(math.fsum([income] + price[remaining].tolist()),
                            math.fsum(price.tolist()), rel_tol=1e-9):
            bad.append("conservation identity fails")

        want = {"n_bids": self.n, "n_sales": int(sold.sum()),
                "total_income": income, "rule": "classic",
                "model": MODEL_SPEC, "master_seed": self.seed}
        for key, value in want.items():
            if summary.get(key) != value:
                bad.append(f"summary.json {key} = {summary.get(key)!r}, "
                           f"expected {value!r}")

        k = min(ORACLE_PREFIX, self.n)
        ref = oracle_run("classic", price[:k])
        head = sold[:k]
        if not (np.array_equal(ref.ntilde, ntilde[:k])
                and np.array_equal(ref.trigger_indices, idx[:k][head])
                and np.array_equal(ref.sale_prices, sale_price[:k][head])):
            bad.append(f"first {k} rows differ from oracle_run")
        return bad


class Fig2(Workload):
    name = "fig2"
    sizes = {"full": cli.FIG2_N, "small": 200_000}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.out = workdir / "fig2"
        self.argv = ["replicate", "fig2", "--seed", str(seed),
                     "--out", str(self.out)]

    def run(self, workers=None):
        """Returns the CLI's exit code. The duration tail has slope -0.54,
        so for some seeds (106 is one) a single avalanche outlasts the
        run, fewer than 10 survival points remain, and the CLI refuses to
        fit with exit code 4 and no output files. That refusal is the
        documented outcome, and `check` confirms it is justified."""
        for f in FIG2_FILES:
            (self.out / f).unlink(missing_ok=True)
        # The CLI fixes the figure's size; the small size is for the
        # benchmark's own tests only.
        saved = cli.FIG2_N
        cli.FIG2_N = self.n
        try:
            code = cli.main(self.argv)
        finally:
            cli.FIG2_N = saved
        if code not in (cli.EXIT_OK, cli.EXIT_DATA):
            raise RuntimeError(f"soc-auction replicate exited with {code}")
        return code

    def fingerprint(self, out):
        if out == cli.EXIT_DATA:
            return {"exit": out}
        return {f: _sha256(self.out / f) for f in FIG2_FILES}

    def check(self, out):
        if out == cli.EXIT_DATA:
            return self._check_refusal()
        bad = []
        verdict = json.loads((self.out / "fig2_verdict.json").read_text())
        header, cols = _read_csv(self.out / "fig2.csv")
        if header != b"k,survival,fit_survival":
            return [f"fig2.csv header {header!r}"]
        k = np.array(cols[0]).astype(np.int64)
        surv = np.array(cols[1]).astype(float)
        fit = np.array(cols[2]).astype(float)
        slope = verdict.get("slope")
        for key, value in {"figure": "fig2", "n_bids": self.n,
                           "seed": self.seed,
                           "target_slope": cli.FIG2_TARGET_SLOPE}.items():
            if verdict.get(key) != value:
                bad.append(f"fig2_verdict.json {key} = {verdict.get(key)!r}")
        if not (isinstance(slope, float) and math.isfinite(slope)
                and math.isfinite(verdict.get("stderr", math.nan))
                and verdict.get("n_avalanches", 0) > 0):
            return bad + ["fig2_verdict.json slope/stderr/n_avalanches invalid"]
        if verdict.get("pass") != (abs(slope - cli.FIG2_TARGET_SLOPE)
                                   <= cli.FIG2_TOLERANCE):
            bad.append("fig2_verdict.json pass flag disagrees with slope")
        if not (len(k) >= 10 and (np.diff(k) > 0).all()
                and k[0] >= cli.FIG2_KMIN and k[-1] <= cli.FIG2_KMAX):
            bad.append("fig2.csv k grid invalid")
        if not ((surv > 0).all() and (surv <= 1).all()
                and (np.diff(surv) <= 0).all()):
            bad.append("fig2.csv survival not a non-increasing probability")
        implied = np.log(fit[1:] / fit[0]) / np.log(k[1:] / k[0])
        if not (math.isclose(fit[0], surv[0], rel_tol=1e-12)
                and np.allclose(implied, slope, rtol=1e-9, atol=0)):
            bad.append("fig2.csv fit_survival is not the fitted power law")
        return bad


    def _check_refusal(self):
        if any((self.out / f).exists() for f in FIG2_FILES):
            return ["fig2 refused to fit but wrote output files"]
        model = self.model
        xc = analytics.theory_summary(model).xc
        run = run_sequence("classic", sample(model, SeedSpec(self.seed, 0), self.n),
                           collect_trajectory=False)
        durations = analytics.segment_avalanches(run.sale_prices, xc).durations
        if len(durations):
            ks, _ = analytics.survival_function(
                durations, grid="log", k_min=cli.FIG2_KMIN, k_max=cli.FIG2_KMAX)
            if len(ks) >= 10:
                return [f"fig2 refused to fit {len(ks)} survival points"]
        return []


class ReplicaLadder(Workload):
    name = "replica-ladder"
    # classic rungs (n_bids, replicas), then the two-consecutive rung
    sizes = {"full": ([(1_000, 200), (2_000, 200), (5_000, 200)], (5_000, 100)),
             "small": ([(200, 200), (500, 200), (1_000, 200)], (1_000, 100))}
    workers = WORKERS

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.rungs, self.two = self.n
        self.masters = [seed * 10 + k for k in range(len(self.rungs) + 1)]

    @property
    def bids_per_op(self):
        return sum(n * r for n, r in self.rungs) + self.two[0] * self.two[1]

    def input_record(self):
        return {"n_bids": self.bids_per_op, "program_seeds": self.masters,
                "classic_rungs": self.rungs, "two_consecutive_rung": self.two,
                "model": MODEL_SPEC}

    def run(self, workers=None):
        workers = self.workers if workers is None else workers
        by_n = {n: montecarlo.run_replicas(self.model, "classic", n, r, master,
                                           workers=workers)
                for (n, r), master in zip(self.rungs, self.masters)}
        n2, r2 = self.two
        two = montecarlo.run_replicas(self.model, "two-consecutive", n2, r2,
                                      self.masters[-1], workers=workers)
        top = by_n[max(by_n)]
        return {"classic": by_n, "two": two, "b": montecarlo.estimate_b(by_n),
                "pc": montecarlo.estimate_pc(top),
                "pc_two": montecarlo.estimate_pc(two),
                "af": montecarlo.estimate_af(top)}

    def _sets(self, out):
        for (n, _), master in zip(self.rungs, self.masters):
            yield "classic", n, master, out["classic"][n]
        yield "two-consecutive", self.two[0], self.masters[-1], out["two"]

    def fingerprint(self, out):
        h = hashlib.sha256()
        for rule, n, _, reps in self._sets(out):
            for r in reps:
                h.update(f"{rule},{n},{r.replica_id},{r.n_sales},"
                         f"{r.total_income!r}\n".encode())
        return {"replicas": h.hexdigest(),
                **{k: repr(out[k].point) for k in ("b", "pc", "pc_two", "af")}}

    def check(self, out):
        bad = []
        for rule, n, master, reps in self._sets(out):
            ok = all(r.replica_id == i and r.n_bids == n
                     and r.seed == SeedSpec(master, i) and 0 < r.n_sales < n
                     and math.isfinite(r.total_income) and r.total_income > 0
                     for i, r in enumerate(reps))
            if not ok:
                bad.append(f"{rule} N={n}: malformed replica results")
            # Replica 0 again through the incremental engine, an
            # independent implementation of the rule.
            prices = sample(self.model, SeedSpec(master, 0), n)
            eng = AuctionEngine(rule)
            for x in prices.tolist():
                eng.submit_bid(x)
            if not (eng.accepted_count == reps[0].n_sales
                    and math.isclose(eng.total_income, reps[0].total_income,
                                     rel_tol=1e-12)):
                bad.append(f"{rule} N={n}: replica 0 differs from AuctionEngine")
        n0, _ = self.rungs[0]
        ref = oracle_run("classic", sample(self.model, SeedSpec(self.masters[0], 0), n0))
        first = out["classic"][n0][0]
        if (ref.n_sales, ref.total_income) != (first.n_sales, first.total_income):
            bad.append(f"classic N={n0}: replica 0 differs from oracle_run")
        for key in ("b", "pc", "pc_two", "af"):
            e = out[key]
            if not (math.isfinite(e.point) and e.ci_low <= e.point <= e.ci_high):
                bad.append(f"estimate {key}: point outside its CI")
        if not 0 < out["b"].point < 0.1:
            bad.append(f"estimate_b = {out['b'].point}, expected near 0.038")
        if abs(out["pc"].point - E_INV) > 0.03:
            bad.append(f"estimate_pc = {out['pc'].point}, expected near 1/e")
        if abs(out["pc_two"].point - 0.5) > 0.05:
            bad.append(f"two-consecutive estimate_pc = {out['pc_two'].point}")
        if not out["af"].point > 0:
            bad.append("estimate_af is not positive")
        return bad


WORKLOADS = {w.name: w for w in (SimulateCsv, Fig2, ReplicaLadder)}
