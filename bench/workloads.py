"""The benchmark's four workloads: what one op calls, and how its output is checked.

An op is one call of a public flattopspec entry point at R=1 on inputs made
from an op seed.  `call` is the part that is timed; `collect` reads the
outputs back; `check` runs on every op and `brute` (brute-force sums) on a
sample of ops.  The functions of the package are looked up through their
modules at call time, so the traced run sees its wrappers.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import flattopspec as fts
from flattopspec import cli

import checks

MODELS = ("iid-chisq1", "arma11")
C = 0.51  # flat-top parameter the CLI and the study harness use by default

# fixed op seeds of the warm-up op and of the op recorded in expected.json
WARMUP_SEED = 987654321
REF_SEED = 123456789

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def op_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


class Study:
    """`flattopspec study` at R=1; the output is the JSON table of the run."""

    def __init__(self, name, windows, N, bandwidth, grid_n, models_per_op,
                 brute_ops):
        self.name = name
        self.windows = windows
        self.N = N
        self.bandwidth = bandwidth
        self.grid_n = grid_n
        self.models_per_op = models_per_op
        self.brute_ops = brute_ops

    def make(self, seed, index):
        if self.models_per_op == len(MODELS):
            models = MODELS
        else:
            models = (MODELS[index % len(MODELS)],)
        return {"seed": seed, "models": models}

    def call(self, inp, workdir):
        return cli.main([
            "study", "--models", ",".join(inp["models"]),
            "--windows", self.windows, "--N", str(self.N),
            "--bandwidth", self.bandwidth, "--grid-n", str(self.grid_n),
            "--R", "1", "--seed", str(inp["seed"]),
            "--output", os.path.join(workdir, "study.csv")])

    def collect(self, inp, ret, workdir):
        with open(os.path.join(workdir, "study.csv.json")) as fh:
            report = json.load(fh)
        cells = {}
        for row in report["cells"]:
            key = f"{row['model']}|{row['window']}|{row['bandwidth']}|{row['criterion']}"
            # at R=1 the mse is the squared loss of the single replication
            cells[key] = [math.sqrt(row["mse"]), row["mean_estimate"]]
        return {"exit": ret, "cells": cells}

    def check(self, inp, out):
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        n_bw = len(self.bandwidth.split(","))
        want = len(inp["models"]) * len(self.windows.split(",")) * n_bw \
            * len(fts.evaluate.CRITERIA)
        if len(out["cells"]) != want:
            return [f"{len(out['cells'])} table cells, expected {want}"]
        return []

    def brute(self, inp, out):
        """Recompute every criterion of every cell from brute-force estimates."""
        problems = []
        grid = fts.composite_grid(self.grid_n).points
        points = [(0.0, 0.0), (2.0, 1.0)] + list(grid)
        windows = [fts.parse_window(w) for w in self.windows.split(",")]
        for kind in inp["models"]:
            spec = fts.ModelSpec(kind=kind, seed=inp["seed"])
            series = fts.generate(spec, self.N)
            table = checks.CumulantTable(series)
            truth = [fts.reference_bispectrum(spec, w) for w in points]
            denom = [fts.true_spectrum(spec, w1) * fts.true_spectrum(spec, w2)
                     * fts.true_spectrum(spec, w1 + w2) for w1, w2 in grid]
            if self.bandwidth == "auto":
                sel = fts.select_bandwidth_bispectrum(series, b=C)
                problems += checks.check_selection(series, sel)
                bws = [("auto", max(sel.M_hat, 1.0))]
            else:
                bws = [(f"M={float(b):g}", float(b)) for b in self.bandwidth.split(",")]
            for window in windows:
                for label, M in bws:
                    est = checks.brute_bispectrum(table, window, M, points)
                    vals = [v for v, _ in est]
                    scale = max(s for _, s in est)
                    (e0, f0), (e21, f21) = (vals[0], truth[0]), (vals[1], truth[1])
                    expected = {
                        "abs@origin": (abs(abs(e0) - abs(f0)), abs(e0)),
                        "re@(2,1)": (abs(e21.real - f21.real), None),
                        "im@(2,1)": (abs(e21.imag - f21.imag), None),
                        "abs@(2,1)": (abs(abs(e21) - abs(f21)), None),
                        "T_composite": (sum(abs(e - f) / d for e, f, d in
                                            zip(vals[2:], truth[2:], denom)), None),
                    }
                    comp_scale = sum(scale / d for d in denom)
                    for crit, (loss, mean_est) in expected.items():
                        key = f"{kind}|{window.name}|{label}|{crit}"
                        got = out["cells"].get(key)
                        if got is None:
                            problems.append(f"{key}: missing")
                            continue
                        s = comp_scale if crit == "T_composite" else scale
                        problems += checks.mismatch(f"{key} loss", got[0], loss, s)
                        if mean_est is not None:
                            problems += checks.mismatch(f"{key} |estimate|",
                                                        got[1], mean_est, scale)
        return problems


class Oracle:
    """`flattopspec oracle --model garch11` at R=1; the output is the table."""

    name = "oracle"
    L_sim = 20000
    grid_n = 5
    brute_ops = 3

    def make(self, seed, index):
        return {"seed": seed}

    def call(self, inp, workdir):
        return cli.main([
            "oracle", "--model", "garch11", "--L-sim", str(self.L_sim),
            "--R", "1", "--seed", str(inp["seed"]),
            "--output", os.path.join(workdir, "oracle.csv")])

    def collect(self, inp, ret, workdir):
        table = fts.ReferenceTable.load(os.path.join(workdir, "oracle.csv"))
        return {"exit": ret,
                "spectrum": {repr(w): v for w, v in sorted(table.spectrum.items())},
                "bispectrum": {f"{w[0]!r},{w[1]!r}": [v.real, v.imag]
                               for w, v in sorted(table.bispectrum.items())}}

    def check(self, inp, out):
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        n_grid = len(fts.composite_grid(self.grid_n))
        if len(out["bispectrum"]) != n_grid + 2 or not out["spectrum"]:
            return ["reference table is incomplete"]
        return []

    def brute(self, inp, out):
        # the table averages estimates over R=1 long realizations, so each
        # entry is one estimate at the bandwidths the selection rules pick
        spec = fts.ModelSpec(kind="garch11", seed=inp["seed"])
        series = fts.generate(spec, self.L_sim, replication=10 ** 6)
        sel2 = fts.select_bandwidth_general(series, order=2, b=C)
        sel3 = fts.select_bandwidth_bispectrum(series, b=C)
        problems = checks.check_selection(series, sel2) + checks.check_selection(series, sel3)
        table = checks.CumulantTable(series)
        freqs2 = [float(w) for w in out["spectrum"]]
        for w, (v, s) in zip(freqs2, checks.brute_spectrum(
                table, fts.trapezoid_window(C), sel2.M_hat, freqs2)):
            problems += checks.mismatch(f"spectrum@{w!r}", out["spectrum"][repr(w)],
                                        max(v, 0.0), s)
        freqs3 = [(0.0, 0.0), (2.0, 1.0)] + list(fts.composite_grid(self.grid_n).points)
        est = checks.brute_bispectrum(table, fts.flat_top_rpf(C),
                                      max(sel3.M_hat, 1.0), freqs3)
        for (w1, w2), (v, s) in zip(freqs3, est):
            key = f"{round(w1, 9)!r},{round(w2, 9)!r}"
            got = out["bispectrum"].get(key)
            if got is None:
                problems.append(f"bispectrum@{key}: missing")
                continue
            problems += checks.mismatch(f"bispectrum@{key} re", got[0], v.real, s)
            problems += checks.mismatch(f"bispectrum@{key} im", got[1], v.imag, s)
        return problems


class Select:
    """Bandwidth selection on one series: the five procedures of
    `bandwidth_histogram_study` with calibrated thresholds, then
    `select_bandwidth_general` at orders 2 and 3 with their default k."""

    name = "select"
    N = 400
    brute_ops = 0  # every op's selections are re-derived by `check`

    def make(self, seed, index):
        return {"seed": seed, "model": MODELS[index % len(MODELS)]}

    def call(self, inp, workdir):
        spec = fts.ModelSpec(kind=inp["model"], seed=inp["seed"])
        hist = fts.bandwidth_histogram_study([spec], N_list=(self.N,), R=1,
                                             calibrate=True)
        series = fts.generate(spec, self.N)
        return (hist, series, fts.select_bandwidth_general(series, order=2),
                fts.select_bandwidth_general(series, order=3))

    def collect(self, inp, ret, workdir):
        hist, series, sel2, sel3 = ret
        return {
            "procedures": {r.procedure: float(r.bandwidths[0]) for r in hist},
            "general": [[s.m_hat, s.M_hat, s.thresholds["value"], s.cap_hit]
                        for s in (sel2, sel3)],
            # kept for the checks, dropped before the output is recorded
            "_series": series, "_selections": (sel2, sel3),
        }

    def check(self, inp, out):
        problems = []
        for proc, M in out["procedures"].items():
            if not (math.isfinite(M) and M > 0):
                problems.append(f"procedure {proc}: bandwidth {M!r}")
        if sorted(out["procedures"]) != list(fts.evaluate.PROCEDURES):
            problems.append("procedures missing from the histogram study")
        for sel in out["_selections"]:
            problems += checks.check_selection(out["_series"], sel)
        return problems

    def brute(self, inp, out):
        return []


WORKLOADS = {
    "study-sweep": Study("study-sweep", "rpf:c=0.51,rcf:c=0.51", 2000, "5,15,25",
                         grid_n=6, models_per_op=2, brute_ops=3),
    # the README study example; one model per op (alternating) keeps an op
    # near a second, so a run holds enough ops for the tail percentile
    "study-opt": Study("study-opt", "rpf:c=0.51,opt", 120, "auto",
                       grid_n=5, models_per_op=1, brute_ops=1),
    "select": Select(),
    "oracle": Oracle(),
}


def warm_up(workload, workdir):
    """The one-time work before the first op: one op on a fixed input.

    For `select` the fixed input is an arma11 series, which never stalls at
    the selection cap, so set-up time is the cold window constants.
    """
    inp = workload.make(WARMUP_SEED, 1 if workload.name == "select" else 0)
    ret = workload.call(inp, workdir)
    out = workload.collect(inp, ret, workdir)
    problems = workload.check(inp, out)
    if problems:
        raise RuntimeError(f"warm-up op failed its checks: {problems[:3]}")


def reference_output(workload, workdir):
    """Output of the op whose values are recorded in expected.json."""
    inp = workload.make(REF_SEED, 0)
    out = workload.collect(inp, workload.call(inp, workdir), workdir)
    return {k: v for k, v in out.items() if not k.startswith("_")}


def expected_outputs() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
