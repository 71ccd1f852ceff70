"""Monte-Carlo evaluation harness: point criteria, the composite grid
metric, MSE study tables, bandwidth-procedure comparisons, and simulation
reference tables for models without closed-form truth.

The composite metric standardizes |fhat - f| at each grid point by a
caller-supplied denominator (the product f(w1) f(w2) f(w1+w2) of true
spectra in the studies here), sums over the grid, and averages the square
across replications.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import (
    _PILOT_LAGS,
    _bootstrap_ks,
    _flat_top_pilots,
    _plugin_selections,
    _second_order_pilots,
    select_bandwidth_bispectrum,
    select_bandwidth_general,
)
from .exceptions import DegenerateSeriesError
from .models import (
    ModelSpec,
    ReferenceTable,
    _freq_key,
    generate,
    reference_bispectrum,
    true_spectrum,
)
from .spectra import estimate_bispectrum, estimate_spectrum
from .windows import LagWindow, flat_top_rpf, optimal_window, trapezoid_window

__all__ = [
    "CRITERIA",
    "PrincipalGrid",
    "CriterionResult",
    "StudyReport",
    "composite_grid",
    "err_lambda",
    "run_mse_study",
    "bandwidth_histogram_study",
    "ProcedureResult",
    "build_reference_table",
]

CRITERIA = ("abs@origin", "re@(2,1)", "im@(2,1)", "abs@(2,1)", "T_composite")

_POINT_21 = (2.0, 1.0)


@dataclass(frozen=True)
class PrincipalGrid:
    """Equally spaced interior points of the triangle (0,0)-(pi,0)-(2pi/3, 2pi/3)."""

    n: int
    points: tuple

    def __len__(self):
        return len(self.points)


def composite_grid(n: int) -> PrincipalGrid:
    """(n-1)(n-2)/2 points w_ij = (pi(2i+2j)/(3n), 2pi j/(3n))."""
    n = int(n)
    if n < 3:
        raise ValueError(f"grid needs n >= 3 (n={n} gives no interior points)")
    pts = []
    for i in range(1, n):
        for j in range(1, n - i):
            pts.append((math.pi * (2 * i + 2 * j) / (3 * n),
                        2 * math.pi * j / (3 * n)))
    return PrincipalGrid(n=n, points=tuple(pts))


def err_lambda(estimates, truth, denominators) -> float:
    """Sum over the grid of |fhat - f| / denominator."""
    est = np.asarray(estimates, dtype=complex)
    tru = np.asarray(truth, dtype=complex)
    den = np.asarray(denominators, dtype=float)
    if not (est.shape == tru.shape == den.shape):
        raise ValueError("estimates, truth, and denominators must align")
    if np.any(den <= 0.0):
        raise ValueError("standardization denominators must be positive")
    return float(np.sum(np.abs(est - tru) / den))


@dataclass
class CriterionResult:
    """Per-replication absolute losses for one evaluation criterion."""

    criterion: str
    losses: np.ndarray
    n: int
    window: str
    bandwidth: str
    model: str
    mean_estimate: float = float("nan")

    @property
    def replications(self) -> int:
        return len(self.losses)

    @functools.cached_property
    def mse(self) -> float:
        """Mean squared loss, computed on first read and kept."""
        return float(np.mean(np.asarray(self.losses) ** 2))


@dataclass
class StudyReport:
    cells: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def cell(self, model, window, n, criterion) -> CriterionResult:
        for c in self.cells:
            if (c.model, c.window, c.n, c.criterion) == (model, window, n, criterion):
                return c
        raise KeyError((model, window, n, criterion))

    def rows(self):
        for c in self.cells:
            yield {
                "model": c.model, "window": c.window, "N": c.n,
                "bandwidth": c.bandwidth, "criterion": c.criterion,
                "R": c.replications, "mse": c.mse,
                "mean_estimate": (None if math.isnan(c.mean_estimate)
                                  else c.mean_estimate),
            }

    def to_csv(self, path):
        cols = ["model", "window", "N", "bandwidth", "criterion", "R",
                "mse", "mean_estimate"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in self.rows():
                values = (row[k] for k in cols)
                writer.writerow([repr(v) if isinstance(v, float) else v for v in values])

    def to_json(self, path):
        # compact, so that `json.dumps` takes the C encoder
        payload = {"meta": self.meta, "cells": list(self.rows())}
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))


def _with_seed(spec: ModelSpec, seed) -> ModelSpec:
    if seed is None:
        return spec
    return dataclasses.replace(spec, seed=seed)


def run_mse_study(models, windows, bandwidths="auto", N_list=(2000,), R=100,
                  grid_n=5, seed=None, tables=None, calibrate=False,
                  c=0.51, truth_override=None) -> StudyReport:
    """Empirical MSE of the five criteria per (model, window, N, bandwidth).

    `bandwidths` is "auto" (bispectrum selection rule; bootstrap thresholds
    when `calibrate`) or a number / list of numbers for a fixed sweep.
    `truth_override` (callable omega -> complex) replaces the reference
    bispectrum, mainly for self-tests.  With "auto", `meta["cap_hits"]` lists
    per (model, window, N) how many replications' selections stopped at the
    rule's search cap.
    """
    if R < 1:
        raise ValueError("need at least one replication")
    grid = composite_grid(grid_n)
    bw_list = [bandwidths] if not isinstance(bandwidths, (list, tuple)) else list(bandwidths)
    tables = tables or {}
    report = StudyReport(meta={"R": R, "grid_n": grid_n, "seed": seed,
                               "calibrate": calibrate})
    eval_points = [(0.0, 0.0), _POINT_21] + list(grid.points)
    cells = [(window, bw) for window in windows for bw in bw_list]

    for model in models:
        spec = _with_seed(model, seed)
        table = tables.get(spec.kind)
        truth = truth_override or (
            lambda w, _s=spec, _t=table: reference_bispectrum(_s, w, _t))
        f_origin, f_21, *f_grid = [truth(w) for w in eval_points]
        denom = np.array([
            true_spectrum(spec, w1, table) * true_spectrum(spec, w2, table)
            * true_spectrum(spec, w1 + w2, table)
            for (w1, w2) in grid.points])
        if np.any(denom <= 0):
            raise DegenerateSeriesError("non-positive standardization denominator")

        for N in N_list:
            # per cell the loss of each criterion, then |fhat(0, 0)|, by
            # replication; every cell reads a replication's series and selection
            loss = np.zeros((len(cells), len(CRITERIA) + 1, R))
            at_cap = 0
            for rep in range(R):
                series = generate(spec, N, replication=rep)
                if "auto" in bw_list:
                    M_auto, cap_hit = _procedure_bandwidths(
                        "a", series, None, c, calibrate, 2 * rep)["a"]
                    at_cap += cap_hit
                for i, (window, bw) in enumerate(cells):
                    M = M_auto if bw == "auto" else float(bw)
                    e_origin, e_21, *e_grid = [e.value for e in estimate_bispectrum(
                        series, window, M, eval_points)]
                    loss[i, :, rep] = (
                        abs(abs(e_origin) - abs(f_origin)), abs(e_21.real - f_21.real),
                        abs(e_21.imag - f_21.imag), abs(abs(e_21) - abs(f_21)),
                        err_lambda(e_grid, f_grid, denom), abs(e_origin))
            for (window, bw), (*losses, origin_abs) in zip(cells, loss):
                if bw == "auto":
                    report.meta.setdefault("cap_hits", []).append(
                        {"model": spec.kind, "window": window.name, "N": N,
                         "at_cap": at_cap})
                bw_label = "auto" if bw == "auto" else f"M={float(bw):g}"
                for name, name_losses in zip(CRITERIA, losses):
                    report.cells.append(CriterionResult(
                        criterion=name, losses=name_losses, n=N,
                        window=window.name, bandwidth=bw_label, model=spec.kind,
                        mean_estimate=(float(origin_abs.mean())
                                       if name == "abs@origin" else float("nan")),
                    ))
    return report


# ---------------------------------------------------------------------------
# Bandwidth-procedure comparison
# ---------------------------------------------------------------------------

PROCEDURES = ("a", "b", "c", "d", "e")


@dataclass
class ProcedureResult:
    """One procedure's bandwidths by replication, and whether each stopped at
    a search cap: the selection rule's for (a), either flat-top pilot rule's
    for (b) and (c); the second-order pilots of (d) and (e) have none."""

    procedure: str
    model: str
    n: int
    bandwidths: np.ndarray
    M_true: float
    cap_hits: np.ndarray

    @property
    def histogram(self) -> dict:
        vals, counts = np.unique(np.round(self.bandwidths).astype(int),
                                 return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    @property
    def mse_relative(self) -> float:
        return float(np.mean((self.bandwidths / self.M_true - 1.0) ** 2))

    @property
    def mean_bandwidth(self) -> float:
        return float(np.mean(self.bandwidths))


# the lag of procedure (a)'s calibrated k2, from the second draw of a series;
# its k1 has no effect on the rule (P_1 is never scanned), so nothing draws one
_K2_LAG = (6, 3)


# the plug-in procedures by pilot: procedure -> frequency
_PLUGIN_PROCEDURES = {
    "flat-top": {"b": (0.0, 0.0), "c": _POINT_21},
    "second-order": {"d": (0.0, 0.0), "e": _POINT_21},
}


def _procedure_bandwidths(procedures, series, window, c, calibrate, rep_seed):
    """Bandwidth of each procedure on one series, and whether a rule it ran
    stopped at its cap.  With `calibrate`, two bootstraps are drawn, seeded
    rep_seed and + 1: the first serves the flat-top pilots' 1-D threshold,
    the second procedure (a)'s k2 and the pilots' 2-D threshold; without,
    every threshold is the default k."""
    a = "a" in procedures
    pilot_lags = _PILOT_LAGS if any(p in _PLUGIN_PROCEDURES["flat-top"]
                                    for p in procedures) else ()
    draws = [pilot_lags[:1], [_K2_LAG] * a + list(pilot_lags[1:])] if calibrate else []
    ks = _bootstrap_ks(series, draws, rep_seed)
    chosen = {}
    if a:
        sel = select_bandwidth_bispectrum(series, k2=ks.get(_K2_LAG, 2.0), b=c)
        chosen["a"] = (sel.M_hat, sel.cap_hit)
    for pilot, points in _PLUGIN_PROCEDURES.items():
        group = [p for p in procedures if p in points]
        if group:
            pilots = (_flat_top_pilots(series, c, *(ks.get(lag, 2.0) for lag in _PILOT_LAGS))
                      if pilot == "flat-top" else _second_order_pilots(series))
            sels = _plugin_selections(window, series, [points[p] for p in group],
                                      pilot, pilots)
            chosen.update((p, (sel.M_hat, pilots[-1])) for p, sel in zip(group, sels))
    return chosen


def bandwidth_histogram_study(models, N_list=(200, 2000), R=100,
                              procedures=PROCEDURES, M_true=1.0, seed=None,
                              c=0.51, calibrate=False,
                              window: LagWindow | None = None) -> list:
    """Selected-bandwidth distributions and MSE of (M_hat / M - 1).

    Procedure (a) is the bispectrum selection rule; (b)/(c) the plug-in at
    the origin / at (2,1) with flat-top pilots; (d)/(e) the same points
    with second-order pilots.  `M_true` may be a number or a dict keyed by
    model kind.  Each result's `cap_hits` marks the replications whose
    selection rule or flat-top pilot rule stopped at its search cap.
    """
    unknown = sorted(set(procedures) - set(PROCEDURES))
    if unknown:
        raise ValueError(f"unknown procedures {unknown} (choose from {PROCEDURES})")
    if window is None:
        window = optimal_window()
    results = []
    for model in models:
        spec = _with_seed(model, seed)
        target = M_true[spec.kind] if isinstance(M_true, dict) else float(M_true)
        for N in N_list:
            chosen = {p: np.zeros(R) for p in procedures}
            at_cap = {p: np.zeros(R, bool) for p in procedures}
            for rep in range(R):
                series = generate(spec, N, replication=rep)
                found = _procedure_bandwidths(procedures, series, window, c,
                                              calibrate, rep_seed=2 * rep)
                for p in procedures:
                    chosen[p][rep], at_cap[p][rep] = found[p]
            for p in procedures:
                results.append(ProcedureResult(
                    procedure=p, model=spec.kind, n=N,
                    bandwidths=chosen[p], M_true=target, cap_hits=at_cap[p]))
    return results


# ---------------------------------------------------------------------------
# Simulation reference tables
# ---------------------------------------------------------------------------

def build_reference_table(spec: ModelSpec, freqs2=(), freqs3=(), R: int = 50,
                          L_sim: int = 20000, c: float = 0.51,
                          replication_offset: int = 10 ** 6) -> ReferenceTable:
    """Approximate the model's spectrum/bispectrum by averaging flat-top
    estimates over R long realizations.

    Replication ids start at a large offset so oracle draws never collide
    with study replications under the same seed.  Frequencies with one key
    (rounded to 9 decimals) are one entry, estimated once, at the first of
    them.  The estimates of one realization at each order are one call, so
    one pass over its lags.
    """
    if R < 1 or L_sim < 16:
        raise ValueError("need R >= 1 and a nontrivial simulation length")
    spec_win = trapezoid_window(c)
    bisp_win = flat_top_rpf(c)
    # the first frequency of each distinct key, estimated once
    f2, f3 = {}, {}
    for w in freqs2:
        f2.setdefault(_freq_key(w), w)
    for w in freqs3:
        f3.setdefault((_freq_key(w[0]), _freq_key(w[1])), w)
    sum2, sum3 = np.zeros(len(f2)), np.zeros(len(f3), complex)
    for rep in range(R):
        series = generate(spec, L_sim, replication=replication_offset + rep)
        if f2:
            M2 = select_bandwidth_general(series, order=2, b=c).M_hat
            sum2 += [e.value for e in estimate_spectrum(series, spec_win, M2, [*f2.values()])]
        if f3:
            M3 = select_bandwidth_bispectrum(series, b=c).M_hat
            sum3 += [e.value for e in estimate_bispectrum(series, bisp_win, M3, [*f3.values()])]
    return ReferenceTable(
        model=spec.kind,
        meta={"R": R, "L_sim": L_sim, "seed": spec.seed},
        spectrum=dict(zip(f2, (sum2 / R).tolist())),
        bispectrum=dict(zip(f3, (sum3 / R).tolist())),
    )
