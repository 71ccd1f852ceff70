"""Command-line front-end.

Subcommands:

* ``estimate`` — spectrum/bispectrum values from a data file or a built-in
  model, with automatic or fixed bandwidth;
* ``study`` — Monte-Carlo MSE tables over models x windows x sample sizes;
* ``oracle`` — materialize simulation reference tables for models without
  closed-form truth (garch11, bilinear).

Exit codes: 0 ok, 2 input error, 3 degenerate data, 4 missing oracle table.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .bandwidth import select_bandwidth_bispectrum, select_bandwidth_general
from .cumulants import TimeSeries
from .evaluate import build_reference_table, composite_grid, run_mse_study
from .exceptions import DegenerateSeriesError, MissingReferenceError
from .models import MODEL_KINDS, ModelSpec, ReferenceTable, generate
from .spectra import estimate_bispectrum, estimate_spectrum
from .windows import flat_top_rpf, parse_window, trapezoid_window

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NO_ORACLE = 4

_FREQ_RE = re.compile(r"^(-?\d*\.?\d*)\s*\*?\s*pi(?:/(\d+\.?\d*))?$")


def parse_freq(text: str) -> float:
    """Parse a frequency in radians; 'pi'-literals like 2pi/3 are accepted.
    A zero denominator or a value that is not finite is a ValueError."""
    s = text.strip().lower().replace(" ", "")
    m = _FREQ_RE.match(s)
    if m:
        coef = m.group(1)
        num = float(coef) if coef not in ("", "-") else (-1.0 if coef == "-" else 1.0)
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ValueError(f"frequency '{text}' has a zero denominator")
        value = num * math.pi / den
    else:
        value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"frequency '{text}' is not finite")
    return value


def _parse_at(values, order):
    points = []
    for item in values:
        parts = [p for p in item.split(",") if p.strip()]
        need = order - 1
        if len(parts) != need:
            raise ValueError(f"--at needs {need} value(s) for order {order}, "
                             f"got '{item}'")
        freqs = tuple(parse_freq(p) for p in parts)
        points.append(freqs[0] if need == 1 else freqs)
    return points


def _load_series(path) -> TimeSeries:
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    try:
        data = np.loadtxt(path)
    except ValueError:
        data = np.loadtxt(path, delimiter=",")
    return TimeSeries(data)  # raises on NaN/inf and on more than one column


def _write_sidecar(output, args, selection=None):
    # the parsed arguments minus the handler, whose repr differs per process,
    # and the outcome of an automatic bandwidth selection
    config = {k: v for k, v in vars(args).items() if k != "func"}
    if selection is not None:
        config["selection"] = {
            "rule": selection.rule, "m_hat": selection.m_hat,
            "M_hat": selection.M_hat, "thresholds": selection.thresholds,
            "cap_hit": selection.cap_hit}
    with open(str(output) + ".config.json", "w") as fh:
        # compact, so that `json.dumps` takes the C encoder
        fh.write(json.dumps(config, sort_keys=True, default=str))


def cmd_estimate(args) -> int:
    if (args.input is None) == (args.model is None):
        print("error: provide exactly one of --input / --model", file=sys.stderr)
        return EXIT_INPUT
    if args.input is not None:
        series = _load_series(args.input)
    else:
        series = generate(ModelSpec(kind=args.model, seed=args.seed), args.N)

    order = args.order
    if args.window:
        window = parse_window(args.window)
    else:
        window = trapezoid_window() if order == 2 else flat_top_rpf()
    if window.order != order:
        raise ValueError(f"window '{window.name}' is order {window.order}, "
                         f"but --order {order} was requested")
    points = _parse_at(args.at, order)
    if not points:
        raise ValueError("at least one --at frequency is required")

    sel = None
    if args.bandwidth == "auto":
        c = window.params.get("c", 0.51)
        sel = (select_bandwidth_general(series, order=2, b=c) if order == 2
               else select_bandwidth_bispectrum(series, b=c))
        M = sel.M_hat
    else:
        M = float(args.bandwidth)  # the estimator checks 0 < M < inf

    # the order-2 value is a float, whose imag is 0.0
    estimate = estimate_spectrum if order == 2 else estimate_bispectrum
    rows = [[*est.omega, est.value.real, est.value.imag, M, window.name, series.n]
            for est in estimate(series, window, M, points)]

    header = ("omega1,re,im,M,window,N" if order == 2
              else "omega1,omega2,re,im,M,window,N")
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _write_sidecar(args.output, args, sel)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_study(args) -> int:
    models = [ModelSpec(kind=k.strip(), seed=args.seed)
              for k in args.models.split(",") if k.strip()]
    windows = [parse_window(w.strip()) for w in args.windows.split(",")]
    for w in windows:
        if w.order != 3:
            raise ValueError(f"study windows must be order 3; '{w.name}' is not")
    N_list = [int(n) for n in args.N.split(",")]
    if args.bandwidth == "auto":
        bandwidths = "auto"
    else:
        bandwidths = [float(b) for b in args.bandwidth.split(",")]
    # one table per model, the last given for it
    tables = {t.model: t for t in map(ReferenceTable.load, args.oracle_table or ())}

    report = run_mse_study(models, windows, bandwidths=bandwidths,
                           N_list=N_list, R=args.R, grid_n=args.grid_n,
                           seed=args.seed, tables=tables,
                           calibrate=args.calibrate)
    out = args.output or "study.csv"
    report.to_csv(out)
    report.to_json(out + ".json")
    _write_sidecar(out, args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.model not in ("garch11", "bilinear"):
        raise ValueError("oracle tables are built for garch11 or bilinear only")
    spec = ModelSpec(kind=args.model, seed=args.seed)
    grid = composite_grid(args.grid_n)
    freqs3 = [(0.0, 0.0), (2.0, 1.0)] + list(grid.points)
    freqs2 = sorted({round(w, 9)
                     for (w1, w2) in grid.points for w in (w1, w2, w1 + w2)})
    table = build_reference_table(spec, freqs2=freqs2, freqs3=freqs3,
                                  R=args.R, L_sim=args.L_sim)
    out = args.output or f"{args.model}_reference.csv"
    table.save(out)
    _write_sidecar(out, args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process; parsing leaves it as it
    is, and an appended option starts from a copy of its default."""
    parser = argparse.ArgumentParser(
        prog="flattopspec",
        description="Spectrum/bispectrum estimation with flat-top lag-windows")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate spectral values")
    est.add_argument("--input", help="numeric text file, one row per time step")
    est.add_argument("--model", choices=sorted(MODEL_KINDS),
                     help="simulate from a built-in model instead of a file")
    est.add_argument("--N", type=int, default=2000,
                     help="sample size when simulating (default 2000)")
    est.add_argument("--order", type=int, choices=(2, 3), default=3)
    est.add_argument("--window", help="window spec, e.g. rpf:c=0.51")
    est.add_argument("--bandwidth", default="auto",
                     help="'auto' or a positive number (default auto)")
    est.add_argument("--at", action="append", default=[],
                     help="frequency point, e.g. '2,1' or 'pi/3,pi/6' (repeatable)")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--output", help="CSV output path (default stdout)")
    est.set_defaults(func=cmd_estimate)

    study = sub.add_parser("study", help="Monte-Carlo MSE study")
    study.add_argument("--models", default="iid-chisq1",
                       help="comma-separated model kinds")
    study.add_argument("--windows", default="rpf:c=0.51",
                       help="comma-separated window specs")
    study.add_argument("--N", default="2000", help="comma-separated sample sizes")
    study.add_argument("--R", type=int, default=100, help="replications")
    study.add_argument("--bandwidth", default="auto",
                       help="'auto' or comma-separated fixed bandwidths")
    study.add_argument("--grid-n", type=int, default=5)
    study.add_argument("--calibrate", action="store_true",
                       help="bootstrap-calibrate selection thresholds")
    study.add_argument("--oracle-table", action="append",
                       help="reference table CSV for garch11/bilinear (repeatable)")
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--output", help="CSV output path (default study.csv)")
    study.set_defaults(func=cmd_study)

    oracle = sub.add_parser("oracle", help="build a simulation reference table")
    oracle.add_argument("--model", required=True)
    oracle.add_argument("--R", type=int, default=50)
    oracle.add_argument("--L-sim", dest="L_sim", type=int, default=20000)
    oracle.add_argument("--grid-n", type=int, default=5)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--output", help="output CSV path")
    oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for bad flags, which matches our input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MissingReferenceError as exc:
        print(f"error: {exc}\nrun 'flattopspec oracle' to build the table",
              file=sys.stderr)
        return EXIT_NO_ORACLE
    except DegenerateSeriesError as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
