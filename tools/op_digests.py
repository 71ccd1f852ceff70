"""One sha256 per benchmark op of `call` + `collect`, and per `estimate`
command below, to compare two commits.

    python3 tools/op_digests.py > digests.txt

Run from the root of a source checkout: the package comes from `src/` and the
ops from `bench/workloads.py`, at op seeds `op_seed(0, i)` as `bench/run.py`
makes them (`select` 0-59, `study-sweep` 0-2, `study-opt` 0-7, `oracle` 0-1).
Each line is `<workload> <op index> <digest>`.  A digest covers the whole
output, the private keys too: a series as the bytes of its values, and a
dataclass (a `BandwidthSelection`) as its fields.  The `estimate` lines
digest the exit code and stdout of `flattopspec estimate` at orders 2 and 3,
with a fixed and an automatic bandwidth, and once with untruncated `opt`.
The `study-calibrated` line digests the exit code and the CSV and JSON tables
of one `flattopspec study --bandwidth auto --calibrate` run at R=2, the path
of the bootstrap-calibrated selection rule.  The `general-cap` line digests
m_hat, `cap_hit` and the trace of the order-3 general rule on an iid chi^2_1
series at N=2000, seed 0, which stops at its cap: the one stall no workload
times.
The `bootstrap-ks` line digests the k of `bootstrap_threshold` at the lags
[(6, 3), (3, 0)] and at (3,), on each model at N=400, seeds 0-3, the
calibration the other lines only pass through a selection.
The `window-constants` line digests `window_l2_norm` and
`window_curvature_at_zero` of each window family at several parameters, on
cold copies of the windows, so each run computes them afresh.
The `scan-edges` line digests m_hat, M_hat, `cap_hit` and the trace of the
general rule at orders 2 and 3 and of the bispectrum rule at caps 1, 2,
floor(N/4) and the default, on arma11 and iid chi^2_1 at N in {2, 3, 5, 8,
400}, seed 0: the edges of the scan, where a cap leaves one or two windows
or the series is shorter than a window.
Equal digests on two commits mean bit-identical outputs.

Then every op runs a second time in the same process, in reverse order, and
the script exits 1, naming on stderr each op whose two digests differ: no
memo (lag plans, window constants, the command-line parser) may carry state
from one call to the next.

    python3 tools/op_digests.py --dump outputs.json
    python3 tools/op_digests.py --against outputs.json --rel 1e-12

`--dump` also writes every op's output to a JSON file, as the list of its
scalars in the order the digest visits them: a float (each part of a
complex, each token of `estimate` output that parses as one) as a float,
anything else as its repr.  `--against` compares each op with such a file
and prints `<workload> <op index> <largest relative difference>` instead of
the digest; it exits 1 if any difference is above `--rel` or any non-float
scalar differs.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import flattopspec  # noqa: E402
from flattopspec import cli  # noqa: E402
import workloads  # noqa: E402

OPS = {"select": 60, "study-sweep": 3, "study-opt": 8, "oracle": 2}

_SPECTRUM_AT = ["--at", "0.3", "--at", "1.2", "--at", "2.5"]
_BISPECTRUM_AT = ["--at", "0,0", "--at", "1,0.5", "--at", "2,1"]
ESTIMATES = [
    ["--order", "2", "--model", "arma11", "--N", "400", "--seed", "3",
     "--bandwidth", "6", *_SPECTRUM_AT],
    ["--order", "2", "--model", "garch11", "--N", "400", "--seed", "3",
     "--bandwidth", "auto", *_SPECTRUM_AT],
    ["--order", "3", "--model", "iid-chisq1", "--N", "400", "--seed", "3",
     "--bandwidth", "7", *_BISPECTRUM_AT],
    ["--order", "3", "--model", "garch11", "--N", "400", "--seed", "3",
     "--bandwidth", "auto", *_BISPECTRUM_AT],
    ["--order", "3", "--model", "iid-chisq1", "--N", "300", "--seed", "5",
     "--window", "opt", "--bandwidth", "4", *_BISPECTRUM_AT],
]

CALIBRATED_STUDY = ["--models", "iid-chisq1,arma11", "--windows", "rpf:c=0.51,rcf:c=0.51",
                    "--N", "200", "--R", "2", "--bandwidth", "auto", "--calibrate",
                    "--grid-n", "4", "--seed", "3"]


def encode(obj):
    """A nested tuple of strings and bytes that determines `obj` exactly."""
    if isinstance(obj, flattopspec.TimeSeries):
        return ("TimeSeries", obj.values.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, encode(getattr(obj, f.name))) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), encode(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(encode(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    return repr(obj)


def leaves(obj, path=""):
    """(path, scalar) for each scalar of `obj`, in the order `encode` visits
    them: floats and the parts of complex numbers as floats, anything else as
    its repr."""
    if isinstance(obj, flattopspec.TimeSeries):
        obj = obj.values
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            yield from leaves(obj[k], f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from leaves(v, f"{path}[{i}]")
    elif isinstance(obj, (float, np.floating)):
        yield path, float(obj)
    elif isinstance(obj, (complex, np.complexfloating)):
        yield f"{path}.real", float(obj.real)
        yield f"{path}.imag", float(obj.imag)
    else:
        yield path, repr(obj)


def _token(text):
    try:
        return float(text)
    except ValueError:
        return text


def run_op(workload, i, workdir):
    """(output, digested text) of op i of a benchmark workload."""
    inp = workload.make(workloads.op_seed(0, i), i)
    out = workload.collect(inp, workload.call(inp, workdir), workdir)
    return out, repr(encode(out))


def run_estimate(args):
    """(output, digested text) of one `flattopspec estimate` command."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a selection at its cap warns
        code = cli.main(["estimate", *args])
    text = stdout.getvalue()
    rows = [[_token(t) for t in line.split(",")] for line in text.splitlines()]
    return [code, rows], f"{code}\n{text}"


def run_study(args, workdir):
    """(output, digested text) of one `flattopspec study` command: its exit
    code and its CSV and JSON tables (the sidecar names the output path)."""
    out = str(Path(workdir) / "calibrated.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a selection at its cap warns
        code = cli.main(["study", *args, "--output", out])
    csv_text = Path(out).read_text()
    json_text = Path(out + ".json").read_text()
    rows = [[_token(t) for t in line.split(",")] for line in csv_text.splitlines()]
    return [code, rows, json.loads(json_text)], f"{code}\n{csv_text}\n{json_text}"


def run_general_at_cap():
    """(output, digested text) of the order-3 general rule at its cap."""
    series = flattopspec.generate(flattopspec.ModelSpec(kind="iid-chisq1", seed=0), 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the selection at its cap warns
        sel = flattopspec.select_bandwidth_general(series, order=3)
    out = [sel.m_hat, sel.cap_hit, sel.trace]
    return out, repr(encode(out))


def run_bootstrap_ks():
    """(output, digested text) of the bootstrap's k at a list of 2-D lags
    and at one 1-D lag, on each model kind at N=400, seeds 0-3."""
    out = []
    for kind in sorted(flattopspec.MODEL_KINDS):
        for seed in range(4):
            series = flattopspec.generate(flattopspec.ModelSpec(kind=kind, seed=seed), 400)
            pairs = flattopspec.bootstrap_threshold(series, [(6, 3), (3, 0)], seed=seed)
            pairs.append(flattopspec.bootstrap_threshold(series, (3,), seed=seed))
            out.append([k for _, k in pairs])
    return out, repr(encode(out))


def run_scan_edges():
    """(output, digested text) of both scan rules at small caps and on short
    series."""
    out = []
    for kind in ("arma11", "iid-chisq1"):
        for N in (2, 3, 5, 8, 400):
            series = flattopspec.generate(flattopspec.ModelSpec(kind=kind, seed=0), N)
            # floor(N/4) is not a cap below N = 4
            for cap in [1, 2, *([N // 4] if N >= 4 else []), None]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # a selection at its cap warns
                    sels = [flattopspec.select_bandwidth_general(series, order=2, cap=cap),
                            flattopspec.select_bandwidth_general(series, order=3, cap=cap),
                            flattopspec.select_bandwidth_bispectrum(series, cap=cap)]
                out.append([[sel.m_hat, sel.M_hat, sel.cap_hit, sel.trace] for sel in sels])
    return out, repr(encode(out))


# the windows of the `window-constants` line: every family, the radial ones
# (rcf, opt) at each parameter whose profile a change could reach
CONSTANT_WINDOWS = (
    [partial(flattopspec.flat_top_rpf, c) for c in (0.3, 0.51, 0.9)]
    + [partial(flattopspec.flat_top_rcf, c) for c in (0.3, 0.51, 0.9)]
    + [flattopspec.optimal_window,
       partial(flattopspec.optimal_window, flattopspec.opt_truncation_radius(1e-3)),
       partial(flattopspec.optimal_window, 2.5),
       flattopspec.trapezoid_window, flattopspec.parzen_window,
       flattopspec.parzen_window_2d])


def run_window_constants():
    """(output, digested text) of the L2 norm and the curvature at 0 of each
    window of `CONSTANT_WINDOWS`, each on a cold copy of the window."""
    out = []
    for make in CONSTANT_WINDOWS:
        window = dataclasses.replace(make())
        out.append([window.name, window.params,
                    flattopspec.window_l2_norm(window),
                    flattopspec.window_curvature_at_zero(window)])
    return out, repr(encode(out))


def ops(workdir):
    """(label, op) of every op, in the order printed; op() returns the
    output and the digested text."""
    for name, n_ops in OPS.items():
        for i in range(n_ops):
            yield f"{name} {i}", partial(run_op, workloads.WORKLOADS[name], i, workdir)
    for i, args in enumerate(ESTIMATES):
        yield f"estimate {i}", partial(run_estimate, args)
    yield "study-calibrated 0", partial(run_study, CALIBRATED_STUDY, workdir)
    yield "general-cap 0", run_general_at_cap
    yield "bootstrap-ks 0", run_bootstrap_ks
    yield "window-constants 0", run_window_constants
    yield "scan-edges 0", run_scan_edges


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def relative_difference(found, reference):
    """The largest |a - b| / max(|a|, |b|) over the float scalars of two
    leaf lists, or None if their paths or other scalars differ."""
    if [p for p, _ in found] != [p for p, _ in reference]:
        return None
    worst = 0.0
    for (_, a), (_, b) in zip(found, reference):
        if isinstance(a, float) and isinstance(b, float):
            if a != b and not (math.isnan(a) and math.isnan(b)):
                scale = max(abs(a), abs(b))
                worst = max(worst, abs(a - b) / scale if scale else math.inf)
        elif a != b:
            return None
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", help="also write every op's output to this JSON file")
    parser.add_argument("--against", help="compare with the outputs of a --dump file")
    parser.add_argument("--rel", type=float, default=0.0,
                        help="largest relative difference --against accepts")
    args = parser.parse_args(argv)
    reference = None
    if args.against:
        with open(args.against) as fh:
            reference = json.load(fh)
    dump, digests, ok = {}, {}, True
    with tempfile.TemporaryDirectory() as workdir:
        every_op = list(ops(workdir))
        for label, op in every_op:
            out, text = op()
            digests[label] = digest(text)
            found = [list(leaf) for leaf in leaves(out)]
            if args.dump:
                dump[label] = found
            if reference is None:
                print(f"{label} {digests[label]}", flush=True)
                continue
            rel = relative_difference(found, reference.get(label, []))
            ok &= rel is not None and rel <= args.rel
            print(f"{label} {'differs' if rel is None else repr(rel)}", flush=True)
        # every op again, in reverse order: an output that depends on what
        # ran before it in the process (a memo's state) shows here
        changed = [label for label, op in reversed(every_op)
                   if digest(op()[1]) != digests[label]]
    if changed:
        print(f"error: ops whose digest changed when run again in reverse order: "
              f"{', '.join(changed)}", file=sys.stderr)
        ok = False
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(dump, fh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
