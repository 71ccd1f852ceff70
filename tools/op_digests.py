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
Equal digests on two commits mean bit-identical outputs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
import warnings
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


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, n_ops in OPS.items():
            workload = workloads.WORKLOADS[name]
            for i in range(n_ops):
                inp = workload.make(workloads.op_seed(0, i), i)
                out = workload.collect(inp, workload.call(inp, workdir), workdir)
                digest = hashlib.sha256(repr(encode(out)).encode()).hexdigest()
                print(f"{name} {i} {digest}", flush=True)
    for i, args in enumerate(ESTIMATES):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a selection at its cap warns
            code = cli.main(["estimate", *args])
        digest = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode()).hexdigest()
        print(f"estimate {i} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
