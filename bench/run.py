"""Benchmark of flattopspec: times public entry points in-process, one op per call.

    python3 bench/run.py --workload study-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics from spans around each module's functions.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Spans and a full record of each run go to `.bench_out/`.

The workloads and their metrics are described in bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("study-sweep", "study-opt", "select", "oracle")
MIN_OPS = 11          # the tail percentile needs at least 10 ops beyond it
TAIL_BEYOND = 10
# times are reported at the speed of a host on which `reference_seconds`
# takes CALIBRATION_REF seconds on average; calibration takes this share of
# the timed loop
CALIBRATION_REF = 0.01
CALIBRATION_SHARE = 0.08


def _require_source():
    if not (SRC / "flattopspec" / "__init__.py").is_file():
        sys.exit(f"error: no flattopspec package under {SRC}; run from a source checkout")


def _import_package():
    _require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    import flattopspec
    if Path(flattopspec.__file__).resolve().parent != SRC / "flattopspec":
        sys.exit(f"error: imported flattopspec from {flattopspec.__file__}, not {SRC}")
    return workloads


def timed_setup(name: str, workdir: Path):
    """Import the package and do the one-time work; returns (seconds, module)."""
    t0 = time.perf_counter()
    workloads = _import_package()
    workloads.warm_up(workloads.WORKLOADS[name], str(workdir))
    return time.perf_counter() - t0, workloads


def probe_setup(name: str) -> float:
    """setup_s in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-probe"], capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import hashlib
    import platform

    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "flattopspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class OpResult(NamedTuple):
    index: int
    inp: dict
    seconds: float
    out: dict | None
    error: str | None


def execute(workload, inp, workdir, tracer=None, index=0):
    """Run one op; returns (seconds, output or None, error text or None)."""
    out = error = None
    if tracer is not None:
        tracer.op = index
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            ret = workload.call(inp, workdir)
        else:
            ret = tracer.call("op", workload.call, inp, workdir)
    except Exception:  # a failing op is counted, and the run goes on
        ret, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.op = -1
    if error is None:
        try:
            out = workload.collect(inp, ret, workdir)
        except Exception:
            error = traceback.format_exc(limit=3)
    return seconds, out, error


def _public(out):
    return {k: v for k, v in out.items() if not k.startswith("_")}


def check_ops(workload, results) -> dict:
    """Failure messages by op index."""
    failures: dict = {}
    ok = [r for r in results if r.error is None]
    for r in results:
        if r.error is not None:
            failures[r.index] = [r.error.strip().splitlines()[-1]]
    for r in ok:
        problems = workload.check(r.inp, r.out)
        if problems:
            failures[r.index] = problems
    k = min(workload.brute_ops, len(ok))
    sample = {ok[round(j * (len(ok) - 1) / max(k - 1, 1))].index for j in range(k)}
    for r in ok:
        if r.index in sample and r.index not in failures:
            problems = workload.brute(r.inp, r.out)
            if problems:
                failures[r.index] = problems
    return failures


def reference_seconds() -> float:
    """Time of a fixed piece of work that uses no flattopspec code.

    Half is dict lookups on tuple keys (interpreter-bound, like the package's
    per-lag loops), half is resampling arithmetic on 100 x 400 arrays (like
    the bootstrap), small enough to leave the peak RSS alone.
    """
    import numpy as np

    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(20000):
        key = (i % 211, i % 7)
        val = table.get(key)
        if val is None:
            val = table[key] = float(i)
        acc += val * 0.5
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    for _ in range(5):
        y = x[rng.integers(0, 400, size=(100, 400))]
        y -= y.mean(axis=1, keepdims=True)
        acc += float(((y[:, :397] * y[:, 3:]).sum(axis=1) / (y * y).sum(axis=1)).sum())
    return time.perf_counter() - t0


def tail(durations):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    d = sorted(durations)
    rank = len(d) - TAIL_BEYOND
    return d[rank - 1], 100.0 * rank / len(d)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # internal: one setup_s sample
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _require_source()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / (f"probe-{os.getpid()}" if args.setup_probe else f"work-{tag}")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(repr(timed_setup(args.workload, workdir)[0]))
            return 0
        return run(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tag, workdir) -> int:
    wd = str(workdir)
    tracer = None
    setup_samples = []
    if args.trace:
        workloads = _import_package()
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        workloads.warm_up(workloads.WORKLOADS[args.workload], wd)
        tracer.uninstall()
    else:
        # setup_s is the median of three fresh processes: a probe before the
        # run's own set-up, that set-up, and a probe after the timed loop
        setup_samples.append(probe_setup(args.workload))
        seconds, workloads = timed_setup(args.workload, workdir)
        setup_samples.append(seconds)
    workload = workloads.WORKLOADS[args.workload]

    results, traced_seconds, calibration = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while time.perf_counter() < deadline or len(results) < MIN_OPS:
        inp = workload.make(workloads.op_seed(args.seed, i), i)
        if tracer is None:
            results.append(OpResult(i, inp, *execute(workload, inp, wd)))
        else:
            # each op runs untraced and traced, alternating which goes first,
            # so warm caches favour neither side of trace.overhead_frac
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                runs[traced] = execute(workload, inp, wd, tracer if traced else None, i)
            (s0, out0, err0), (s1, out1, err1) = runs[False], runs[True]
            traced_seconds.append(s1)
            if err0 is None and err1 is None and _public(out0) != _public(out1):
                err0 = "traced and untraced runs of the op gave different outputs"
            results.append(OpResult(i, inp, s0, out0, err0 or err1))
        i += 1
        while sum(calibration) < CALIBRATION_SHARE * (time.perf_counter() - start):
            calibration.append(reference_seconds())
    loop_seconds = time.perf_counter() - start
    import resource
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        setup_samples.append(probe_setup(args.workload))

    import checks
    failures = check_ops(workload, results)
    recorded = workloads.expected_outputs().get(workload.name)
    ref_problems = (["no recorded output"] if recorded is None else
                    checks.golden_mismatches(recorded, workloads.reference_output(workload, wd),
                                             workload.name))
    if ref_problems:
        failures[-1] = ref_problems
    attempted = len(results) + 1  # the reference op counts as one
    failed = len(failures)

    # Times are scaled to the reference host speed, so that a run on a
    # slowed-down shared host reads like one on a quiet host.  The mean, not
    # the median, because an op's duration integrates the host's fast-changing
    # speed.  setup_s is scaled too: its probes run at other moments than the
    # calibration, but its median then stays put when the host's speed
    # changes between sets of runs.
    slowdown = statistics.fmean(calibration) / CALIBRATION_REF
    wall_durations = [r.seconds for r in results]
    durations = [d / slowdown for d in wall_durations]
    tail_value, tail_pct = tail(durations)
    if tracer is None:
        metrics = {
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "op_ms_p50": (1e3 * statistics.median(durations), "ms"),
            "op_ms_tail": (1e3 * tail_value, "ms"),
            "setup_s": (statistics.median(setup_samples) / slowdown, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
    else:
        layers = tracing.layer_metrics(tracer.spans, len(traced_seconds))
        metrics = {k: (v / slowdown if u.startswith("ms") else v, u)
                   for k, (v, u) in layers.items()}
        metrics["trace.overhead_frac"] = (
            sum(traced_seconds) / sum(wall_durations) - 1.0, "frac")
        tracer.write(OUT_DIR / f"spans-{tag}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "ops": len(traced_seconds)})

    env = environment(args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "loop_seconds": loop_seconds, "env": env,
        "ops": len(results), "tail_percentile": tail_pct,
        "tail_ops_beyond": TAIL_BEYOND, "setup_samples_s": setup_samples,
        "op_wall_s": wall_durations, "host_slowdown": slowdown,
        "calibration_s": calibration,
        "failures": {str(k): v for k, v in failures.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"bench {tag}: {len(results)} ops in {loop_seconds:.1f} s, "
          f"host slowdown {slowdown:.3f} (op times below are divided by it)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  op_ms_tail is p{tail_pct:.1f} of {len(results)} ops "
          f"({TAIL_BEYOND} ops beyond it)")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops, "
          f"the recorded reference op included)")
    for k, v in sorted(failures.items()):
        print(f"  FAILED op {k}: {v[0]}" + (f" (+{len(v) - 1} more)" if len(v) > 1 else ""))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
