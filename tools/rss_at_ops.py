"""Max RSS of one process after fixed numbers of ops of a benchmark workload,
with every op's input and output kept, as `bench/run.py` keeps them.

    python3 tools/rss_at_ops.py --workload study-sweep --ops 200,1200
    python3 tools/rss_at_ops.py --workload study-sweep --ops 800 --root ../parent

The process imports the package from `<root>/src` and the workloads from
`<root>/bench` (`--root` defaults to this checkout, so the script can measure
a checkout that does not have it), runs the workload's warm-up op, then ops
0, 1, ... at `op_seed(seed, i)`, keeping each op's input and what `collect`
returns for it.  At each count of `--ops` (comma-separated, run in one
process) it prints one line of JSON: the workload, the count, the seed, the
root and `maxrss_mb`, the process's peak resident set (`ru_maxrss`) so far
in MB.

With two or more counts a last line gives `kb_per_op`, the slope of maxrss
from the smallest count to the largest, and `ratio_at_bound`: the op count,
as a multiple of the largest, at which a run that holds the same memory per
op reads `peak_rss_mb` past its bound in `BENCHMARK.json` (0.1), that is
1 + bound * RSS / (ops * KB per op) at the largest count.  Pass the op count
of a 30 s benchmark run as the largest count, and the ratio is the
throughput gain that run can take before its memory alone fails the bound.

`bench/run.py` runs as many ops as fit in its time budget and keeps them all,
so its `peak_rss_mb` grows with the op count; two commits compared at the
same counts show the memory their code holds apart from the number of ops a
run fits.  Nothing under `bench/` is changed.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _rss_bound() -> float:
    """The `peak_rss_mb` bound of this checkout's BENCHMARK.json."""
    with open(HERE / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    return next(m["bound"] for m in metrics if m["name"] == "peak_rss_mb")


def _op_counts(text: str) -> list:
    counts = sorted({int(c) for c in text.split(",") if c.strip()})
    if not counts or counts[0] < 1:
        raise ValueError(text)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--ops", type=_op_counts, required=True,
                        help="op counts after the warm-up, comma-separated, e.g. 400,2400")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", default=str(HERE),
                        help="the source checkout whose src/ and bench/ are imported")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path(args.root).resolve()
    if not (root / "src" / "flattopspec" / "__init__.py").is_file():
        parser.error(f"no flattopspec package under {root / 'src'}")
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    kept, rss = [], {}
    with tempfile.TemporaryDirectory() as workdir, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a selection at its cap warns
        workloads.warm_up(workload, workdir)
        for count in args.ops:
            for i in range(len(kept), count):
                inp = workload.make(workloads.op_seed(args.seed, i), i)
                kept.append((inp, workload.collect(inp, workload.call(inp, workdir), workdir)))
            rss[count] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(json.dumps({"workload": args.workload, "ops": count, "seed": args.seed,
                              "root": str(root), "maxrss_mb": round(rss[count], 2)}),
                  flush=True)
    if len(rss) > 1:
        lo, hi = args.ops[0], args.ops[-1]
        kb_per_op = (rss[hi] - rss[lo]) * 1024.0 / (hi - lo)
        bound = _rss_bound()
        ratio = 1.0 + bound * rss[hi] * 1024.0 / (hi * kb_per_op) if kb_per_op > 0 else None
        print(json.dumps({"workload": args.workload, "kb_per_op": round(kb_per_op, 2),
                          "rss_bound": bound, "at_ops": hi,
                          "ratio_at_bound": None if ratio is None else round(ratio, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
