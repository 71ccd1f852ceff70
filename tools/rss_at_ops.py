"""Max RSS of one process after a fixed number of ops of a benchmark workload,
with every op's input and output kept, as `bench/run.py` keeps them.

    python3 tools/rss_at_ops.py --workload study-sweep --ops 800
    python3 tools/rss_at_ops.py --workload study-sweep --ops 800 --root ../parent

The process imports the package from `<root>/src` and the workloads from
`<root>/bench` (`--root` defaults to this checkout, so the script can measure
a checkout that does not have it), runs the workload's warm-up op, then ops
0 .. K-1 at `op_seed(seed, i)`, keeping each op's input and what `collect`
returns for it.  It prints one line of JSON: the workload, K, the seed, the
root and `maxrss_mb`, the process's peak resident set (`ru_maxrss`) in MB.

`bench/run.py` runs as many ops as fit in its time budget and keeps them all,
so its `peak_rss_mb` grows with the op count; two commits compared at the
same K show the memory their code holds apart from the number of ops a run
fits.  Nothing under `bench/` is changed.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import warnings
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--ops", type=int, required=True, help="ops run after the warm-up")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="the source checkout whose src/ and bench/ are imported")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.seed < 0:
        parser.error("--ops must be >= 1 and --seed >= 0")
    root = Path(args.root).resolve()
    if not (root / "src" / "flattopspec" / "__init__.py").is_file():
        parser.error(f"no flattopspec package under {root / 'src'}")
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    kept = []
    with tempfile.TemporaryDirectory() as workdir, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a selection at its cap warns
        workloads.warm_up(workload, workdir)
        for i in range(args.ops):
            inp = workload.make(workloads.op_seed(args.seed, i), i)
            kept.append((inp, workload.collect(inp, workload.call(inp, workdir), workdir)))
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"workload": args.workload, "ops": len(kept), "seed": args.seed,
                      "root": str(root), "maxrss_mb": round(maxrss_mb, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
