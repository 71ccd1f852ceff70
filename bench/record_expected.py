"""Record the reference op of each workload in expected.json.

    python3 bench/record_expected.py

The benchmark compares the same op's outputs with these values on every run,
so run this only at a commit whose outputs are known to be right.
"""
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    recorded = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as workdir:
        for name, workload in workloads.WORKLOADS.items():
            recorded[name] = workloads.reference_output(workload, workdir)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
