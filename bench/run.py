"""Benchmark entry point for dkimle's per-voxel fitting.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mle-d2-snr15 --seed 1 --seconds 20 --trace 0

Prints a readable report and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Exits 1 when the correctness gate fails and
2 when the program cannot be found.  Fuller records go to bench/out/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# BLAS and OpenMP read their thread counts when numpy is first imported
for _var in PIN_VARS:
    os.environ[_var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--voxels", type=int, default=None,
                        help="stream size override (the self-test runs tiny tables)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dkimle" / "__init__.py").is_file():
        print(f"error: no dkimle sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dkimle

    if Path(dkimle.__file__).resolve().parent != (src / "dkimle").resolve():
        print(f"error: imported dkimle from {dkimle.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"pick one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.voxels)
    print("\n".join(result.summary))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
