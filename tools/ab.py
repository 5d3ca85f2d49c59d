"""A/B benchmark of this checkout against a git ref, written to one JSON file.

    python3 tools/ab.py --base REF [--pairs N] [--seconds S] [--workload W]
                        [--out BENCH_<n>.json]

REF is exported with ``git archive`` into a temporary directory (a local
export, nothing is fetched).  For each workload of BENCHMARK.json the
unchanged ``bench/run.py`` of each tree runs ``--pairs`` times with
``--trace 0``: pair i runs both trees on seed i + 1, one after the other,
and which tree runs first alternates from pair to pair, so a drift of the
machine's speed falls on both.  Each run's last output line is the
JSON object ``bench/run.py`` documents.

The output holds, per workload and end-to-end metric, each tree's median,
quartiles and IQR (q3 - q1) over its runs, the change's median over the
base's, the number of pairs in which the change was better, and whether
the change's median is within the metric's bound of the base's; per
workload, each tree's passed gates and failed/attempted operations, and
every run's raw metrics.  It also holds both trees' ``src/`` line counts
and the lines ``tools/fit_hashes.py`` prints in each tree.  The change is
this checkout's working tree: its entry names HEAD and whether tracked
files differ from it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def export(ref: str, dest: Path) -> str:
    """Unpack ``git archive REF`` into ``dest``; returns REF's commit id."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_lines(tree: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def tree_env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its final JSON object, metrics as plain values."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=tree_env(tree), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["metrics"] = {name: m["value"] for name, m in out["metrics"].items()}
    return out


def fit_hashes(tree: Path) -> list:
    proc = subprocess.run([sys.executable, "tools/fit_hashes.py"], cwd=tree, env=tree_env(tree),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def spread(values) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, spec: list) -> dict:
    """Per-metric medians, IQRs and win counts, and the gate, of one workload."""
    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        b, c = spread(base), spread(change)
        ratio = c["median"] / b["median"] if b["median"] else float("nan")
        worse = ratio - 1.0 if lower else 1.0 - ratio
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": b, "change": c, "ratio": ratio,
            "wins": sum((y < x) if lower else (y > x) for x, y in zip(base, change)),
            "within_bound": not worse > m["bound"],
        }
    gate = {side: {"correct": sum(r[side]["correct"] for r in runs),
                   "attempted": sum(r[side]["attempted"] for r in runs),
                   "failed": sum(r[side]["failed"] for r in runs)}
            for side in ("base", "change")}
    return {"metrics": metrics, "gate": gate, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base tree")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: every one)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base = Path(tmp)
        commit = export(args.base, base)
        trees = {"base": base, "change": ROOT}
        result = {
            "base": {"ref": args.base, "commit": commit},
            "change": {"ref": "working tree", "commit": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
            "pairs": args.pairs, "seconds": args.seconds,
            "seeds": list(range(1, args.pairs + 1)),
            "workloads": {},
        }
        for side, tree in trees.items():
            result[side]["src_lines"] = src_lines(tree)
            print(f"fit hashes of the {side} tree", file=sys.stderr, flush=True)
            result[side]["fit_hashes"] = fit_hashes(tree)
        for workload in workloads:
            runs = []
            for i, seed in enumerate(result["seeds"]):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                run = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench_run(trees[side], workload, seed, args.seconds)
                    print(f"{workload} pair {i} {side}: voxels_per_s "
                          f"{run[side]['metrics'].get('voxels_per_s')}", file=sys.stderr, flush=True)
                runs.append(run)
            result["workloads"][workload] = summarize(runs, spec["end_to_end"])
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
