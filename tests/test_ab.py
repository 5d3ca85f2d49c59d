"""Tests of ``tools/ab.py``: its summary arithmetic on made-up runs, and the
schema of the file it writes after one tiny pair against ``HEAD``."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
SPREAD_KEYS = {"median", "q1", "q3", "iqr"}


def made_up_run(rate_base, rate_change, failed=0):
    def side(rate, failed):
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {"voxels_per_s": rate, "voxel_ms_p50": 1000.0 / rate}}
    return {"base": side(rate_base, 0), "change": side(rate_change, failed)}


def test_summary_medians_wins_and_bounds():
    metrics = [m for m in END_TO_END if m["name"] in ("voxels_per_s", "voxel_ms_p50")]
    runs = [made_up_run(10.0, 12.0), made_up_run(11.0, 10.0), made_up_run(12.0, 14.0),
            made_up_run(13.0, 15.0, failed=2)]
    out = ab.summarize(runs, metrics)
    rate = out["metrics"]["voxels_per_s"]
    assert rate["base"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "iqr": 1.5}
    assert rate["change"]["median"] == 13.0
    assert rate["wins"] == 3 and rate["ratio"] == pytest.approx(13.0 / 11.5)
    assert rate["within_bound"]
    # lower is better for the per-voxel time: the same three pairs win
    assert out["metrics"]["voxel_ms_p50"]["wins"] == 3
    assert out["gate"] == {"base": {"correct": 4, "attempted": 40, "failed": 0},
                           "change": {"correct": 3, "attempted": 40, "failed": 2}}
    slower = ab.summarize([made_up_run(10.0, 7.0)], metrics)["metrics"]
    assert not slower["voxels_per_s"]["within_bound"] and slower["voxels_per_s"]["wins"] == 0


def test_one_tiny_pair_writes_the_schema(tmp_path, monkeypatch):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    # the real fit hashes take minutes; their place in the file is what is checked
    monkeypatch.setattr(ab, "fit_hashes", lambda tree: [f"hashes of {tree.name}"])
    out = tmp_path / "BENCH.json"
    assert ab.main(["--base", "HEAD", "--pairs", "1", "--seconds", "1",
                    "--workload", "cwls-d2-snr5", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"base", "change", "pairs", "seconds", "seeds", "workloads"}
    assert isinstance(result["change"].pop("dirty"), bool)
    for side in ("base", "change"):
        assert set(result[side]) == {"ref", "commit", "src_lines", "fit_hashes"}
        assert result[side]["src_lines"] > 0 and len(result[side]["commit"]) == 40
    assert result["change"]["fit_hashes"] == [f"hashes of {ROOT.name}"]
    assert result["base"]["fit_hashes"][0].startswith("hashes of ab-base-")
    assert (result["pairs"], result["seconds"], result["seeds"]) == (1, 1.0, [1])

    workload = result["workloads"]["cwls-d2-snr5"]
    assert set(workload) == {"metrics", "gate", "runs"}
    assert list(workload["metrics"]) == [m["name"] for m in END_TO_END]
    for m in END_TO_END:
        entry = workload["metrics"][m["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (m["unit"], m["better"],
                                                                    m["bound"])
        assert set(entry["base"]) == set(entry["change"]) == SPREAD_KEYS
        assert entry["wins"] in (0, 1) and isinstance(entry["within_bound"], bool)
    for side in ("base", "change"):
        assert workload["gate"][side]["failed"] == 0
        assert workload["gate"][side]["correct"] == 1
    (run,) = workload["runs"]
    assert (run["pair"], run["seed"], run["first"]) == (0, 1, "base")
    assert set(run["change"]["metrics"]) == {m["name"] for m in END_TO_END}
