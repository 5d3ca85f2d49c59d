"""Self-test of the benchmark.

Runs every workload at a tiny size in both modes, checks that the trace
wrappers leave fits bit-identical, that ``dkimle fit`` writes the same
parameters with one and with two workers, and that the runner refuses
to report when the program's sources are missing.

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import workloads  # noqa: E402
from dkimle import estimators, scenario  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# tiny streams: the in-process pool doubles after 4 voxels, the CLI
# table has 30 rows
TINY_VOXELS = {"mle-d2-snr15": 4, "cwls-d2-snr5": 4, "cli-wls-d3": 30}


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--voxels", str(TINY_VOXELS[workload])]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def test_spec_matches_runner():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert workloads.END_TO_END[m["name"]] == m["unit"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_VOXELS))
def test_tiny_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(out["metrics"])
    for m in wanted:
        value = out["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert np.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, m["name"]


def test_trace_wrappers_leave_fits_bit_identical():
    protocol, rows, _ = scenario("dataset2", snr=5.0, seed=3, n_voxels=2)
    original = estimators.fit_voxel
    for estimator in ("wls", "cwls", "mle"):
        plain = [workloads.fit_signature(estimators.fit_voxel(y, protocol, estimator))
                 for y in rows]
        tracer = Tracer()
        missing = tracer.install()
        try:
            traced = [workloads.fit_signature(estimators.fit_voxel(y, protocol, estimator))
                      for y in rows]
        finally:
            tracer.uninstall()
        assert missing == []
        assert traced == plain, estimator
        calls, total, own = tracer.layers["estimators.fit_voxel"]
        assert calls == len(rows) and 0 <= own <= total
    assert estimators.fit_voxel is original


def test_self_time_excludes_wrapped_callees():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(20000) == 2 * sum(range(20000))
    o_calls, o_total, o_self = tracer.layers["outer"]
    i_calls, i_total, i_self = tracer.layers["inner"]
    assert (o_calls, i_calls) == (1, 2)
    assert i_total == pytest.approx(i_self)
    assert o_self == pytest.approx(o_total - i_total)
    (outer_span,) = [s for s in tracer.spans if s[3] == "outer"]
    assert all(s[2] == outer_span[1] for s in tracer.spans if s[3] == "inner")


def test_cli_parameters_identical_across_worker_counts(tmp_path):
    w = workloads.WORKLOADS["cli-wls-d3"]
    inputs = workloads.build_inputs(w, 3, tmp_path, n_voxels=30)
    outputs = []
    for workers in (1, 2):
        _, records, err, _ = workloads.cli_fit(w, inputs.files["stream"], inputs.files["protocol"],
                                            tmp_path / f"fit{workers}.jsonl", workers)
        assert err is None
        outputs.append([workloads.record_values(r).tobytes() for r in records])
    assert len(outputs[0]) == 30
    assert outputs[0] == outputs[1]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("mle-d2-snr15", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
