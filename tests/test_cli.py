import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dkimle
from dkimle import cli
from dkimle.cli import (
    dump_voxel_table,
    load_voxel_table,
    main,
)
from dkimle.estimators import B_INTERNAL_SCALE, fit_voxel
from dkimle.metrics import scalar_metrics
from dkimle.protocol import load_protocol
from dkimle.simulate import scenario


def run_cli(*args):
    return main(list(args))


def fit_records(path):
    """JSONL records with the run-dependent wall time removed."""
    recs = [json.loads(line) for line in open(path) if line.strip()]
    for rec in recs:
        rec.get("diagnostics", {}).pop("wall_time", None)
    return recs


@pytest.fixture
def simulated(tmp_path):
    prefix = str(tmp_path / "sim")
    code = run_cli(
        "simulate", "--scenario", "dataset3", "--seed", "7",
        "--voxels", "4", "--out", prefix,
    )
    assert code == 0
    return prefix


class TestVoxelTable:
    def test_roundtrip(self, rng):
        rows = rng.uniform(0, 2, size=(3, 7))
        text = dump_voxel_table(rows)
        assert text.startswith("m=7\n")
        np.testing.assert_array_equal(load_voxel_table(text), rows)

    def test_header_required(self):
        with pytest.raises(Exception, match="m="):
            load_voxel_table("1,2,3\n")

    def test_row_length_checked(self):
        with pytest.raises(Exception, match="expected 3"):
            load_voxel_table("m=3\n1,2\n")

    def test_empty_rejected(self):
        with pytest.raises(Exception, match="empty"):
            load_voxel_table("m=3\n")

    @pytest.mark.parametrize("count", ["2.0", "-3", "0", "x"])
    def test_count_must_be_a_positive_integer(self, simulated, tmp_path, capsys, count):
        """m=2.0 used to exit with int()'s message, naming no line, and m=-3
        was read and failed on line 2."""
        with pytest.raises(cli.CliError, match=f"^line 1: voxel count must be a positive "
                                               f"integer, got '{count}'$"):
            load_voxel_table(f"m={count}\n1,2,3\n")
        table = tmp_path / "bad.csv"
        table.write_text(f"# header\nm={count}\n1,2,3\n")
        out = tmp_path / "o.jsonl"
        assert run_cli("fit", "--protocol", simulated + ".protocol.txt", "--data", str(table),
                       "--estimator", "wls", "--out", str(out)) == 2
        assert "error: line 2: voxel count must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_three_files(self, simulated):
        table = load_voxel_table(open(simulated + ".voxels.csv").read())
        assert table.shape == (4, 54)
        sidecar = json.loads(open(simulated + ".truth.json").read())
        assert set(sidecar) == {"0", "1", "2", "3"}
        proto_text = open(simulated + ".protocol.txt").read()
        assert len([l for l in proto_text.splitlines() if not l.startswith("#")]) == 54

    def test_byte_identical_reruns(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run_cli("simulate", "--scenario", "dataset1", "--snr", "15", "--seed", "3", "--out", a)
        run_cli("simulate", "--scenario", "dataset1", "--snr", "15", "--seed", "3", "--out", b)
        assert open(a + ".voxels.csv").read() == open(b + ".voxels.csv").read()
        assert open(a + ".truth.json").read() == open(b + ".truth.json").read()

    def test_zero_snr_rejected(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "dataset1", "--snr", "0",
                       "--out", str(tmp_path / "x"))
        assert code != 0
        assert "snr" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("voxels", ["0", "-2"])
    def test_voxel_count_below_one_rejected(self, tmp_path, capsys, voxels):
        code = run_cli("simulate", "--scenario", "dataset2", "--voxels", voxels,
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "voxel count" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dataset1_voxel_count(self, tmp_path):
        prefix = str(tmp_path / "d1")
        run_cli("simulate", "--scenario", "dataset1", "--snr", "15", "--seed", "1",
                "--out", prefix)
        table = load_voxel_table(open(prefix + ".voxels.csv").read())
        assert table.shape == (6, 180)

    def test_dataset1_other_voxel_count_rejected(self, tmp_path, capsys):
        """dataset1 has six fixed voxels; --voxels 100 used to write six
        and exit 0."""
        code = run_cli("simulate", "--scenario", "dataset1", "--voxels", "100",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "6 fixed ROI voxels" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFitCommand:
    def test_fit_and_outputs(self, simulated, tmp_path):
        out = str(tmp_path / "fits.jsonl")
        code = run_cli(
            "fit", "--protocol", simulated + ".protocol.txt",
            "--data", simulated + ".voxels.csv",
            "--estimator", "wls", "--out", out,
        )
        assert code == 0
        lines = [json.loads(l) for l in open(out) if l.strip()]
        assert len(lines) == 4
        rec = lines[0]
        assert rec["estimator"] == "wls"
        assert len(rec["theta_d"]) == 6 and len(rec["theta_w"]) == 15
        assert "metrics" in rec and "diagnostics" in rec

    def test_fit_of_written_files_equals_in_process_fit(self, simulated, tmp_path):
        """`simulate` then `fit` fits the simulated protocol exactly: the
        records carry fit_voxel's values on scenario()'s own protocol, bit
        for bit."""
        out = str(tmp_path / "fits.jsonl")
        assert run_cli("fit", "--protocol", simulated + ".protocol.txt",
                       "--data", simulated + ".voxels.csv",
                       "--estimator", "wls", "--out", out) == 0
        protocol, rows, _ = scenario("dataset3", seed=7, n_voxels=4)
        for rec, y in zip(fit_records(out), rows):
            fit = fit_voxel(y, protocol, "wls")
            assert rec["theta_d"] == fit.theta_d.tolist()
            assert rec["theta_w"] == fit.theta_w.tolist()
            assert (rec["S0"], rec["sigma2"]) == (fit.s0, fit.sigma2)

    def test_mle_fit_records_params(self, simulated, tmp_path):
        out = str(tmp_path / "fits_mle.jsonl")
        code = run_cli(
            "fit", "--protocol", simulated + ".protocol.txt",
            "--data", simulated + ".voxels.csv",
            "--estimator", "mle", "--out", out,
        )
        assert code == 0
        rec = json.loads(open(out).readline())
        assert len(rec["L"]) == 6
        assert len(rec["thetaQ"]) == 18
        assert rec["S0"] > 0 and rec["sigma2"] > 0
        assert rec["diagnostics"]["iterations"] >= 1
        assert rec["b_scale"] == B_INTERNAL_SCALE

    @pytest.mark.parametrize("estimator", ["wls", "cwls", "mle"])
    def test_b0_only_protocol_writes_unconverged_records(self, tmp_path, capsys, estimator):
        """A protocol without diffusion weighting fits S0 only: every
        record is written, flagged not converged, and the run succeeds."""
        protocol = tmp_path / "b0.txt"
        protocol.write_text("".join("0 1 0 0\n" for _ in range(25)))
        data = tmp_path / "b0.csv"
        data.write_text(dump_voxel_table(3.0 + 0.01 * np.random.default_rng(3).normal(size=(3, 25))))
        out = str(tmp_path / "b0.jsonl")
        assert run_cli("fit", "--protocol", str(protocol), "--data", str(data),
                       "--estimator", estimator, "--out", out) == 0
        recs = fit_records(out)
        assert [r["status"] for r in recs] == ["ok"] * 3
        assert [r["diagnostics"]["converged"] for r in recs] == [False] * 3
        assert "3 flagged non-converged; 0 failed" in capsys.readouterr().out

    def test_missing_protocol_errors(self, simulated, tmp_path, capsys):
        code = run_cli(
            "fit", "--protocol", str(tmp_path / "nope.txt"),
            "--data", simulated + ".voxels.csv",
            "--estimator", "wls", "--out", str(tmp_path / "o.jsonl"),
        )
        assert code != 0

    def test_row_count_mismatch(self, simulated, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("m=3\n1,1,1\n")
        code = run_cli(
            "fit", "--protocol", simulated + ".protocol.txt",
            "--data", str(bad),
            "--estimator", "wls", "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 2
        assert "protocol" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--max-sweeps", "0"), ("--max-sweeps", "-3"),
                                             ("--grad-tol", "0"), ("--grad-tol", "-1e-6")])
    def test_non_positive_fit_flags_rejected(self, simulated, tmp_path, capsys, flag, value):
        out = tmp_path / "o.jsonl"
        code = run_cli(
            "fit", "--protocol", simulated + ".protocol.txt",
            "--data", simulated + ".voxels.csv",
            "--estimator", "mle", f"{flag}={value}", "--out", str(out),
        )
        assert code == 2
        assert f"{flag} must be positive" in capsys.readouterr().err
        assert not out.exists()

    # ids kept from when the cases also set a worker-count variable (None)
    @pytest.mark.parametrize("flag", ["0", "-3"], ids=["0-None", "-3-None"])
    def test_worker_count_below_one_rejected(self, simulated, tmp_path, capsys, flag):
        out = tmp_path / "o.jsonl"
        code = run_cli("fit", "--protocol", simulated + ".protocol.txt",
                       "--data", simulated + ".voxels.csv", "--estimator", "wls",
                       "--out", str(out), f"--workers={flag}")
        assert code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_max_sweeps_is_applied(self, simulated, tmp_path):
        out = str(tmp_path / "o.jsonl")
        assert run_cli(
            "fit", "--protocol", simulated + ".protocol.txt",
            "--data", simulated + ".voxels.csv",
            "--estimator", "mle", "--max-sweeps", "1", "--out", out,
        ) == 0
        assert [r["diagnostics"]["iterations"] for r in fit_records(out)] == [1] * 4

    def test_grad_tol_reaches_the_solver(self, simulated, tmp_path, monkeypatch):
        """--grad-tol is the tolerance every tensor solve gets, both CWLS
        solves of each of the 4 voxels; without it the solver's default
        applies."""
        from dkimle import barrier

        real_solve, seen = barrier.solve, []

        def recording(problem, theta0, grad_tol=barrier.GRAD_TOL):
            seen.append(grad_tol)
            return real_solve(problem, theta0, grad_tol)

        monkeypatch.setattr(barrier, "solve", recording)
        for flags, expected in ([], barrier.GRAD_TOL), (["--grad-tol", "1e-9"], 1e-9):
            seen.clear()
            assert run_cli(
                "fit", "--protocol", simulated + ".protocol.txt",
                "--data", simulated + ".voxels.csv", "--estimator", "cwls",
                "--out", str(tmp_path / "o.jsonl"), *flags,
            ) == 0
            assert len(seen) == 8 and set(seen) == {expected}

    def test_wls_path_imports_no_scipy_solvers(self):
        """Importing the command line and fitting and mapping a voxel by WLS
        loads none of scipy's linalg, optimize or special modules."""
        code = "\n".join([
            "import sys",
            "import dkimle.cli",
            "from dkimle.estimators import fit_voxel",
            "from dkimle.metrics import scalar_metrics",
            "from dkimle.simulate import scenario",
            "protocol, rows, _ = scenario('dataset3', seed=0, n_voxels=2)",
            "fit = fit_voxel(rows[0], protocol, 'wls')",
            "assert scalar_metrics(fit.theta_d, fit.theta_w, fit.s0, fit.sigma2).valid",
            "print(' '.join(sorted(sys.modules)))",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(dkimle.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        loaded = [m for m in run.stdout.split()
                  if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "optimize"],
                                          ["scipy", "special"])]
        assert loaded == []

    def test_worker_count_does_not_change_results(self, tmp_path):
        """A 67-row WLS table, cut into blocks of 9, 5 and 3 rows with 1, 2
        and 3 workers so the last block is short each time, gives the same
        records in voxel order, field for field, and each equals the row's
        in-process fit, its flags and the one-voxel scalar maps of that fit,
        bit for bit.  Row 20 has a zero magnitude and is fitted without it;
        row 50 holds a NaN and becomes an error record."""
        prefix = str(tmp_path / "big")
        run_cli("simulate", "--scenario", "dataset3", "--seed", "7",
                "--voxels", "67", "--out", prefix)
        protocol = load_protocol(open(prefix + ".protocol.txt").read())
        rows = load_voxel_table(open(prefix + ".voxels.csv").read())
        rows[20, 4] = 0.0
        rows[50, 9] = np.nan
        dirty = tmp_path / "dirty.csv"
        dirty.write_text(dump_voxel_table(rows))
        recs = {}
        for workers in ("1", "2", "3"):
            out = str(tmp_path / f"w{workers}.jsonl")
            assert run_cli("fit", "--protocol", prefix + ".protocol.txt", "--data", str(dirty),
                           "--estimator", "wls", "--out", out, "--workers", workers) == 1
            recs[workers] = fit_records(out)
        assert [r["voxel"] for r in recs["1"]] == list(range(67))
        # NaN-safe, and field order too
        assert json.dumps(recs["1"]) == json.dumps(recs["2"]) == json.dumps(recs["3"])
        assert [i for i, r in enumerate(recs["1"]) if r["status"] == "error"] == [50]
        for rec, y in zip(recs["1"], rows):
            if rec["status"] == "ok":
                fit = fit_voxel(y, protocol, "wls")
                assert rec["theta_d"] == fit.theta_d.tolist()
                assert rec["theta_w"] == fit.theta_w.tolist()
                assert (rec["S0"], rec["sigma2"]) == (fit.s0, fit.sigma2)
                assert rec["diagnostics"]["violations"] == vars(fit.violations)
                sm = scalar_metrics(fit.theta_d, fit.theta_w, fit.s0, fit.sigma2)
                assert rec["metrics"] == sm.to_dict()

    def test_records_are_strict_json(self, tmp_path):
        """Invalid scalar maps write their NaN metrics as null: every record
        of a WLS run with invalid maps parses with NaN/Infinity rejected."""
        prefix = str(tmp_path / "d3")
        run_cli("simulate", "--scenario", "dataset3", "--seed", "0",
                "--voxels", "60", "--out", prefix)
        out = str(tmp_path / "wls.jsonl")
        assert run_cli("fit", "--protocol", prefix + ".protocol.txt", "--data",
                       prefix + ".voxels.csv", "--estimator", "wls", "--out", out) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        recs = [json.loads(line, parse_constant=reject) for line in open(out)]
        invalid = [r["metrics"] for r in recs if not r["metrics"]["valid"]]
        assert len(recs) == 60 and len(invalid) == 6
        assert all(m["mk"] is None and m["k_perp"] is None for m in invalid)

    def test_pool_starts_no_more_workers_than_voxels(self, simulated, tmp_path,
                                                     monkeypatch):
        """A pool starts all its workers at the first task, so --workers 8
        on 4 voxels asks for 4, and sends them four one-row blocks."""
        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                calls.append(("workers", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                payloads = list(payloads)
                calls.append(("blocks", [(p[0], len(p[1])) for p in payloads]))
                return map(fn, payloads)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        out = str(tmp_path / "w8.jsonl")
        assert run_cli("fit", "--protocol", simulated + ".protocol.txt", "--data",
                       simulated + ".voxels.csv", "--estimator", "wls", "--out", out,
                       "--workers", "8") == 0
        assert calls == [("workers", 4), ("blocks", [(0, 1), (1, 1), (2, 1), (3, 1)])]
        assert len(fit_records(out)) == 4

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_voxels_become_error_records(self, simulated, tmp_path, capsys, workers):
        """An all-zero row and a NaN row fail alone: the other voxels are
        written as in the clean table and the run exits 1."""
        rows = load_voxel_table(open(simulated + ".voxels.csv").read())
        rows[1] = 0.0
        rows[3, 5] = np.nan
        dirty = tmp_path / "dirty.csv"
        dirty.write_text(dump_voxel_table(rows))
        clean_out, dirty_out = str(tmp_path / "clean.jsonl"), str(tmp_path / "dirty.jsonl")
        base = ["fit", "--protocol", simulated + ".protocol.txt", "--estimator", "wls",
                "--workers", workers]
        assert run_cli(*base, "--data", simulated + ".voxels.csv", "--out", clean_out) == 0
        assert run_cli(*base, "--data", str(dirty), "--out", dirty_out) == 1
        assert "2 failed" in capsys.readouterr().out
        clean, recs = fit_records(clean_out), fit_records(dirty_out)
        assert [r["voxel"] for r in recs] == [0, 1, 2, 3]
        assert recs[1] == {"voxel": 1, "estimator": "wls", "status": "error",
                           "error": "RankDeficient: every magnitude is zero"}
        assert recs[3] == {"voxel": 3, "estimator": "wls", "status": "error",
                           "error": "ValueError: magnitudes must be finite and non-negative"}
        assert json.dumps([recs[0], recs[2]]) == json.dumps([clean[0], clean[2]])
        assert all(r["status"] == "ok" for r in clean)

        csv_out = str(tmp_path / "m.csv")
        assert run_cli("metrics", "--fits", dirty_out, "--out", csv_out) == 0
        assert [l.split(",")[0] for l in open(csv_out).read().splitlines()[1:]] == ["0", "2"]
        assert "skipped 2 error records" in capsys.readouterr().err
        report = str(tmp_path / "rep.json")
        assert run_cli("compare", "--truth", simulated + ".truth.json",
                       "--fits", dirty_out, "--json", report) == 0
        assert "skipped 2 error records" in capsys.readouterr().err
        (payload,) = json.loads(open(report).read()).values()
        assert payload["n_voxels"] == 2


class TestTracedFit:
    def test_tracer_sees_every_voxel_in_the_workers(self, tmp_path, monkeypatch):
        """``bench/tracer.py`` wraps the program's functions, and forked
        workers ship their spans back through ``cli._fit_one`` and
        ``cli._result_record``.  Traced as ``bench/trace_cli.py`` traces it,
        a two-worker WLS fit counts the WLS fit once per voxel and the
        violation check and the scalar maps once per block, and its
        ``cli.fit_one`` spans come from the workers; a design that hides the
        workers from the tracer fails here."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        from tracer import Tracer

        prefix = str(tmp_path / "d3")
        run_cli("simulate", "--scenario", "dataset3", "--seed", "3", "--voxels", "40",
                "--out", prefix)
        tracer = Tracer()
        missing = tracer.install()
        try:
            code = tracer.wrap("cli.main", cli.main)([
                "fit", "--protocol", prefix + ".protocol.txt", "--data", prefix + ".voxels.csv",
                "--estimator", "wls", "--workers", "2", "--out", str(tmp_path / "o.jsonl")])
        finally:
            tracer.uninstall()
        assert code == 0 and missing == []
        layers = tracer.export()["layers"]
        assert layers["estimators.wls_fit"][0] == 40
        blocks = [s for s in tracer.spans if s[3] == "cli.fit_one"]
        assert len(blocks) == layers["cli.result_record"][0] == 14  # blocks of 3 rows
        for layer in ("estimators.violation_flags", "metrics.scalar_metrics"):
            assert layers[layer][0] == 14, layer
        assert os.getpid() not in {s[0] for s in blocks}
        assert sorted(s[6] for s in blocks) == list(range(0, 40, 3))


class TestCompareCommand:
    def test_self_comparison_near_zero(self, tmp_path, capsys):
        prefix = str(tmp_path / "clean")
        run_cli("simulate", "--scenario", "dataset2", "--seed", "11",
                "--voxels", "3", "--snr", "1e9", "--out", prefix)
        # noise is ~1e-9, so any estimator reproduces the truth
        out = str(tmp_path / "f.jsonl")
        run_cli("fit", "--protocol", prefix + ".protocol.txt",
                "--data", prefix + ".voxels.csv", "--estimator", "wls", "--out", out)
        report_path = str(tmp_path / "rep.json")
        code = run_cli("compare", "--truth", prefix + ".truth.json",
                       "--fits", out, "--json", report_path)
        assert code == 0
        payload = json.loads(open(report_path).read())
        (key,) = payload.keys()
        assert payload[key]["mse"]["mk"] < 1e-10
        assert payload[key]["mse"]["dt"] < 1e-16

    @pytest.mark.parametrize("name, voxels", [("dataset1", "6"), ("dataset2", "2")])
    def test_noise_free_truth_sidecar(self, tmp_path, name, voxels):
        """A ``--snr inf`` sidecar is strict JSON, and compare reads every
        truth SNR back as infinite, isotropic and tensor voxels alike; the
        report writes the infinite SNR error as null."""
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        prefix = str(tmp_path / "clean")
        assert run_cli("simulate", "--scenario", name, "--voxels", voxels,
                       "--snr", "inf", "--out", prefix) == 0
        sidecar = json.loads(open(prefix + ".truth.json").read(), parse_constant=reject)
        assert not [entry for entry in sidecar.values() if "snr" in entry]
        out, report_path = str(tmp_path / "f.jsonl"), str(tmp_path / "rep.json")
        assert run_cli("fit", "--protocol", prefix + ".protocol.txt",
                       "--data", prefix + ".voxels.csv", "--estimator", "wls", "--out", out) == 0
        assert run_cli("compare", "--truth", prefix + ".truth.json",
                       "--fits", out, "--json", report_path) == 0
        (report,) = json.loads(open(report_path).read(), parse_constant=reject).values()
        assert report["mse"]["snr"] is None

    def test_voxel_count_mismatch(self, simulated, tmp_path, capsys):
        out = str(tmp_path / "f.jsonl")
        run_cli("fit", "--protocol", simulated + ".protocol.txt",
                "--data", simulated + ".voxels.csv", "--estimator", "wls", "--out", out)
        truth = json.loads(open(simulated + ".truth.json").read())
        del truth["3"]
        short = tmp_path / "short.json"
        short.write_text(json.dumps(truth))
        code = run_cli("compare", "--truth", str(short), "--fits", out)
        assert code != 0

    def test_empty_fit_file(self, simulated, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run_cli("compare", "--truth", simulated + ".truth.json",
                       "--fits", str(empty))
        assert code != 0


class TestMetricsCommand:
    def test_metrics_table(self, simulated, tmp_path, capsys):
        out = str(tmp_path / "f.jsonl")
        run_cli("fit", "--protocol", simulated + ".protocol.txt",
                "--data", simulated + ".voxels.csv", "--estimator", "wls", "--out", out)
        csv_out = str(tmp_path / "m.csv")
        code = run_cli("metrics", "--fits", out, "--out", csv_out)
        assert code == 0
        lines = open(csv_out).read().strip().splitlines()
        assert lines[0].startswith("voxel,md,fa,mk")
        assert len(lines) == 5


class TestMalformedInput:
    """``compare`` and ``metrics`` exit 2 with an ``error:`` line, not a
    traceback, on fit lines and truth entries they cannot read."""

    RECORD = {"voxel": 0, "estimator": "wls", "status": "ok", "S0": 1.0, "sigma2": 0.01,
              "theta_d": [1e-3, 1e-3, 1e-3, 0.0, 0.0, 0.0], "theta_w": [0.0] * 15}
    TRUTH = {"kind": "isotropic", "d_app": 1e-3, "k_app": 1.0}

    def _run(self, tmp_path, command, fit, truth=TRUTH):
        fits = tmp_path / "f.jsonl"
        fits.write_text((fit if isinstance(fit, str) else json.dumps(fit)) + "\n")
        sidecar = tmp_path / "truth.json"
        sidecar.write_text(json.dumps({"0": truth}))
        if command == "metrics":
            return run_cli("metrics", "--fits", str(fits))
        return run_cli("compare", "--truth", str(sidecar), "--fits", str(fits))

    @pytest.mark.parametrize("command", ["metrics", "compare"])
    @pytest.mark.parametrize("fit", [
        "[1, 2]",
        "7",
        {**RECORD, "theta_d": [1e-3, 1e-3]},
        {**RECORD, "theta_d": None},
        {**RECORD, "theta_w": [0.0] * 14},
        {**RECORD, "theta_w": ["a"] * 15},
        {**RECORD, "theta_d": [1e-3, 1e-3, float("nan"), 0.0, 0.0, 0.0]},
        {**RECORD, "S0": None},
        {**RECORD, "sigma2": None},
        {**RECORD, "voxel": None},
        {**RECORD, "voxel": 1.5},
        {**RECORD, "voxel": True},
        {**RECORD, "voxel": "0"},
        {**RECORD, "diagnostics": []},
        {**RECORD, "diagnostics": {"iterations": 2.5}},
        {**RECORD, "diagnostics": {"converged": "false"}},
        {**RECORD, "diagnostics": {"converged": 0}},
        {**RECORD, "diagnostics": {"violations": {"d_not_pd": "false"}}},
        {**RECORD, "diagnostics": {"violations": {"decay_bound": None}}},
        {**RECORD, "S0": True},
        {**RECORD, "sigma2": "0.01"},
        {**RECORD, "diagnostics": {"wall_time": False}},
        {**RECORD, "theta_d": [1e-3, 1e-3, True, 0.0, 0.0, 0.0]},
        {**RECORD, "theta_w": ["0.0"] * 15},
        {**RECORD, "S0": 10 ** 400},
    ])
    def test_bad_fit_line(self, tmp_path, capsys, command, fit):
        assert self._run(tmp_path, command, fit) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 1" in err

    @pytest.mark.parametrize("truth", [
        {**TRUTH, "colour": "red"},
        {"d_app": 1e-3, "k_app": 1.0},
        {"kind": "tensor", "theta_d": [1e-3, 1e-3], "theta_w": [0.0] * 15},
        {**TRUTH, "d_app": "0.001"},
        {"kind": "isotropic", "d_app": 1e-3},
        {**TRUTH, "kind": "blob"},
        {**TRUTH, "k_app": True},
        [1e-3, 1.0],
    ])
    def test_bad_truth_entry(self, tmp_path, capsys, truth):
        assert self._run(tmp_path, "compare", self.RECORD, truth) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "voxel 0" in err

    def test_truth_file_not_an_object(self, tmp_path, capsys):
        fits = tmp_path / "f.jsonl"
        fits.write_text(json.dumps(self.RECORD) + "\n")
        sidecar = tmp_path / "truth.json"
        sidecar.write_text("5")
        assert run_cli("compare", "--truth", str(sidecar), "--fits", str(fits)) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_well_formed_input_passes(self, tmp_path):
        for command in ("metrics", "compare"):
            assert self._run(tmp_path, command, self.RECORD) == 0
