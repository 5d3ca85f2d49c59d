"""The benchmark's workloads, correctness gate and metrics.

Every workload is a single caller in a closed loop: the next voxel (or,
for the command line workload, the next ``dkimle fit`` invocation) is
sent only after the previous one returned.  Timed inputs come from the
run's seed.  Accuracy is measured on a fixed panel (seed 0) so that it
compares code, not noise draws: at the few dozen voxels a run can fit,
the mean squared error of a fresh draw moves by tens of percent from
seed to seed, far more than any regression the bounds must catch.
See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from dkimle import estimators
from dkimle.cli import dump_voxel_table, load_voxel_table
from dkimle.estimators import FitOptions
from dkimle.metrics import evaluate, scalar_metrics
from dkimle.protocol import dump_protocol, load_protocol
from dkimle.simulate import scenario

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

PANEL_SEED = 0
SETUP_PROBES = 5
GATE_SAMPLE = 16
BLOCK = 10  # voxels per block of the in-process median rate
# tail percentile: the highest whose seed-to-seed spread stays near that
# of the median.  p90 spread 0.22 over ten cwls-d2-snr5 seeds, following
# the share of multi-sweep voxels in each draw; for the ~2 ms CLI fits,
# p95 and above follow the scheduling of the pool workers
TAIL_PCT = 80.0
CHILD_TIMEOUT_S = 170
# known pathology kept in view: MLE on this dataset3 voxel (SNR 8)
# returns MK ~ 497 against a truth of ~ 0.68
SENTINEL = ("dataset3", 0, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    estimator: str
    scenario: str
    snr: float
    stream_voxels: int  # in-process: first pool (doubled on demand); CLI: table size
    panel_voxels: int
    workers: int = 0    # > 0: fit through `dkimle fit --workers N`

    @property
    def cli(self) -> bool:
        return self.workers > 0


WORKLOADS = {w.name: w for w in (
    Workload("mle-d2-snr15", "mle", "dataset2", 15.0, 200, 18),
    Workload("cwls-d2-snr5", "cwls", "dataset2", 5.0, 200, 18),
    Workload("cli-wls-d3", "wls", "dataset3", 15.0, 2000, 180, workers=2),
)}

# every end-to-end metric a run prints; the subset that is never zero
# is listed in BENCHMARK.json and ends the output as JSON
END_TO_END = {
    "voxels_per_s": "1/s",
    "voxel_ms_p50": "ms",
    "voxel_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dt_mse": "mm4/s2",
    "mk_mse": "1",
    "invalid_frac": "ratio",
    "violation_pct": "%",
    "error_frac": "ratio",
}

LAYERS = (
    "estimators.fit_voxel", "estimators.em_mle_fit", "estimators.cwls_fit",
    "estimators.wls_fit", "estimators.init_params", "estimators.em_estep",
    "estimators.em_mstep", "estimators.update_tensors", "estimators.violation_flags",
    "rician.bessel_ratio", "rician.joint_loglik",
    "protocol.build_design", "protocol.quartic_rows",
    "barrier.solve", "barrier.regularize", "barrier.fisher_step",
    "barrier.problem.objective", "barrier.problem.gradient",
    "barrier.problem.information", "barrier.problem.constraints",
    "barrier.problem.constraint_gradients",
    "metrics.scalar_metrics",
    "cli.main", "cli.parse", "cli.load_protocol", "cli.load_voxel_table",
    "cli.cmd_fit", "cli.fit_one", "cli.result_record", "cli.write",
)

PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    "rician.bessel_ratio.elements": "count",
    "protocol.quartic_rows.rows": "count",
    "estimators.em.sweeps_mean": "count",
    "estimators.em.esteps_per_voxel": "count",
    "barrier.solve.inner_iters_p50": "count",
    "barrier.solve.inner_iters_total": "count",
    "barrier.solve.outer_iters_total": "count",
    "barrier.solve.grad_tol_met_frac": "ratio",
    "barrier.solve.nonconvergence_raised": "count",
    "estimators.fit_voxel.wall_ms_mean": "ms",
    "estimators.fit_voxel.error_frac": "ratio",
    "estimators.violation_flags.flagged_pct": "%",
    "metrics.scalar_metrics.invalid_frac": "ratio",
    "cli.pool_efficiency": "ratio",
    "simulate.scenario.s": "s",
    "trace.voxels": "count",
    "trace.overhead_pct": "%",
    "src.lines": "count",
}


# ---------------------------------------------------------------------------
# inputs

@dataclass
class Inputs:
    protocol: object
    rows: np.ndarray
    panel_rows: np.ndarray
    panel_truths: list
    scenario_s: float
    files: dict


def build_inputs(w: Workload, seed: int, workdir: Path, n_voxels: int = None) -> Inputs:
    """Generate the timed stream and the accuracy panel; write the
    command line workload's protocol and voxel tables into ``workdir``."""
    t0 = time.perf_counter()
    protocol, rows, _ = scenario(w.scenario, snr=w.snr, seed=seed,
                                 n_voxels=n_voxels or w.stream_voxels)
    _, panel_rows, panel_truths = scenario(w.scenario, snr=w.snr, seed=PANEL_SEED,
                                           n_voxels=w.panel_voxels)
    scenario_s = time.perf_counter() - t0
    files = {}
    if w.cli:
        workdir.mkdir(parents=True, exist_ok=True)
        files = {k: workdir / f"{k}.txt" for k in ("protocol", "stream", "panel")}
        files["protocol"].write_text(dump_protocol(protocol))
        files["stream"].write_text(dump_voxel_table(rows))
        files["panel"].write_text(dump_voxel_table(panel_rows))
    return Inputs(protocol, rows, panel_rows, panel_truths, scenario_s, files)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in PIN_VARS:
        env[var] = "1"
    return env


class SetupProbes:
    """Set-up time of fresh processes: import dkimle and build the inputs.

    The probes are spread over the timed phase, one each time another
    ``seconds / SETUP_PROBES`` of fitting time has passed, so that their
    median is not decided by one slow stretch of a shared machine.  The
    timed loop waits while a probe runs.
    """

    def __init__(self, w: Workload, seed: int, workdir: Path, n_voxels: int, seconds: float):
        self.args = [w.name, str(seed), "", str(n_voxels)]
        self.workdir = workdir
        self.interval = seconds / SETUP_PROBES
        self.samples = []

    def due(self, busy_s: float = float("inf")):
        while len(self.samples) < SETUP_PROBES and busy_s >= len(self.samples) * self.interval:
            target = self.workdir / f"probe{len(self.samples)}"
            self.args[2] = str(target)
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), *self.args],
                capture_output=True, text=True, env=child_env(), cwd=ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
            shutil.rmtree(target, ignore_errors=True)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
            self.samples.append(float(proc.stdout.split()[-1]))


# ---------------------------------------------------------------------------
# fitting

@dataclass
class Loop:
    fits: list
    times: list
    errors: list

    @property
    def busy_s(self) -> float:
        return float(sum(self.times))


def fit_loop(w: Workload, inputs: Inputs, seed: int, seconds: float = None,
             count: int = None, tracer: Tracer = None, probes: SetupProbes = None) -> Loop:
    """Fit stream voxels one after another for ``seconds`` of fitting time
    (or exactly ``count`` voxels).  The stream doubles when it runs out;
    generating it is not timed."""
    loop = Loop([], [], [])
    i = 0
    while (loop.busy_s < seconds) if count is None else (i < count):
        if probes is not None:
            probes.due(loop.busy_s)
        if i == len(inputs.rows):
            _, inputs.rows, _ = scenario(w.scenario, snr=w.snr, seed=seed,
                                         n_voxels=2 * len(inputs.rows))
        y = inputs.rows[i]
        if tracer is not None:
            tracer.voxel = i
        t0 = time.perf_counter()
        try:
            # looked up on the module so that trace wrappers apply
            fit = estimators.fit_voxel(y, inputs.protocol, w.estimator)
        except Exception as exc:  # a failed voxel is counted, not fatal
            fit = None
            loop.errors.append(f"voxel {i}: {type(exc).__name__}: {exc}")
        loop.times.append(time.perf_counter() - t0)
        loop.fits.append(fit)
        i += 1
    return loop


def fit_values(fit) -> np.ndarray:
    """Every fitted number of a result, for finiteness and identity checks."""
    parts = [fit.theta_d, fit.theta_w, [fit.s0, fit.sigma2]]
    params = getattr(fit, "params", None)
    if params is not None:
        parts += [params.L, params.theta_q, [params.s0, params.sigma2]]
    return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])


def fit_signature(fit) -> bytes:
    if fit is None:
        return b""
    extra = np.asarray(fit.loglik_trace, dtype=float).tobytes()
    flags = repr((fit.em_iterations, fit.converged, fit.violations))
    return fit_values(fit).tobytes() + extra + flags.encode()


def finite(fit) -> bool:
    return fit is not None and bool(np.all(np.isfinite(fit_values(fit))))


def flagged(fit) -> bool:
    v = fit.violations
    return bool(v.d_not_pd or v.kurtosis_negative or v.decay_bound)


def run_child(cmd: list, log: Path):
    """Run ``cmd`` with its output in ``log``.

    Returns (launch-to-exit seconds, exit code, peak RSS in MB of the
    child and its own children, as reported by wait4).
    """
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        # a blocking wait keeps this process off the CPU the child uses
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def cli_fit(w: Workload, table: Path, protocol: Path, out: Path, workers: int,
            trace_out: Path = None):
    """Run ``dkimle fit`` once.

    Returns (launch-to-exit seconds, records, error or None, peak RSS MB).
    """
    entry = [str(HERE / "trace_cli.py"), str(trace_out)] if trace_out else ["-m", "dkimle"]
    cmd = [sys.executable, *entry, "fit", "--protocol", str(protocol), "--data", str(table),
           "--estimator", w.estimator, "--workers", str(workers), "--out", str(out)]
    log = out.with_suffix(".log")
    elapsed, code, rss = run_child(cmd, log)
    if code != 0:
        return elapsed, [], f"exit {code}: {log.read_text().strip()[-400:]}", rss
    records = [json.loads(line) for line in out.read_text().splitlines() if line.strip()]
    return elapsed, records, None, rss


def record_fit(rec: dict):
    """A fit result rebuilt from one JSONL record (the fields evaluate reads)."""
    diag = rec["diagnostics"]
    return SimpleNamespace(
        theta_d=np.asarray(rec["theta_d"], dtype=float),
        theta_w=np.asarray(rec["theta_w"], dtype=float),
        s0=float(rec["S0"]),
        sigma2=float(rec["sigma2"]),
        violations=SimpleNamespace(**{k: bool(v) for k, v in diag["violations"].items()}),
        wall_time=float(diag["wall_time"]),
        em_iterations=int(diag["iterations"]),
    )


def record_values(rec: dict) -> np.ndarray:
    return np.concatenate([rec["theta_d"], rec["theta_w"], [rec["S0"], rec["sigma2"]]]).astype(float)


# ---------------------------------------------------------------------------
# accuracy and the gate

def accuracy(fits, truths) -> dict:
    """dt_mse, mk_mse, invalid_frac and violation_pct of a fitted panel."""
    report = evaluate(fits, truths)
    mk_err, invalid = [], 0
    for fit, gt in zip(fits, truths):
        est = scalar_metrics(fit.theta_d, fit.theta_w, fit.s0, fit.sigma2)
        values = (est.md, est.fa, est.mk, est.k_perp)
        if not est.valid or not np.all(np.isfinite(values)):
            invalid += 1
            continue
        ref = scalar_metrics(gt.theta_d, gt.theta_w, gt.s0, gt.sigma**2)
        mk_err.append((est.mk - ref.mk) ** 2)
    n = len(fits)
    return {
        "dt_mse": float(report.mse["dt"]),
        "mk_mse": float(np.mean(mk_err)) if mk_err else float("nan"),
        "invalid_frac": invalid / n,
        "violation_pct": 100.0 * sum(flagged(f) for f in fits) / n,
    }


class Gate:
    """Named correctness checks; any failure makes the run incorrect."""

    def __init__(self):
        self.checks = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)


def gate_fits(gate: Gate, label: str, w: Workload, fits: list, expected: int):
    gate.check(f"{label}: one result per voxel",
               len(fits) == expected and all(f is not None for f in fits),
               f"{sum(f is not None for f in fits)} of {expected}")
    bad = [i for i, f in enumerate(fits) if not finite(f)]
    gate.check(f"{label}: fitted parameters finite", not bad, f"non-finite voxels {bad[:10]}")
    if w.estimator in ("cwls", "mle"):
        hit = [i for i, f in enumerate(fits) if f is not None and flagged(f)]
        gate.check(f"{label}: no constraint flags", not hit, f"flagged voxels {hit[:10]}")


# ---------------------------------------------------------------------------
# metrics

def median_rate(voxels: list, seconds: list) -> float:
    """Median over blocks of voxels fitted / block time.

    One slow block, from a rare voxel that takes seconds or from a slow
    stretch of a shared machine, cannot move the median; the mean rate
    is reported beside it.
    """
    return float(np.median(np.asarray(voxels, dtype=float) / np.asarray(seconds, dtype=float)))


def block_rate(times_s: list) -> float:
    """:func:`median_rate` over blocks of BLOCK consecutive voxels."""
    n = max(len(times_s) // BLOCK, 1)
    size = len(times_s) // n
    return median_rate([size] * n, [sum(times_s[k * size:(k + 1) * size]) for k in range(n)])


def percentile_summary(times_s) -> dict:
    ms = np.asarray(times_s, dtype=float) * 1e3
    tail = float(np.percentile(ms, TAIL_PCT))
    return {
        "voxel_ms_p50": float(np.median(ms)),
        "voxel_ms_tail": tail,
        "tail_percentile": TAIL_PCT,
        "tail_beyond": int(np.sum(ms > tail)),
        "samples": int(ms.size),
    }


def peak_rss_mb(children: float = 0.0) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + children


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in PIN_VARS},
        "platform": platform.platform(),
    }


def effective_options() -> dict:
    """The defaults every workload fits with (the CLI passes no overrides)."""
    return dataclasses.asdict(FitOptions())


def layer_metrics(exported: dict, n_voxels: int, fits: list, w: Workload) -> dict:
    """Per-layer metrics from a trace; ``fits`` are the traced results."""
    layers = exported["layers"]
    counts = exported["counts"]
    roots = sum(s[5] - s[4] for s in exported["spans"] if s[2] is None)
    out = {}
    for layer in LAYERS:
        calls, _, own = layers.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_pct"] = 100.0 * own / roots if roots else 0.0
    solves = layers.get("barrier.solve", (0, 0.0, 0.0))[0]
    inner = exported["inner_iters"]
    out.update({
        "rician.bessel_ratio.elements": counts.get("rician.bessel_ratio.elements", 0),
        "protocol.quartic_rows.rows": counts.get("protocol.quartic_rows.rows", 0),
        "estimators.em.sweeps_mean": (float(np.mean([f.em_iterations for f in fits]))
                                      if w.estimator == "mle" and fits else 0.0),
        "estimators.em.esteps_per_voxel":
            layers.get("estimators.em_estep", (0,))[0] / max(n_voxels, 1),
        "barrier.solve.inner_iters_p50": float(np.median(inner)) if inner else 0.0,
        "barrier.solve.inner_iters_total": int(sum(inner)),
        "barrier.solve.outer_iters_total": counts.get("barrier.solve.outer_iters_total", 0),
        "barrier.solve.grad_tol_met_frac":
            counts.get("barrier.solve.grad_tol_met", 0) / solves if solves else 0.0,
        "barrier.solve.nonconvergence_raised":
            counts.get("barrier.solve.nonconvergence_raised", 0),
        "estimators.fit_voxel.wall_ms_mean":
            1e3 * float(np.mean([f.wall_time for f in fits])) if fits else 0.0,
        "trace.voxels": n_voxels,
    })
    return out


def layer_table(exported: dict) -> list:
    """Human-readable per-layer rows, busiest self time first."""
    roots = sum(s[5] - s[4] for s in exported["spans"] if s[2] is None)
    rows = sorted(exported["layers"].items(), key=lambda kv: -kv[1][2])
    lines = [f"  {'layer':<38}{'calls':>9}{'total s':>10}{'self s':>10}{'self %':>8}"]
    for name, (calls, total, own) in rows:
        pct = 100.0 * own / roots if roots else 0.0
        lines.append(f"  {name:<38}{calls:>9}{total:>10.3f}{own:>10.3f}{pct:>8.2f}")
    return lines


# ---------------------------------------------------------------------------
# runs

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict       # name -> value, everything measured
    summary: list       # lines printed before the JSON line
    record: dict        # written to bench/out


def run(name: str, seed: int, seconds: float, trace: bool, n_voxels: int = None) -> Result:
    w = WORKLOADS[name]
    n_voxels = n_voxels or w.stream_voxels
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    try:
        if w.cli:
            result = _run_cli(w, seed, seconds, trace, n_voxels, workdir)
        else:
            result = _run_inproc(w, seed, seconds, trace, n_voxels, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": result.metrics,
        "environment": environment(), "fit_options": effective_options(),
    })
    suffix = "-trace" if trace else ""
    (OUT / f"result-{name}-seed{seed}{suffix}.json").write_text(
        json.dumps(result.record, indent=1, default=str))
    return result


def _accuracy_lines(acc: dict, errors: int, attempted: int) -> list:
    lines = []
    for key in ("dt_mse", "mk_mse", "invalid_frac", "violation_pct"):
        lines.append(f"  {key:<16}{acc[key]:>14.6g} {END_TO_END[key]}")
    lines.append(f"  {'error_frac':<16}{errors / max(attempted, 1):>14.6g} ratio"
                 f"   ({errors} of {attempted} fits)")
    return lines


def _timing_lines(m: dict, pct: dict, what: str) -> list:
    return [
        f"  {'voxels_per_s':<16}{m['voxels_per_s']:>14.6g} 1/s   ({what}; "
        f"mean rate {m['voxels_per_s_mean']:.6g})",
        f"  {'voxel_ms_p50':<16}{m['voxel_ms_p50']:>14.6g} ms",
        f"  {'voxel_ms_tail':<16}{m['voxel_ms_tail']:>14.6g} ms    "
        f"(p{pct['tail_percentile']:g} of {pct['samples']} voxels, {pct['tail_beyond']} beyond)",
        f"  {'setup_s':<16}{m['setup_s']:>14.6g} s     (median of {SETUP_PROBES} fresh processes)",
        f"  {'peak_rss_mb':<16}{m['peak_rss_mb']:>14.6g} MB",
    ]


def _sentinel() -> dict:
    name, seed, index = SENTINEL
    protocol, rows, truths = scenario(name, seed=seed, n_voxels=index + 1)
    fit = estimators.fit_voxel(rows[index], protocol, "mle")
    gt = truths[index]
    est = scalar_metrics(fit.theta_d, fit.theta_w, fit.s0, fit.sigma2)
    ref = scalar_metrics(gt.theta_d, gt.theta_w, gt.s0, gt.sigma**2)
    return {"scenario": name, "seed": seed, "voxel": index, "snr": gt.snr,
            "mle_mk": est.mk, "truth_mk": ref.mk}


def _run_inproc(w, seed, seconds, trace, n_voxels, workdir) -> Result:
    inputs = build_inputs(w, seed, workdir, n_voxels)
    gate = Gate()
    record = {"scenario_s": inputs.scenario_s}
    summary = [f"workload {w.name}: fit_voxel(..., {w.estimator!r}) on "
               f"scenario({w.scenario!r}, snr={w.snr:g}, seed={seed}); "
               f"closed loop, 1 caller"]
    # the panel goes first so that lazy imports and first-call costs
    # are paid before timing, as by a long-lived caller
    panel = [estimators.fit_voxel(y, inputs.protocol, w.estimator) for y in inputs.panel_rows]

    if trace:
        tracer = Tracer()
        missing = tracer.install()
        try:
            t0 = time.perf_counter()
            timed = fit_loop(w, inputs, seed, seconds / 2, tracer=tracer)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        plain = fit_loop(w, inputs, seed, count=len(timed.fits))
        same = [fit_signature(a) == fit_signature(b) for a, b in zip(timed.fits, plain.fits)]
        gate.check("traced fits bit-identical to untraced", all(same),
                   f"{same.count(False)} of {len(same)} differ")
    else:
        probes = SetupProbes(w, seed, workdir, n_voxels, seconds)
        timed = fit_loop(w, inputs, seed, seconds, probes=probes)
        probes.due()
    rss = peak_rss_mb()

    acc = accuracy(panel, inputs.panel_truths)
    gate_fits(gate, "timed", w, timed.fits, len(timed.times))
    gate_fits(gate, "panel", w, panel, len(inputs.panel_rows))
    attempted = len(timed.fits) + len(panel)
    failed = len(timed.errors) + sum(not finite(f) for f in timed.fits + panel if f is not None)
    gate.check("no fit raised", not timed.errors, "; ".join(timed.errors[:3]))

    metrics = dict(acc, error_frac=failed / attempted)
    record.update(accuracy_panel={"scenario": w.scenario, "snr": w.snr, "seed": PANEL_SEED,
                                  "voxels": len(panel)})
    if w.estimator == "mle":
        record["sentinel"] = _sentinel()

    if trace:
        exported = tracer.export()
        metrics.update(layer_metrics(exported, len(timed.fits), [f for f in timed.fits if f], w))
        metrics.update({
            "trace.traced_s": traced_s,
            "trace.overhead_pct": 100.0 * (timed.busy_s - plain.busy_s) / plain.busy_s,
            "cli.pool_efficiency": 0.0,
        })
        summary += _trace_lines(exported, metrics, missing)
        record["trace"] = {"missing_layers": missing, "solver_reasons": exported["reasons"]}
        _write_spans(w, seed, exported)
    else:
        pct = percentile_summary(timed.times)
        metrics.update(pct)
        setup = probes.samples
        metrics.update({
            "voxels_per_s": block_rate(timed.times),
            "voxels_per_s_mean": len(timed.fits) / timed.busy_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        })
        record.update(setup_samples_s=setup, voxel_times_s=timed.times)
        summary += _timing_lines(metrics, pct, f"median over blocks of {BLOCK} voxels; "
                                               f"{len(timed.fits)} voxels in {timed.busy_s:.2f} s")
    summary += _accuracy_lines(metrics, failed, attempted)
    if "sentinel" in record:
        s = record["sentinel"]
        summary.append(f"  known pathology: {s['scenario']} seed {s['seed']} voxel {s['voxel']} "
                       f"(SNR {s['snr']:g}) MLE MK {s['mle_mk']:.4g} vs truth {s['truth_mk']:.4g}")
    summary += _gate_lines(gate)
    record["gate"] = gate.checks
    metrics.update(_common_layer_metrics(inputs, acc, failed, attempted))
    return Result(gate.ok, attempted, failed, metrics, summary, record)


def _run_cli(w, seed, seconds, trace, n_voxels, workdir) -> Result:
    inputs = build_inputs(w, seed, workdir, n_voxels)
    files = inputs.files
    gate = Gate()
    record = {"scenario_s": inputs.scenario_s, "table_voxels": n_voxels, "workers": w.workers}
    summary = [f"workload {w.name}: dkimle fit --estimator {w.estimator} --workers {w.workers} "
               f"on scenario({w.scenario!r}, seed={seed}, n_voxels={n_voxels}); "
               f"closed loop, 1 caller, one process per invocation"]
    out = workdir / "fit.jsonl"
    elapsed_s, walls, child_rss, reference = [], [], [], None
    failed = attempted = 0

    def invoke(trace_out=None):
        """One timed invocation, checked at once; only its wall times are kept."""
        nonlocal failed, attempted, reference
        elapsed, records, err, rss = cli_fit(w, files["stream"], files["protocol"], out,
                                             w.workers, trace_out)
        k = len(elapsed_s) + 1
        elapsed_s.append(elapsed)
        child_rss.append(rss)
        attempted += n_voxels
        ok = err is None and [r["voxel"] for r in records] == list(range(n_voxels))
        gate.check(f"invocation {k}: one record per voxel", ok, err or f"{len(records)} records")
        failed += n_voxels - len(records)
        values = [record_values(r) for r in records]
        bad = [i for i, v in enumerate(values) if not np.all(np.isfinite(v))]
        failed += len(bad)
        gate.check(f"invocation {k}: fitted parameters finite", not bad,
                   f"non-finite voxels {bad[:10]}")
        if reference is None:
            reference = values
        else:
            same = len(values) == len(reference) and all(
                np.array_equal(a, b) for a, b in zip(values, reference))
            gate.check(f"invocation {k}: parameters equal invocation 1"
                       + (" (traced vs untraced)" if trace else ""), same)
        walls.extend(r["diagnostics"]["wall_time"] for r in records)
        return elapsed, records

    if trace:
        trace_path = workdir / "trace.json"
        traced_s, traced_records = invoke(trace_path)
        plain_s, _ = invoke()
    else:
        probes = SetupProbes(w, seed, workdir, n_voxels, seconds)
        busy = 0.0
        while busy < seconds:
            probes.due(busy)
            busy += invoke()[0]
        probes.due()

    # the CLI must write what an in-process fit of the same rows returns
    protocol = load_protocol(files["protocol"].read_text())
    rows = load_voxel_table(files["stream"].read_text())
    sample = np.sort(np.random.default_rng([seed, 99]).choice(
        n_voxels, size=min(GATE_SAMPLE, n_voxels), replace=False))
    mismatched = []
    for i in sample:
        fit = estimators.fit_voxel(rows[i], protocol, w.estimator)
        if i >= len(reference) or not np.array_equal(
                np.concatenate([fit.theta_d, fit.theta_w, [fit.s0, fit.sigma2]]), reference[i]):
            mismatched.append(int(i))
    gate.check(f"JSONL equals in-process fit_voxel on {len(sample)} sampled rows",
               not mismatched, f"mismatched voxels {mismatched}")

    _, panel_records, err, _ = cli_fit(w, files["panel"], files["protocol"],
                                    workdir / "panel.jsonl", w.workers)
    panel = [record_fit(r) for r in panel_records]
    gate.check("panel: one record per voxel", err is None and len(panel) == w.panel_voxels,
               err or f"{len(panel)} records")
    attempted += w.panel_voxels
    failed += w.panel_voxels - len(panel)
    acc = accuracy(panel, inputs.panel_truths) if len(panel) == w.panel_voxels else {
        k: float("nan") for k in ("dt_mse", "mk_mse", "invalid_frac", "violation_pct")}
    metrics = dict(acc, error_frac=failed / attempted)
    record["accuracy_panel"] = {"scenario": w.scenario, "seed": PANEL_SEED,
                                "voxels": w.panel_voxels}

    if trace:
        exported = json.loads(trace_path.read_text())
        fits = [record_fit(r) for r in traced_records]
        metrics.update(layer_metrics(exported, len(fits), fits, w))
        workers = [s for s in exported["spans"] if s[3] == "cli.fit_one"]
        pool_s = (max(s[5] for s in workers) - min(s[4] for s in workers)) if workers else 0.0
        metrics.update({
            "trace.traced_s": traced_s,
            "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
            "cli.pool_efficiency": (sum(f.wall_time for f in fits) / (w.workers * pool_s)
                                    if pool_s else 0.0),
        })
        summary += _trace_lines(exported, metrics, exported.get("missing", []))
        summary.append(f"  cli.pool_efficiency {metrics['cli.pool_efficiency']:.4f} "
                       f"(sum of voxel wall_time / ({w.workers} workers x {pool_s:.3f} s pool wall))")
        record["trace"] = {"missing_layers": exported.get("missing", []),
                           "solver_reasons": exported["reasons"]}
        _write_spans(w, seed, exported)
    else:
        pct = percentile_summary(walls)
        metrics.update(pct)
        setup = probes.samples
        metrics.update({
            "voxels_per_s": median_rate([n_voxels] * len(elapsed_s), elapsed_s),
            "voxels_per_s_mean": n_voxels * len(elapsed_s) / busy,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(max(child_rss)),
        })
        record.update(setup_samples_s=setup, invocation_s=elapsed_s)
        summary += _timing_lines(metrics, pct, f"median over {len(elapsed_s)} invocations of "
                                               f"{n_voxels} voxels, launch to exit")
    summary += _accuracy_lines(metrics, failed, attempted)
    summary += _gate_lines(gate)
    record["gate"] = gate.checks
    metrics.update(_common_layer_metrics(inputs, acc, failed, attempted))
    return Result(gate.ok, attempted, failed, metrics, summary, record)


def _common_layer_metrics(inputs, acc, failed, attempted) -> dict:
    return {
        "simulate.scenario.s": inputs.scenario_s,
        "src.lines": src_lines(),
        "metrics.scalar_metrics.invalid_frac": acc["invalid_frac"],
        "estimators.violation_flags.flagged_pct": acc["violation_pct"],
        "estimators.fit_voxel.error_frac": failed / max(attempted, 1),
    }


def _trace_lines(exported, metrics, missing) -> list:
    lines = ["  traced run: per-layer self time (wrappers at module boundaries)"]
    lines += layer_table(exported)
    lines.append(f"  tracing overhead {metrics['trace.overhead_pct']:.2f} % "
                 f"({metrics['trace.voxels']} voxels, traced {metrics['trace.traced_s']:.2f} s)")
    solves = metrics["barrier.solve.calls"]
    lines.append(f"  barrier.solve: {solves} solves, grad_tol met in "
                 f"{metrics['barrier.solve.grad_tol_met_frac'] * solves:.0f} of {solves}; "
                 f"reasons {dict(exported['reasons'])}")
    if missing:
        lines.append(f"  layers not found in the program: {missing}")
    return lines


def _gate_lines(gate: Gate) -> list:
    lines = [f"  correctness gate: {'PASS' if gate.ok else 'FAIL'} ({len(gate.checks)} checks)"]
    lines += [f"    FAILED {c['check']}: {c['detail']}" for c in gate.checks if not c["ok"]]
    return lines


def _write_spans(w: Workload, seed: int, exported: dict):
    (OUT / f"trace-{w.name}-seed{seed}.json").write_text(json.dumps(exported))
