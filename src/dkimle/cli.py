"""Command line driver: simulate, fit, compare, metrics.

File formats
------------
protocol      text rows ``b gx gy gz`` (s/mm^2) or the JSON form
              ``{"bvals": [...], "bvecs": [[...], ...]}``.
voxel table   header line ``m=<count>`` (a positive integer), then one
              line per voxel with m comma-separated magnitudes; ``#``
              comments allowed.
truth sidecar JSON object keyed by voxel index.
fit output    JSON lines, one voxel per line in voxel order, each with
              ``"status": "ok"``, or ``"status": "error"`` and the
              ``error`` of a voxel whose fit raised.
compare       JSON report plus an aligned text table on stdout.

``fit`` sends the worker processes blocks of about an eighth of their
share of the rows (at most :data:`MAX_BLOCK_ROWS`).  A worker fits its
block with one :func:`fit_voxel` call, which solves the WLS fits of the
block's clean rows in one stacked QR and flags the fitted rows in one
``violation_flags`` pass, computes the block's maps in one
:func:`scalar_metrics` call, and formats the block's records itself; the
parent parses, dispatches, counts and writes.

Identical (command, seed) pairs produce byte-identical voxel tables, and
fit output that is identical for every worker count apart from the
recorded wall times.  ``fit`` exits 1 when any voxel failed; every
command exits 2 on bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .estimators import B_INTERNAL_SCALE, ConstraintFlags, FitOptions, FitResult, fit_voxel
from .metrics import ScalarMetrics, evaluate, scalar_metrics, stack_fits
from .protocol import dump_protocol, json_field, load_protocol
from .simulate import DEFAULT_SEED, GroundTruthVoxel, SCENARIOS, scenario


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# voxel table format

def dump_voxel_table(rows: np.ndarray) -> str:
    rows = np.atleast_2d(rows)
    lines = [f"m={rows.shape[1]}"]
    for r in rows:
        lines.append(",".join(format(x, ".17g") for x in r))
    return "\n".join(lines) + "\n"


def load_voxel_table(text: str) -> np.ndarray:
    m = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m is None:
            if not line.startswith("m="):
                raise CliError(f"line {lineno}: voxel table must start with 'm=<count>'")
            count = line[2:].strip()
            if not count.isdecimal() or int(count) < 1:
                raise CliError(f"line {lineno}: voxel count must be a positive integer, "
                               f"got {count!r}")
            m = int(count)
            continue
        try:
            vals = [float(p) for p in line.split(",")]
        except ValueError as exc:
            raise CliError(f"line {lineno}: {exc}") from None
        if len(vals) != m:
            raise CliError(f"line {lineno}: expected {m} magnitudes, got {len(vals)}")
        rows.append(vals)
    if m is None or not rows:
        raise CliError("voxel table is empty")
    return np.asarray(rows, dtype=float)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    protocol, rows, truths = scenario(args.scenario, snr=args.snr, seed=args.seed,
                                      n_voxels=args.voxels)
    prefix = args.out
    _write(prefix + ".protocol.txt", dump_protocol(protocol))
    _write(prefix + ".voxels.csv", dump_voxel_table(rows))
    sidecar = {str(i): gt.to_dict() for i, gt in enumerate(truths)}
    _write(prefix + ".truth.json", json.dumps(sidecar, indent=1))
    print(f"wrote {rows.shape[0]} voxels x {rows.shape[1]} acquisitions to {prefix}.*")
    return 0


# rows per block sent to a worker at most, so the stacked (rows, m, 23)
# WLS array stays a few MB
MAX_BLOCK_ROWS = 256


@dataclass
class FittedBlock:
    """The JSON lines of a block of voxels fitted in one worker call, with
    the counts of failed and non-converged voxels among them."""

    lines: list
    n_failed: int
    n_bad: int


def _fit_one(payload):
    """Fit a block of rows, starting at voxel ``start``, and format its
    records; the worker entry.  Returns (start, FittedBlock)."""
    start, rows, protocol, estimator, options = payload
    results = fit_voxel(rows, protocol, estimator, options)
    maps = iter(scalar_metrics(*stack_fits([r for r in results if isinstance(r, FitResult)])))
    lines, n_failed, n_bad = [], 0, 0
    for index, result in enumerate(results, start):
        if isinstance(result, ValueError):
            n_failed += 1
            sm = None
        else:
            n_bad += not result.converged
            sm = next(maps)
        lines.append(json.dumps(_record(index, estimator, result, sm)))
    return start, FittedBlock(lines, n_failed, n_bad)


def _result_record(start: int, block: FittedBlock) -> list:
    """The lines of the block fitted from voxel ``start``; the parent takes
    each block's lines through this one call."""
    return block.lines


def _record(index: int, estimator: str, r: FitResult | ValueError,
            sm: ScalarMetrics | None) -> dict:
    if isinstance(r, ValueError):  # bad magnitudes, RankDeficient, DegenerateVoxel, Infeasible
        return {"voxel": index, "estimator": estimator, "status": "error",
                "error": f"{type(r).__name__}: {r}"}
    record = {
        "voxel": index,
        "estimator": r.estimator,
        "status": "ok",
    }
    if r.params is not None:
        record["L"] = r.params.L.tolist()
        record["thetaQ"] = r.params.theta_q.tolist()
    record["S0"] = float(r.s0)
    record["sigma2"] = float(r.sigma2)
    record["theta_d"] = r.theta_d.tolist()
    record["theta_w"] = r.theta_w.tolist()
    record["b_scale"] = B_INTERNAL_SCALE
    record["metrics"] = sm.to_dict()
    record["diagnostics"] = {
        "iterations": r.em_iterations,
        "converged": bool(r.converged),
        "loglik": float(r.loglik_trace[-1]) if r.loglik_trace.size else None,
        "violations": vars(r.violations),
        "wall_time": r.wall_time,
    }
    return record


def cmd_fit(args) -> int:
    protocol = load_protocol(_read(args.protocol))
    rows = load_voxel_table(_read(args.data))
    if rows.shape[1] != protocol.m:
        raise CliError(
            f"data has {rows.shape[1]} acquisitions per voxel "
            f"but protocol has {protocol.m}"
        )
    options = FitOptions()
    if args.max_sweeps is not None:
        if args.max_sweeps <= 0:
            raise CliError(f"--max-sweeps must be positive, got {args.max_sweeps}")
        options.max_sweeps = args.max_sweeps
    if args.grad_tol is not None:
        if not args.grad_tol > 0:
            raise CliError(f"--grad-tol must be positive, got {args.grad_tol}")
        options.grad_tol = args.grad_tol

    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    n = rows.shape[0]
    workers = min(args.workers, n)  # a pool starts all its workers at the first task
    # about eight blocks per worker keep the load balanced
    size = min(-(-n // (8 * workers)), MAX_BLOCK_ROWS)
    payloads = [(start, rows[start:start + size], protocol, args.estimator, options)
                for start in range(0, n, size)]
    lines = []
    n_failed = n_bad = 0
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        fitted = map(_fit_one, payloads) if pool is None else pool.map(_fit_one, payloads)
        for start, block in fitted:
            lines += _result_record(start, block)
            n_failed += block.n_failed
            n_bad += block.n_bad
    _write(args.out, "\n".join(lines) + "\n")
    print(f"fitted {n} voxels with {args.estimator}; "
          f"{n_bad} flagged non-converged; {n_failed} failed; wrote {args.out}")
    return 1 if n_failed else 0


def _fits_from_jsonl(path: str):
    """(voxel index, FitResult) pairs of the ok records of a fit file.

    Error records are skipped, and their count is reported on stderr.
    """
    fits = []
    skipped = 0
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("expected a JSON object")
            if rec.get("status") == "error":
                skipped += 1
                continue
            diag = rec.get("diagnostics", {})
            viol = diag.get("violations", {}) if isinstance(diag, dict) else None
            if not isinstance(viol, dict):
                raise ValueError("diagnostics and their violations must be JSON objects")
            fits.append((json_field(rec, "voxel", int), FitResult(
                estimator=rec.get("estimator", "?"),
                theta_d=json_field(rec, "theta_d", (6,)),
                theta_w=json_field(rec, "theta_w", (15,)),
                s0=json_field(rec, "S0"),
                sigma2=json_field(rec, "sigma2"),
                loglik_trace=np.zeros(0),
                em_iterations=json_field(diag, "iterations", int, default=0),
                converged=json_field(diag, "converged", bool, default=True),
                violations=ConstraintFlags(**{
                    flag.name: json_field(viol, flag.name, bool, default=False)
                    for flag in fields(ConstraintFlags)}),
                wall_time=json_field(diag, "wall_time", default=0.0),
            )))
        except ValueError as exc:
            raise CliError(f"fit line {lineno}: {exc}") from None
    if skipped:
        print(f"{path}: skipped {skipped} error records", file=sys.stderr)
    if not fits:
        raise CliError(f"{path} has no fitted voxels")
    return fits


def cmd_compare(args) -> int:
    sidecar = json.loads(_read(args.truth))
    if not isinstance(sidecar, dict):
        raise CliError(f"{args.truth} must be a JSON object keyed by voxel index")
    report_all = {}
    for path in args.fits:
        pairs = _fits_from_jsonl(path)
        missing = [i for i, _ in pairs if str(i) not in sidecar]
        if missing:
            raise CliError(f"{path}: voxel {missing[0]} has no truth in {args.truth}")
        fits = [fit for _, fit in pairs]
        truths = []
        for i, _ in pairs:
            try:
                truths.append(GroundTruthVoxel.from_dict(sidecar[str(i)]))
            except (TypeError, ValueError) as exc:
                raise CliError(f"{args.truth}: voxel {i}: bad truth entry ({exc})") from None
        report = evaluate(fits, truths)
        name = fits[0].estimator
        report_all[f"{name}:{path}"] = report
        print(report.format_table(title=f"--- {name} ({path}) ---"))
        print()
    if args.json:
        payload = {k: json.loads(r.to_json()) for k, r in report_all.items()}
        _write(args.json, json.dumps(payload, indent=1))
    return 0


def cmd_metrics(args) -> int:
    lines = ["voxel,md,fa,mk,k_perp,snr,valid"]
    pairs = _fits_from_jsonl(args.fits)
    for (i, _), sm in zip(pairs, scalar_metrics(*stack_fits([fit for _, fit in pairs]))):
        lines.append(
            f"{i},{sm.md:.10g},{sm.fa:.10g},{sm.mk:.10g},"
            f"{sm.k_perp:.10g},{sm.snr:.10g},{int(sm.valid)}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkimle",
        description="Simulate, fit and evaluate diffusion kurtosis voxels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic voxel dataset")
    p_sim.add_argument("--scenario", choices=sorted(SCENARIOS), default="dataset1")
    p_sim.add_argument("--snr", type=float, default=15.0,
                       help="signal-to-noise ratio (dataset3 uses its own ramp)")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--voxels", type=int, default=None,
                       help="override the scenario voxel count")
    p_sim.add_argument("--out", required=True, help="output path prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit every voxel of a table")
    p_fit.add_argument("--protocol", required=True)
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--estimator", choices=("wls", "cwls", "mle"), default="mle")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p_fit.add_argument("--max-sweeps", type=int, default=None,
                       help="EM-MLE sweep budget (default 50; CWLS always takes 2 solves)")
    p_fit.add_argument("--grad-tol", type=float, default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="evaluate fit outputs against a truth sidecar")
    p_cmp.add_argument("--truth", required=True)
    p_cmp.add_argument("--fits", nargs="+", required=True)
    p_cmp.add_argument("--json", default=None, help="also write the report as JSON")
    p_cmp.set_defaults(func=cmd_compare)

    p_met = sub.add_parser("metrics", help="scalar metric table from a fit output")
    p_met.add_argument("--fits", required=True)
    p_met.add_argument("--out", default=None)
    p_met.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
