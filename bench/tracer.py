"""In-memory span tracer for the per-layer breakdown of a benchmark run.

The tracer replaces public dkimle functions at each module boundary with
wrappers, under the name the *calling* module looks up (for example
``estimators.bessel_ratio`` rather than ``rician.bessel_ratio``), so the
program itself is not edited and a call made inside the defining module
is not counted twice.  Each wrapper records a span (id, parent, name,
start, end, voxel id) and folds its duration into per-layer totals; a
layer's self time is its duration minus the time spent in wrapped
callees.  The callables of a ``BarrierProblem`` are counted through a
``dataclasses.replace`` copy of the problem that ``barrier.solve``
receives, and are aggregated without individual spans because there
are thousands of them per voxel.

Forked pool workers of ``dkimle fit`` inherit the wrappers.  A worker
collects the spans of one ``_fit_one`` call and attaches them to the
returned ``FitResult``; the parent merges them when it formats that
voxel's record.  Wrapped functions return exactly what the originals
return, so traced fits are bit-identical to untraced ones.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

# attribute under which a pool worker ships its trace back to the parent
WORKER_TRACE_ATTR = "_bench_trace"

PROBLEM_FIELDS = ("objective", "gradient", "information", "constraints",
                  "constraint_gradients")

# (module attribute, layer name) pairs; the module is the caller
PATCHES = {
    "dkimle.estimators": [
        ("fit_voxel", "estimators.fit_voxel"),
        ("em_mle_fit", "estimators.em_mle_fit"),
        ("cwls_fit", "estimators.cwls_fit"),
        ("wls_fit", "estimators.wls_fit"),
        ("init_params", "estimators.init_params"),
        ("em_estep", "estimators.em_estep"),
        ("em_mstep_s0", "estimators.em_mstep"),
        ("em_mstep_sigma2", "estimators.em_mstep"),
        ("update_tensors", "estimators.update_tensors"),
        ("violation_flags", "estimators.violation_flags"),
        ("bessel_ratio", "rician.bessel_ratio"),
        ("joint_loglik", "rician.joint_loglik"),
        ("build_design", "protocol.build_design"),
        ("quartic_rows", "protocol.quartic_rows"),
    ],
    "dkimle.barrier": [
        ("regularize", "barrier.regularize"),
        ("fisher_step", "barrier.fisher_step"),
    ],
    "dkimle.metrics": [
        ("scalar_metrics", "metrics.scalar_metrics"),
        ("quartic_rows", "protocol.quartic_rows"),
    ],
    "dkimle.cli": [
        ("build_parser", "cli.parse"),
        ("load_protocol", "cli.load_protocol"),
        ("load_voxel_table", "cli.load_voxel_table"),
        ("cmd_fit", "cli.cmd_fit"),
        ("fit_voxel", "estimators.fit_voxel"),
        ("scalar_metrics", "metrics.scalar_metrics"),
        ("_write", "cli.write"),
    ],
}


class Tracer:
    """Spans and per-layer counters of one process, kept in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.voxel = -1
        self._reset_buffers()
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _reset_buffers(self):
        # spans: (pid, id, parent id, name, start, end, voxel)
        self.spans = []
        # layer name -> [calls, total seconds, self seconds]
        self.layers = {}
        self.counts = Counter()
        self.inner_iters = []
        self.reasons = Counter()

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn, record=True, before=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` may add counts; ``record=False`` keeps
        only the per-layer totals.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack
            parent = stack[-1][1] if stack else None
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                entry = self.layers.get(name)
                if entry is None:
                    entry = self.layers[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if record:
                    self.spans.append((os.getpid(), frame[1], parent, name, t0, t1, self.voxel))

        return wrapper

    def _solver_outcome(self, diag, raised):
        self.inner_iters.append(int(diag.inner_iterations))
        self.counts["barrier.solve.outer_iters_total"] += int(diag.outer_iterations)
        self.counts["barrier.solve.grad_tol_met"] += bool(diag.converged)
        self.counts["barrier.solve.nonconvergence_raised"] += bool(raised)
        self.reasons[diag.reason or "?"] += 1

    def _wrap_solve(self, solve, nonconvergence):
        def traced_solve(problem, *args, **kwargs):
            swaps = {
                f: self.wrap(f"barrier.problem.{f}", getattr(problem, f), record=False)
                for f in PROBLEM_FIELDS if getattr(problem, f, None) is not None
            }
            problem = dataclasses.replace(problem, **swaps)
            try:
                theta, diag = solve(problem, *args, **kwargs)
            except nonconvergence as exc:
                self._solver_outcome(exc.diagnostics, raised=True)
                raise
            self._solver_outcome(diag, raised=False)
            return theta, diag

        return self.wrap("barrier.solve", functools.wraps(solve)(traced_solve))

    def _count(self, key, size):
        def before(args, kwargs):
            self.counts[key] += size(args[0]) if args else 0
        return before

    # -- installing -----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every boundary in :data:`PATCHES` that the program has.

        Returns the layer names that could not be found, so a renamed
        function shows up as a missing layer instead of a silent zero.
        """
        missing = []
        hooks = {
            "rician.bessel_ratio": self._count("rician.bessel_ratio.elements", np.size),
            "protocol.quartic_rows": self._count("protocol.quartic_rows.rows", len),
        }
        for module_name, pairs in PATCHES.items():
            module = importlib.import_module(module_name)
            for attr, name in pairs:
                if not hasattr(module, attr):
                    missing.append(f"{module_name}.{attr}")
                    continue
                wrapped = self.wrap(name, getattr(module, attr), before=hooks.get(name))
                if attr == "build_parser":
                    wrapped = self._wrap_parser(wrapped)
                self._patch(module, attr, wrapped)

        barrier = importlib.import_module("dkimle.barrier")
        self._patch(barrier, "solve", self._wrap_solve(barrier.solve, barrier.NonConvergence))

        cli = importlib.import_module("dkimle.cli")
        if hasattr(cli, "_fit_one") and hasattr(cli, "_result_record"):
            self._patch(cli, "_fit_one", self._wrap_worker_entry(cli._fit_one))
            self._patch(cli, "_result_record", self._wrap_merge(cli._result_record))
        else:
            missing.append("dkimle.cli._fit_one/_result_record")
        return missing

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the command line interface -------------------------------------

    def _wrap_parser(self, build_parser):
        @functools.wraps(build_parser)
        def traced_build_parser(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser
        return traced_build_parser

    def _wrap_worker_entry(self, fit_one):
        """``cli._fit_one``: a root span in a forked worker, shipped back."""
        traced = self.wrap("cli.fit_one", fit_one)

        @functools.wraps(fit_one)
        def worker_entry(payload):
            self.voxel = int(payload[0])
            if os.getpid() == self.pid:
                return traced(payload)
            saved = (self.spans, self.layers, self.counts, self.inner_iters,
                     self.reasons, self._stack)
            self._reset_buffers()
            self._stack = []
            try:
                index, result = traced(payload)
                try:
                    setattr(result, WORKER_TRACE_ATTR, self.export())
                except AttributeError:
                    pass
                return index, result
            finally:
                (self.spans, self.layers, self.counts, self.inner_iters,
                 self.reasons, self._stack) = saved

        return worker_entry

    def _wrap_merge(self, result_record):
        traced = self.wrap("cli.result_record", result_record)

        @functools.wraps(result_record)
        def merging_record(index, result):
            shipped = getattr(result, "__dict__", {}).pop(WORKER_TRACE_ATTR, None)
            if shipped is not None:
                self.merge(shipped)
            return traced(index, result)

        return merging_record

    # -- export ---------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": list(self.spans),
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counts": dict(self.counts),
            "inner_iters": list(self.inner_iters),
            "reasons": dict(self.reasons),
        }

    def merge(self, other: dict):
        self.spans.extend(tuple(s) for s in other["spans"])
        for name, (calls, total, own) in other["layers"].items():
            entry = self.layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        self.counts.update(other["counts"])
        self.inner_iters.extend(other["inner_iters"])
        self.reasons.update(other["reasons"])
