"""Layer trace for the traced run: timed wrappers around logcrit's public functions.

Tracer.install() replaces each function below under every name a logcrit
module looks it up by (logcrit.solvers.energy_value as well as
logcrit.energy.energy_value and the package re-export), and
RadialGrid.neg_laplacian_banded on the class; remove() restores the
originals.  Each call adds to the per-layer counters of the current
operation, and during the first timed operation also records a span
(operation, id, parent span, name, thread, start, end) in memory; the
spans are written out when the run ends.  region-scan calls the wrappers
from the CLI's thread pool, so the counters and the span list are guarded
by a lock and the span stack is per thread.
"""

import json
import sys
import threading
import time
from collections import defaultdict

import logcrit.grid

# per-layer metrics of one operation, with their units
LAYER_METRICS = {
    "grid.operator_builds": "count",
    "grid.operator_build_s": "s",
    "grid.eigenpair_calls": "count",
    "grid.eigenpair_s": "s",
    "grid.eigenpairs_per_grid": "ratio",
    "grid.sobolev_calls": "count",
    "grid.sobolev_s": "s",
    "grid.csv_write_s": "s",
    "energy.value_calls": "count",
    "energy.value_s": "s",
    "energy.gradient_calls": "count",
    "energy.gradient_s": "s",
    "energy.profile_s": "s",
    "regions.membership_calls": "count",
    "regions.membership_s": "s",
    "bubbles.fit_s": "s",
    "inequalities.scan_s": "s",
    "inequalities.scan_points": "count",
    "solvers.minimize_s": "s",
    "solvers.minimize_iters": "count",
    "solvers.newton_iters": "count",
    "solvers.endpoint_s": "s",
    "solvers.deform_s": "s",
    "solvers.path_sweeps": "count",
    "solvers.verify_s": "s",
    "cli.write_s": "s",
    "cli.out_bytes": "bytes",
    "trace.op_s": "s",
}


def _timed(calls, seconds):
    def update(counts, args, result, start, dt, stack):
        if calls:
            counts[calls] += 1
        counts[seconds] += dt
    return update


def _eigenpair(counts, args, result, start, dt, stack):
    counts["grid.eigenpair_calls"] += 1
    counts["grid.eigenpair_s"] += dt
    g = args[0]
    counts.grids.add((g.N, g.R, g.M))


def _csv_write(counts, args, result, start, dt, stack):
    counts["grid.csv_write_s"] += dt
    counts["cli.write_s"] += dt


def _scan(counts, args, result, start, dt, stack):
    box = next(a for a in args if isinstance(a, logcrit.inequalities.BoxSpec))
    counts["inequalities.scan_s"] += dt
    counts["inequalities.scan_points"] += box.t_samples * box.y_samples


def _solve(counts, args, result, start, dt, stack):
    report = result[0]
    counts["solvers.minimize_iters"] += report.iters_minimize
    counts["solvers.newton_iters"] += report.iters_newton0 + report.iters_newton_path
    counts["solvers.path_sweeps"] += report.iters_path


def _endpoint(counts, args, result, start, dt, stack):
    counts["solvers.endpoint_s"] += dt
    # minimize_s: the part of the enclosing solve_problem before this call
    solve_start = next((s for name, s in reversed(stack) if name == "solve_problem"), None)
    if solve_start is not None:
        counts["solvers.minimize_s"] += start - solve_start


# (module, function name, counter update)
TARGETS = [
    ("logcrit.grid", "principal_eigenpair", _eigenpair),
    ("logcrit.grid", "best_sobolev_constant", _timed("grid.sobolev_calls", "grid.sobolev_s")),
    ("logcrit.grid", "save_grid_function", _csv_write),
    ("logcrit.energy", "energy_value", _timed("energy.value_calls", "energy.value_s")),
    ("logcrit.energy", "gradient_field", _timed("energy.gradient_calls", "energy.gradient_s")),
    ("logcrit.energy", "g_profile", _timed(None, "energy.profile_s")),
    ("logcrit.regions", "region_membership",
     _timed("regions.membership_calls", "regions.membership_s")),
    ("logcrit.bubbles", "fit_norm_exponent", _timed(None, "bubbles.fit_s")),
    ("logcrit.bubbles", "fit_gap_exponent", _timed(None, "bubbles.fit_s")),
    ("logcrit.inequalities", "scan_sup_A1", _scan),
    ("logcrit.inequalities", "scan_sup_f", _scan),
    ("logcrit.inequalities", "scan_sup_A3", _scan),
    ("logcrit.solvers", "solve_problem", _solve),
    ("logcrit.solvers", "select_endpoint", _endpoint),
    ("logcrit.solvers", "mountain_pass", _timed(None, "solvers.deform_s")),
    ("logcrit.solvers", "verify_two_level_structure", _timed(None, "solvers.verify_s")),
    ("logcrit.cli", "write_text", _timed(None, "cli.write_s")),
]


class _Counts(defaultdict):
    def __init__(self):
        super().__init__(float)
        self.grids = set()  # distinct (N, R, M) the eigenpair ran on


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)
        self._next_id = 0
        self.spans = []
        self._op = None  # (op index, root span id, start)
        self._keep_spans = False
        self._counts = _Counts()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, update):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                tracer._next_id += 1
                span_id = tracer._next_id
            parent = stack[-1][2] if stack else tracer._op[1]
            start = time.perf_counter()
            stack.append((name, start, span_id))
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if tracer._keep_spans:
                    with tracer._lock:
                        tracer.spans.append((tracer._op[0], span_id, parent, name,
                                             threading.get_ident(), start, end))
            with tracer._lock:
                update(tracer._counts, args, result, start, end - start,
                       [(n, s) for n, s, _ in stack])
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "logcrit" or n.startswith("logcrit.")]
        for module_name, attr, update in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(attr, original, update)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        cls = logcrit.grid.RadialGrid
        original = cls.neg_laplacian_banded
        self._patched.append((cls, "neg_laplacian_banded", original))
        cls.neg_laplacian_banded = self._wrap(
            "neg_laplacian_banded", original,
            _timed("grid.operator_builds", "grid.operator_build_s"))

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_op(self, index, keep_spans):
        """Start an operation's counters; keep its spans only if asked."""
        with self._lock:
            self._next_id += 1
            self._op = (index, self._next_id, time.perf_counter())
            self._keep_spans = keep_spans
            self._counts = _Counts()

    def end_op(self, workload):
        """Close the operation's root span; return its per-layer metrics."""
        end = time.perf_counter()
        with self._lock:
            index, root, start = self._op
            if self._keep_spans:
                self.spans.append((index, root, 0, f"op:{workload}", threading.get_ident(),
                                   start, end))
            counts = self._counts
        metrics = {name: counts.get(name, 0.0) for name in LAYER_METRICS}
        calls = counts["grid.eigenpair_calls"]
        metrics["grid.eigenpairs_per_grid"] = calls / len(counts.grids) if counts.grids else 0.0
        return metrics

    def write_spans(self, path):
        keys = ("op", "id", "parent", "name", "thread", "start", "end")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
