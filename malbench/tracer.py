"""Per-layer tracing of malab from outside the package.

``Tracer.install()`` replaces the public functions of each layer with
wrappers that record a span (name, start, end, parent, operation id) and
counters. A function is replaced in every malab module that holds it, since
modules import each other's functions by name (``cli`` holds
``newton_solve``, ``blowup`` holds ``trace_ray``). Oracle evaluations are
counted, without spans, at the leaf fixture classes, so wrapper oracles are
not counted twice. Spans stay in memory until ``uninstall()``.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
from scipy.sparse.linalg import splu

import malab.blowup
import malab.checks
import malab.cli
import malab.domains
import malab.geometry
import malab.grids
import malab.legendre
import malab.oracles
import malab.solver

# span name -> (module, function name); wrapped wherever the function lives
FUNCTION_SPANS = {
    "cli.main": (malab.cli, "main"),
    "solver.newton_solve": (malab.solver, "newton_solve"),
    "solver.residual_field": (malab.solver, "residual_field"),
    "grids.write": (malab.grids, "write_gridfunction"),
    "grids.read": (malab.grids, "read_gridfunction"),
    "grids.fd_fields": [(malab.grids, f) for f in ("gradient_field", "hessian_field", "third_field")],
    "grids.check_convex": (malab.grids, "check_convex"),
    "legendre.involution_residual": (malab.legendre, "involution_residual"),
    "legendre.legendre_grid": (malab.legendre, "legendre_grid"),
    "legendre.conjugate": (malab.legendre, "conjugate_factorized"),
    "legendre.hull": (malab.legendre, "gradient_hull"),
    "domains.mvee": (malab.domains, "centered_mvee"),
    "domains.normalize": (malab.domains, "normalize_domain"),
    "checks.trace_ray": (malab.checks, "trace_ray"),
    "checks.section_probes": (malab.checks, "section_probes"),
    "checks.section_functionals": (malab.checks, "section_functionals"),
    "checks.phi_barrier_ladder": (malab.checks, "phi_barrier_ladder"),
    "checks.phi_inequality": (malab.checks, "phi_inequality_check"),
    "blowup.run_blowup": (malab.blowup, "run_blowup"),
    "blowup.extract_section": (malab.blowup, "extract_section"),
}
# the GridFunction derivative fields are grid FD work too
METHOD_SPANS = {"grids.fd_fields": (malab.grids.GridFunction,
                                    ("gradient_field", "hessian_field", "third_field"))}
LEAF_ORACLES = (malab.oracles.Quadratic, malab.oracles.ExpSolution, malab.oracles.DualLog)
ORACLE_METHODS = ("value", "gradient", "hessian", "third")


def _points(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counters = Counter()
        self.peaks = defaultdict(float)
        self._undo = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after:
                after(*args, **kwargs)
            return result
        return traced

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, wrapper):
        for mod in [m for k, m in sys.modules.items() if k == "malab" or k.startswith("malab.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def install(self):
        hooks = {
            "grids.write": {"after": self._count_written},
            "grids.read": {"before": self._count_read},
            "legendre.conjugate": {"before": self._count_score},
        }
        for name, targets in FUNCTION_SPANS.items():
            for mod, attr in targets if isinstance(targets, list) else [targets]:
                original = getattr(mod, attr)
                fn = self._measure_peak(original) if name.startswith("legendre.") else original
                self._replace_everywhere(original, self.wrap(name, fn, **hooks.get(name, {})))
        self._replace_everywhere(splu, self.wrap("solver.lu", splu))
        for name, (cls, methods) in METHOD_SPANS.items():
            for m in methods:
                self._replace(cls, m, self.wrap(name, cls.__dict__[m]))
        for cls in LEAF_ORACLES:
            for m in ORACLE_METHODS:
                self._replace(cls, m, self._count_oracle(cls.__dict__[m]))
        phi_rule = malab.geometry.phi_rule
        self._replace_everywhere(phi_rule, self._traced_phi_rule(phi_rule))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counters at the boundaries ---------------------------------------

    def _count_oracle(self, method):
        @functools.wraps(method)
        def counted(obj, x, *args, **kwargs):
            self.counters["oracles.calls"] += 1
            self.counters["oracles.points"] += _points(x)
            return method(obj, x, *args, **kwargs)
        return counted

    def _traced_phi_rule(self, phi_rule):
        @functools.wraps(phi_rule)
        def traced_phi_rule(oracle, side):
            rule = self.wrap("geometry.phi", phi_rule(oracle, side))

            def counted(x):
                self.counters["geometry.phi.points"] += _points(x)
                return rule(x)
            return counted
        return traced_phi_rule

    def _count_written(self, fu, csv_path, meta_path=None):
        self.counters["grids.write.bytes"] += sum(
            os.path.getsize(p) for p in (csv_path, meta_path) if p)

    def _count_read(self, csv_path, meta_path):
        self.counters["grids.read.bytes"] += os.path.getsize(csv_path) + os.path.getsize(meta_path)

    def _count_score(self, field, dual_grid):
        # largest (lines, M, N) float64 score tensor of the per-axis pass,
        # computed from array shapes
        src, dst = field.grid.shape, dual_grid.shape
        biggest = max(math.prod(dst[:a + 1]) * math.prod(src[a:]) * 8 for a in range(len(src)))
        self.peaks["legendre.score_bytes"] = max(self.peaks["legendre.score_bytes"], biggest)

    def _measure_peak(self, fn):
        """tracemalloc peak of the outermost legendre call, in MB."""
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks["legendre.peak_mb"] = max(self.peaks["legendre.peak_mb"], peak)
        return measured

    # -- analysis ---------------------------------------------------------

    def _self_times(self):
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0) - c for (name, t0, t1, parent, op), c in zip(self.spans, child)]

    def span_times(self):
        """Per span name: calls, inclusive seconds of the outermost spans of
        that name (nested same-name spans are not counted twice), self seconds."""
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for (name, t0, t1, parent, op), own in zip(self.spans, self._self_times()):
            calls[name] += 1
            self_s[name] += own
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += t1 - t0
        return calls, incl, self_s

    def op_accounting(self):
        """Per operation id: (sum of span self times, time covered by top-level spans)."""
        self_sum, covered = defaultdict(float), defaultdict(float)
        for (name, t0, t1, parent, op), own in zip(self.spans, self._self_times()):
            self_sum[op] += own
            if parent < 0:
                covered[op] += t1 - t0
        return self_sum, covered
