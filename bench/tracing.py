"""Span wrappers around each pfwcl layer's public functions.

``Tracer.install()`` replaces every public module-level function of the layer
modules (and the ``SpectralFunctions`` evaluators) with a wrapper that records
a span, and rebinds every module-level alias of it across the loaded ``pfwcl``
modules (``pfwcl.energy.adaptive_quad``, ``pfwcl.cli.ground_energy``,
``pfwcl.ground_energy`` ...), so calls through any import path are seen.
A few wrappers also count work at the same boundary: integrand points and
panels (by wrapping the integrand handed to ``adaptive_quad``), Nystrom matrix
sizes and factorisations, and Fock basis sizes and solver paths.

Spans stay in memory as (name, start, end, parent, job) and are written out
once, after the run.  Self time is a span's duration minus that of its direct
children; total time counts only the outermost span of a name, so recursion
through the quadrature is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "quadrature", "formfactor", "energy", "wienerhopf", "fockdesk", "hermite")
#: the cli module is wrapped at its entry point only; its helpers are parsing
#: and formatting, which ``cli.run.self_s`` already covers.
ENTRY_POINTS = {"cli": ("run",)}
METHODS = {"energy": ("SpectralFunctions.rho", "SpectralFunctions.rho_hat")}
#: counts that must repeat exactly between two traced runs of the same jobs.
DETERMINISTIC_COUNTS = ("quadrature.points", "quadrature.panels", "wienerhopf.kernel_entries",
                        "wienerhopf.max_n", "fockdesk.dim", "fockdesk.A_nnz")


def _public_functions(module) -> list:
    names = [name for name, obj in vars(module).items()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__
             and not name.startswith("_")]
    return sorted(names)


class Tracer:
    """Records spans and work counts; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job]
        self.counts = defaultdict(float)
        self.job = None
        self.names = []      # span name of every wrapped function
        self._stack = []
        self._undo = []
        self._hooks = {
            "quadrature.adaptive_quad": self._count_integrand,
            "wienerhopf.build_grid": self._count_grid,
            "fockdesk.build_basis": self._count_basis,
            "fockdesk.build_operators": self._count_operators,
            "fockdesk.ground_energy": self._count_solver,
        }

    # -- recording -------------------------------------------------------
    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        span = self._span
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                return span(name, fn, args, kwargs)
            return hook(lambda *a, **k: span(name, fn, a, k), args, kwargs)

        return wrapper

    def _count_integrand(self, call, args, kwargs):
        f, rest = args[0], args[1:]
        counts = self.counts

        def counted(x):
            counts["quadrature.panels"] += 1
            counts["quadrature.points"] += len(x)
            return f(x)

        return call(counted, *rest, **kwargs)

    def _count_grid(self, call, args, kwargs):
        grid = call(*args, **kwargs)
        self.counts["wienerhopf.kernel_entries"] += grid.n * grid.n
        self.counts["wienerhopf.max_n"] = max(self.counts["wienerhopf.max_n"], grid.n)
        return grid

    def _count_basis(self, call, args, kwargs):
        basis = call(*args, **kwargs)
        self.counts["fockdesk.dim"] = max(self.counts["fockdesk.dim"], basis.dim)
        return basis

    def _count_operators(self, call, args, kwargs):
        ops = call(*args, **kwargs)
        self.counts["fockdesk.A_nnz"] += ops.A.nnz
        return ops

    def _count_solver(self, call, args, kwargs):
        fockdesk = sys.modules["pfwcl.fockdesk"]
        dense = args[0].shape[0] <= fockdesk.DENSE_DIM_LIMIT
        self.counts["fockdesk.dense_solves" if dense else "fockdesk.lanczos_solves"] += 1
        return call(*args, **kwargs)

    def _factorization(self, fn, flops_per_n3):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            n = a.shape[0]
            counts["wienerhopf.factorizations"] += 1
            counts["wienerhopf.factor_flops"] += flops_per_n3 * n ** 3
            return fn(a, *args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions and rebind all their aliases."""
        modules = {layer: importlib.import_module(f"pfwcl.{layer}") for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            for name in ENTRY_POINTS.get(layer) or _public_functions(module):
                fn = getattr(module, name)
                replacements[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
            for name in METHODS.get(layer, ()):
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(f"{layer}.{name}", vars(cls)[meth]))
        # dense factorisations, counted where the Nystrom layer calls them
        wienerhopf = modules["wienerhopf"]
        for attr, flops in (("eigvalsh", 4.0 / 3.0), ("cho_factor", 1.0 / 3.0)):
            self._set(wienerhopf, attr, self._factorization(getattr(wienerhopf, attr), flops))
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "pfwcl" or n.startswith("pfwcl."))]
        # keyed by id: each original stays alive in ``replacements``, so ids are unique
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._set(module, attr, replacements[id(value)][1])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting -------------------------------------------------------
    def aggregate(self) -> dict:
        """``<span>.calls``, ``.total_s`` and ``.self_s`` for every wrapped function."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        out = {f"{name}.{kind}": 0.0 for name in self.names
               for kind in ("calls", "total_s", "self_s")}
        for name, start, end, parent, _job in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _job) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.total_s"] += end - start
        return out

    def write_spans(self, path: str, jobs) -> None:
        """Write the spans as gzipped CSV: index,name,start_s,end_s,parent,job."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                label = jobs[job].name if job is not None else ""
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{label}\n")
