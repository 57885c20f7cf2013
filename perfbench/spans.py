"""Span recording around frachp's public functions, and the per-layer
metrics derived from the recorded spans.

A span is one call at a layer boundary: name ("<layer>.<function>"), start,
end, parent span and workload, plus a few counts taken where the work
happens (quadrature points, matrix order, ...).  Spans stay in memory while
the benchmark runs and are written out as JSON when it ends; every per-layer
metric is computed from that file.

The wrappers are installed by rebinding module-level names inside the
``frachp`` package, so a call is seen exactly where the calling module looks
the function up (``frachp.postproc.assemble``,
``frachp.assembly.pair_quadrature``, ``frachp.linsolve.linalg``, ...).  No
file of the package is changed and every binding is restored afterwards.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, function, span name); the layer is the part of the span name
# before the first dot.
TARGETS = (
    ("frachp.postproc", "convergence_study", "postproc.convergence_study"),
    ("frachp.postproc", "solve_problem", "postproc.solve_problem"),
    ("frachp.geomesh", "build_geometric_mesh", "geomesh.build_geometric_mesh"),
    ("frachp.basis", "build_dof_map", "basis.build_dof_map"),
    ("frachp.assembly", "assemble", "assembly.assemble"),
    ("frachp.assembly", "assemble_load", "assembly.assemble_load"),
    ("frachp.quadrature", "pair_quadrature", "quadrature.pair_quadrature"),
    ("frachp.linsolve", "cholesky_solve", "linsolve.cholesky_solve"),
    ("frachp.approx", "interpolation_error_study",
     "approx.interpolation_error_study"),
    ("frachp.approx", "interpolant_weighted_error",
     "approx.interpolant_weighted_error"),
)

PAIR_KINDS = ("identical", "adjacent", "disjoint")


def _counts(name, args, result):
    """Work counts recorded on a finished span."""
    if name == "basis.build_dof_map":
        return {"dofs": int(result.n_dofs)}
    if name == "assembly.assemble":
        return {"n": int(result.stiffness.shape[0])}
    if name == "quadrature.pair_quadrature":
        return {"kind": args[0].kind, "points": int(len(result[2]))}
    if name == "linsolve.cho_factor":
        return {"n": int(args[0].shape[0])}
    return {}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._t0 = time.perf_counter()
        self.pass_index = None

    @contextmanager
    def span(self, name, **attrs):
        """Record the enclosed block as a span; yields its mutable attrs."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, "pass": self.pass_index,
                  "start": time.perf_counter() - self._t0, "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                attrs.update(_counts(name, args, result))
            return result
        return traced

    def write(self, path, **header):
        with open(path, "w") as fh:
            json.dump(dict(header, workload=self.workload, spans=self.spans),
                      fh)


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside ``frachp.linsolve``."""

    def __init__(self, real, tracer):
        self._real = real
        self.cho_factor = tracer.wrap(real.cho_factor, "linsolve.cho_factor")
        self.cho_solve = tracer.wrap(real.cho_solve, "linsolve.cho_solve")

    def __getattr__(self, name):
        return getattr(self._real, name)


def _bindings(obj):
    """(module, attribute) pairs in the frachp package bound to obj."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "frachp" or mod_name.startswith("frachp."):
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    found.append((mod, attr))
    return found


@contextmanager
def patched(tracer=None, solve_hook=None):
    """Install span wrappers (with a tracer) and the solve hook.

    solve_hook(fn) returns a replacement for ``cholesky_solve``; it is
    installed outside the trace wrapper so that its own work is not
    counted as linear-solver time.
    """
    saved = []

    def rebind(obj, replacement):
        for mod, attr in _bindings(obj):
            saved.append((mod, attr, obj))
            setattr(mod, attr, replacement)

    try:
        for mod_name, fn_name, span_name in TARGETS:
            fn = getattr(importlib.import_module(mod_name), fn_name, None)
            if fn is None:
                continue
            replacement = fn
            if tracer is not None:
                replacement = tracer.wrap(fn, span_name)
            if solve_hook and span_name == "linsolve.cholesky_solve":
                replacement = solve_hook(replacement)
            if replacement is not fn:
                rebind(fn, replacement)
        if tracer is not None:
            linsolve = importlib.import_module("frachp.linsolve")
            rebind(linsolve.linalg, _LinalgProxy(linsolve.linalg, tracer))
        yield
    finally:
        for mod, attr, obj in reversed(saved):
            setattr(mod, attr, obj)


def blas_threads():
    """Thread count of the OpenBLAS builds loaded in this process (0 if
    none can be queried)."""
    symbols = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads",
               "scipy_openblas_get_num_threads64_")
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path and ".so" in path:
                    paths.add(path)
    except OSError:
        return 0
    counts = [0]
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
    return max(counts)


def _duration(span):
    return span["end"] - span["start"]


def _self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {sp["id"]: _duration(sp) for sp in spans}
    for sp in spans:
        if sp["parent"] is not None and sp["parent"] in own:
            own[sp["parent"]] -= _duration(sp)
    return own


def layer_metrics(trace):
    """Per-layer metrics from a loaded trace file.

    Layer metrics come from the traced pass whose wall time is the (lower)
    median of the traced passes; ``trace.overhead_s`` subtracts the median
    untraced pass wall from it.  The assembly thread probes are separate
    spans.
    """
    spans = trace["spans"]
    roots = [sp for sp in spans if sp["name"] == "bench.pass"]
    traced = sorted((sp for sp in roots if sp["attrs"]["traced"]),
                    key=_duration)
    plain = sorted(_duration(sp) for sp in roots if not sp["attrs"]["traced"])
    chosen = traced[(len(traced) - 1) // 2]
    run = [sp for sp in spans if sp["pass"] == chosen["pass"]]
    own = _self_times(run)

    def named(name):
        return [sp for sp in run if sp["name"] == name]

    def total(name):
        return sum(_duration(sp) for sp in named(name))

    def layer_self(layer):
        return sum(own[sp["id"]] for sp in run
                   if sp["name"].split(".")[0] == layer)

    def probe(threads):
        return sum(_duration(sp) for sp in spans
                   if sp["name"] == "assembly.threads_probe"
                   and sp["attrs"]["threads"] == threads)

    quad = named("quadrature.pair_quadrature")
    factors = named("linsolve.cho_factor")
    factor_s = total("linsolve.cho_factor")
    gflop = sum(sp["attrs"]["n"] ** 3 / 3.0 for sp in factors) / 1e9
    checks = named("bench.check")
    matrices = [sp["attrs"]["n"] for sp in named("assembly.assemble")]

    m = {
        "cli.calls": (len(named("cli.run")), "count"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.out_bytes": (sum(sp["attrs"].get("out_bytes", 0)
                              for sp in named("cli.run")), "B"),
        "postproc.solves": (len(named("postproc.solve_problem")), "count"),
        "postproc.self_s": (layer_self("postproc"), "s"),
        "geomesh.calls": (len(named("geomesh.build_geometric_mesh")), "count"),
        "geomesh.s": (total("geomesh.build_geometric_mesh"), "s"),
        "basis.dofmap_calls": (len(named("basis.build_dof_map")), "count"),
        "basis.dofmap_s": (total("basis.build_dof_map"), "s"),
        "basis.dofs": (sum(sp["attrs"]["dofs"]
                           for sp in named("basis.build_dof_map")), "count"),
        "assembly.stiffness_s": (total("assembly.assemble"), "s"),
        "assembly.self_s": (sum(own[sp["id"]]
                                for sp in named("assembly.assemble")), "s"),
        "assembly.load_s": (total("assembly.assemble_load"), "s"),
        "assembly.matrix_mb_max": (max((8.0 * n * n / 1e6 for n in matrices),
                                       default=0.0), "MB"),
        "assembly.threads1_s": (probe(1), "s"),
        "assembly.threads2_s": (probe(2), "s"),
    }
    for kind in PAIR_KINDS:
        of_kind = [sp for sp in quad if sp["attrs"]["kind"] == kind]
        m[f"quadrature.calls.{kind}"] = (len(of_kind), "count")
        m[f"quadrature.points.{kind}"] = (
            sum(sp["attrs"]["points"] for sp in of_kind), "count")
        m[f"quadrature.s.{kind}"] = (sum(_duration(sp) for sp in of_kind), "s")
    m.update({
        "linsolve.calls": (len(named("linsolve.cholesky_solve")), "count"),
        "linsolve.s": (total("linsolve.cholesky_solve"), "s"),
        "linsolve.factor_s": (factor_s, "s"),
        "linsolve.refine_steps": (len(named("linsolve.cho_solve"))
                                  - len(named("linsolve.cholesky_solve")),
                                  "count"),
        "linsolve.gflop_computed": (gflop, "GFLOP"),
        "linsolve.gflops": (gflop / factor_s if factor_s > 0 else 0.0,
                            "GFLOP/s"),
        "linsolve.rel_residual_max": (max((sp["attrs"]["rel_residual"]
                                           for sp in checks), default=0.0),
                                      "ratio"),
        "linsolve.blas_threads": (trace["blas_threads"], "count"),
        "approx.calls": (len(named("approx.interpolant_weighted_error")),
                         "count"),
        "approx.s": (total("approx.interpolant_weighted_error"), "s"),
        "approx.self_s": (layer_self("approx"), "s"),
        "bench.self_s": (layer_self("bench"), "s"),
        "trace.wall_s": (_duration(chosen), "s"),
        "trace.overhead_s": (_duration(chosen) - plain[(len(plain) - 1) // 2],
                             "s"),
    })
    return m


# Layers whose self times add up, with the benchmark's own time, to the traced
# pass wall time.
ACCOUNTED = ("bench.self_s", "cli.self_s", "postproc.self_s", "geomesh.s",
             "basis.dofmap_s", "assembly.self_s", "assembly.load_s",
             "quadrature.s.identical", "quadrature.s.adjacent",
             "quadrature.s.disjoint", "linsolve.s", "approx.self_s")
