"""In-memory span tracing of shapecal's layers, installed from outside.

The tracer wraps module and class attributes of ``calib``, ``certs``,
``sdp``, ``relax``, ``distortion`` and ``pipeline`` (see ``SITES``),
records one span per call (name, start, end, parent, thread and a few
attributes taken from arguments or results), and restores every attribute
when it is uninstalled.  Nothing in ``src/`` changes.

Functions imported by name into another module are separate attributes, so
each import site is wrapped on its own; ``calib.shape_check`` and
``pipeline.shape_check`` are the same function as ``distortion.shape_check``
but only wrapping all three sees every call.
"""

from __future__ import annotations

import functools
import math
import threading
import time

from shapecal import calib, certs, distortion, pipeline, relax, sdp

MARK = "__bench_wrapped__"


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a valid measurement."""


BUILDER_METHODS = ("variable", "set_cost", "add_block",
                   "add_affine_matrix", "add_equality_poly", "add_equality",
                   "add_epigraph", "build", "value")

# (site key, owner, attribute, span name).  The span name is the layer
# boundary the per-layer metrics are keyed by; several sites can share one.
SITES = [
    ("calib.assemble_cost", calib, "assemble_cost", "calib.assemble_cost"),
    ("calib.solve_shape", calib, "solve_shape", "calib.solve_shape"),
    ("calib.barrel_systems", calib, "barrel_systems", "calib.symbolic"),
    ("calib.zero_crossing_systems", calib, "zero_crossing_systems",
     "calib.symbolic"),
    ("calib.pincushion_systems", calib, "pincushion_systems",
     "calib.symbolic"),
    ("calib.pincushion_pmi", calib, "pincushion_pmi", "calib.symbolic"),
    ("certs.match_coefficients", certs, "match_coefficients",
     "certs.match_coefficients"),
    ("certs.eliminate", certs, "eliminate", "certs.eliminate"),
    ("sdp.solve", sdp, "solve", "sdp.solve"),
    *[(f"sdp.LmiBuilder.{m}", sdp.LmiBuilder, m, "sdp.builder")
      for m in BUILDER_METHODS],
    ("relax.relax", relax, "relax", "relax.build"),
    ("relax.structured_relaxation", relax, "structured_relaxation",
     "relax.build"),
    ("relax.solve_order", relax, "solve_order", "relax.order"),
    ("relax.extract", relax, "extract", "relax.extract"),
    ("relax.structured_candidate", relax, "structured_candidate",
     "relax.extract"),
    ("distortion.shape_check", distortion, "shape_check",
     "distortion.shape_check"),
    ("calib.shape_check", calib, "shape_check", "distortion.shape_check"),
    ("pipeline.shape_check", pipeline, "shape_check",
     "distortion.shape_check"),
    ("distortion.undistort_points", distortion, "undistort_points",
     "distortion.undistort_points"),
    ("pipeline.undistort_points", pipeline, "undistort_points",
     "distortion.undistort_points"),
    ("pipeline.levenberg_marquardt", pipeline, "levenberg_marquardt",
     "pipeline.lm"),
    ("pipeline.ba_full", pipeline, "ba_full", "pipeline.ba_full"),
    ("pipeline.ba_refine", pipeline, "ba_refine", "pipeline.ba_refine"),
    ("pipeline.aso_loop", pipeline, "aso_loop", "pipeline.aso_loop"),
    ("pipeline.bootstrap_poses", pipeline, "bootstrap_poses",
     "pipeline.bootstrap_poses"),
    ("pipeline.Camera.__post_init__", pipeline.Camera, "__post_init__",
     "pipeline.camera"),
    ("pipeline.generate_scene", pipeline, "generate_scene", "pipeline.scene"),
    ("pipeline.add_noise", pipeline, "add_noise", "pipeline.scene"),
    ("pipeline.validation_points", pipeline, "validation_points",
     "pipeline.scene"),
    ("pipeline.run_experiment", pipeline, "run_experiment",
     "pipeline.run_experiment"),
]

# Sites each workload must reach in a traced run.  A wrapped site that sees
# no call there means the wrapping missed the real call path, which is a
# benchmark error rather than a zero.  ``distortion.shape_check`` itself is
# wrapped but reached by no workload: the program only calls it through
# the names imported into ``calib`` and ``pipeline``.
_FIT = ["calib.assemble_cost", "calib.solve_shape", "sdp.solve",
        "sdp.LmiBuilder.build", "sdp.LmiBuilder.add_affine_matrix",
        "sdp.LmiBuilder.add_equality_poly", "sdp.LmiBuilder.add_epigraph",
        "certs.match_coefficients", "calib.shape_check"]
REACH = {
    "fit-small": _FIT + ["calib.barrel_systems",
                         "calib.zero_crossing_systems",
                         "pipeline.generate_scene", "pipeline.add_noise",
                         "pipeline.Camera.__post_init__"],
    "fit-pincushion": [s for s in _FIT if "add_epigraph" not in s] + [
        "calib.pincushion_systems", "calib.pincushion_pmi",
        "certs.eliminate", "relax.relax", "relax.structured_relaxation",
        "relax.solve_order", "relax.extract", "relax.structured_candidate",
        "pipeline.levenberg_marquardt", "pipeline.ba_full",
        "pipeline.ba_refine", "pipeline.bootstrap_poses",
        "pipeline.Camera.__post_init__", "pipeline.generate_scene",
        "pipeline.add_noise"],
    "trials-barrel": _FIT + [
        "calib.barrel_systems", "pipeline.shape_check",
        "pipeline.undistort_points", "pipeline.levenberg_marquardt",
        "pipeline.ba_full", "pipeline.ba_refine", "pipeline.aso_loop",
        "pipeline.bootstrap_poses", "pipeline.Camera.__post_init__",
        "pipeline.generate_scene", "pipeline.add_noise",
        "pipeline.validation_points", "pipeline.run_experiment"],
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.thread = thread
        self.attrs = None


class Tracer:
    """Wraps the layer boundaries and keeps their spans in memory."""

    def __init__(self):
        self.spans = []
        self.site_calls = {key: 0 for key, *_ in SITES}
        self._saved = []
        self._local = threading.local()

    # -- span recording ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    stack[-1] if stack else None, threading.get_ident())
        self.spans.append(span)   # list.append is atomic under the GIL
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    # -- installation -----------------------------------------------------

    def install(self):
        if self._saved:
            raise BenchError("tracer already installed")
        for key, owner, attr, name in SITES:
            original = owner.__dict__[attr]
            if getattr(original, MARK, False):
                raise BenchError(f"{key} is already wrapped")
            setattr(owner, attr, self._wrapper(key, name, original))
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrapper(self, key, name, fn):
        special = {"sdp.solve": self._solve, "relax.solve_order": self._order,
                   "relax.structured_relaxation": self._structured,
                   "relax.structured_candidate": self._candidate,
                   "pipeline.levenberg_marquardt": self._lm}.get(key)
        site_calls = self.site_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Unlocked: worker threads may lose an increment, but a count
            # only has to tell zero calls from some.
            site_calls[key] += 1
            if special is not None:
                return special(name, fn, *args, **kwargs)
            return self._traced(name, None, fn, *args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _traced(self, name, attrs, fn, *args, **kwargs):
        """Call ``fn`` in a span carrying ``attrs``."""
        span = self.begin(name)
        span.attrs = attrs
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def _solve(self, name, fn, program, options=None):
        attrs = {"iterations": 0, "optimal": False, "nvars": program.nvars,
                 "psd_rows": sum(b.size for b in program.blocks)}
        sol = self._traced(name, attrs, fn, program, options)
        attrs.update(iterations=sol.iterations,
                     optimal=sol.status == "optimal")
        return sol

    def _order(self, name, fn, pmi, delta, options=None):
        attrs = {"certified": False}
        result = self._traced(f"relax.order{delta}", attrs, fn, pmi, delta,
                              options)
        attrs["certified"] = bool(result.certified)
        return result

    def _structured(self, name, fn, *args, **kwargs):
        return self._traced(name, {"structured": True}, fn, *args, **kwargs)

    def _candidate(self, name, fn, *args, **kwargs):
        attrs = {"certified": False}
        result = self._traced(name, attrs, fn, *args, **kwargs)
        attrs["certified"] = bool(result.certified)
        return result

    def _lm(self, name, fn, fun, x0, *args, **kwargs):
        def residual(x):
            return self._traced("pipeline.lm_residual", None, fun, x)

        attrs = {"iterations": 0}
        out = self._traced(name, attrs, fn, residual, x0, *args, **kwargs)
        attrs["iterations"] = len(out[1]) - 1
        return out


def installed_sites():
    """Keys of the sites that currently hold a benchmark wrapper."""
    return [key for key, owner, attr, _ in SITES
            if getattr(owner.__dict__.get(attr), MARK, False)]


def missing_reach(tracer, workload):
    """Sites the workload must reach that saw no call."""
    return [key for key in REACH[workload] if tracer.site_calls[key] == 0]


def check_nesting(spans):
    """Raise if a span is open, or lies outside its parent or its thread."""
    for s in spans:
        if not s.end >= s.start:
            raise BenchError(f"span {s.name} is not closed")
        p = s.parent
        if p is not None and (p.thread != s.thread
                              or not p.start <= s.start <= s.end <= p.end):
            raise BenchError(
                f"span {s.name} is not inside its parent {p.name}")


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children run on their parent's thread, one after another, so their
    durations add up to the part of the parent they cover.
    """
    covered = {}
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] = (covered.get(id(s.parent), 0.0)
                                     + s.end - s.start)
    return [s.end - s.start - covered.get(id(s), 0.0) for s in spans]


def _outermost(span):
    """True when no ancestor has the same name.  Inclusive time is summed
    over these only, because some boundaries call themselves: builder
    methods call ``variable``, ``pincushion_pmi`` calls
    ``pincushion_systems``."""
    p = span.parent
    while p is not None and p.name != span.name:
        p = p.parent
    return p is None


def layer_metrics(spans):
    """Per-layer call counts, inclusive seconds and self seconds by name."""
    by = {}
    for s, own in zip(spans, self_times(spans)):
        agg = by.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "spans": []})
        agg["calls"] += 1
        agg["self_s"] += own
        if _outermost(s):
            agg["s"] += s.end - s.start
        agg["spans"].append(s)
    return by


def per_layer(spans):
    """The per-layer metric values named in BENCHMARK.json, by name."""
    by = layer_metrics(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "spans": []}

    def get(name):
        return by.get(name, empty)

    solves = [s.attrs for s in get("sdp.solve")["spans"]]
    iters = [a["iterations"] for a in solves]
    solve_s = get("sdp.solve")["s"]
    # Relaxation attempts: every full-order solve plus every structured
    # pass.  A structured pass whose solve is not optimal yields no
    # candidate and counts as uncertified.
    orders = [s for d in (1, 2, 3) for s in get(f"relax.order{d}")["spans"]]
    structured = [s for s in get("relax.build")["spans"] if s.attrs]
    candidates = [s for s in get("relax.extract")["spans"] if s.attrs]
    attempts = len(orders) + len(structured)
    certified = sum(1 for s in orders + candidates if s.attrs["certified"])
    lm_iters = sum(s.attrs["iterations"] for s in get("pipeline.lm")["spans"])
    return {
        "calib.assemble_cost.calls": (get("calib.assemble_cost")["calls"],
                                      "count"),
        "calib.assemble_cost.s": (get("calib.assemble_cost")["s"], "s"),
        "calib.symbolic.calls": (get("calib.symbolic")["calls"], "count"),
        "calib.symbolic.s": (get("calib.symbolic")["s"], "s"),
        "calib.solve_shape.self_s": (get("calib.solve_shape")["self_s"], "s"),
        "sdp.builder.s": (get("sdp.builder")["s"], "s"),
        "sdp.solve.calls": (len(iters), "count"),
        "sdp.solve.s": (solve_s, "s"),
        "sdp.solve.iterations": (sum(iters), "count"),
        "sdp.solve.iterations_max": (max(iters, default=0), "count"),
        "sdp.solve.ms_per_iteration": (
            1000.0 * solve_s / sum(iters) if sum(iters) else 0.0, "ms"),
        "sdp.solve.not_optimal": (
            sum(1 for a in solves if not a["optimal"]), "count"),
        "sdp.solve.nvars_max": (max((a["nvars"] for a in solves), default=0),
                                "count"),
        "sdp.solve.psd_rows_max": (
            max((a["psd_rows"] for a in solves), default=0), "count"),
        "relax.build.s": (get("relax.build")["s"], "s"),
        "relax.order1.calls": (get("relax.order1")["calls"], "count"),
        "relax.order2.calls": (get("relax.order2")["calls"], "count"),
        "relax.order2.s": (get("relax.order2")["s"], "s"),
        "relax.extract.s": (get("relax.extract")["s"], "s"),
        "relax.attempts": (attempts, "count"),
        "relax.certified_ratio": (certified / attempts if attempts else 0.0,
                                  "ratio"),
        "certs.match_coefficients.s": (get("certs.match_coefficients")["s"],
                                       "s"),
        "certs.eliminate.s": (get("certs.eliminate")["s"], "s"),
        "distortion.shape_check.calls": (
            get("distortion.shape_check")["calls"], "count"),
        "distortion.shape_check.s": (get("distortion.shape_check")["s"], "s"),
        "distortion.undistort_points.s": (
            get("distortion.undistort_points")["s"], "s"),
        "pipeline.lm.calls": (get("pipeline.lm")["calls"], "count"),
        "pipeline.lm.iterations": (lm_iters, "count"),
        "pipeline.lm.s": (get("pipeline.lm")["s"], "s"),
        "pipeline.lm_residual.calls": (get("pipeline.lm_residual")["calls"],
                                       "count"),
        "pipeline.lm_residual.s": (get("pipeline.lm_residual")["s"], "s"),
        "pipeline.ba_full.s": (get("pipeline.ba_full")["s"], "s"),
        "pipeline.ba_refine.calls": (get("pipeline.ba_refine")["calls"],
                                     "count"),
        "pipeline.ba_refine.s": (get("pipeline.ba_refine")["s"], "s"),
        "pipeline.aso_loop.s": (get("pipeline.aso_loop")["s"], "s"),
        "pipeline.bootstrap_poses.s": (get("pipeline.bootstrap_poses")["s"],
                                       "s"),
        "pipeline.camera.calls": (get("pipeline.camera")["calls"], "count"),
        "pipeline.camera.s": (get("pipeline.camera")["s"], "s"),
        "pipeline.scene.s": (get("pipeline.scene")["s"], "s"),
    }
