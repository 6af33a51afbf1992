"""Span tracing of the bergman_carleson layers from outside the package.

``Tracer.install`` replaces every public function of each traced module
with a wrapper, in every ``bergman_carleson`` module that holds the name:
``from .x import y`` binds ``y`` at import time, so patching only the
defining module would miss calls made through the importing modules.
The wrapper records one span per call (name, start, end, parent) and
adds the layer counters below.  Spans stay in memory until the caller
writes them out.

A layer's self time is the time of its spans minus the time of their
child spans.  ``<module>.calls`` counts calls that cross into the module
from another module or from the benchmark itself; calls a module makes
to its own public functions get a span but are not counted again.

Counters, all measured at the layer boundary:

- ``quadrature.nodes``: points handed to integrands, counted by wrapping
  the evaluator passed to each ``integrate*``/``radial_integral`` call;
- ``quadrature.tolerance_failures``: ``ToleranceNotReached`` leaving the
  quadrature layer;
- ``linalg.eigen_solves``: Hermitian matrices sent to numpy's
  ``eigvalsh``/``eigh`` while package code is on the stack;
- ``measures.square_mass_builds`` / ``measures.residual_builds``: calls of
  ``PartitionMasses.square_masses`` and reads of ``residual_matrix``;
- ``dyadic.cells`` / ``dyadic.second_route_iterations``: table cells read
  by ``dyadic_norm`` and the iterations it reports (or gives up after);
- ``weights.averages``: ``averaged_weight`` calls;
- ``analytic.grid_points``: centers in every ``GridReport`` a traced call
  returns, plus one per ``necessity_lower_bound`` call;
- ``experiments.write_s`` / ``experiments.bytes_written``: time spent in
  ``run_scenario`` outside ``build_report``, and the bytes of the run
  directory it returns.

Wrappers pass arguments and results through unchanged, so a traced pass
must reproduce the untraced results bit for bit; the benchmark checks it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "bergman_carleson"
MODULES = (
    "disc_geometry",
    "quadrature",
    "linalg",
    "measures",
    "dyadic",
    "weights",
    "analytic",
    "volterra",
    "experiments",
    "plotting",
    "cli",
)
COUNTERS = (
    "quadrature.nodes",
    "quadrature.tolerance_failures",
    "linalg.eigen_solves",
    "measures.square_mass_builds",
    "measures.residual_builds",
    "dyadic.cells",
    "dyadic.second_route_iterations",
    "weights.averages",
    "analytic.grid_points",
    "experiments.bytes_written",
)
_FIELD_ENTRIES = ("integrate", "integrate_polar_rect", "integrate_annulus")
_FN_ENTRIES = ("integrate_values", "integrate_scalar", "radial_integral")


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and totals of the previous pass."""
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.write_s = 0.0
        self._build_s = 0.0
        self._run_build_mark = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self._grid_report = importlib.import_module(f"{PACKAGE}.analytic").GridReport
        originals = {}
        for module in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    originals[id(obj)] = self._wrap(module, name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        measures = importlib.import_module(f"{PACKAGE}.measures")
        masses_cls = measures.PartitionMasses
        self._patch(
            masses_cls,
            "square_masses",
            self._wrap(
                "measures",
                "PartitionMasses.square_masses",
                masses_cls.square_masses,
                counter="measures.square_mass_builds",
            ),
        )
        residual = self._wrap(
            "measures",
            "PartitionMasses.residual_matrix",
            masses_cls.residual_matrix.fget,
            counter="measures.residual_builds",
        )
        self._patch(masses_cls, "residual_matrix", property(residual))

        for name in ("eigvalsh", "eigh"):
            self._patch(np.linalg, name, self._count_eigen(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, replacement) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, module: str, name: str, fn, counter: str | None = None):
        stack = self.stack
        clock = time.perf_counter
        qualname = f"{module}.{name}"
        before, after = self._hooks(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != module
            if boundary:
                self.calls[module] += 1
            if counter is not None:
                self.counts[counter] += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            spans = self.spans
            sid = len(spans)
            spans.append(None)
            entry = [module, 0.0, sid]
            stack.append(entry)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(args, kwargs, None, exc, boundary, 0.0)
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self.self_s[module] += duration - entry[1]
                if parent is not None:
                    parent[1] += duration
                spans[sid] = (sid, -1 if parent is None else parent[2], qualname, t0, t1)
            if after is not None:
                after(args, kwargs, result, None, boundary, duration)
            return result

        return wrapper

    def _count_eigen(self, fn):
        stack = self.stack

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if stack:
                shape = np.shape(a)
                self.counts["linalg.eigen_solves"] += int(np.prod(shape[:-2], dtype=np.int64))
            return fn(a, *args, **kwargs)

        return counted

    def _counting(self, fn):
        if getattr(fn, "_bench_counting", False):
            return fn

        def counted(z, *args, **kwargs):
            self.counts["quadrature.nodes"] += np.shape(z)[0] if np.ndim(z) else 1
            return fn(z, *args, **kwargs)

        counted._bench_counting = True
        return counted

    def _hooks(self, module: str, name: str):
        """(before, after) callbacks adding the counters of one function."""
        if module == "quadrature" and name in _FIELD_ENTRIES + _FN_ENTRIES:
            from bergman_carleson.errors import ToleranceNotReached

            def before(args, kwargs):
                key = "field" if name in _FIELD_ENTRIES else "fn"
                if args:
                    args = (self._wrap_integrand(name, args[0]),) + args[1:]
                elif key in kwargs:
                    kwargs = dict(kwargs, **{key: self._wrap_integrand(name, kwargs[key])})
                return args, kwargs

            def after(args, kwargs, result, exc, boundary, duration):
                if boundary and isinstance(exc, ToleranceNotReached):
                    self.counts["quadrature.tolerance_failures"] += 1

            return before, after
        if (module, name) == ("dyadic", "dyadic_norm"):

            def after(args, kwargs, result, exc, boundary, duration):
                if exc is not None:
                    self.counts["dyadic.second_route_iterations"] += getattr(exc, "iterations", None) or 0
                    return
                self.counts["dyadic.second_route_iterations"] += result.iterations
                self.counts["dyadic.cells"] += 2 ** (result.depth + 1) - 1

            return None, after
        if (module, name) == ("weights", "averaged_weight"):
            return None, lambda *a: self.counts.update(("weights.averages",))
        if (module, name) == ("analytic", "necessity_lower_bound"):
            return None, lambda *a: self.counts.update(("analytic.grid_points",))
        if (module, name) == ("experiments", "build_report"):

            def after(args, kwargs, result, exc, boundary, duration):
                self._build_s += duration

            return None, after
        if (module, name) == ("experiments", "run_scenario"):
            # build_report spans nest inside run_scenario; its time is
            # the difference of the running build total.
            def before(args, kwargs):
                self._run_build_mark = self._build_s
                return args, kwargs

            def after(args, kwargs, result, exc, boundary, duration):
                if exc is None:
                    self.write_s += duration - (self._build_s - self._run_build_mark)
                    self.counts["experiments.bytes_written"] += sum(
                        p.stat().st_size for p in Path(result).iterdir()
                    )

            return before, after
        return None, self._count_grid_points

    def _count_grid_points(self, args, kwargs, result, exc, boundary, duration):
        if isinstance(result, self._grid_report):
            self.counts["analytic.grid_points"] += len(result.values)

    def _wrap_integrand(self, name: str, target):
        if name in _FIELD_ENTRIES:
            counted = self._counting(target.evaluator)
            if counted is target.evaluator:
                return target
            return dataclasses.replace(target, evaluator=counted)
        return self._counting(target)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        metrics = {}
        for module in MODULES:
            metrics[f"{module}.calls"] = float(self.calls[module])
            metrics[f"{module}.self_s"] = float(self.self_s[module])
        for name in COUNTERS:
            metrics[name] = float(self.counts[name])
        metrics["experiments.write_s"] = float(self.write_s)
        return metrics

    def write_spans(self, path: Path) -> None:
        """Write the spans of the last pass as CSV: id, parent, name, start, end."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for sid, parent, qualname, t0, t1 in self.spans:
                out.write(f"{sid},{parent},{qualname},{t0 - origin:.9f},{t1 - origin:.9f}\n")
