"""Per-layer spans and counters, recorded by wrapping the engine's public
functions from outside the engine.

A span group is a set of functions of one layer.  Only the outermost call
into a group is counted and timed, so recursion and re-entry through module
globals (``differentiate``, ``rref``) add nothing.  A span's self time is its
duration minus the durations of the spans of other groups that ran inside
it.  Names bound by ``from ... import`` in other engine modules (such as
``catalog.weyl`` or ``ode2.is_zero_many``) are patched as well, and
``uninstall`` restores every original.  The cached properties of
``CurvaturePackage`` are wrapped too, so the Levi-Civita assembly is timed
as ``curvature.curvature_package`` (the Weyl tensor itself as
``curvature.weyl``) whichever public function reaches it.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from functools import cached_property, wraps
from time import perf_counter

LIE_FUNCTIONS = ("jacobi_check", "killing_form", "exterior_square_check",
                 "commutator_closure_check", "invariant_bilinear_form",
                 "invariant_three_form", "symmetric_inertia")
# groups reported with a call count and self time, and with self time only
CALL_GROUPS = ("expr.parse", "expr.differentiate", "expr.evaluate",
               "zerotest.is_zero_many", "exterior", "liealg.rref",
               "liealg.nullspace")
SELF_TIME_GROUPS = ("curvature.curvature_package", "curvature.weyl",
                    "curvature.symbolic_inverse", "ode3", "ode2", "monge") \
    + tuple(f"liealg.{n}" for n in LIE_FUNCTIONS)
_ARITHMETIC = ("__add__", "__sub__", "__neg__")
_EXTERIOR_CLASSES = ("VectorField", "DifferentialForm", "SymmetricForm")


def _module_functions(mod):
    return [name for name, fn in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__]


def _class_methods(cls):
    return [name for name, fn in vars(cls).items()
            if inspect.isfunction(fn)
            and (not name.startswith("_") or name in _ARITHMETIC)]


class Tracer:
    def __init__(self, engine, clock=perf_counter):
        self.engine = engine
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._frames = []  # child seconds of each open span, innermost last
        self._patches = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, group, fn, on_error=None):
        depth, frames = self._depth, self._frames
        calls, self_s, clock = self.calls, self.self_s, self.clock

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[group]:
                return fn(*args, **kwargs)
            depth[group] += 1
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span = clock() - t0
                frames.pop()
                depth[group] -= 1
                calls[group] += 1
                self_s[group] += span - frame[0]
                if frames:
                    frames[-1][0] += span
        return wrapper

    def _cached_span(self, group, prop):
        """A cached property whose builder is timed as a span of group."""
        wrapped = cached_property(self._span(group, prop.func))
        wrapped.__set_name__(None, prop.attrname)
        return wrapped

    def _counting(self, fn, count):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(result)
            return result
        return wrapper

    # -- counters ---------------------------------------------------------

    def _in_zero_test(self):
        return self._depth["zerotest.is_zero_many"] > 0

    def _count_exprs(self, fn):
        group = "zerotest.is_zero_many"
        inner = self._span(group, fn)
        depth, counts = self._depth, self.counts

        @wraps(fn)
        def wrapper(named, *args, **kwargs):
            if not depth[group]:
                counts["zerotest.exprs_tested"] += len(named)
            return inner(named, *args, **kwargs)
        return wrapper

    def _sampled(self, result):
        if self._in_zero_test():
            self.counts["zerotest.points_attempted"] += 1

    def _admitted(self, result):
        if self._in_zero_test() and not result:
            self.counts["zerotest.points_rejected"] += 1

    def _eval_error(self, exc):
        # a sample point whose evaluation raises is rejected and resampled
        if isinstance(exc, self.engine.expr.EvalError) and self._in_zero_test():
            self.counts["zerotest.points_rejected"] += 1

    def _components(self, result):
        self.counts["curvature.components_tested"] += len(result)

    # -- installation -----------------------------------------------------

    def _plan(self):
        e = self.engine
        plan = []  # (owner, attribute, wrapper factory)
        for name in ("parse",):
            plan.append((e.expr, name, lambda f: self._span("expr.parse", f)))
        for name in ("differentiate", "diff_n"):
            plan.append((e.expr, name, lambda f: self._span("expr.differentiate", f)))
        for name in ("evaluate", "eval_numeric", "evaluate_exact"):
            plan.append((e.expr, name, lambda f: self._span(
                "expr.evaluate", f, on_error=self._eval_error)))
        plan.append((e.zerotest, "is_zero_many", self._count_exprs))
        plan.append((e.zerotest.DomainBox, "sample",
                     lambda f: self._counting(f, self._sampled)))
        plan.append((e.zerotest.DomainBox, "admits",
                     lambda f: self._counting(f, self._admitted)))
        for name in _module_functions(e.exterior):
            plan.append((e.exterior, name, lambda f: self._span("exterior", f)))
        for cls_name in _EXTERIOR_CLASSES:
            cls = getattr(e.exterior, cls_name)
            for name in _class_methods(cls):
                plan.append((cls, name, lambda f: self._span("exterior", f)))
        # the Levi-Civita package is assembled lazily, in its cached
        # properties, whichever public function reaches it first
        package = e.curvature.CurvaturePackage
        for name, prop in vars(package).items():
            if isinstance(prop, cached_property):
                group = "curvature.weyl" if name == "weyl_low" \
                    else "curvature.curvature_package"
                plan.append((package, name,
                             lambda p, g=group: self._cached_span(g, p)))
        plan.append((package, "covariant_derivative_02",
                     lambda f: self._span("curvature.curvature_package", f)))
        for name in ("curvature_package", "cotton3", "einstein_residual",
                     "weyl_connection_residual"):
            plan.append((e.curvature, name,
                         lambda f: self._span("curvature.curvature_package", f)))
        for name in ("weyl", "weyl_square"):
            plan.append((e.curvature, name,
                         lambda f: self._span("curvature.weyl", f)))
        plan.append((e.curvature, "symbolic_inverse",
                     lambda f: self._span("curvature.symbolic_inverse", f)))
        plan.append((e.curvature, "tensor_zero_exprs",
                     lambda f: self._counting(f, self._components)))
        for mod in (e.ode3, e.ode2, e.monge):
            group = mod.__name__.rsplit(".", 1)[-1]
            for name in _module_functions(mod):
                plan.append((mod, name, lambda f, g=group: self._span(g, f)))
        for name in LIE_FUNCTIONS + ("rref", "nullspace"):
            plan.append((e.liealg, name,
                         lambda f, g=f"liealg.{name}": self._span(g, f)))
        return plan

    def install(self):
        wrapped = {}
        for owner, name, factory in self._plan():
            original = vars(owner)[name]
            if id(original) in wrapped:
                continue
            wrapper = factory(original)
            wrapped[id(original)] = (original, wrapper)
            self._patch(owner, name, original, wrapper)
        # names bound by `from module import name` elsewhere in the engine
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("odegeom.") or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, value, hit[1])

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict:
        e = self.engine
        out = {}
        for group in CALL_GROUPS:
            out[f"{group}.calls"] = self.calls[group]
            out[f"{group}.self_s"] = self.self_s[group]
        for group in SELF_TIME_GROUPS:
            out[f"{group}.self_s"] = self.self_s[group]
        attempted = self.counts["zerotest.points_attempted"]
        rejected = self.counts["zerotest.points_rejected"]
        out["zerotest.points_attempted"] = attempted
        out["zerotest.accept_ratio"] = \
            (attempted - rejected) / attempted if attempted else 0.0
        out["zerotest.exprs_tested"] = self.counts["zerotest.exprs_tested"]
        out["curvature.components_tested"] = \
            self.counts["curvature.components_tested"]
        out["expr.intern_nodes"] = len(e.expr._intern)
        out["expr.dcache_entries"] = len(e.expr._dcache)
        return out
