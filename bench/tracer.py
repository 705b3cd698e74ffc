"""Per-layer tracing of quarticvp from outside the package.

The tracer replaces the functions listed in WRAPPED (the public ones of each
layer, plus the entry of the local classifier) with timing wrappers in
every quarticvp module that binds them (the package uses
``from .x import y``, so ``blowup.substitute`` is patched as well as
``poly.substitute``), and counts GaussianRational constructions by wrapping
``GaussianRational.__init__``.  Nothing under ``src/`` changes; uninstalling
restores every original binding.

Each call becomes a span: name, start, end and parent span.  Spans are
kept in flat arrays so a long traced run stays small in memory.  Counts are
taken at the same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# (module, function, span name): every call of the function becomes a span.
# The blowup-based local classifier is entered through _classify_germ, both
# by classify_local and directly by the D-E refinement, so that is where
# its span goes.
WRAPPED = (
    ("field", "sqrt_if_exists", "field.sqrt_if_exists"),
    ("poly", "parse", "poly.parse"),
    ("poly", "linear_change", "poly.linear_change"),
    ("poly", "substitute", "poly.substitute"),
    ("poly", "dehomogenize", "poly.dehomogenize"),
    ("poly", "weighted_order", "poly.weighted_order"),
    ("quartic", "normalize_at_point", "quartic.normalize_at_point"),
    ("quartic", "normal_form", "quartic.normal_form"),
    ("quartic", "coefficients", "quartic.coefficients"),
    ("singclass", "classify", "singclass.classify"),
    ("singclass", "_classify_germ", "singclass.classify_local"),
    ("blowup", "run_toric_description", "blowup.run_toric_description"),
    ("blowup", "step_transform", "blowup.step_transform"),
    ("vpanalyzer", "enumerate_vp", "vpanalyzer.enumerate_vp"),
    ("vpanalyzer", "analyze_weight", "vpanalyzer.analyze_weight"),
    ("vpanalyzer", "direct_vp", "vpanalyzer.direct_vp"),
    ("generator", "generate", "generator.generate"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(name for _, _, name in WRAPPED)

# per-layer metrics: (name, unit); every traced run prints all of them
PER_LAYER = (
    ("field.gr_new", "count"),
    ("field.sqrt_if_exists.calls", "count"),
    ("poly.parse.calls", "count"),
    ("poly.parse.busy_s", "s"),
    ("poly.linear_change.calls", "count"),
    ("poly.linear_change.busy_s", "s"),
    ("poly.substitute.calls", "count"),
    ("poly.substitute.busy_s", "s"),
    ("poly.substitute.self_s", "s"),
    ("poly.dehomogenize.calls", "count"),
    ("poly.weighted_order.calls", "count"),
    ("poly.weighted_order.busy_s", "s"),
    ("quartic.normalize_at_point.calls", "count"),
    ("quartic.normalize_at_point.busy_s", "s"),
    ("quartic.normal_form.calls", "count"),
    ("quartic.normal_form.busy_s", "s"),
    ("quartic.normal_form.self_s", "s"),
    ("quartic.coefficients.calls", "count"),
    ("singclass.classify.calls", "count"),
    ("singclass.classify.busy_s", "s"),
    ("singclass.classify.self_s", "s"),
    ("singclass.classify_local.calls", "count"),
    ("blowup.run_toric_description.calls", "count"),
    ("blowup.run_toric_description.busy_s", "s"),
    ("blowup.run_toric_description.self_s", "s"),
    ("blowup.step_transform.calls", "count"),
    ("blowup.step_transform.busy_s", "s"),
    ("blowup.step_transform.distinct_frac", "ratio"),
    ("vpanalyzer.enumerate_vp.calls", "count"),
    ("vpanalyzer.enumerate_vp.busy_s", "s"),
    ("vpanalyzer.analyze_weight.calls", "count"),
    ("vpanalyzer.analyze_weight.busy_s", "s"),
    ("vpanalyzer.analyze_weight.self_s", "s"),
    ("vpanalyzer.direct_vp.calls", "count"),
    ("vpanalyzer.direct_vp.busy_s", "s"),
    ("vpanalyzer.verdicts", "count"),
    ("generator.generate.calls", "count"),
    ("generator.generate.busy_s", "s"),
    ("generator.generate.self_s", "s"),
    ("generator.validations", "count"),
    ("generator.realized", "count"),
    ("generator.refused", "count"),
    ("generator.yield", "ratio"),
    ("generator.realize_s", "s"),
    ("generator.refuse_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Span recorder that patches quarticvp while installed."""

    def __init__(self):
        self.names = []  # span names that were actually patched
        self.name_ix = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.top = array("b")  # 1 when no enclosing span has the same name
        self.raised = {}  # span -> exception class name
        self.missing = []
        self.gr_new = 0
        self.verdicts = 0
        self._stack = []
        self._depth = []
        self._step_inputs = set()
        self._step_distinct = 0
        self._patches = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, ix, fn, after=None, before=None):
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        name_ix, parent = self.name_ix, self.parent
        start, end, child, top = self.start, self.end, self.child, self.top

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = len(name_ix)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            top.append(depth[ix] == 0)
            child.append(0.0)
            end.append(0.0)
            depth[ix] += 1
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[span] = type(exc).__name__
                raise
            finally:
                t = clock()
                end[span] = t
                stack.pop()
                depth[ix] -= 1
                if stack:
                    child[stack[-1]] += t - start[span]
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _record_step_input(self, args, kwargs):
        f = args[0] if args else kwargs["f"]
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        self._step_inputs.add((hash(f), kind))

    def _count_verdicts(self, result):
        self.verdicts += len(result)

    def begin_job(self):
        self._step_inputs = set()

    def end_job(self):
        self._step_distinct += len(self._step_inputs)
        self._step_inputs = set()

    # -- patching -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every quarticvp module for the duration of the block."""
        import importlib

        for mod_name, _, _ in WRAPPED:
            importlib.import_module(f"quarticvp.{mod_name}")
        pkg_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "quarticvp" or n.startswith("quarticvp."))
        ]
        hooks = {
            "blowup.step_transform": {"before": self._record_step_input},
            "vpanalyzer.enumerate_vp": {"after": self._count_verdicts},
        }
        try:
            for mod_name, fn_name, name in WRAPPED:
                original = getattr(sys.modules[f"quarticvp.{mod_name}"], fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                self.names.append(name)
                self._depth.append(0)
                wrapper = self._wrap(len(self.names) - 1, original, **hooks.get(name, {}))
                for owner in pkg_modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, value))
                            setattr(owner, attr, wrapper)
            self._patch_gr_init()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch_gr_init(self):
        field = sys.modules.get("quarticvp.field")
        cls = getattr(field, "GaussianRational", None)
        if cls is None:
            self.missing.append("field.GaussianRational")
            return
        original = cls.__dict__.get("__init__")
        if original is None:
            self.missing.append("field.GaussianRational.__init__")
            return
        tracer = self

        def counting_init(obj, *args, **kwargs):
            tracer.gr_new += 1
            original(obj, *args, **kwargs)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = counting_init

    # -- results --------------------------------------------------------------

    def span_counts(self) -> dict:
        counts = {name: 0 for name in self.names}
        for ix in self.name_ix:
            counts[self.names[ix]] += 1
        return counts

    def metrics(self, overhead_frac: float) -> dict:
        n = len(self.names)
        calls = [0] * n
        busy = [0.0] * n
        self_s = [0.0] * n
        for span, ix in enumerate(self.name_ix):
            dur = self.end[span] - self.start[span]
            calls[ix] += 1
            if self.top[span]:
                busy[ix] += dur
            self_s[ix] += dur - self.child[span]

        def index(name):
            return self.names.index(name) if name in self.names else -1

        def stat(name, kind):
            ix = index(name)
            if ix < 0:
                return 0
            return {"calls": calls, "busy_s": busy, "self_s": self_s}[kind][ix]

        gen_ix = index("generator.generate")
        classify_ix = index("singclass.classify")
        validations = realized = refused = 0
        realize_s = refuse_s = 0.0
        for span, ix in enumerate(self.name_ix):
            if ix == gen_ix and self.top[span]:
                dur = self.end[span] - self.start[span]
                outcome = self.raised.get(span)
                if outcome is None:
                    realized += 1
                    realize_s += dur
                elif outcome == "GenerationError":
                    refused += 1
                    refuse_s += dur
            elif ix == classify_ix and self._has_ancestor(span, gen_ix):
                validations += 1

        out = {"field.gr_new": self.gr_new}
        for metric, _unit in PER_LAYER:
            if metric in out:
                continue
            layer_fn, _, kind = metric.rpartition(".")
            if kind in ("calls", "busy_s", "self_s") and layer_fn in SPAN_NAMES:
                out[metric] = stat(layer_fn, kind)
        step_calls = out["blowup.step_transform.calls"]
        out["blowup.step_transform.distinct_frac"] = (
            self._step_distinct / step_calls if step_calls else 0.0
        )
        out["vpanalyzer.verdicts"] = self.verdicts
        out["generator.validations"] = validations
        out["generator.realized"] = realized
        out["generator.refused"] = refused
        out["generator.yield"] = realized / validations if validations else 0.0
        out["generator.realize_s"] = realize_s
        out["generator.refuse_s"] = refuse_s
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name, _unit in PER_LAYER}

    def _has_ancestor(self, span: int, ix: int) -> bool:
        if ix < 0:
            return False
        p = self.parent[span]
        while p >= 0:
            if self.name_ix[p] == ix:
                return True
            p = self.parent[p]
        return False
