"""Spans around the public functions of each deltadyn layer.

The package is not modified: `install` wraps each named function from
outside and rebinds the wrapper wherever a deltadyn module holds the
original (its defining module and every module that imported the
name); `Flow.to_monomial` is patched on the class.  Spans nest on a
stack and are kept in memory; `request_summary` folds one request's
spans into per-layer figures once the request is over.
"""

import sys
import time

# (module, attribute, span name).  The span names are the layer names
# of the per-layer metrics.
TARGETS = (
    ("deltadyn.series", "compositional_inverse", "series.compositional_inverse"),
    ("deltadyn.series", "seq_mul", "series.seq_mul"),
    ("deltadyn.umbral", "basic_sequence_from_delta", "umbral.basic_sequence_from_delta"),
    ("deltadyn.umbral", "basic_sequence_by_recurrence", "umbral.basic_sequence_by_recurrence"),
    ("deltadyn.autonomous", "autonomous_sequence", "autonomous.autonomous_sequence"),
    ("deltadyn.autonomous", "group_law_residuals", "autonomous.group_law_residuals"),
    ("deltadyn.flows", "taylor_compose", "flows.taylor_compose"),
    ("deltadyn.deltaflow", "delta_flow", "deltaflow.delta_flow"),
    ("deltadyn.deltaflow", "verify_delta_ode", "deltaflow.verify_delta_ode"),
    ("deltadyn.solver", "iterate", "solver.iterate"),
    ("deltadyn.solver", "solve_forward", "solver.solve_forward"),
    ("deltadyn.numeric", "numeric_closed_form_check", "numeric.numeric_closed_form_check"),
    ("deltadyn.scalars", "format_scalar", "scalars.format_scalar"),
    ("deltadyn.verifysuite", "run_checks", "verifysuite.run_checks"),
)
ROOT_SPAN = "cli"
BASIS = "umbral.basic_sequence_from_delta"


class Tracer:
    """Collects the spans of one request at a time."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, extra]
        self.stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap_basis(self, fn):
        """Span plus build detection: a call that adds a cache miss built a basis."""
        inner = self.wrap(BASIS, fn)
        spans = self.spans

        def traced(Q, depth):
            before = fn.cache_info().misses
            sid = len(spans)
            out = inner(Q, depth)
            if fn.cache_info().misses > before:
                spans[sid][4] = depth
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        flows = sys.modules["deltadyn.flows"]
        for modname, attr, name in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap_basis(orig) if name == BASIS else self.wrap(name, orig)
            _rebind(orig, wrapper)
        flows.Flow.to_monomial = self.wrap("flows.Flow.to_monomial", flows.Flow.to_monomial)

    def call_root(self, fn, *args):
        """Run the request's root call as the span named ``cli``."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def request_summary(self):
        """Per-layer figures of the spans recorded since the last call.

        ``layers`` maps a span name to [calls, total seconds, self
        seconds]; self time is a span's duration minus its children's.
        The self times of a request sum to its root span's duration.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers = {}
        builds = []
        groups = []
        root_s = 0.0
        for i, (name, parent, t0, t1, extra) in enumerate(spans):
            dur = t1 - t0
            rec = layers.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
            if parent < 0:
                root_s += dur
            if name == BASIS and extra is not None:
                builds.append([extra, dur])
            if name == "verifysuite.run_checks":
                groups.append(dur)
        del spans[:]
        return {"layers": layers, "builds": builds, "run_checks_s": groups, "root_s": root_s}


def _rebind(orig, wrapper):
    for modname, mod in list(sys.modules.items()):
        if modname != "deltadyn" and not modname.startswith("deltadyn."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
