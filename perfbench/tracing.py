"""Spans and counters recorded around calls into the gsds modules.

The package is not edited: a Tracer replaces module attributes such as
``gsds.network.validate_model`` by wrappers, in every gsds module that
bound the same function object, so calls through ``from .x import y``
are caught too.  Each wrapped call inside a job appends one span
(name, start, end, parent span index, job id) to a list in memory; the
list is written out when the benchmark ends and the per-layer metrics
are derived from it.
"""

import functools
import sys
from time import perf_counter

JOB_SPAN = "cli.job"
SUCCESSOR_SPAN = "network.successor"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = {}
        self.job = None
        self._stack = []
        self._patched = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, module, attr, span=None, after=None):
        """Record a span named ``span`` around every call made during a
        job, then call ``after(args, result)`` outside the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return original(*args, **kwargs)
            if span:
                self.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                if span:
                    self.end()
            if after:
                after(args, result)
            return result

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "gsds":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def restore(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def instrument(self, gsds):
        """Wrap the public entry points of each module the CLI reaches."""
        count = self.count

        def portrait_done(args, portrait):
            count("dynamics.states", portrait.state_count)
            # The successor array is built inside phase_portrait and is
            # not a function of its own: estimate it by building the same
            # map once more, untimed by the job, as a sibling span.
            self.begin(SUCCESSOR_SPAN)
            gsds.network.global_map(args[0], validate=False).truth_table()
            self.end()

        def simulate_done(args, result):
            count("continuous.events", len(result.events))
            count("continuous.phases", len(result.phases))

        hooks = [
            (gsds.network, "load_model", "network.load", None),
            (gsds.polyring, "parse_poly", "polyring.parse", None),
            (gsds.network, "validate_model", "network.validate",
             lambda a, r: count("network.validate_calls")),
            (gsds.dynamics, "phase_portrait", "dynamics.portrait", portrait_done),
            (gsds.dynamics, "portrait_report", "dynamics.render", None),
            (gsds.dynamics, "transitions_dot", "dynamics.render", None),
            (gsds.dynamics, "attractor_summary_dot", "dynamics.render", None),
            (gsds.infer, "interpolate", "infer.interpolate",
             lambda a, r: count("infer.interpolate_calls")),
            (gsds.infer, "sparsest_interpolate", "infer.sparsest",
             lambda a, r: count("infer.coordinates_solved")),
            (gsds.infer, "constrained_interpolate", None,
             lambda a, r: count("infer.subsets_tried")),
            (gsds.infer, "solution_space", "infer.solution_space",
             lambda a, r: count("infer.basis_polys", r.dimension)),
            (gsds.continuous, "hybrid_simulate", "continuous.simulate",
             simulate_done),
            (gsds.translate, "discretize", "translate.discretize",
             lambda a, r: count("translate.discretize_calls")),
        ]
        for module, attr, span, after in hooks:
            self.wrap(module, attr, span, after)

    def layer_metrics(self, passes):
        """Per-layer metrics for one pass over the job list: totals over
        the traced passes divided by their number."""
        total, own = {}, {}
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                children[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, children):
            own[name] = own.get(name, 0.0) + (end - start - inner)
        c = self.counts
        t, s = total.get, own.get
        solved, tried = c.get("infer.coordinates_solved", 0), c.get("infer.subsets_tried", 0)
        events = c.get("continuous.events", 0)
        per_pass = {
            "network.load_s": s("network.load", 0.0),
            "polyring.parse_s": t("polyring.parse", 0.0),
            "network.validate_s": t("network.validate", 0.0),
            "network.validate_calls": c.get("network.validate_calls", 0),
            "network.successor_s": t(SUCCESSOR_SPAN, 0.0),
            "dynamics.portrait_s": t("dynamics.portrait", 0.0),
            "dynamics.traversal_s": s("dynamics.portrait", 0.0) - t(SUCCESSOR_SPAN, 0.0),
            "dynamics.render_s": t("dynamics.render", 0.0),
            "dynamics.states": c.get("dynamics.states", 0),
            "infer.interpolate_s": t("infer.interpolate", 0.0),
            "infer.interpolate_calls": c.get("infer.interpolate_calls", 0),
            "infer.sparsest_s": t("infer.sparsest", 0.0),
            "infer.subsets_tried": tried,
            "infer.solution_space_s": s("infer.solution_space", 0.0),
            "infer.basis_polys": c.get("infer.basis_polys", 0),
            "continuous.simulate_s": s("continuous.simulate", 0.0),
            "continuous.events": events,
            "continuous.phases": c.get("continuous.phases", 0),
            "translate.discretize_calls": c.get("translate.discretize_calls", 0),
            "translate.discretize_s": t("translate.discretize", 0.0),
            "cli.self_s": s(JOB_SPAN, 0.0),
        }
        out = {k: v / passes for k, v in per_pass.items()}
        out["infer.subset_hit_ratio"] = solved / tried if tried else 0.0
        out["continuous.us_per_event"] = (
            1e6 * s("continuous.simulate", 0.0) / events if events else 0.0
        )
        return out
