"""Span tracer that wraps banachkit from outside.

The package binds names with ``from .x import f``, so a function lives
under several module attributes at once (``multistart_maximize`` is
bound in search, linmaps, averages, summing, snumbers and gauges).
``Tracer.install`` wraps every public function of every package module
once and writes the wrapper into each binding site: module globals,
the package namespace and dict registries such as ``suites.SUITES``.
It also wraps the methods of the space classes, ``GrowthSequence`` and
``SuiteReport``, and ``numpy.linalg`` as the package calls it.
``uninstall`` puts every original back, so untraced passes run the
package unchanged. Nothing under ``src/`` is edited.

A span is (id, name, start, end, parent, op). Spans stay in memory in
a flat int64 array until the run ends. A layer is the module part of a
span name; its self time is the span durations minus the time their
child spans cover.
"""

import importlib
import inspect
import math
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import banachkit

LAYERS = ("sequences", "growth", "spaces", "search", "linmaps", "averages", "snumbers",
          "summing", "pipeline", "gauges", "reports", "suites", "cli")
#: classes whose methods are wrapped, by module
CLASSES = {
    "spaces": ("SeqSpace", "NormedSpace", "SubspaceSpace"),
    "growth": ("GrowthSequence",),
    "reports": ("SuiteReport",),
}
#: the numpy.linalg functions the package calls
LINALG = ("svd", "eig", "eigvals", "qr", "det", "norm")
SERIALIZERS = ("reports.SuiteReport.to_json", "reports.SuiteReport.to_dict",
               "reports.SuiteReport.to_csv")
FIELDS = 6  # id, name id, start ns, end ns, parent id, op id

#: per-layer metric -> (unit, better, the end-to-end metric it should move)
METRICS = {
    "spaces.norm.calls": ("count", "lower", "wall_s on verify-all; op_s.p50 on desk-calls"),
    "spaces.norm.self_s": ("s", "lower", "wall_s on verify-all; op_s.p50 on desk-calls"),
    "sequences.self_s": ("s", "lower", "wall_s on verify-all; op_s.p50 on desk-calls"),
    "spaces.norm_rows.calls": ("count", "lower", "wall_s, op_s.p90 on sampling"),
    "spaces.norm_rows.rows": ("count", "lower", "wall_s, op_s.p90 on sampling"),
    "spaces.norm_rows.self_s": ("s", "lower", "wall_s, op_s.p90 on sampling"),
    "spaces.rows_per_call": ("ratio", "higher", "wall_s, op_s.p90 on sampling"),
    "search.multistart.calls": ("count", "lower",
                                "wall_s on verify-all; lower_tightness on desk-calls"),
    "search.objective.evals": ("count", "lower",
                               "wall_s on verify-all; lower_tightness on desk-calls"),
    "search.objective.improving": ("count", "higher",
                                   "wall_s on verify-all; lower_tightness on desk-calls"),
    "search.accept_ratio": ("ratio", "higher",
                            "wall_s on verify-all; lower_tightness on desk-calls"),
    "search.project.calls": ("count", "lower",
                             "wall_s on verify-all; lower_tightness on desk-calls"),
    "search.self_s": ("s", "lower", "wall_s on verify-all; lower_tightness on desk-calls"),
    "linmaps.operator_norm.calls": ("count", "lower", "op_s.p50 on desk-calls"),
    "linmaps.operator_norm.exact_share": ("ratio", "higher", "op_s.p50 on desk-calls"),
    "linmaps.self_s": ("s", "lower", "op_s.p50 on desk-calls"),
    "linmaps.sign_patterns.rows": ("count", "lower", "peak_rss_mb on sampling"),
    "linmaps.sign_patterns.bytes": ("B", "lower",
                                    "peak_rss_mb on sampling (computed from array shapes)"),
    "averages.enum.patterns": ("count", "lower", "wall_s, peak_rss_mb on sampling"),
    "averages.mc.samples": ("count", "lower", "wall_s, peak_rss_mb on sampling"),
    "averages.self_s": ("s", "lower", "wall_s, peak_rss_mb on sampling"),
    "pipeline.select_block.calls": ("count", "lower", "wall_s on sampling"),
    "pipeline.blocks.met_ratio": ("ratio", "higher", "wall_s on sampling"),
    "pipeline.self_s": ("s", "lower", "wall_s on sampling"),
    "gauges.calls": ("count", "lower", "wall_s, op_s.p90 on verify-all"),
    "gauges.self_s": ("s", "lower", "wall_s, op_s.p90 on verify-all"),
    "summing.calls": ("count", "lower", "wall_s, op_s.p90 on verify-all"),
    "summing.self_s": ("s", "lower", "wall_s, op_s.p90 on verify-all"),
    "snumbers.calls": ("count", "lower", "op_s.p50 on desk-calls"),
    "snumbers.self_s": ("s", "lower", "op_s.p50 on desk-calls"),
    "linalg.svd.calls": ("count", "lower", "op_s.p50 on desk-calls"),
    "linalg.eig.calls": ("count", "lower", "op_s.p50 on desk-calls"),
    "linalg.self_s": ("s", "lower", "op_s.p50 on desk-calls"),
    "growth.self_s": ("s", "lower", "setup_s, op_s.p50 on desk-calls; wall_s on verify-all"),
    "reports.serialize_s": ("s", "lower",
                            "setup_s, op_s.p50 on desk-calls; wall_s on verify-all"),
    "cli.calls": ("count", "lower", "setup_s, op_s.p50 on desk-calls; wall_s on verify-all"),
    "cli.self_s": ("s", "lower", "setup_s, op_s.p50 on desk-calls; wall_s on verify-all"),
    "suites.self_s": ("s", "lower", "setup_s, op_s.p50 on desk-calls; wall_s on verify-all"),
    "trace.spans": ("count", "lower", "the tracing overhead"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s of a pass"),
}
#: metrics that are counts, a pure function of the seed; the rest are times
COUNTS = tuple(k for k, (unit, _, _) in METRICS.items() if unit != "s")


def _package_modules():
    return {name: importlib.import_module(f"banachkit.{name}") for name in LAYERS}


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = array("q")
        self.counters = Counter()
        self.op = -1
        self.active = True  # cleared while bench checks call the package
        self._next_id = 0
        self._stack = [-1]
        self._undo = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, after=None, before=None):
        nid = self._name_id(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.extend((sid, nid, t0, t1, parent, self.op))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self):
        """Forget recorded spans and counters; keep the patches."""
        del self.spans[:]
        self.counters.clear()
        self._next_id = 0
        self._stack[:] = [-1]

    # -- argument and result hooks -----------------------------------------

    def _search_args(self, args, kwargs):
        """Wrap the objective and project handed to multistart_maximize."""
        c = self.counters
        if args:
            objective, args = args[0], args[1:]
        else:
            objective = kwargs.pop("objective")
        project = kwargs.get("project") or (lambda a: a)  # the search's own default
        layer = getattr(objective, "__module__", "search").rpartition(".")[2]
        best = [-math.inf]

        def counted(x):
            v = objective(x)
            c["search.objective.evals"] += 1
            if v > best[0]:
                best[0] = v
                c["search.objective.improving"] += 1
            return v

        def projected(x):
            c["search.project.calls"] += 1
            return project(x)

        kwargs["project"] = self._wrap(projected, f"{layer}.project")
        return (self._wrap(counted, f"{layer}.objective"), *args), kwargs

    def _after_norm_rows(self, args, result):
        self.counters["spaces.norm_rows.rows"] += int(result.shape[0])

    def _after_operator_norm(self, args, result):
        self.counters["linmaps.operator_norm.exact"] += result.direction == "exact"

    def _after_sign_patterns(self, args, result):
        self.counters["linmaps.sign_patterns.rows"] += int(result.shape[0])
        # computed from the shape: rows x vectors float64 entries
        self.counters["linmaps.sign_patterns.bytes"] += int(result.shape[0] * result.shape[1] * 8)

    def _after_average(self, args, result):
        key = ("averages.enum.patterns" if result.method == "exact-enumeration"
               else "averages.mc.samples")
        self.counters[key] += int(result.samples)

    def _after_select_block(self, args, result):
        self.counters["pipeline.blocks.met"] += bool(result.met)

    def _hooks(self, name):
        """(before, after) hooks of a wrapped name."""
        return {
            "search.multistart_maximize": (self._search_args, None),
            "spaces.SeqSpace.norm_rows": (None, self._after_norm_rows),
            "linmaps.operator_norm": (None, self._after_operator_norm),
            "linmaps.sign_patterns": (None, self._after_sign_patterns),
            "averages.rademacher_average": (None, self._after_average),
            "averages.gaussian_average": (None, self._after_average),
            "pipeline.select_block": (None, self._after_select_block),
        }.get(name, (None, None))

    # -- patching -----------------------------------------------------------

    def _targets(self):
        """original callable -> span name, for everything that is wrapped."""
        targets = {}
        for layer, mod in _package_modules().items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[obj] = f"{layer}.{attr}"
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if inspect.isfunction(obj) and (attr == "__call__"
                                                    or not attr.startswith("_")):
                        targets[(cls, attr)] = f"{layer}.{cls_name}.{attr}"
        for attr in LINALG:
            targets[getattr(np.linalg, attr)] = f"linalg.{attr}"
        return targets

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        """Write a wrapper into every binding site of every target."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id of an original function -> its one wrapper
        for target, name in self._targets().items():
            before, after = self._hooks(name)
            if isinstance(target, tuple):  # a method: patch the class
                cls, attr = target
                self._set(cls, attr, self._wrap(getattr(cls, attr), name, after, before))
            else:
                wrappers[id(target)] = self._wrap(target, name, after, before)
        owners = [banachkit, np.linalg, *_package_modules().values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers:
                    self._set(owner, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):  # registries such as suites.SUITES
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._set(obj, key, wrappers[id(val)])

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------------

    def table(self):
        """Spans as an (n, 6) int64 array ordered by span id."""
        # a copy, so the array can still be cleared by reset()
        a = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS).copy()
        return a[np.argsort(a[:, 0], kind="stable")]

    def layer_metrics(self):
        """Per-layer counts and times of everything recorded so far."""
        t = self.table()
        n = len(t)
        name, parent = t[:, 1], t[:, 4]
        has_parent = parent >= 0
        up = np.maximum(parent, 0)  # parent row; only read where has_parent
        dur = (t[:, 3] - t[:, 2]) * 1e-9
        # span ids run 0..n-1 without gaps, so an id is its own row
        self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        def per_name(test):
            """A test on span names, evaluated for every span."""
            return np.array([bool(test(s)) for s in self.names], dtype=bool)[name]

        layer_ids = {lay: i for i, lay in enumerate(sorted({s.partition(".")[0]
                                                            for s in self.names}))}
        layer = np.array([layer_ids[s.partition(".")[0]] for s in self.names], dtype=int)[name]
        from_outside = ~has_parent | (layer[up] != layer)
        callback = per_name(lambda s: s.endswith((".objective", ".project")))
        count_of = dict(zip(self.names, np.bincount(name, minlength=len(self.names))))

        def calls(*span_names):
            return float(sum(count_of.get(s, 0) for s in span_names))

        def in_layer(lay):
            return layer == layer_ids.get(lay, -1)

        c = self.counters
        m = {key: float(c[key]) for key in (
            "spaces.norm_rows.rows", "search.objective.evals", "search.objective.improving",
            "search.project.calls", "linmaps.sign_patterns.rows",
            "linmaps.sign_patterns.bytes", "averages.enum.patterns", "averages.mc.samples")}
        # SeqSpace is the leaf of the norm oracle: the other space classes end there
        m["spaces.norm.calls"] = calls("spaces.SeqSpace.norm")
        m["spaces.norm_rows.calls"] = calls("spaces.SeqSpace.norm_rows")
        m["search.multistart.calls"] = calls("search.multistart_maximize")
        m["linmaps.operator_norm.calls"] = calls("linmaps.operator_norm")
        m["pipeline.select_block.calls"] = calls("pipeline.select_block")
        m["linalg.svd.calls"] = calls("linalg.svd")
        m["linalg.eig.calls"] = calls("linalg.eig", "linalg.eigvals")
        m["spaces.norm.self_s"] = float(self_s[per_name(
            lambda s: s.startswith("spaces.") and s.endswith(".norm"))].sum())
        m["spaces.norm_rows.self_s"] = float(self_s[per_name(
            lambda s: s.startswith("spaces.") and s.endswith(".norm_rows"))].sum())
        m["spaces.rows_per_call"] = _ratio(m["spaces.norm_rows.rows"],
                                           m["spaces.norm_rows.calls"])
        m["search.accept_ratio"] = _ratio(m["search.objective.improving"],
                                          m["search.objective.evals"])
        m["linmaps.operator_norm.exact_share"] = _ratio(c["linmaps.operator_norm.exact"],
                                                        m["linmaps.operator_norm.calls"])
        m["pipeline.blocks.met_ratio"] = _ratio(c["pipeline.blocks.met"],
                                                m["pipeline.select_block.calls"])
        for lay in ("sequences", "search", "linmaps", "averages", "pipeline", "gauges",
                    "summing", "snumbers", "linalg", "growth", "cli", "suites"):
            m[f"{lay}.self_s"] = float(self_s[in_layer(lay)].sum())
        for lay in ("gauges", "summing", "snumbers", "cli"):
            # calls into the layer's functions, not its callbacks run by the search
            m[f"{lay}.calls"] = float(np.sum(in_layer(lay) & from_outside & ~callback))
        serial = per_name(lambda s: s in SERIALIZERS)
        outermost = serial & ~(has_parent & serial[up])
        m["reports.serialize_s"] = float(dur[outermost].sum())
        m["trace.spans"] = float(n)
        return m


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0
