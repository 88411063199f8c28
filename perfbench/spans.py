"""In-memory span tracing around symcap's public functions and methods.

A ``Tracer`` replaces public callables of the symcap modules with wrappers
that record one span per call: (name, start, end, parent, pass id).  Every
module attribute that holds the same function object is replaced, so names
that one module imported from another (``symcap.verify`` imports
``clarke_minimize`` and friends) are traced as well.  ``uninstall`` puts the
original objects back, so untraced passes run the unmodified code.

Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_CJ_METHODS = {
    "ExactVertexPair": "exact_vertex_pair",
    "ExactSpectral": "exact_spectral",
    "MultistartOptimize": "multistart",
}


def _cj_name(args, kwargs, result):
    return "capacity.c_j." + _CJ_METHODS.get(result.method, "other")


def _containment_name(args, kwargs, result):
    body = args[1] if len(args) > 1 else kwargs["body"]
    kind = "polytope" if type(body).__name__ == "Polytope" else "smooth"
    return "loops.containment_score." + kind


def _verify_body_name(args, kwargs, result):
    return "verify.verify_body." + result.body_id


# (module, function, span name or namer(args, kwargs, result))
FUNCTIONS = [
    ("capacity", "clarke_minimize", "capacity.clarke_minimize"),
    ("capacity", "c_j", _cj_name),
    ("capacity", "ellipsoid_ehz_exact", "capacity.ellipsoid_ehz_exact"),
    ("capacity", "calibration_self_test", "capacity.calibration_self_test"),
    ("girth", "symmetric_girth", "girth.symmetric_girth"),
    ("girth", "build_boundary_graph", "girth.build_boundary_graph"),
    ("girth", "check_schaffer_bound", "girth.check_schaffer_bound"),
    ("loops", "containment_score", _containment_name),
    ("symmetry", "symmetrize_central", "symmetry.symmetrize_central"),
    ("symmetry", "symmetrize_mfold", "symmetry.symmetrize_mfold"),
    ("characteristics", "integrate_characteristic",
     "characteristics.integrate_characteristic"),
    ("verify", "verify_body", _verify_body_name),
    ("verify", "write_reports", "verify.write_reports"),
]

# (module, class, methods); a method is traced on the class that defines it
METHODS = [
    ("symplectic", "SymplecticFrame", ("apply_j", "polygon_action")),
    ("geometry", "ConvexBody", ("boundary_point",)),
    ("geometry", "Ellipsoid", ("gauge", "gauge_gradient", "support", "support_point")),
    ("geometry", "LpBall", ("gauge", "gauge_gradient", "support", "support_point")),
    ("geometry", "Polytope", ("gauge", "gauge_gradient", "support", "support_point")),
]

# counters read from a call's result at the layer boundary, keyed by the
# function's fallback span name
NOTES = {
    "capacity.clarke_minimize": lambda r: (
        sum(r.diagnostics["iterations"]),
        len(r.diagnostics["converged"]),
        sum(r.diagnostics["converged"]),
    ),
    "girth.build_boundary_graph": lambda r: r.graph.nnz,
    "characteristics.integrate_characteristic": lambda r: len(r.times) - 1,
}


class Tracer:
    """Records nested call spans; ``pass_id`` tags every span it records.

    One call stack is kept, so the traced code must run on one thread.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # rows of [name index, start, end, parent row or -1, pass id]
        self.spans: list[list] = []
        # span name -> [(pass id, value read from the result)]
        self.notes: dict[str, list] = defaultdict(list)
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name, fallback=None, note=None):
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a string or a callable (args, kwargs, result) -> string;
        a call that raises is recorded under ``fallback``.  ``note`` reads a
        counter from the result into ``self.notes[fallback]``.
        """
        tracer = self
        fallback = fallback or (name if isinstance(name, str) else fn.__name__)

        def traced(*args, **kwargs):
            row = [0, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.pass_id]
            tracer.spans.append(row)
            tracer._stack.append(len(tracer.spans) - 1)
            label = fallback
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if not isinstance(name, str):
                    label = name(args, kwargs, result)
            finally:
                row[2] = time.perf_counter()
                tracer._stack.pop()
                row[0] = tracer._name(label)
            if note is not None:
                tracer.notes[fallback].append((tracer.pass_id, note(result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced callable in the loaded symcap modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "symcap" or k.startswith("symcap.")]
        for mod_name, fn_name, span_name in FUNCTIONS:
            original = getattr(sys.modules["symcap." + mod_name], fn_name)
            fallback = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(original, span_name, fallback, NOTES.get(fallback))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, meths in METHODS:
            cls = getattr(sys.modules["symcap." + mod_name], cls_name)
            for meth in meths:
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(original, f"{mod_name}.{meth}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write all spans as JSON: the name table and one row per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "names": self.names, "spans": self.spans}, fh)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.

    ``spans`` holds (name, start, end, parent index or -1, ...) rows; the
    result is a list of seconds aligned with it.  Overlapping children are
    counted once, and child time outside the parent's interval is ignored.
    """
    children = defaultdict(list)
    for i, row in enumerate(spans):
        if row[3] >= 0:
            children[row[3]].append((row[1], row[2]))
    out = []
    for i, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def summarize(names, spans, passes):
    """Calls, inclusive and self seconds per span name over ``passes``.

    Returns {name: {"calls": int, "s": float, "self_s": float}}; a span
    counts when its pass id is in ``passes``.
    """
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for row, self_s in zip(spans, self_times(spans)):
        if row[4] in passes:
            entry = table[names[row[0]]]
            entry["calls"] += 1
            entry["s"] += row[2] - row[1]
            entry["self_s"] += self_s
    return dict(table)
