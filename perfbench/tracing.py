"""Spans around the public functions of each ``cutnets`` module.

The tracer wraps functions from outside the package. Modules bind names with
``from .nets import ...``, so a wrapper replaces the original in every
``cutnets`` module namespace that binds it; ``UndirectedNet`` methods are
wrapped on the class. Hot leaf helpers (``canon_edge``, ``Split`` methods,
``adjacency``/``neighbors``/``degree``) stay unwrapped: their per-call cost
would swamp the spans of their callers.

A span is (name, start, end, id, parent id, op id). Spans are kept in memory
up to a limit and written out when the run ends; the per-function counters
cover every span, kept or not. Calls made outside an op are not traced.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "formats": ("parse_upn", "parse_newick_tree", "parse_enewick",
                "serialize_enewick", "serialize_upn"),
    "nets": ("split_of_cut_edge", "splits_of", "UndirectedNet.cut_edges",
             "UndirectedNet.blobs", "UndirectedNet.maximal_chains", "subdivide",
             "suppress", "eliminate_edge", "UndirectedNet.replace"),
    "cuttable": ("is_q_cuttable", "max_cuttability"),
    "orient": ("tree_child_orient_2cuttable", "choose_s_prime", "apply_orientation",
               "is_tree_child"),
    "containment": ("three_cuttable_tc", "conflicting_split", "branch_on_cut_edge",
                    "apply_reduction", "entangled_path", "find_pendant_structures"),
    "sat": ("build_u_phi", "build_n_phi", "extract_assignment", "serialize_gmap",
            "parse_gmap"),
    "generate": ("random_tree", "make_q_cuttable", "random_q_cuttable",
                 "sample_displayed_tree"),
}
KINDS = ("calls", "self_s", "failed")
REPORTED = {   # functions whose report differs from KINDS
    "nets.UndirectedNet.replace": ("calls", "self_s"),
    "containment.find_pendant_structures": ("calls",),
    # a hit is a call that found a conflict
    "containment.conflicting_split": ("calls", "self_s", "failed", "hits"),
}
TRACE_KINDS = ("BRANCH", "RULE", "ELIM", "SPLIT-CONFLICT")
SPAN_LIMIT = 100_000


def span_metric_names() -> list[str]:
    """Names of the per-op span metrics, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for function in functions:
            full = f"{module}.{function}"
            names += [f"{full}.{kind}" for kind in REPORTED.get(full, KINDS)]
    names += [f"containment.trace.{kind}" for kind in TRACE_KINDS]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.failed: Counter = Counter()
        self.hits: Counter = Counter()
        self.events: Counter = Counter()
        self.ops = 0
        self._stack: list[list] = []   # open spans: [span id, time covered by children]
        self._next_id = 0
        self._op_id = None
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self):
        entry = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(entry)
        return entry, perf_counter()

    def _close(self, name, entry, start):
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((name, start, end, entry[0],
                               parent[0] if parent else None, self._op_id))
        else:
            self.dropped += 1
        return duration - entry[1]

    def run_op(self, op_id, fn, *args):
        """Run one op as a root span; self time of the root is harness glue."""
        self._op_id = op_id
        self.ops += 1
        depth = len(self._stack)
        entry, start = self._open()
        try:
            return fn(*args)
        finally:
            del self._stack[depth + 1:]   # spans an alarm cut off before their try
            self._close("op", entry, start)
            self._op_id = None

    def _wrap(self, name, fn):
        tracer = self
        count_hits = "hits" in REPORTED.get(name, KINDS)

        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            entry, start = tracer._open()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                if count_hits and result is not None:
                    tracer.hits[name] += 1
                return result
            finally:
                tracer.self_s[name] += tracer._close(name, entry, start)
                tracer.calls[name] += 1
                tracer.failed[name] += failed

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "cutnets" or key.startswith("cutnets.")]
        for module, functions in LAYERS.items():
            home = sys.modules[f"cutnets.{module}"]
            for function in functions:
                name = f"{module}.{function}"
                if "." in function:
                    cls_name, method = function.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
                    continue
                original = getattr(home, function)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def per_op(self) -> dict[str, float]:
        """Every span metric as a per-op average over the traced ops."""
        ops = max(self.ops, 1)
        out = {}
        for metric in span_metric_names():
            name, _, kind = metric.rpartition(".")
            if name == "containment.trace":
                out[metric] = self.events[kind] / ops
            else:
                counter = {"calls": self.calls, "self_s": self.self_s,
                           "failed": self.failed, "hits": self.hits}[kind]
                out[metric] = counter[name] / ops
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start", "end", "id", "parent", "op"],
                                     "dropped": self.dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
