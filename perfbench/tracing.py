"""In-memory spans around the library's public functions.

Each wrapped function is replaced in every qopposition module that holds
a reference to it, because callers look functions up in their own module:
`quantum` keeps its own `hermitian_eig`, `cli` its own `classify`, and so
on.  A span records (request, id, parent, name, start, end); a function's
self time is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) of each spanned function, keyed by its metric name
SPANNED = {
    "hermitian_eig": ("linalg", "hermitian_eig"),
    "Subspace.intersect": ("linalg", "Subspace.intersect"),
    "Subspace.orthocomplement": ("linalg", "Subspace.orthocomplement"),
    "Subspace.is_subset": ("linalg", "Subspace.is_subset"),
    "Subspace.contains": ("linalg", "Subspace.contains"),
    "gram_schmidt": ("linalg", "gram_schmidt"),
    "family_from_observable": ("quantum", "family_from_observable"),
    "superpose": ("quantum", "superpose"),
    "build_hexagon": ("opposition", "build_hexagon"),
    "classify": ("opposition", "classify"),
    "can_both_be_true": ("opposition", "can_both_be_true"),
    "entails": ("opposition", "entails"),
    "random_witness_search": ("opposition", "random_witness_search"),
    "parse_formula": ("lp", "parse_formula"),
    "satisfiable": ("lp", "satisfiable"),
    "models": ("lp", "models"),
    "consequence": ("lp", "consequence"),
    "builtin": ("scenarios", "builtin"),
    "load_scenario": ("scenarios", "load_scenario"),
    "serialize": ("scenarios", "serialize"),
    "run_query": ("scenarios", "run_query"),
    "main": ("cli", "main"),
}
# eval3 recurses once per formula node, so it is counted, not spanned
COUNTED = {"eval3": ("lp", "eval3")}
EIG_SIZES = (2, 4, 8, 16)


def _library_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "qopposition" or name.startswith("qopposition."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.eig_s = defaultdict(float)
        self.eig_calls = defaultdict(int)
        self.paths = defaultdict(int)
        self.trials_budget = 0
        self.search_hits = 0
        self._stack = []
        self._next_id = 0
        self._patched = []

    def next_request(self, _index=None) -> None:
        """Mark the start of the next request; its spans share its number."""
        self.request += 1

    # --- installing wrappers -------------------------------------------------

    def install(self, q) -> None:
        """Wrap every function in SPANNED and COUNTED; `q` is the imported
        qopposition package."""
        for metric, (mod, attr) in SPANNED.items():
            self._patch(q, mod, attr, self._span_wrapper(metric))
        for metric, (mod, attr) in COUNTED.items():
            self._patch(q, mod, attr, self._count_wrapper(metric))
        self._leaves = q.quantum.leaves
        self._literal = q.quantum.Literal
        self._default_trials = q.opposition.DEFAULT_TRIALS

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, q, mod, attr, make) -> None:
        module = getattr(q, mod, None)
        if module is None:  # cli is imported only by the cli workload
            return
        if "." in attr:  # a method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for m in _library_modules():
            for name, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, name, original))
                    setattr(m, name, wrapper)

    def _count_wrapper(self, metric):
        calls = self.calls

        def make(fn):
            def counted(*args, **kwargs):
                calls[metric] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _span_wrapper(self, metric):
        def make(fn):
            def spanned(*args, **kwargs):
                self._on_call(metric, args, kwargs)
                parent = self._stack[-1] if self._stack else None
                frame = [self._next_id, 0.0]
                self._next_id += 1
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    dur = end - start
                    if parent is not None:
                        parent[1] += dur
                    self.calls[metric] += 1
                    self.self_s[metric] += dur - frame[1]
                    self.spans.append((self.request, frame[0],
                                       parent[0] if parent else None,
                                       metric, start, end))
                    if metric == "hermitian_eig":
                        n = len(args[0])
                        self.eig_s[n] += dur - frame[1]
                        self.eig_calls[n] += 1
                if metric == "random_witness_search" and result is not None:
                    self.search_hits += 1
                return result
            return spanned
        return make

    def _on_call(self, metric, args, kwargs) -> None:
        if metric == "classify":
            self.paths[self._decision_path(args[0], args[1])] += 1
        elif metric == "random_witness_search":
            self.trials_budget += (args[3] if len(args) > 3
                                   else kwargs.get("trials", self._default_trials))

    def _decision_path(self, p, q) -> str:
        """Which of classify's three procedures the argument shapes select:
        one shared orthogonal family (cells), two literals (literal), or
        anything else (search)."""
        lits = self._leaves(p) + self._leaves(q)
        first = lits[0].family
        if first is not None and all(l.family is first and l.member is not None
                                     for l in lits):
            return "cells"
        if isinstance(p, self._literal) and isinstance(q, self._literal):
            return "literal"
        return "search"

    # --- results -------------------------------------------------------------

    def metrics(self, scale: float) -> dict:
        """Per-layer metrics; `scale` converts wall seconds to reference
        seconds."""
        out = {}
        for metric in SPANNED:
            out[f"{metric}.calls"] = (self.calls[metric], "count")
            out[f"{metric}.self_ms"] = (self.self_s[metric] * scale * 1e3, "ms")
        for n in EIG_SIZES:
            mean = self.eig_s[n] / self.eig_calls[n] if self.eig_calls[n] else 0.0
            out[f"hermitian_eig.n{n}_us"] = (mean * scale * 1e6, "us")
        for metric in COUNTED:
            out[f"{metric}.calls"] = (self.calls[metric], "count")
        searches = self.calls["random_witness_search"]
        out["random_witness_search.trials_budget"] = (self.trials_budget, "count")
        out["random_witness_search.hit_ratio"] = (
            self.search_hits / searches if searches else 0.0, "ratio")
        for path in ("cells", "literal", "search"):
            out[f"path.{path}"] = (self.paths[path], "count")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for request, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": request, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
