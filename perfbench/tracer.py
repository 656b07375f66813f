"""Per-layer spans for bergecycles, recorded from outside the package.

`Tracer.install` replaces each function in TRACED wherever a bergecycles
module binds it: the defining module, the package re-exports and every
`from .x import f` binding in the other modules.  Calls between modules are
therefore seen as well as calls from the benchmark.  `uninstall` puts every
original object back.  A span is a (name, start, end, parent) row kept in
memory; the parent is the index of the enclosing span, or -1.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute) -> span name; "Class.method" patches the class.
TRACED = {
    ("core", "edge_table"): "core.edge_table",
    ("core", "read_coloring"): "core.read_coloring",
    ("core", "verify_berge_certificate"): "core.verify_berge_certificate",
    ("shadow", "build_shadow"): "shadow.build_shadow",
    ("hamilton", "find_mono_ham_tight_cycle"): "hamilton.find_mono_ham_tight_cycle",
    ("hamilton", "good_pair_graph"): "hamilton.good_pair_graph",
    ("hamilton", "find_hamiltonian_cycle"): "hamilton.find_hamiltonian_cycle",
    ("hamilton", "bondy_chvatal_closure"): "hamilton.bondy_chvatal_closure",
    ("extract", "extend_tight_cycle"): "extract.extend_tight_cycle",
    ("extract", "build_position_bipartite"): "extract.build_position_bipartite",
    ("extract", "max_bipartite_matching"): "extract.max_bipartite_matching",
    ("extract", "PositionEdgeBipartite.right_degrees"): "extract.right_degrees",
    ("r4", "r4_find"): "r4.r4_find",
    ("r4", "compute_u_profiles"): "r4.compute_u_profiles",
    ("r4", "classify_and_pivot"): "r4.classify_and_pivot",
    ("r4", "relabel_colors"): "r4.relabel_colors",
    ("r4", "construct_gamma_case1"): "r4.construct_gamma_case1",
    ("r4", "construct_gamma_case2"): "r4.construct_gamma_case2",
    ("r4", "extend_to_berge"): "r4.extend_to_berge",
    ("r4", "lemma_a_construct"): "r4.lemma_a_construct",
    ("harness", "find_certificate"): "harness.find_certificate",
    ("cli", "main"): "cli.main",
}

BRANCHES = ("B-cover", "single-good-fallback", "lemma-3.1", "case-1", "case-2")

# (metric, unit, better, kind, span or counter, predicted end-to-end effect).
# Kinds: busy/self/calls are per traced round; p50 is per call; count is a
# counter per traced round.  Predictions name the end-to-end metric (see
# run.py; solve_s.p50 is the printed, ungated median of the solve_s
# latency) the layer should move and the workload it should move it on.
LAYER_METRICS = [
    ("core.import.s", "s", "lower", "import", None,
     "setup_s, every workload"),
    ("core.edge_table.s", "s", "lower", "busy", "core.edge_table",
     "setup_s, every workload"),
    ("core.edge_table.calls", "count", "lower", "calls", "core.edge_table",
     "setup_s, every workload"),
    ("core.read_coloring.s", "s", "lower", "busy", "core.read_coloring",
     "solve_s.p50 and certs_per_s on cli-file"),
    ("core.verify_berge_certificate.s", "s", "lower", "busy",
     "core.verify_berge_certificate",
     "none: under 1 ms per call, guards that the verifier stays cheap"),
    ("shadow.build_shadow.s", "s", "lower", "busy", "shadow.build_shadow",
     "certs_per_s and solve_s.p50 on r4-random and the k85-branches case "
     "fixtures; smaller on cli-file"),
    ("shadow.build_shadow.calls", "count", "lower", "calls",
     "shadow.build_shadow", "as shadow.build_shadow.s"),
    ("shadow.build_shadow.edges_per_s", "1/s", "higher", "edges_per_s",
     "shadow.build_shadow", "as shadow.build_shadow.s"),
    ("hamilton.find_mono_ham_tight_cycle.s", "s", "lower", "busy",
     "hamilton.find_mono_ham_tight_cycle",
     "solve_s.p50 on k85-branches (Gamma search); ~1% of r4-random"),
    ("hamilton.find_mono_ham_tight_cycle.calls", "count", "lower", "calls",
     "hamilton.find_mono_ham_tight_cycle", "as its .s"),
    ("hamilton.find_mono_ham_tight_cycle.expansions", "count", "lower",
     "count", "hamilton.find_mono_ham_tight_cycle.expansions", "as its .s"),
    ("hamilton.good_pair_graph.s", "s", "lower", "busy",
     "hamilton.good_pair_graph",
     "solve_s.p50 on k85-branches (Gamma search); ~1% of r4-random"),
    ("hamilton.find_hamiltonian_cycle.s", "s", "lower", "busy",
     "hamilton.find_hamiltonian_cycle",
     "solve_s.p50 on k85-branches (Gamma search); ~1% of r4-random"),
    ("hamilton.find_hamiltonian_cycle.calls", "count", "lower", "calls",
     "hamilton.find_hamiltonian_cycle", "as its .s"),
    ("hamilton.find_hamiltonian_cycle.expansions", "count", "lower", "count",
     "hamilton.find_hamiltonian_cycle.expansions", "as its .s"),
    ("hamilton.bondy_chvatal_closure.s", "s", "lower", "busy",
     "hamilton.bondy_chvatal_closure",
     "solve_s.p50 on k85-branches (Gamma search); ~1% of r4-random"),
    ("extract.extend_tight_cycle.self_s", "s", "lower", "self",
     "extract.extend_tight_cycle",
     "certs_per_s and solve_s.p50 on r4-random; none on the k85-branches "
     "case and lemma fixtures"),
    ("extract.build_position_bipartite.s", "s", "lower", "busy",
     "extract.build_position_bipartite", "as extract.extend_tight_cycle.self_s"),
    ("extract.max_bipartite_matching.s", "s", "lower", "busy",
     "extract.max_bipartite_matching", "as extract.extend_tight_cycle.self_s"),
    ("extract.right_degrees.s", "s", "lower", "busy", "extract.right_degrees",
     "as extract.extend_tight_cycle.self_s"),
    ("extract.matching_incomplete.count", "count", "lower", "count",
     "extract.matching_incomplete.count", "none: a valid witness always matches"),
    ("r4.r4_find.self_s", "s", "lower", "self", "r4.r4_find",
     "solve_s.p50 on r4-random and on the k85-branches lemma-3.1 fixtures"),
    ("r4.compute_u_profiles.s", "s", "lower", "busy", "r4.compute_u_profiles",
     "solve_s.p50 and certs_per_s on k85-branches only"),
    ("r4.classify_and_pivot.s", "s", "lower", "busy", "r4.classify_and_pivot",
     "solve_s.p50 and certs_per_s on k85-branches only"),
    ("r4.relabel_colors.s", "s", "lower", "busy", "r4.relabel_colors",
     "solve_s.p50 and certs_per_s on k85-branches only"),
    ("r4.construct_gamma_case1.s", "s", "lower", "busy",
     "r4.construct_gamma_case1",
     "solve_s.p50 and certs_per_s on k85-branches only"),
    ("r4.construct_gamma_case2.s", "s", "lower", "busy",
     "r4.construct_gamma_case2",
     "solve_s.p50 and certs_per_s on k85-branches only"),
    ("r4.extend_to_berge.s", "s", "lower", "busy", "r4.extend_to_berge",
     "solve_s.p50 and certs_per_s on k85-branches only"),
    ("r4.lemma_a_construct.s", "s", "lower", "busy", "r4.lemma_a_construct",
     "solve_s.p50 and certs_per_s on k85-branches only"),
    ("r4.fallbacks.count", "count", "lower", "count", "r4.fallbacks.count",
     "certs_per_s on r4-random and k85-branches"),
    *[(f"r4.branch.{b}.count", "count", "higher", "count",
       f"r4.branch.{b}.count", "none: a census of the branches taken")
      for b in BRANCHES],
    ("r4.good_graph.found_ratio", "ratio", "higher", "found_ratio", None,
     "certs_per_s on r4-random and k85-branches"),
    ("harness.find_certificate.self_s", "s", "lower", "self",
     "harness.find_certificate", "certs_per_s on cli-file (berge search)"),
    ("harness.find_certificate.s.p50", "s", "lower", "p50",
     "harness.find_certificate", "certs_per_s on cli-file (berge search)"),
    ("cli.main.self_s", "s", "lower", "self", "cli.main",
     "solve_s.p50 on cli-file"),
    ("trace.overhead_frac", "ratio", "lower", "overhead", None,
     "none: tracing cost, traced rounds against the same rounds untraced"),
]


def _count_expansions(counts, name, out):
    counts[name + ".expansions"] += out.expansions


def _count_shadow_edges(counts, name, out):
    counts[name + ".edges"] += out.params.num_edges


def _count_r4_trace(counts, name, out):
    trace = out.trace
    counts[f"r4.branch.{trace.branch}.count"] += 1
    counts["r4.fallbacks.count"] += len(trace.fallbacks)
    for f in trace.fallbacks:
        if f.get("stage") == "good-graph":
            counts["r4.good_graph.searches"] += 1
            counts["r4.good_graph.found"] += f.get("status") == "found"


ON_RETURN = {
    "hamilton.find_mono_ham_tight_cycle": _count_expansions,
    "hamilton.find_hamiltonian_cycle": _count_expansions,
    "shadow.build_shadow": _count_shadow_edges,
    "r4.r4_find": _count_r4_trace,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_raise):
        tracer, clock = self, time.perf_counter
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, clock(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                on_raise(tracer.counts, exc)
                raise
            finally:
                span[2] = clock()
                tracer._stack.pop()
            if on_return is not None:
                on_return(tracer.counts, name, out)
            return out

        return traced

    def install(self, package) -> None:
        """Patch every binding of every TRACED function in `package`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        incomplete = sys.modules[prefix + ".extract"].MatchingIncomplete

        def on_raise(counts, exc):
            if isinstance(exc, incomplete):
                counts["extract.matching_incomplete.count"] += 1

        for (modname, attr), name in TRACED.items():
            owner = sys.modules[f"{prefix}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig, on_raise))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, on_raise)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, obj, key, orig, wrapper) -> None:
        self._patched.append((obj, key, orig))
        setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            obj, key, orig = self._patched.pop()
            setattr(obj, key, orig)

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def totals(self) -> dict:
        """Per span name: busy seconds, self seconds, call count, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"busy": 0.0, "self": 0.0,
                                         "calls": 0, "durations": []})
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out[name]
            agg["busy"] += end - start
            agg["self"] += end - start - child[i]
            agg["calls"] += 1
            agg["durations"].append(end - start)
        return out

    def layer_metrics(self, rounds: int, import_s: float,
                      overhead_frac: float) -> dict:
        """Every LAYER_METRICS entry as {name: (value, unit)}."""
        tot = self.totals()
        empty = {"busy": 0.0, "self": 0.0, "calls": 0, "durations": []}
        out = {}
        for metric, unit, _better, kind, key, _pred in LAYER_METRICS:
            agg = tot.get(key, empty)
            if kind == "import":
                value = import_s
            elif kind == "overhead":
                value = overhead_frac
            elif kind in ("busy", "self", "calls"):
                value = agg[kind] / rounds
            elif kind == "p50":
                value = statistics.median(agg["durations"]) if agg["durations"] else 0.0
            elif kind == "count":
                value = self.counts[key] / rounds
            elif kind == "edges_per_s":
                edges = self.counts[key + ".edges"]
                value = edges / agg["busy"] if agg["busy"] else 0.0
            elif kind == "found_ratio":
                searches = self.counts["r4.good_graph.searches"]
                value = self.counts["r4.good_graph.found"] / searches if searches else 0.0
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
            out[metric] = (value, unit)
        return out
