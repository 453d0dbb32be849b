"""Span recorder that wraps public netpeer functions from outside the package.

Each wrapped call records one span (name, start, end, parent span). Spans
stay in memory until the run ends; self times and counts are derived from
them afterwards. A target that no longer exists (renamed or removed by a
refactor) is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module under netpeer, attribute path) of every traced layer boundary
TARGETS = (
    ("graph", "generate_er"),
    ("graph", "is_connected"),
    ("graph", "induced_subgraph"),
    ("graph", "degrees"),
    ("graph", "Graph.flat"),
    ("graph", "write_edge_list"),
    ("graph", "read_edge_list"),
    ("graph", "from_edges"),
    ("sampling", "rns_sample"),
    ("sampling", "scaling_factor"),
    ("sampling", "write_sample_csv"),
    ("sampling", "read_sample_csv"),
    ("model", "gen_covariates"),
    ("model", "simulate_outcomes"),
    ("model", "neighbor_mean_vector"),
    ("model", "write_unit_csv"),
    ("model", "read_unit_csv"),
    ("estimation", "build_observed_design"),
    ("estimation", "fit_mle"),
    ("estimation", "apply_correction"),
    ("estimation", "asymptotic_variance"),
    ("estimation", "diagnostics"),
    ("identification", "find_witness"),
    ("identification", "candidate_means"),
    ("identification", "is_compatible"),
    ("identification", "likelihood_gap"),
    ("montecarlo", "run_replication"),
    ("montecarlo", "run_cell"),
    ("montecarlo", "summarize"),
    ("cli", "main"),
)

ROOT = "op"
# time the recorder spends on counters; a child of the span that was running,
# so it is excluded from that span's self time
OVERHEAD = "trace.overhead"


def _path_arg(args, kwargs, position):
    return kwargs.get("path", args[position] if len(args) > position else None)


# span name -> (count key, function of (args, kwargs, result) giving the increment)
COUNTERS = {
    "graph.generate_er": ("graph.edges", lambda a, k, g: g.n_edges()),
    "graph.is_connected": ("graph.connected", lambda a, k, r: int(bool(r))),
    "graph.write_edge_list": (
        "graph.io_bytes", lambda a, k, r: os.path.getsize(_path_arg(a, k, 1))
    ),
    "graph.read_edge_list": (
        "graph.io_bytes", lambda a, k, r: os.path.getsize(_path_arg(a, k, 0))
    ),
    "sampling.rns_sample": (
        "sampling.isolated", lambda a, k, s: int((s.observed_degrees == 0).sum())
    ),
    "estimation.build_observed_design": ("estimation.rows_used", lambda a, k, d: d.n_used),
}


class Tracer:
    """Span-recording wrappers for TARGETS, installed and removed as a set."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self._stack = [-1]
        self.counts = Counter()
        self.absent = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for module, path in TARGETS:
            name = f"{module}.{path}"
            try:
                owner = importlib.import_module(f"netpeer.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self._patches.append((owner, attr, original, self._wrap(name, original)))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        nid, over = self._id(name), self._id(OVERHEAD)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if counter is not None:
                key, count = counter
                try:
                    self.counts[key] += count(args, kwargs, result)
                except (AttributeError, TypeError, OSError):
                    if key not in self.absent:
                        self.absent.append(key)
                spans.append((over, end, clock(), parent))
            return result

        return traced

    def begin(self, name: str = ROOT) -> tuple:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, self._id(name), time.perf_counter()

    def end(self, token: tuple) -> None:
        index, nid, start = token
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (nid, start, end, self._stack[-1])

    def totals(self):
        """(self seconds by span name, calls by span name)."""
        covered = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        for i, (nid, start, end, _) in enumerate(self.spans):
            name = self.names[nid]
            self_s[name] += (end - start) - covered[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for nid, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"name": self.names[nid], "start": start, "end": end, "parent": parent}
                ) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op means of self time (ms) for every target, plus the per-op counts."""
    self_s, calls = tracer.totals()
    out = {
        f"{module}.{path}.self_ms": self_s.get(f"{module}.{path}", 0.0) * 1e3 / ops
        for module, path in TARGETS
    }
    draws = calls.get("graph.generate_er", 0)
    out["graph.generate_er.calls"] = draws / ops
    out["graph.Graph.flat.calls"] = calls.get("graph.Graph.flat", 0) / ops
    out["graph.connect_yield"] = tracer.counts["graph.connected"] / draws if draws else 0.0
    for key in ("graph.edges", "graph.io_bytes", "sampling.isolated", "estimation.rows_used"):
        out[key] = tracer.counts[key] / ops
    return out
