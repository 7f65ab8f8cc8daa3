"""Outside-in tracing: wrap each layer's public functions from the benchmark.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces the
module attribute every caller actually looks up with a wrapper that records
a :class:`Span` (name, layer, start, end, parent, query id) plus counts taken
from the call's arguments and return value.  Spans stay in memory until the
run ends; self times are derived from them afterwards.

Functions that run inside Spark executors are not visible from the driver:
a ``walk_engine="spark"`` D-estimation span has no child spans, so its whole
duration is the ``engine`` layer's self time.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

LAYERS = ("graphs", "linalg", "linearized", "diagonal", "local_push", "walks", "engine", "exactsim")

Counts = Callable[[tuple, dict, Any], Dict[str, float]]


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "query", "start", "end", "counts")

    def __init__(self, sid: int, name: str, layer: str, parent: int, query: Optional[int], start: float):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.query = query
        self.start = start
        self.end = start
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "query": self.query,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


def _engine(kwargs: dict) -> str:
    return kwargs.get("engine", "local")


class Tracer:
    """Records spans around wrapped functions; one query id at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.query: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def wrap(self, module: Any, attr: str, name: str, layer: str, counts: Optional[Counts] = None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``layer`` may be overridden per call by a ``layer`` entry in the
        returned counts (the Spark path of a D estimator is ``engine``).
        """
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, layer, stack[-1] if stack else -1, self.query, 0.0)
            spans.append(span)
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                c = counts(args, kwargs, out)
                span.layer = c.pop("layer", layer)
                span.counts = c
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        install_layer_wrappers(self)
        try:
            yield self
        finally:
            self.uninstall()


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where their callers look them up."""
    from repro.core import diagonal, exactsim, linearized, local_push
    from repro.graphs import generators, graph
    from repro.linalg import matvec
    from repro.walks import pair_walks

    def fwd_counts(a, k, out):
        nbytes = out.sparse_bytes() if out.threshold > 0 else out.dense_bytes()
        return {"stored_entries": out.stored_entries, "vector_bytes": nbytes}

    def alloc_counts(a, k, out):
        _, _, total, theoretical = out
        cap = k.get("cap")
        return {
            "pairs_allocated": total,
            "pairs_theoretical": theoretical,
            "capped": float(cap is not None and theoretical > cap),
        }

    def local_push_counts(a, k, out):
        graph, stats = a[0], out[1]
        din = graph.csr.din[stats["node"].to_numpy()]
        ell = stats["ell"].to_numpy()
        skipped = (din > 1) & (stats["pairs"].to_numpy() == 0)
        return {
            "layer": "engine" if _engine(k) == "spark" else "local_push",
            "nodes": len(stats),
            "ell_sum": float(ell.sum()),
            "tail_skipped": int(skipped.sum()),
        }

    def pairs_arg(a, k, out):
        return {"pairs": a[2] if len(a) > 2 else k["pairs"]}

    def assignment_pairs(a, k, out):
        return {"pairs": int(a[1]["pairs"].sum())}

    def mc_counts(a, k, out):
        return {"layer": "engine" if _engine(k) == "spark" else "diagonal"}

    w = tracer.wrap
    w(generators, "load", "generators.load", "graphs")
    w(graph, "build_csr", "graph.build_csr", "graphs")
    w(matvec, "matvec_P", "matvec.matvec_P", "linalg", lambda a, k, out: {"edges": a[0].m})
    w(matvec, "matvec_PT", "matvec.matvec_PT", "linalg", lambda a, k, out: {"edges": a[0].m})
    w(matvec, "expand_sparse", "matvec.expand_sparse", "linalg", lambda a, k, out: {"edges": out[2]})
    w(linearized, "forward", "linearized.forward", "linearized", fwd_counts)
    w(linearized, "backward", "linearized.backward", "linearized")
    w(diagonal, "allocate", "diagonal.allocate", "diagonal", alloc_counts)
    w(diagonal, "estimate_D_mc", "diagonal.estimate_D_mc", "diagonal", mc_counts)
    w(local_push, "estimate_D_local_push", "local_push.estimate_D_local_push", "local_push", local_push_counts)
    w(local_push, "meeting_head", "local_push.meeting_head", "local_push", lambda a, k, out: {"edges": out.edges})
    # local_push imports pair_meet_count by name; pair_walks' own drivers
    # look it up in their module.  Both attributes get a wrapper.
    w(local_push, "pair_meet_count", "pair_walks.pair_meet_count", "walks", pairs_arg)
    w(pair_walks, "pair_meet_count", "pair_walks.pair_meet_count", "walks", pairs_arg)
    w(pair_walks, "simulate_pairs_local", "pair_walks.simulate_pairs_local", "walks", assignment_pairs)
    w(pair_walks, "simulate_pairs_spark", "pair_walks.simulate_pairs_spark", "engine", assignment_pairs)
    w(exactsim, "exactsim", "exactsim.exactsim", "exactsim")


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def self_times(spans: List[Span]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Wrapped calls run on one thread, so children of one parent never
    overlap and their durations simply add up.
    """
    out = np.array([s.duration for s in spans])
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_self_seconds(spans: List[Span], selfs: np.ndarray, queries: set) -> Dict[str, float]:
    """Self seconds per layer over the spans of the given queries."""
    acc = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, selfs):
        if s.query in queries:
            acc[s.layer] += float(t)
    return acc


def span_stats(
    spans: List[Span], selfs: np.ndarray, name: str, queries: set, layer: Optional[str] = None
) -> Dict[str, float]:
    """Calls, busy seconds, self seconds and summed counts of one span name."""
    out: Dict[str, float] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    for s, t in zip(spans, selfs):
        if s.name == name and s.query in queries and layer in (None, s.layer):
            out["calls"] += 1
            out["busy_s"] += s.duration
            out["self_s"] += float(t)
            for key, v in s.counts.items():
                out[key] = out.get(key, 0.0) + v
    return out
