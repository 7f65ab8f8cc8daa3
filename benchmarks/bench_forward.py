"""Benchmark: the level-push forward (``linearized.forward``), in edges/s.

Three shapes, chosen because they sit on either side of ``expand_sparse``'s
accumulator choice (dense ``bincount`` vs ``np.unique``):

* TW-lite, ExactSim-opt at ε=1e-3: Lemma-2 truncated levels of a few
  thousand entries each (sparse; ``np.unique``).
* TW-lite, ExactSim-basic at ε=1e-3: untruncated levels that soon cover most
  of the graph (dense; ``bincount``).
* DB-lite, PRSim-lite index build at ε=0.1: one tiny truncated forward per
  source, run over every 20th node (sparse; ``np.unique``).

Each round runs all forwards of the shape.  ``extra_info["edges_per_s"]`` is
the pushed edges over the median round.

    PYTHONPATH=src python3 -m pytest benchmarks/bench_forward.py --benchmark-only
"""
import numpy as np
import pytest

from repro.core import linearized
from repro.graphs import generators as gen

C = 0.6


def _sources(g, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(np.flatnonzero(g.csr.din > 0), size=k, replace=False))


def _tw_opt():
    g = gen.load("TW-lite")
    eps = 1e-3 / 2  # ExactSim-opt's internal error split
    return g, _sources(g, 4), linearized.iterations_for(eps, C), linearized.sparse_threshold(eps, C)


def _tw_basic():
    g = gen.load("TW-lite")
    return g, _sources(g, 1), linearized.iterations_for(1e-3, C), 0.0


def _db_prsim():
    g = gen.load("DB-lite")
    eps = 0.1
    return g, np.arange(0, g.n, 20), linearized.iterations_for(eps, C), linearized.sparse_threshold(eps, C)


@pytest.mark.parametrize(
    "shape", [_tw_opt, _tw_basic, _db_prsim], ids=["tw-opt-e3", "tw-basic-e3", "db-prsim-e1"]
)
def test_bench_forward(benchmark, shape):
    g, sources, L, thr = shape()

    def run():
        return [linearized.forward(g.csr, int(s), c=C, L=L, threshold=thr) for s in sources]

    fwds = benchmark.pedantic(run, rounds=5, iterations=1)
    edges = sum(f.edges for f in fwds)
    assert edges > 0
    assert all(f.L == L and f.threshold == thr for f in fwds)
    benchmark.extra_info["edges"] = edges
    benchmark.extra_info["stored_entries"] = sum(f.stored_entries for f in fwds)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["edges_per_s"] = edges / benchmark.stats.stats.median
