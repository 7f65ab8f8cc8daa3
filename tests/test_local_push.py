"""Algorithm 3: Lemma-4 heads, adaptive budgets, tail sampling, Spark driver."""
import math

import numpy as np
import pytest

from repro.core import diagonal, local_push
from tests.helpers import exact_d
from repro.graphs import generators as gen
from repro.graphs.graph import from_edges
from repro.linalg import matvec as mv
from repro.walks import pair_walks

C = 0.6
TINY = [gen.tiny_cycle(4), gen.tiny_star(3), gen.tiny_star(5)]


def one_head(g, k, budget, **kw):
    """``meeting_head`` on the one-node batch ``[k]``."""
    hr = local_push.meeting_head(g.csr, [k], [budget], c=C, **kw)
    assert hr.edges == hr.node_edges[0]
    return int(hr.ell[0]), float(hr.z_sum[0]), hr.edges


def one_estimate(g, k, r_k, **kw):
    """``estimate_heads`` on the one-node batch ``[k]``: ``(d_hat, ell, pairs)``."""
    row = local_push.estimate_heads(g.csr, [k], [r_k], c=C, **kw).iloc[0]
    assert row["node"] == k
    return float(row["d_hat"]), int(row["ell"]), int(row["pairs"])


@pytest.mark.parametrize("g", TINY, ids=lambda g: g.name)
def test_meeting_head_exact_on_tiny_graphs(g):
    """With an ample budget the deterministic head converges to 1 - D."""
    d = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    for k in range(g.n):
        ell, z_sum, _ = one_head(g, k, 10**7)
        assert abs((1.0 - z_sum) - d[k]) < 1e-8, (k, ell, z_sum)


def test_meeting_head_matches_exact_on_gq():
    g = gen.load("GQ-lite")
    d = exact_d("GQ-lite")
    for k in [0, 17, 250, 499]:
        ell, z_sum, _ = one_head(g, k, 4_000_000)
        # The head over-estimates D by exactly the (positive) tail mass,
        # which is bounded by c^ell.
        tail = (1.0 - z_sum) - d[k]
        assert -1e-9 <= tail <= C**ell + 1e-9, (k, tail, ell)


def test_meeting_head_budget_zero_levels():
    g = gen.load("GQ-lite")
    assert one_head(g, 0, 1) == (0, 0.0, 0)


def test_meeting_head_respects_budget():
    g = gen.load("GQ-lite")
    for budget in [100, 10_000, 1_000_000]:
        assert one_head(g, 0, budget)[2] <= budget


def test_meeting_head_monotone_depth_in_budget():
    g = gen.load("GQ-lite")
    ells = [one_head(g, 0, b)[0] for b in [100, 10_000, 1_000_000]]
    assert ells == sorted(ells)


def test_meeting_head_cycle_first_meeting():
    # Both walks march in lockstep: Z_1 = c, Z_ℓ = 0 for ℓ > 1.
    g = gen.tiny_cycle(6)
    assert one_head(g, 0, 10**6)[1] == pytest.approx(C, abs=1e-12)


def test_z_recursion_vs_brute_force_paths():
    """Enumerate all walk-pair paths on a tiny graph and aggregate exact
    first-meeting probabilities per level; Lemma 4 must reproduce them."""
    g = gen.tiny_star(3)  # center 0, leaves 1..3
    # Brute force over pair trajectories up to depth T.
    T = 12
    csr = g.csr

    def step_probs(v):
        nbrs = csr.in_neigh(v)
        return [(int(u), 1.0 / len(nbrs)) for u in nbrs] if len(nbrs) else []

    # first_meet[ℓ] = prob first meeting exactly at step ℓ
    first = np.zeros(T + 1)
    frontier = {(0, 0): 1.0}  # both walks at node 0 (pair state), unmet
    for ell in range(1, T + 1):
        nxt = {}
        for (a, b), p in frontier.items():
            for a2, pa in step_probs(a):
                for b2, pb in step_probs(b):
                    q = p * pa * pb * C  # both continue: prob c
                    if a2 == b2:
                        first[ell] += q
                    else:
                        nxt[(a2, b2)] = nxt.get((a2, b2), 0.0) + q
        frontier = nxt
    z_sum = one_head(g, 0, 10**7, max_level=T)[1]
    assert z_sum == pytest.approx(first.sum(), abs=1e-9)


# ---------------------------------------------------------------------------
# The batched kernel against the per-node Lemma-4 loop
# ---------------------------------------------------------------------------


def reference_head(csr, k, budget, max_level=local_push.MAX_LEVEL):
    """Lemma 4 for one node, one ``expand_sparse`` call per ``M^t(q,·)`` row.

    Rows are keyed by ``(origin q, level)``; returns ``(ell, z_sum, edges)``.
    """
    rows = {(k, 0): (np.array([k], dtype=np.int64), np.ones(1))}
    z = {}
    z_sum, edges, ell_done = 0.0, 0, 0
    for ell in range(1, max_level + 1):
        cost = sum(int(csr.din[idx].sum()) for idx, _ in rows.values())
        if edges + cost > budget:
            break
        grown = {}
        for (q, lvl), (idx, val) in rows.items():
            ni, nv, e = mv.expand_sparse(csr, idx, val, prune=local_push.PRUNE)
            edges += e
            if ni.size:
                grown[(q, lvl + 1)] = (ni, nv)
        empty = (np.zeros(0, np.int64), np.zeros(0))
        ki, kv = grown.get((k, ell), empty)
        terms = {}
        for i, v in zip(ki.tolist(), ((C**ell) * kv**2).tolist()):
            terms[i] = terms.get(i, 0.0) + v
        for t in range(1, ell):
            for q, zq in z[t].items():
                ri, rv = grown.get((q, ell - t), empty)
                for i, v in zip(ri.tolist(), (-(C ** (ell - t)) * rv**2 * zq).tolist()):
                    terms[i] = terms.get(i, 0.0) + v
        z[ell] = {i: v for i, v in sorted(terms.items()) if abs(v) > local_push.PRUNE}
        z_sum += sum(z[ell].values())
        ell_done = ell
        rows = grown
        for q in z[ell]:
            rows[(q, 0)] = (np.array([q], dtype=np.int64), np.ones(1))
        if C**ell < local_push.PRUNE or not rows:
            break
    return ell_done, z_sum, edges


def _disjoint_union(*graphs):
    """One directed graph holding a copy of every graph, ids offset in order."""
    src, dst, off = [], [], 0
    for g in graphs:
        src.append(g.csr.in_neighbors + off)
        dst.append(np.repeat(np.arange(g.n), g.csr.din) + off)
        off += g.n
    return from_edges("mixed", off, np.concatenate(src), np.concatenate(dst), directed=True)


def _mixed_batch():
    """GQ-lite, tiny_cycle(6), tiny_star(3), tiny_star(5), a chain 0→1→2 and an
    isolated node in one graph; returns it with one representative per part:
    a GQ-lite hub, the cycle's node, both star centres and a leaf, the
    chain's dead-end head and d_in=1 tail, and the isolated node."""
    gq = gen.load("GQ-lite")
    chain = from_edges("chain", 3, np.array([0, 1]), np.array([1, 2]), directed=True)
    lone = from_edges("lone", 1, np.zeros(0, np.int64), np.zeros(0, np.int64), directed=True)
    parts = [gq, gen.tiny_cycle(6), gen.tiny_star(3), gen.tiny_star(5), chain, lone]
    g = _disjoint_union(*parts)
    base = np.cumsum([0] + [p.n for p in parts])
    hub = int(np.argmax(gq.csr.din))
    nodes = np.array(
        [hub, base[1], base[2], base[3], base[3] + 2, base[4], base[4] + 2, base[5]],
        dtype=np.int64,
    )
    return g, nodes


def test_meeting_head_batch_matches_reference():
    """Each node of a mixed batch, under budgets that stop it at 0, 1 and
    several levels and at exactly a level's cost, gets the reference's ℓ and
    edges exactly and its head sum within 1e-15."""
    g, kinds = _mixed_batch()
    nodes, budgets = [], []
    for k in kinds.tolist():
        e1, e2, e4 = (reference_head(g.csr, k, 10**7, max_level=t)[2] for t in (1, 2, 4))
        for b in sorted({0, e1 - 1, e1, e1 + 1, e2 - 1, e2, e4}):
            if b >= 0:
                nodes.append(k)
                budgets.append(b)
    batch = local_push.meeting_head(g.csr, nodes, budgets, c=C)
    assert batch.edges == int(batch.node_edges.sum())
    for i, (k, b) in enumerate(zip(nodes, budgets)):
        ell, z_sum, edges = reference_head(g.csr, k, b)
        assert (batch.ell[i], batch.node_edges[i]) == (ell, edges), (k, b)
        assert abs(batch.z_sum[i] - z_sum) <= 1e-15, (k, b)
        assert edges <= b
    assert {0, 1} <= set(batch.ell.tolist()) and batch.ell.max() >= 4
    # A budget equal to a level's cost pays for that level (the ``<=`` edge).
    hub = int(kinds[0])
    e1, e2 = (reference_head(g.csr, hub, 10**7, max_level=t)[2] for t in (1, 2))
    assert [one_head(g, hub, b)[0] for b in (e1 - 1, e1, e2 - 1, e2)] == [0, 1, 1, 2]


def test_meeting_head_node_alone_equals_node_in_batch():
    """A node's head is bit-identical alone and inside a larger batch (the
    Spark engine's tasks batch different nodes than the local engine)."""
    g, kinds = _mixed_batch()
    rng = np.random.default_rng(3)
    budgets = rng.integers(0, 20_000, size=kinds.size)
    batch = local_push.meeting_head(g.csr, kinds, budgets, c=C)
    rev = local_push.meeting_head(g.csr, kinds[::-1], budgets[::-1], c=C)
    last = kinds.size - 1
    for i, (k, b) in enumerate(zip(kinds.tolist(), budgets.tolist())):
        alone = local_push.meeting_head(g.csr, [k], [b], c=C)
        for got, j in ((batch, i), (rev, last - i)):
            assert got.ell[j] == alone.ell[0] and got.node_edges[j] == alone.node_edges[0]
            assert got.z_sum[j] == alone.z_sum[0]  # bit-identical


def test_empty_and_trivial_batches_push_nothing(monkeypatch):
    calls = []
    push = mv.expand_sparse

    def spy(*a, **kw):
        calls.append(1)
        return push(*a, **kw)

    monkeypatch.setattr(mv, "expand_sparse", spy)
    g = gen.tiny_cycle(4)
    hr = local_push.meeting_head(g.csr, [], [], c=C)
    assert hr.ell.size == hr.z_sum.size == 0 and hr.edges == 0
    # Every in-degree is <= 1: no head to push, no tail to walk.
    chain = from_edges("chain", 3, np.array([0, 1]), np.array([1, 2]), directed=True)
    for g in (gen.tiny_cycle(4), chain):
        nodes = np.arange(g.n, dtype=np.int64)
        d_hat, stats = local_push.estimate_D_local_push(
            g, nodes, np.full(g.n, 50), c=C, seed=1
        )
        expected = np.where(g.csr.din == 0, 1.0, 1.0 - C)
        np.testing.assert_array_equal(d_hat, expected)
        assert (stats["ell"] == 0).all() and (stats["pairs"] == 0).all()
    assert calls == []


# ---------------------------------------------------------------------------
# estimate_heads / Algorithm 3 end to end
# ---------------------------------------------------------------------------


def test_estimate_node_trivial_cases():
    g = from_edges("chain", 3, np.array([0, 1]), np.array([1, 2]), directed=True)
    assert one_estimate(g, 0, 100) == (1.0, 0, 0)
    d, ell, pairs = one_estimate(g, 1, 100)
    assert d == pytest.approx(1 - C) and pairs == 0


def test_estimate_node_with_generous_budget_is_nearly_exact():
    g = gen.tiny_star(4)
    d_exact = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    d, ell, pairs = one_estimate(g, 0, 100_000, skip_tol=1e-9)
    # Whatever tail is left to sample is at most c^ell.
    assert C**ell < 1e-6
    assert abs(d - d_exact[0]) < 1e-6


def test_estimate_node_skip_tol_skips_sampling():
    g = gen.tiny_star(4)
    d, ell, pairs = one_estimate(g, 0, 100_000, skip_tol=0.9)
    assert pairs == 0  # c^ell <= 0.9 already after one level


def test_estimate_node_small_budget_falls_back_to_sampling():
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    # Hub node with a tiny budget: shallow head, tail mostly sampled.
    d_head, ell, pairs = one_estimate(g, 0, 2000)
    assert pairs > 0
    # The head alone over-estimates D by the tail, which is at most c^ell.
    assert -1e-9 <= d_head - d_exact[0] <= C**ell
    rng = np.random.default_rng(2)
    met = pair_walks.pair_meet_count(g.csr, 0, pairs, c=C, rng=rng, nonstop_steps=ell)
    assert abs(d_head - C**ell * met / pairs - d_exact[0]) < 0.05


def test_estimate_D_local_push_close_to_exact():
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    nodes = np.arange(g.n, dtype=np.int64)
    counts = np.full(g.n, 3000, dtype=np.int64)
    d_hat, stats = local_push.estimate_D_local_push(
        g, nodes, counts, c=C, seed=5, skip_tol=1e-7
    )
    assert np.abs(d_hat - d_exact).max() < 0.02
    assert set(stats.columns) == {"node", "d_hat", "ell", "pairs"}
    assert len(stats) == g.n


def test_estimate_D_local_push_tails_unbiased():
    """Shallow heads leave every node a sampled tail; the batched tails must
    remove the heads' bias.  The mean error over all nodes is checked against
    5σ, σ computed from each node's exact tail probability, so the flake
    bound is < 1e-6; the head-only bias is many σ away."""
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    nodes = np.arange(g.n, dtype=np.int64)
    R = 200
    d_hat, stats = local_push.estimate_D_local_push(
        g, nodes, np.full(g.n, R, dtype=np.int64), c=C, seed=4
    )
    head = np.array([one_estimate(g, k, R)[0] for k in range(g.n)])
    ell, r_tail = stats["ell"].to_numpy(), stats["pairs"].to_numpy()
    assert (r_tail > 0).all()
    q = np.clip((head - d_exact) / C**ell, 0.0, 1.0)
    sigma = math.sqrt(np.sum(C ** (2 * ell) * q * (1 - q) / r_tail)) / g.n
    assert abs(np.mean(d_hat - d_exact)) <= 5 * sigma
    assert np.mean(head - d_exact) > 10 * sigma


def test_estimate_D_local_push_tail_pairs_straddle_chunks(monkeypatch):
    """All tails run in one batch spanning several chunks; every node walks
    exactly its R'(k) pairs, including nodes cut by a chunk boundary."""
    g = gen.load("GQ-lite")
    walked = []
    run = pair_walks.simulate_pairs_local

    def spy(graph, assignments, *, c):
        walked.append(assignments)
        return run(graph, assignments, c=c)

    monkeypatch.setattr(pair_walks, "simulate_pairs_local", spy)
    nodes = np.arange(g.n, dtype=np.int64)
    counts = np.full(g.n, 3000, dtype=np.int64)
    d_hat, stats = local_push.estimate_D_local_push(g, nodes, counts, c=C, seed=5)
    (asg,) = walked
    assert asg["chunk"].nunique() > 1
    assert (asg.groupby("node")["nonstop"].nunique() == 1).all()
    assert (asg.groupby("node")["chunk"].nunique() > 1).any()
    per_node = asg.groupby("node")["pairs"].sum()
    tail = stats[stats["pairs"] > 0].set_index("node")["pairs"]
    assert per_node.to_dict() == tail.to_dict()
    assert stats["pairs"].sum() == asg["pairs"].sum()


@pytest.mark.parametrize("engine", pair_walks.ENGINES)
def test_estimate_D_local_push_without_tail_pairs(engine, request):
    """No node has a tail to walk: every in-degree is <= 1 (a cycle), or
    ``skip_tol`` skips every tail.  D̂ is then the head-only estimate."""
    spark = request.getfixturevalue("spark") if engine == "spark" else None
    for g, skip_tol in [(gen.tiny_cycle(4, spark), 0.0), (gen.load("GQ-lite", spark), 1.0)]:
        nodes = np.arange(min(g.n, 40), dtype=np.int64)
        counts = np.full(nodes.size, 500, dtype=np.int64)
        d_hat, stats = local_push.estimate_D_local_push(
            g, nodes, counts, c=C, seed=2, skip_tol=skip_tol, engine=engine
        )
        head = [one_estimate(g, k, 500, skip_tol=skip_tol)[0] for k in nodes]
        assert (stats["pairs"] == 0).all()
        np.testing.assert_array_equal(d_hat[nodes], head)


def test_estimate_D_local_push_same_seed_same_bits():
    g = gen.load("GQ-lite")
    nodes = np.arange(100, dtype=np.int64)
    counts = np.linspace(10, 20_000, 100).astype(np.int64)
    d_a, st_a = local_push.estimate_D_local_push(g, nodes, counts, c=C, seed=3)
    d_b, st_b = local_push.estimate_D_local_push(g, nodes, counts, c=C, seed=3)
    np.testing.assert_array_equal(d_a, d_b)
    assert st_a.equals(st_b)


def test_estimate_D_local_push_rejects_unknown_engine():
    g = gen.tiny_star(4)
    with pytest.raises(ValueError, match="unknown walk engine"):
        local_push.estimate_D_local_push(
            g, np.array([0]), np.array([100]), c=C, seed=1, engine="sparkk"
        )


def test_estimate_D_local_push_spark_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    nodes = np.arange(60, dtype=np.int64)
    counts = np.linspace(10, 5000, 60).astype(np.int64)
    d_a, st_a = local_push.estimate_D_local_push(
        g, nodes, counts, c=C, seed=7, engine="local"
    )
    d_b, st_b = local_push.estimate_D_local_push(
        g, nodes, counts, c=C, seed=7, engine="spark"
    )
    np.testing.assert_array_equal(d_a, d_b)
    assert st_a.equals(st_b)


def test_expand_batch_matches_per_row():
    """A row-batched ``expand_sparse`` equals one call per row."""
    g = gen.load("WV-lite")
    rng = np.random.default_rng(8)
    idx, val = [], []
    for _ in range(5):
        idx.append(np.sort(rng.choice(g.n, size=8, replace=False)).astype(np.int64))
        val.append(rng.random(8))
    rows = np.repeat(np.arange(5), 8)
    bi, bv, total, brow = mv.expand_sparse(
        g.csr, np.concatenate(idx), np.concatenate(val),
        prune=local_push.PRUNE, rows=rows,
    )
    expected_total = 0
    for r in range(5):
        si, sv, cost = mv.expand_sparse(g.csr, idx[r], val[r], prune=local_push.PRUNE)
        expected_total += cost
        np.testing.assert_array_equal(bi[brow == r], si)
        np.testing.assert_allclose(bv[brow == r], sv, atol=1e-12)
    assert total == expected_total
    assert np.all(np.diff(brow) >= 0)
