import itertools
import random

import pytest

from addcomb import (
    BipartiteGraph,
    IntSet,
    Matching,
    cubic_energy,
    extremal_search,
    holder_chain_check,
    kst_bound,
    kst_free,
    sp_graph,
    sums_products,
)


def graph_from_edges(edges):
    return BipartiteGraph(
        left=frozenset(p for p, _ in edges),
        right=frozenset(s for _, s in edges),
        edges=frozenset(edges),
    )


def naive_kst_free(graph, s, t):
    lefts = sorted(graph.left)
    adj = graph.left_adjacency()
    for combo in itertools.combinations(lefts, s):
        common = set.intersection(*(adj[v] for v in combo)) if combo else set()
        if len(common) >= t:
            return False
    return True


def random_matching(rng, n, bound=1000):
    pairs = set()
    while len(pairs) < n:
        pairs.add((rng.randint(-bound, bound), rng.randint(-bound, bound)))
    return Matching(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# sums, products and the graph
# ---------------------------------------------------------------------------


def test_sums_products_examples():
    sp = sums_products(Matching(((1, 2), (3, 4))))
    assert sp.sums == IntSet([3, 7]) and sp.products == IntSet([2, 12])
    sp = sums_products(Matching(((1, 2), (2, 1))))
    assert sp.sums == IntSet([3]) and sp.products == IntSet([2])
    diag = Matching(tuple((i, i) for i in range(1, 11)))
    sp = sums_products(diag)
    assert sp.sums == IntSet(range(2, 21, 2))
    assert sp.products == IntSet([i * i for i in range(1, 11)])


def test_matching_rejects_duplicates():
    with pytest.raises(ValueError):
        Matching(((1, 2), (1, 2)))


def test_sp_graph_examples():
    g = sp_graph(Matching(((1, 2), (2, 1))))
    assert len(g.edges) == 1
    g = sp_graph(Matching(((0, 1), (1, 0), (0, 2))))
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_sp_graph_edge_floor_random():
    rng = random.Random(77)
    for _ in range(200):
        m = random_matching(rng, rng.randint(1, 60), bound=40)
        g = sp_graph(m)
        assert 2 * len(g.edges) >= m.n


# ---------------------------------------------------------------------------
# complete bipartite detection and the edge bound
# ---------------------------------------------------------------------------


def test_kst_free_examples():
    complete = graph_from_edges([(a, b) for a in (1, 2, 3) for b in (10, 20, 30)])
    assert not kst_free(complete, 2, 2)
    matching_graph = graph_from_edges([(i, 100 + i) for i in range(8)])
    assert kst_free(matching_graph, 2, 2)
    assert kst_free(matching_graph, 3, 2)


def test_kst_free_matches_naive_on_random_graphs():
    rng = random.Random(15)
    for _ in range(40):
        lefts = range(rng.randint(1, 12))
        rights = range(100, 100 + rng.randint(1, 12))
        edges = {
            (a, b)
            for a in lefts
            for b in rights
            if rng.random() < 0.3
        }
        if not edges:
            continue
        g = graph_from_edges(edges)
        for s, t in ((2, 2), (2, 3), (3, 3)):
            assert kst_free(g, s, t) == naive_kst_free(g, s, t)


def test_kst_bound_examples():
    matching_graph = graph_from_edges([(i, 100 + i) for i in range(10)])
    res = kst_bound(matching_graph, 2, 2)
    assert res.holds and res.edges == 10
    empty = BipartiteGraph(frozenset([1]), frozenset([2]), frozenset())
    assert kst_bound(empty, 2, 2).holds
    # tiny matching edge case: 2 + 2 vertices, 2 disjoint edges
    tiny = graph_from_edges([(0, 10), (1, 11)])
    assert kst_free(tiny, 2, 2)
    assert kst_bound(tiny, 2, 2).holds


def test_kst_bound_holds_for_kst_free_random():
    rng = random.Random(25)
    for _ in range(60):
        left_size = rng.randint(1, 30)
        right_size = rng.randint(1, 30)
        s, t = rng.choice([(2, 2), (3, 3)])
        edges = set()
        adj = {v: set() for v in range(left_size)}
        attempts = rng.randint(1, 4 * (left_size + right_size))
        for _ in range(attempts):
            u = rng.randrange(left_size)
            w = 1000 + rng.randrange(right_size)
            if (u, w) in edges:
                continue
            adj[u].add(w)
            edges.add((u, w))
        g = graph_from_edges(edges) if edges else None
        if g is None:
            continue
        if kst_free(g, s, t):
            assert kst_bound(g, s, t).holds


def test_cubic_energy_examples():
    matching_graph = graph_from_edges([(i, 100 + i) for i in range(7)])
    assert cubic_energy(matching_graph) == 7
    star = graph_from_edges([(i, 55) for i in range(5)])
    assert cubic_energy(star) == 125
    rng = random.Random(8)
    edges = {(rng.randrange(6), 10 + rng.randrange(6)) for _ in range(12)}
    g = graph_from_edges(edges)
    degs = {}
    for _, s in edges:
        degs[s] = degs.get(s, 0) + 1
    assert cubic_energy(g) == sum(d**3 for d in degs.values())


def test_holder_chain_check():
    equal_deg = holder_chain_check(Matching(((1, 2), (2, 1))))
    assert equal_deg.lhs == equal_deg.rhs and equal_deg.holds
    pm = holder_chain_check(Matching(tuple((i, i + 1) for i in range(10))))
    assert pm.holds
    rng = random.Random(19)
    for _ in range(100):
        m = random_matching(rng, rng.randint(1, 40), bound=30)
        assert holder_chain_check(m).holds


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


def exhaustive_best_score(n, box):
    universe = [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)]
    best = None
    for combo in itertools.combinations(universe, n):
        sums = {a + b for a, b in combo}
        prods = {a * b for a, b in combo}
        score = len(sums) + len(prods)
        if best is None or score < best:
            best = score
    return best


def test_extremal_trivial():
    assert extremal_search(1).score == 2


def test_extremal_rejects_negative_box():
    with pytest.raises(ValueError, match="box and iterations must be >= 0"):
        extremal_search(2, box=-1)


def test_extremal_exhaustive_matches_oracle():
    res = extremal_search(2, box=3)
    assert res.mode == "exhaustive"
    assert res.score == exhaustive_best_score(2, 3) == 2
    res3 = extremal_search(3, box=5)
    assert res3.score == exhaustive_best_score(3, 5) == 3
    sp = sums_products(res3.matching)
    assert len(sp.sums) + len(sp.products) == res3.score


def test_extremal_local_deterministic():
    a = extremal_search(12, box=8, seed=4, iterations=500, mode="local")
    b = extremal_search(12, box=8, seed=4, iterations=500, mode="local")
    assert a == b
    sp = sums_products(a.matching)
    assert len(sp.sums) + len(sp.products) == a.score
    assert a.matching.n == 12
