"""Acceptance suite: exact identities, theorem-backed inequalities, oracle
equivalence and reproducible trend reports.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
live); the stated runtimes are expectations and are reported, not asserted.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from addcomb import (
    BipartiteGraph,
    IntSet,
    Matching,
    count_in_ap,
    energy,
    higher_energy,
    holder_chain_check,
    kst_bound,
    kst_free,
    mixed_energy,
    mobius_identity_check,
    pluennecke_check,
    qk_oracle,
    rep_function,
    replay_scan_record,
    sp_graph,
    square_sum_clique_search,
)
from addcomb.curves import census_from_counts, quadruple_counts
from addcomb.gaps import Gap
from addcomb.incidence import PointSet2D, count_solutions
from conftest import naive_count_solutions, naive_rep, rep_dict


@contextmanager
def criterion(number, label, target):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL ({time.perf_counter() - start:.2f}s, target {target})")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS ({time.perf_counter() - start:.2f}s, target {target})")


def random_set(rng, max_size, lo, hi):
    size = min(rng.randint(1, max_size), hi - lo + 1)
    return IntSet(rng.sample(range(lo, hi + 1), size))


# ---------------------------------------------------------------------------
# 1. mixed-energy symmetry
# ---------------------------------------------------------------------------


def test_criterion_1_mixed_energy_symmetry():
    with criterion(1, "mixed-energy symmetry", "<30s"):
        rng = random.Random(101)
        for _ in range(100):
            a = random_set(rng, 8, -30, 30)
            values = {}
            for k in (2, 3, 4):
                for l in (2, 3, 4):
                    values[(k, l)] = mixed_energy(a, k, l)
            for k in (2, 3, 4):
                for l in (2, 3, 4):
                    assert values[(k, l)] == values[(l, k)], (a, k, l)


# ---------------------------------------------------------------------------
# 2. iterated sumset growth
# ---------------------------------------------------------------------------


def test_criterion_2_pluennecke():
    with criterion(2, "Pluennecke-Ruzsa inequality", "<30s"):
        rng = random.Random(202)
        exponents = [(n, m) for n in range(5) for m in range(5) if 1 <= n + m <= 4]
        for _ in range(200):
            a = random_set(rng, 10, -50, 50)
            for n, m in exponents:
                assert pluennecke_check(a, n, m).holds, (a, n, m)


# ---------------------------------------------------------------------------
# 3. Mobius stratification identity
# ---------------------------------------------------------------------------


def test_criterion_3_mobius_identity():
    with criterion(3, "Mobius stratification identity", "<10s"):
        rng = random.Random(303)
        for _ in range(50):
            d = rng.randint(1, 2)
            while True:
                steps = tuple(rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(d))
                lengths = tuple(rng.randint(1, 14) for _ in range(d))
                if math.prod(lengths) <= 200:
                    break
            gap = Gap(base=rng.randint(-20, 20), steps=steps, lengths=lengths)
            i_set = IntSet(rng.sample(range(1, 60), rng.randint(1, 30)))
            checks = mobius_identity_check(i_set, gap, list(range(1, 13)))
            assert len(checks) == 12
            for l, check in zip(range(1, 13), checks):
                assert check.equal, (i_set, gap, l)


# ---------------------------------------------------------------------------
# 4. oracle equivalence
# ---------------------------------------------------------------------------


def qk_reference(k, n, pmax, rmax):
    top = pmax + rmax * (n - 1)
    table = set()
    m = 0
    while m**k <= top:
        table.add(m**k)
        m += 1
    best = (-1, 1, 0)
    for r in range(1, rmax + 1):
        for p in range(0, pmax + 1):
            c = 0
            v = p
            for _ in range(n):
                if v in table:
                    c += 1
                v += r
            if c > best[0]:
                best = (c, r, p)
    return best


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle equivalence", "<2min"):
        rng = random.Random(404)
        # windowed representation-counting kernel versus the double loop
        for _ in range(40):
            a = random_set(rng, 25, -300, 300)
            b = random_set(rng, 25, -300, 300)
            for sign in ("plus", "minus"):
                assert rep_dict(rep_function(a, b, sign)) == naive_rep(a, b, sign)
        # hashed incidence counting versus the triple loop
        for _ in range(30):
            a = random_set(rng, 50, -80, 80)
            c = random_set(rng, 50, -20, 20)
            pairs = set()
            while len(pairs) < rng.randint(1, 50):
                pairs.add((rng.randint(-12, 12), rng.randint(-12, 12)))
            points = PointSet2D(tuple(sorted(pairs)))
            assert count_solutions(a, c, points) == naive_count_solutions(a, c, points)
        # box scanner versus an independent double-loop scanner
        for n in (1, 5, 12, 25, 40):
            record = qk_oracle(2, n, 200, 200)
            count, r, p = qk_reference(2, n, 200, 200)
            assert (record.best_count, record.witness_r, record.witness_p) == (count, r, p), n


# ---------------------------------------------------------------------------
# 5. known witnesses
# ---------------------------------------------------------------------------


def test_criterion_5_known_witnesses():
    with criterion(5, "known witnesses", "<1min"):
        assert count_in_ap(2, 1, 24, 8) == 5
        record = qk_oracle(2, 3, 100, 100)
        assert record.best_count == 3
        assert replay_scan_record(record)
        assert qk_oracle(2, 3, 100, 100) == record  # replayable and stable
        cliques = [set(c) for c in square_sum_clique_search(50, 3)]
        assert {6, 19, 30} in cliques


# ---------------------------------------------------------------------------
# 6. matching invariants
# ---------------------------------------------------------------------------


def test_criterion_6_matching_invariants():
    with criterion(6, "matching invariants", "<1min"):
        rng = random.Random(606)
        for _ in range(1000):
            n = rng.randint(1, 200)
            pairs = set()
            while len(pairs) < n:
                pairs.add((rng.randint(-1000, 1000), rng.randint(-1000, 1000)))
            matching = Matching(tuple(sorted(pairs)))
            graph = sp_graph(matching)  # asserts the discriminant identity per edge
            assert 2 * len(graph.edges) >= n
            for p, s in graph.edges:
                disc = s * s - 4 * p
                root = math.isqrt(disc)
                assert root * root == disc
            check = holder_chain_check(matching)
            assert check.holds


# ---------------------------------------------------------------------------
# 7. explicit complete-bipartite edge bound
# ---------------------------------------------------------------------------


def generate_kst_free(rng, s, t, left_size, right_size, attempts):
    adj = {u: set() for u in range(left_size)}
    radj = {w: set() for w in range(right_size)}
    edges = set()
    for _ in range(attempts):
        u = rng.randrange(left_size)
        w = rng.randrange(right_size)
        if (u, w) in edges:
            continue
        creates = False
        candidates = [v for v in radj[w] if v != u]
        for combo in itertools.combinations(candidates, s - 1):
            common = adj[u]
            for v in combo:
                common = common & adj[v]
            if len(common) >= t - 1:
                creates = True
                break
        if creates:
            continue
        edges.add((u, w))
        adj[u].add(w)
        radj[w].add(u)
    return BipartiteGraph(
        left=frozenset(range(left_size)),
        right=frozenset(10**6 + w for w in range(right_size)),
        edges=frozenset((u, 10**6 + w) for u, w in edges),
    )


def naive_kst_free(graph, s, t):
    adj = graph.left_adjacency()
    for combo in itertools.combinations(sorted(graph.left), s):
        common = set.intersection(*(adj[v] for v in combo))
        if len(common) >= t:
            return False
    return True


def test_criterion_7_kst_bound():
    with criterion(7, "Kovari-Sos-Turan bound", "<2min"):
        rng = random.Random(707)
        for s, t in ((2, 2), (3, 3)):
            for _ in range(50):
                left = rng.randint(2, 200)
                right = rng.randint(2, 200)
                graph = generate_kst_free(rng, s, t, left, right, attempts=3 * (left + right))
                assert kst_free(graph, s, t), (s, t, left, right)
                result = kst_bound(graph, s, t)
                assert result.holds, (s, t, result)
        # detector agreement against plain subset enumeration on small sides
        agree_rng = random.Random(708)
        for _ in range(60):
            left = agree_rng.randint(1, 30)
            right = agree_rng.randint(1, 30)
            edges = {
                (u, 500 + w)
                for u in range(left)
                for w in range(right)
                if agree_rng.random() < 0.25
            }
            if not edges:
                continue
            graph = BipartiteGraph(
                left=frozenset(range(left)),
                right=frozenset(500 + w for w in range(right)),
                edges=frozenset(edges),
            )
            for s, t in ((2, 2), (3, 3)):
                assert kst_free(graph, s, t) == naive_kst_free(graph, s, t)


# ---------------------------------------------------------------------------
# 8. quadruple curve census against a naive oracle
# ---------------------------------------------------------------------------


def census_oracle_count(alpha, beta, gamma, height):
    count = 0
    for x in range(-height, height + 1):
        x2 = x * x
        value = (x2 + alpha) * (x2 + beta) * (x2 + gamma)
        if value < 0:
            continue
        root = math.isqrt(value)
        if root * root == value:
            count += 1 if root == 0 else 2
    return count


def test_criterion_8_curve_census():
    with criterion(8, "quadruple curve census", "<5min"):
        height = 1000
        counts = quadruple_counts(-10, 10, height)
        for triple, count in counts:
            assert count == census_oracle_count(*triple, height), (triple, count)
        census = census_from_counts(counts, height, -10, 10)
        assert census.triples_total == math.comb(20, 3)
        assert sum(census.histogram.values()) == census.triples_total
        assert census.max_count >= 4  # (3, 8, 15) realizes (+-1, +-24)
        print(f"census max observed integer-point count: {census.max_count} at {census.argmax[:3]}")


# ---------------------------------------------------------------------------
# 9. reproducible energy trend reports
# ---------------------------------------------------------------------------


def test_criterion_9_energy_trends(tmp_path):
    with criterion(9, "energy trend reports", "<2min"):
        env = dict(os.environ, ADDCOMB_RECORDS=str(tmp_path / "store.jsonl"))
        argv = [
            sys.executable, "-m", "addcomb.cli",
            "energy", "--powers", "2", "--n-list", "1000,10000,100000",
        ]
        first = subprocess.run(argv, capture_output=True, env=env, check=True)
        second = subprocess.run(argv, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout
        rows = [json.loads(line) for line in first.stdout.decode().splitlines()]
        trend = [r for r in rows if r.get("type") == "energy_trend"]
        assert [r["n"] for r in trend] == [1000, 10000, 100000]
        assert [r["size"] for r in trend] == [31, 100, 316]
        for row in trend:
            assert row["exponent"] == "8/3" and row["ratio"] > 0
        # independent recomputation of the smaller rows
        for row in trend[:2]:
            squares = IntSet([m * m for m in range(1, math.isqrt(row["n"]) + 1)])
            hist = {}
            for x in squares:
                for y in squares.elements:
                    hist[x + y] = hist.get(x + y, 0) + 1
            assert row["energy"] == sum(c * c for c in hist.values())
            assert row["energy"] == energy(squares, squares)
        # the conjectural exponent itself is never asserted, only reported
        assert higher_energy(IntSet([1, 4, 9, 16, 25]), 2) == trend_energy_check()


def trend_energy_check():
    a = [1, 4, 9, 16, 25]
    return sum(1 for x in a for y in a for z in a for w in a if x - y == z - w)
