"""Sum-product structure along matchings: the bipartite product/sum graph,
complete-bipartite detection and the explicit edge bound, cubic energy, and
extremal matching search.

A matching is a list of distinct ordered integer pairs; (a, b) and (b, a)
are different entries (multiset semantics for the underlying sets), which
is exactly what makes the edge floor |edges| >= ceil(n/2) correct: an edge
(p, s) pins down {a, b} as the roots of z^2 - s z + p, so at most two
ordered pairs share it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable

from .checked import check_int, check_int128, checked_add, checked_mul
from .errors import BudgetExceededError
from .intset import IntSet

DEFAULT_KST_BUDGET = 1 << 22
DEFAULT_EXHAUSTIVE_BUDGET = 1 << 22


@dataclass(frozen=True)
class Matching:
    """Distinct ordered integer pairs (a_i, b_i)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((check_int(a, "matching entry"), check_int(b, "matching entry")) for a, b in self.pairs)
        if len(set(pairs)) != len(pairs):
            raise ValueError("matching pairs must be distinct as ordered pairs")
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.pairs]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "Matching":
        return cls(pairs=tuple(tuple(p) for p in data))


@dataclass(frozen=True)
class BipartiteGraph:
    """Left vertices (products), right vertices (sums), and the edge set."""

    left: frozenset[int]
    right: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for p, s in self.edges:
            if p not in self.left or s not in self.right:
                raise ValueError(f"edge ({p}, {s}) not inside left x right")

    def left_adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.left}
        for p, s in self.edges:
            adj[p].add(s)
        return adj

    def right_adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.right}
        for p, s in self.edges:
            adj[s].add(p)
        return adj


@dataclass(frozen=True)
class SumsProducts:
    sums: IntSet
    products: IntSet

    def to_json(self) -> dict:
        return {"S": self.sums.to_json(), "P": self.products.to_json()}


def sums_products(matching: Matching) -> SumsProducts:
    """S = {a+b} and P = {a*b} over the matching, deduplicated."""
    sums = []
    products = []
    for a, b in matching.pairs:
        sums.append(checked_add(a, b))
        products.append(checked_mul(a, b))
    return SumsProducts(sums=IntSet(sums), products=IntSet(products))


def sp_graph(matching: Matching) -> BipartiteGraph:
    """The product-sum graph: one edge (a*b, a+b) per matching entry,
    multiplicity collapsed.

    Every generated edge satisfies the discriminant identity
    (a+b)^2 - 4ab = (a-b)^2, checked here, and the index-to-edge map is at
    most 2-to-1, so the edge count is at least ceil(n/2).
    """
    edges = set()
    for a, b in matching.pairs:
        p, s = checked_mul(a, b), checked_add(a, b)
        disc = s * s - 4 * p
        if disc != (a - b) * (a - b):
            raise RuntimeError(f"discriminant identity fails for pair ({a}, {b})")
        edges.add((p, s))
    graph = BipartiteGraph(
        left=frozenset(p for p, _ in edges),
        right=frozenset(s for _, s in edges),
        edges=frozenset(edges),
    )
    if 2 * len(graph.edges) < matching.n:
        raise RuntimeError(f"{len(graph.edges)} edges fall below ceil(n/2) for n={matching.n}")
    return graph


# ---------------------------------------------------------------------------
# complete bipartite subgraphs
# ---------------------------------------------------------------------------


def find_kst(graph: BipartiteGraph, s: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A K_{s,t} witness (s left vertices, t right vertices), or None.

    Walks t-subsets of left neighborhoods, counting how many left vertices
    contain each; the t-th subset reaching s reveals the witness.  Degree
    pruning keeps the subset space at sum-over-left of C(deg, t).
    """
    if s < 1 or t < 1:
        raise ValueError(f"subgraph sides must be >= 1, got s={s}, t={t}")
    adj = graph.left_adjacency()
    seen: dict[tuple[int, ...], int] = {}
    work = 0
    for v in sorted(adj):
        nbrs = sorted(adj[v])
        if len(nbrs) < t:
            continue
        work += math.comb(len(nbrs), t)
        if work > DEFAULT_KST_BUDGET:
            raise BudgetExceededError(f"K_st search exceeded budget {DEFAULT_KST_BUDGET}")
        for subset in itertools.combinations(nbrs, t):
            seen[subset] = seen.get(subset, 0) + 1
            if seen[subset] >= s:
                subset_set = set(subset)
                lefts = tuple(
                    u for u in sorted(adj) if subset_set <= adj[u]
                )[:s]
                return lefts, subset
    return None


def kst_free(graph: BipartiteGraph, s: int, t: int) -> bool:
    """True iff the graph contains no complete K_{s,t} (s left, t right)."""
    if s > 6 or t > 6:
        raise ValueError(f"sides above 6 not supported (got s={s}, t={t})")
    return find_kst(graph, s, t) is None


@dataclass(frozen=True)
class KstBound:
    edges: int
    bound: float
    holds: bool
    s: int
    t: int
    constant_form: str

    def to_json(self) -> dict:
        return {
            "edges": self.edges,
            "bound": self.bound,
            "holds": self.holds,
            "s": self.s,
            "t": self.t,
            "constant_form": self.constant_form,
        }


def kst_bound(graph: BipartiteGraph, s: int, t: int) -> KstBound:
    """Explicit edge bound for K_{s,t}-free bipartite graphs.

    With m left and n right vertices and no K_{s,t} (s left, t right):
    edges <= ((s-1) * t! * C(n, t))^(1/t) * m^(1-1/t) + (t-1) * m.  The
    holds flag is decided exactly: e' = edges - (t-1) m, and holds iff
    e' <= 0 or e'^t <= (s-1) * t! * C(n, t) * m^(t-1), all in integers.
    """
    if s < 1 or t < 1:
        raise ValueError(f"sides must be >= 1, got s={s}, t={t}")
    m = len(graph.left)
    n = len(graph.right)
    e = len(graph.edges)
    perm = math.perm(n, t) if n >= t else 0
    if m == 0:
        holds = e == 0
        bound = 0.0
    else:
        excess = e - (t - 1) * m
        holds = excess <= 0 or excess**t <= (s - 1) * perm * m ** (t - 1)
        bound = ((s - 1) * perm) ** (1 / t) * m ** (1 - 1 / t) + (t - 1) * m
    return KstBound(
        edges=e,
        bound=bound,
        holds=holds,
        s=s,
        t=t,
        constant_form="((s-1)*t!*C(n,t))^(1/t)*m^(1-1/t)+(t-1)*m",
    )


def cubic_energy(graph: BipartiteGraph) -> int:
    """Sum of cubed right-side degrees."""
    total = 0
    for nbrs in graph.right_adjacency().values():
        total += len(nbrs) ** 3
    return check_int128(total, "cubic energy accumulator")


@dataclass(frozen=True)
class HolderCheck:
    lhs: int
    rhs: int
    holds: bool
    cubic_ratio: float

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "cubic_ratio": self.cubic_ratio,
        }


def holder_chain_check(matching: Matching) -> HolderCheck:
    """The unconditional power-mean step on the product-sum graph.

    lhs = (sum of right degrees)^3 must not exceed rhs = |S|^2 * (sum of
    cubed right degrees).  The conditional continuation (cubed degrees
    against |P|^3) is emitted as a ratio only.
    """
    graph = sp_graph(matching)
    degrees = [len(nbrs) for nbrs in graph.right_adjacency().values()]
    total = sum(degrees)
    cubes = sum(d**3 for d in degrees)
    lhs = check_int128(total**3, "Holder lhs")
    rhs = check_int128(len(graph.right) ** 2 * cubes, "Holder rhs")
    p_size = len(graph.left)
    ratio = float(f"{cubes / p_size ** 3:.12g}") if p_size else 0.0
    return HolderCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs, cubic_ratio=ratio)


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalResult:
    matching: Matching
    score: int
    mode: str
    seed: int

    def to_json(self) -> dict:
        return {
            "matching": self.matching.to_json(),
            "score": self.score,
            "mode": self.mode,
            "seed": self.seed,
        }


def _score(pairs: Iterable[tuple[int, int]]) -> int:
    sums = set()
    products = set()
    for a, b in pairs:
        sums.add(a + b)
        products.add(a * b)
    return len(sums) + len(products)


def _structured_seeds(n: int, box: int) -> list[tuple[tuple[int, int], ...]]:
    """Grid and geometric starting matchings; multiplicative structure keeps
    the product set small."""
    seeds = []
    side = math.isqrt(n) + 1
    grid = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
    seeds.append(tuple(grid[:n]))
    geo = []
    value = 1
    for i in range(n):
        geo.append((value, 1 + i % 2))
        if value * 2 <= box:
            value *= 2
        else:
            value = 1 + len(geo) % max(1, box)
    if len(set(geo)) == n:
        seeds.append(tuple(geo))
    diag = tuple((i, i) for i in range(1, n + 1))
    seeds.append(diag)
    return [s for s in seeds if len(set(s)) == n and all(abs(a) <= box and abs(b) <= box for a, b in s)]


def extremal_search(
    n: int,
    box: int = 5,
    seed: int = 0,
    iterations: int = 2000,
    mode: str = "auto",
) -> ExtremalResult:
    """Search for an n-pair matching minimizing |P| + |S| inside the
    coordinate box [-box, box]^2.

    Exhaustive enumeration when n <= 6 and the subset space fits
    DEFAULT_EXHAUSTIVE_BUDGET (ties resolve to the lexicographically
    smallest matching); otherwise seeded local search from structured
    starts, deterministic for a given seed.
    """
    if n < 1:
        raise ValueError(f"matching size must be >= 1, got {n}")
    if box < 0 or iterations < 0:
        raise ValueError(f"box and iterations must be >= 0, got box={box}, iterations={iterations}")
    universe = [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)]
    if len(universe) < n:
        raise ValueError(f"box [-{box}, {box}]^2 holds fewer than {n} pairs")
    if mode == "auto":
        mode = "exhaustive" if n <= 6 and math.comb(len(universe), n) <= DEFAULT_EXHAUSTIVE_BUDGET else "local"
    if mode == "exhaustive":
        space = math.comb(len(universe), n)
        if space > DEFAULT_EXHAUSTIVE_BUDGET:
            raise BudgetExceededError(f"{space} candidate matchings exceed budget {DEFAULT_EXHAUSTIVE_BUDGET}")
        best_pairs: tuple[tuple[int, int], ...] | None = None
        best_score = None
        for combo in itertools.combinations(universe, n):
            sc = _score(combo)
            if best_score is None or sc < best_score or (sc == best_score and combo < best_pairs):
                best_score, best_pairs = sc, combo
        if best_pairs is None or best_score is None:
            raise RuntimeError("exhaustive extremal search visited no matching")
        return ExtremalResult(
            matching=Matching(pairs=best_pairs), score=best_score, mode="exhaustive", seed=seed
        )
    if mode != "local":
        raise ValueError(f"unknown extremal mode {mode!r}")
    rng = random.Random(seed)
    candidates = _structured_seeds(n, box)
    if not candidates:
        candidates = [tuple(universe[:n])]
    best_pairs = min(candidates, key=lambda c: (_score(c), c))
    best_score = _score(best_pairs)
    current = list(best_pairs)
    current_score = best_score
    for _ in range(iterations):
        idx = rng.randrange(n)
        replacement = universe[rng.randrange(len(universe))]
        if replacement in current:
            continue
        trial = list(current)
        trial[idx] = replacement
        sc = _score(trial)
        if sc <= current_score:
            current, current_score = trial, sc
            key = tuple(sorted(current))
            if sc < best_score or (sc == best_score and key < tuple(sorted(best_pairs))):
                best_pairs, best_score = key, sc
    return ExtremalResult(
        matching=Matching(pairs=tuple(sorted(best_pairs))),
        score=best_score,
        mode="local",
        seed=seed,
    )
