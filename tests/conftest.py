"""Shared test helpers: seeded random inputs, and one plainly written
oracle per counted quantity, which the production kernels are compared
against."""

import math
import random

from addcomb import IntSet


def random_intset(rng: random.Random, max_size: int, lo: int, hi: int) -> IntSet:
    size = rng.randint(1, max_size)
    return IntSet(rng.sample(range(lo, hi + 1), min(size, hi - lo + 1)))


def naive_rep(a, b, sign):
    """r_{A+B} (sign "plus") or r_{A-B} (sign "minus") by a double loop."""
    out = {}
    for x in a:
        for y in b:
            v = x + y if sign == "plus" else x - y
            out[v] = out.get(v, 0) + 1
    return out


def rep_dict(rep):
    """rep_function's (values, counts) arrays as a dict value -> count."""
    values, counts = rep
    return dict(zip(values.tolist(), counts.tolist()))


def naive_count_solutions(a, c, points):
    """#{(x, v, (b, d)) in A x C x L : x = b*v + d} by a triple loop."""
    return sum(1 for x in a for v in c for b, d in points if x == b * v + d)


def naive_clique_search(height, size):
    """Every size-element subset of [1, height] with all pairwise sums
    square, sorted, by backtracking over the square-sum graph: each clique
    grows in ascending order, and its candidates narrow to the common
    neighbours of its members by a square test on every candidate pair."""

    def is_square(v):
        return math.isqrt(v) ** 2 == v

    def extend(clique, candidates):
        if len(clique) == size:
            yield tuple(clique)
            return
        for i, c in enumerate(candidates):
            narrowed = [v for v in candidates[i + 1 :] if is_square(c + v)]
            yield from extend(clique + [c], narrowed)

    out = []
    for a in range(1, height + 1):
        higher = [s * s - a for s in range(math.isqrt(2 * a) + 1, math.isqrt(a + height) + 1)]
        out.extend(extend([a], higher))
    return out
