"""Shared test helpers: seeded random inputs, and one plainly written
oracle per counted quantity, which the production kernels are compared
against."""

import itertools
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


def naive_count_solutions(a, c, points):
    """#{(x, v, (b, d)) in A x C x L : x = b*v + d} by a triple loop."""
    return sum(1 for x in a for v in c for b, d in points if x == b * v + d)


def naive_residue_count(gap, l):
    """#{x in the index box : base + sum step_j x_j == 0 mod l}, walking
    the whole box."""
    return sum(
        1
        for idx in itertools.product(*(range(n) for n in gap.lengths))
        if (gap.base + sum(s * x for s, x in zip(gap.steps, idx))) % l == 0
    )


def naive_ring_solution_count(gap, l):
    """Solutions of base + sum step_j x_j == 0 mod l with every x_j over
    the whole ring Z/l, walking all l^d tuples."""
    return sum(
        1
        for idx in itertools.product(range(l), repeat=gap.dimension)
        if (gap.base + sum(s * x for s, x in zip(gap.steps, idx))) % l == 0
    )
