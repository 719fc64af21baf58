import math
import random

import pytest

from addcomb import (
    BudgetExceededError,
    Gap,
    IntSet,
    enumerate_gap,
    fix_fiber,
    gcd_normalize,
    is_proper,
    mobius,
    mobius_identity_check,
    residue_count,
    ring_solution_count,
    shrink,
    split_for_double_properness,
    stratify,
)
from conftest import naive_residue_count, naive_ring_solution_count


def random_gap(rng: random.Random, max_dim: int = 3, max_box: int = 200) -> Gap:
    d = rng.randint(1, max_dim)
    while True:
        steps = tuple(rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(d))
        lengths = tuple(rng.randint(1, 12) for _ in range(d))
        if math.prod(lengths) <= max_box:
            return Gap(base=rng.randint(-30, 30), steps=steps, lengths=lengths)


def test_gap_validation():
    with pytest.raises(ValueError):
        Gap(0, (0,), (3,))
    with pytest.raises(ValueError):
        Gap(0, (1, 2), (3,))
    with pytest.raises(ValueError):
        Gap(0, (1,), (0,))


def test_enumerate_examples():
    assert enumerate_gap(Gap(0, (1, 10), (3, 2))) == IntSet([0, 1, 2, 10, 11, 12])
    assert enumerate_gap(Gap(5, (2,), (4,))) == IntSet([5, 7, 9, 11])
    assert enumerate_gap(Gap(0, (1, 2), (3, 3))) == IntSet([0, 1, 2, 3, 4, 5, 6])


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_gap(Gap(0, (1, 1000), (5000, 5000)), budget=1 << 20)


def test_is_proper_examples():
    assert is_proper(Gap(0, (1, 10), (3, 2)))
    assert not is_proper(Gap(0, (1, 2), (3, 3)))
    rng = random.Random(3)
    for _ in range(20):
        step = rng.choice([-7, -2, 1, 3, 11])
        ap = Gap(rng.randint(-5, 5), (step,), (rng.randint(1, 50),))
        assert is_proper(ap)  # one dimension is always proper


def test_split_examples():
    parts = split_for_double_properness(Gap(0, (1,), (10,)))
    assert [p.gap.lengths for p in parts] == [(5,), (5,)]
    assert [p.gap.base for p in parts] == [0, 5]

    g = Gap(0, (1, 10), (4, 4))
    parts = split_for_double_properness(g)
    assert len(parts) == 4
    assert all(p.doubling_proper for p in parts)
    union = set()
    for p in parts:
        union |= set(enumerate_gap(p.gap))
    assert IntSet(union) == enumerate_gap(g)


def test_split_union_covers_improper_too():
    g = Gap(0, (1, 2), (3, 3))
    union = set()
    for p in split_for_double_properness(g):
        union |= set(enumerate_gap(p.gap))
    assert IntSet(union) == enumerate_gap(g)


def test_gcd_normalize_examples():
    norm = gcd_normalize(Gap(6, (4, 10), (2, 2)))
    assert norm.gcd == 2
    assert norm.primed.base == 3 and norm.primed.steps == (2, 5)
    ident = gcd_normalize(Gap(3, (2, 5), (2, 2)))
    assert ident.gcd == 1 and ident.primed == Gap(3, (2, 5), (2, 2))
    assert gcd_normalize(Gap(0, (15, 25), (2, 2))).gcd == 5


def test_residue_count_examples():
    assert residue_count(Gap(0, (1,), (10,)), 2) == 5
    assert residue_count(Gap(1, (2,), (10,)), 2) == 0
    assert residue_count(Gap(1, (24,), (8,)), 5) == 2
    assert naive_residue_count(Gap(1, (24,), (8,)), 5) == 2


def test_residue_count_fast_agrees_with_direct():
    rng = random.Random(17)
    for _ in range(25):
        g = random_gap(rng)
        for l in (1, 2, 3, 5, 7, 12, 97, 1000):
            assert residue_count(g, l) == naive_residue_count(g, l), (g, l)


def test_residue_count_exact_identity_when_lengths_divisible():
    # when l divides every side, the box count is |box| * g * [g | base] / l
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(1, 3)
        l = rng.choice([2, 3, 4, 6])
        steps = tuple(rng.choice([-9, -4, 2, 3, 5, 8, 12]) for _ in range(d))
        lengths = tuple(l * rng.randint(1, 4) for _ in range(d))
        g = Gap(rng.randint(-10, 10), steps, lengths)
        gg = math.gcd(l, *steps)
        expected = math.prod(lengths) * gg // l if g.base % gg == 0 else 0
        assert residue_count(g, l) == expected


def test_ring_solution_count_multiplicative():
    rng = random.Random(29)
    for _ in range(20):
        g = random_gap(rng, max_dim=2)
        for l in (1, 2, 6, 12, 30):
            assert ring_solution_count(g, l) == naive_ring_solution_count(g, l)
    # multiplicativity across coprime moduli
    g = Gap(3, (4, 6), (5, 5))
    assert ring_solution_count(g, 35) == ring_solution_count(g, 5) * ring_solution_count(g, 7)


def test_stratify_examples():
    strat = stratify(IntSet([1]), Gap(7, (3,), (4,)))
    h = enumerate_gap(gcd_normalize(Gap(7, (3,), (4,))).primed)
    assert strat.classes == {1: len(h)}

    strat = stratify(IntSet([2, 4]), Gap(2, (1,), (2,)))
    assert strat.classes == {1: 2, 2: 2}

    rng = random.Random(31)
    for _ in range(10):
        g = random_gap(rng, max_dim=2, max_box=60)
        i_set = IntSet(rng.sample(range(1, 40), rng.randint(1, 10)))
        strat = stratify(i_set, g)
        h = enumerate_gap(gcd_normalize(g).primed)
        assert strat.total() == len(i_set) * len(h)


def test_stratify_requires_positive_index_set():
    with pytest.raises(ValueError):
        stratify(IntSet([0, 1]), Gap(0, (1,), (3,)))


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0

    def oracle(n):
        result = 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                result = -result
            d += 1
        return -result if n > 1 else result

    for n in range(1, 500):
        assert mobius(n) == oracle(n), n


def test_mobius_identity_example():
    i_set = IntSet(range(1, 11))
    gap = Gap(1, (1,), (10,))
    (check,) = mobius_identity_check(i_set, gap, [1])
    coprime_pairs = sum(
        1 for i in range(1, 11) for j in range(1, 11) if math.gcd(i, j) == 1
    )
    assert check.direct == check.transformed == coprime_pairs == 63
    assert check.equal


def test_mobius_identity_large_l_is_zero():
    (check,) = mobius_identity_check(IntSet([1, 2, 3]), Gap(0, (1,), (5,)), [100])
    assert check.direct == check.transformed == 0 and check.equal


def test_mobius_identity_random():
    rng = random.Random(41)
    for _ in range(15):
        g = random_gap(rng, max_dim=2, max_box=80)
        i_set = IntSet(rng.sample(range(1, 30), rng.randint(1, 8)))
        values = enumerate_gap(gcd_normalize(g).primed)
        checks = mobius_identity_check(i_set, g, list(range(1, 13)))
        assert len(checks) == 12
        for l, check in zip(range(1, 13), checks):
            assert check.equal, (i_set, g, l)
            # brute-force the direct side independently
            brute = sum(
                1 for i in i_set for h in values if math.gcd(i, h) == l
            )
            assert check.direct == brute


def test_residue_error_report_fields():
    from addcomb.gaps import residue_error_report

    g = Gap(0, (1, 10), (10, 10))  # proper, with proper doubling
    report = residue_error_report(g, 4)
    assert report.count == residue_count(g, 4)
    assert report.reference == 100 / 4
    assert report.error == report.count - report.reference
    assert report.scale == 2 * 100 / 10
    # report only: on this benign instance the error is small, but nothing
    # beyond field consistency is asserted in general
    assert abs(report.error) <= report.scale


def test_shrink_examples():
    g = Gap(0, (1, 2), (100, 60))
    assert shrink(g, 10).lengths == (10, 6)
    assert shrink(g, 1) == g
    assert shrink(g, 1000).lengths == (1, 1)


def test_fix_fiber():
    g = Gap(1, (2, 100), (5, 4))
    fixed = fix_fiber(g, {1: 3})
    assert fixed == Gap(301, (2,), (5,))
    assert enumerate_gap(fixed).as_set() <= enumerate_gap(g).as_set()
    with pytest.raises(ValueError):
        fix_fiber(g, {0: 0, 1: 0})
    with pytest.raises(ValueError):
        fix_fiber(g, {1: 9})


def test_partition_property_and_counts_by_class():
    # every pair lands in exactly one gcd class
    g = Gap(2, (2,), (6,))
    i_set = IntSet([1, 2, 3, 4, 6, 12])
    strat = stratify(i_set, g)
    norm = gcd_normalize(g)
    values = enumerate_gap(norm.primed)
    pairs = [(i, h) for i in i_set for h in values]
    for l, count in strat.classes.items():
        assert count == sum(1 for i, h in pairs if math.gcd(i, h) == l)
    assert strat.total() == len(pairs)
    assert strat.gcd == norm.gcd
