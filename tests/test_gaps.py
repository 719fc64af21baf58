import math
import random

import pytest

from addcomb import (
    BudgetExceededError,
    Gap,
    IntSet,
    enumerate_gap,
    gcd_normalize,
    mobius,
    mobius_identity_check,
    stratify,
)
from addcomb import gaps


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


def test_enumerate_budget(monkeypatch):
    monkeypatch.setattr(gaps, "DEFAULT_ENUM_BUDGET", 1 << 20)
    with pytest.raises(BudgetExceededError):
        enumerate_gap(Gap(0, (1, 1000), (5000, 5000)))


def test_gcd_normalize_examples():
    norm = gcd_normalize(Gap(6, (4, 10), (2, 2)))
    assert norm.gcd == 2
    assert norm.primed.base == 3 and norm.primed.steps == (2, 5)
    ident = gcd_normalize(Gap(3, (2, 5), (2, 2)))
    assert ident.gcd == 1 and ident.primed == Gap(3, (2, 5), (2, 2))
    assert gcd_normalize(Gap(0, (15, 25), (2, 2))).gcd == 5


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

    for n in range(1, 3000):
        assert mobius(n) == oracle(n), n


def test_mobius_sieve_matches_mobius():
    mu = gaps.mobius_sieve(10**4)
    assert len(mu) == 10**4 + 1 and mu[0] == 0
    assert mu[1:] == [mobius(n) for n in range(1, 10**4 + 1)]
    assert gaps.mobius_sieve(0) == [0] and gaps.mobius_sieve(1) == [0, 1]
    # max(I) // min(l) = 2^24 needs a sieve one past the enumeration budget
    with pytest.raises(BudgetExceededError):
        mobius_identity_check(IntSet([1 << 24]), Gap(1, (1,), (3,)), [1])


def test_factorize_rebuilds_n_from_increasing_primes():
    for n in range(1, 10**4 + 1):
        factors = gaps._factorize(n)
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))
        assert all(p >= 2 and e >= 1 and all(p % d for d in range(2, math.isqrt(p) + 1)) for p, e in factors)
        assert math.prod(p**e for p, e in factors) == n, n


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
