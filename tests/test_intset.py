import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import (
    INT64_MAX,
    INT64_MIN,
    BudgetExceededError,
    IntegerOverflowError,
    IntSet,
    energy,
    higher_energy,
    mixed_energy,
    pluennecke_check,
    popular_energy_sum,
    rep_function,
    signed_sumset,
    sumset,
)
from addcomb import intset
from conftest import naive_rep, random_intset, rep_dict

small_sets = st.sets(st.integers(-50, 50), min_size=0, max_size=8).map(IntSet)
nonempty_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=8).map(IntSet)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def naive_energy(a, b):
    return sum(
        1
        for a1 in a
        for a2 in a
        for b1 in b
        for b2 in b
        if a1 + b1 == a2 + b2
    )


def naive_mixed(a, k, l):
    """Accumulate intersection sizes per shift tuple, then take l-th powers."""
    counts = {}
    for tup in itertools.product(a.elements, repeat=k):
        key = tuple(y - tup[0] for y in tup[1:])
        counts[key] = counts.get(key, 0) + 1
    return sum(c**l for c in counts.values())


# ---------------------------------------------------------------------------
# IntSet basics
# ---------------------------------------------------------------------------


def test_intset_sorted_dedup():
    a = IntSet([3, 1, 1, -2])
    assert a.elements == (-2, 1, 3)
    assert 1 in a and 2 not in a


def test_intset_rejects_out_of_range():
    with pytest.raises(IntegerOverflowError):
        IntSet([1 << 63])
    with pytest.raises(ValueError):
        IntSet([1.5])


# ---------------------------------------------------------------------------
# sumsets
# ---------------------------------------------------------------------------


def test_sumset_examples():
    assert sumset(IntSet([0, 1]), IntSet([0, 1])) == IntSet([0, 1, 2])
    assert sumset(IntSet([1, 4, 9]), IntSet([1, 4, 9])) == IntSet([2, 5, 8, 10, 13, 18])
    assert sumset(IntSet([1, 2]), IntSet()) == IntSet()


def test_sumset_overflow_names_pair():
    big = IntSet([(1 << 63) - 1])
    with pytest.raises(IntegerOverflowError, match="9223372036854775807 \\+ 1"):
        sumset(big, IntSet([1]))


def test_signed_sumset_examples():
    assert signed_sumset(IntSet([0, 1]), 2, 1) == IntSet([-1, 0, 1, 2])
    assert signed_sumset(IntSet([0, 3]), 1, 1) == IntSet([-3, 0, 3])
    assert signed_sumset(IntSet([0, 1, 3]), 2, 0) == IntSet([0, 1, 2, 3, 4, 6])
    with pytest.raises(ValueError):
        signed_sumset(IntSet([1]), 0, 0)


@given(small_sets, small_sets)
@settings(max_examples=60, deadline=None)
def test_sumset_matches_brute_force(a, b):
    expected = IntSet({x + y for x in a for y in b})
    assert sumset(a, b) == expected


def int64_end_cases(rng):
    """Seeded (A, B) with B small around 0 and A placed so that its largest
    sum is INT64_MAX, its smallest INT64_MIN, or both."""
    for _ in range(150):
        b = rng.sample(range(-30, 31), rng.randint(0, 5)) + [rng.randrange(31), -rng.randrange(31)]
        top = [INT64_MAX - max(b) - u for u in [0] + rng.sample(range(1, 60), rng.randint(0, 4))]
        bottom = [INT64_MIN - min(b) + u for u in [0] + rng.sample(range(1, 60), rng.randint(0, 4))]
        at_max, at_min = rng.choice([(True, False), (False, True), (True, True)])
        yield IntSet((top if at_max else []) + (bottom if at_min else [])), IntSet(b), at_max, at_min


@pytest.mark.parametrize("window", [intset.WINDOW_PAIRS, 3])
def test_sumsets_at_int64_ends_match_oracle(monkeypatch, window):
    monkeypatch.setattr(intset, "WINDOW_PAIRS", window)
    for a, b, at_max, at_min in int64_end_cases(random.Random(4100 + window)):
        sums = sumset(a, b)
        assert sums == IntSet({x + y for x in a for y in b})
        assert (INT64_MAX in sums, INT64_MIN in sums) == (at_max, at_min)
        neg_b = b.negate()
        minus, _ = rep_function(a, neg_b, "minus")
        assert IntSet(minus.tolist()) == IntSet({x - y for x in a for y in neg_b})
        # one more unit on the touched end is past it
        past = IntSet([b.max() + 1] if at_max else [b.min() - 1])
        with pytest.raises(IntegerOverflowError):
            sumset(a, past)
        with pytest.raises(IntegerOverflowError):
            rep_function(a, past.negate(), "minus")


# ---------------------------------------------------------------------------
# representation functions
# ---------------------------------------------------------------------------


def test_rep_function_examples():
    a = IntSet([0, 1])
    assert rep_dict(rep_function(a, a, "minus")) == {-1: 1, 0: 2, 1: 1}
    sq = IntSet([1, 4, 9])
    assert rep_dict(rep_function(sq, sq, "plus")) == {2: 1, 5: 2, 8: 1, 10: 2, 13: 2, 18: 1}


@given(nonempty_sets)
@settings(max_examples=60, deadline=None)
def test_rep_minus_symmetry_and_zero(a):
    hist = rep_dict(rep_function(a, a, "minus"))
    assert hist[0] == len(a)
    for value, count in hist.items():
        assert hist.get(-value) == count


@given(small_sets, small_sets)
@settings(max_examples=60, deadline=None)
def test_rep_methods_agree_with_naive(a, b):
    for sign in ("plus", "minus"):
        values, counts = rep_function(a, b, sign)
        assert rep_dict((values, counts)) == naive_rep(a, b, sign)
        assert values.dtype == np.int64 and bool(np.all(values[1:] > values[:-1]))
        assert bool(np.all(counts > 0))
        assert int(counts.sum()) == len(a) * len(b)


NEAR_2_62 = (1 << 62) - 1


def forced_window_cases(rng):
    """Seeded pairs (A, B) for the windowed kernel: random sets of both
    signs, empty sets, a value carrying more pairs than any forced window
    (0 in A - A for an interval), and elements near +-2^62 whose sums and
    differences come close to the ends of signed 64-bit."""
    cases = [(IntSet(), IntSet([1, 2])), (IntSet([3]), IntSet()),
             (IntSet(range(20)), IntSet(range(20))), (IntSet([5]), IntSet([-7]))]
    for _ in range(12):
        width = rng.choice([4, 40, 10**6, 1 << 40])
        cases.append((random_intset(rng, 9, -width, width), random_intset(rng, 9, -width, width)))
    for _ in range(3):
        ends = [NEAR_2_62 - rng.randrange(50) for _ in range(3)]
        ends += [-(NEAR_2_62 - rng.randrange(50)) for _ in range(3)]
        cases.append((IntSet(ends + [0, rng.randrange(-9, 9)]), IntSet(ends)))
    return cases


@pytest.mark.parametrize("window", [1, 3, 17])
def test_windowed_kernel_matches_naive_over_many_windows(monkeypatch, window):
    monkeypatch.setattr(intset, "WINDOW_PAIRS", window)
    for a, b in forced_window_cases(random.Random(3000 + window)):
        for sign in ("plus", "minus"):
            assert rep_dict(rep_function(a, b, sign)) == naive_rep(a, b, sign)
        assert energy(a, b) == sum(c**2 for c in naive_rep(a, b, "plus").values())
        assert higher_energy(a, 3) == sum(c**3 for c in naive_rep(a, a, "minus").values())
        if not a:
            continue
        # P - P leaves signed 64-bit for the sets near +-2^62
        diffs = naive_rep(a, a, "minus")
        p = popular_oracle(a)
        if p.max() - p.min() <= INT64_MAX:
            pp = naive_rep(p, p, "minus")
            assert popular_energy_sum(a).sum == sum(pp.get(x, 0) for x in diffs)
        else:
            with pytest.raises(IntegerOverflowError):
                popular_energy_sum(a)


def test_higher_energy_past_int64():
    # r_{A-A}(x) = 2000 - |x| for an interval, and 2000^6 > 2^63
    expected = sum((2000 - abs(x)) ** 6 for x in range(-1999, 2000))
    assert expected > 1 << 63
    assert higher_energy(IntSet(range(2000)), 6) == expected


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def test_energy_examples():
    a = IntSet([0, 1])
    assert energy(a, a) == 6
    # brute force over quadruples gives 8 for this pair of sets
    assert energy(IntSet([0, 1, 2]), IntSet([0, 2])) == 8
    assert energy(IntSet([0, 1, 2]), IntSet([0, 2])) == naive_energy([0, 1, 2], [0, 2])


@given(nonempty_sets)
@settings(max_examples=40, deadline=None)
def test_energy_both_ways(a):
    via_sums = sum(c * c for c in rep_dict(rep_function(a, a, "plus")).values())
    via_diffs = sum(c * c for c in rep_dict(rep_function(a, a, "minus")).values())
    assert energy(a, a) == via_sums == via_diffs


def test_higher_energy_examples():
    a = IntSet([0, 1])
    assert higher_energy(a, 3) == 10
    assert higher_energy(a, 2) == 6 == energy(a, a)
    b = IntSet([0, 1, 3])
    # shifted-intersection form of the fourth moment, brute forced
    assert higher_energy(b, 4) == 87 == naive_mixed(b, 4, 2)


def test_mixed_energy_examples():
    rng = random.Random(7)
    for _ in range(10):
        a = random_intset(rng, 6, -20, 20)
        for k in (2, 3, 4):
            assert mixed_energy(a, k, 2) == higher_energy(a, k)
    c = IntSet([0, 1, 4])
    assert mixed_energy(c, 2, 3) == mixed_energy(c, 3, 2) == higher_energy(c, 3) == 33


def test_mixed_energy_symmetry_random():
    rng = random.Random(11)
    for _ in range(50):
        a = random_intset(rng, 8, -30, 30)
        assert mixed_energy(a, 3, 4) == mixed_energy(a, 4, 3) == naive_mixed(a, 3, 4)


def test_mixed_energy_budget(monkeypatch):
    monkeypatch.setattr(intset, "DEFAULT_WORK_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        mixed_energy(IntSet(range(40)), 4, 4)


def test_empty_set_conventions():
    assert energy(IntSet(), IntSet([1])) == 0
    assert higher_energy(IntSet(), 3) == 0
    assert mixed_energy(IntSet(), 2, 2) == 0


# ---------------------------------------------------------------------------
# sumset growth inequality
# ---------------------------------------------------------------------------


def test_pluennecke_examples():
    res = pluennecke_check(IntSet([0, 1]), 2, 1)
    assert (res.lhs, res.rhs, res.holds) == (4, Fraction(27, 4), True)
    ap = IntSet(range(10))
    res = pluennecke_check(ap, 2, 1)
    assert res.lhs == 28 and res.rhs == Fraction(19, 10) ** 3 * 10 and res.holds
    single = pluennecke_check(IntSet([5]), 1, 0)
    assert single.lhs == 1 and single.holds


@given(nonempty_sets, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_pluennecke_always_holds(a, n, m):
    if n + m < 1:
        n = 1
    assert pluennecke_check(a, n, m).holds


# ---------------------------------------------------------------------------
# popular differences
# ---------------------------------------------------------------------------


def popular_oracle(a):
    hist = naive_rep(a, a, "minus")
    d = len(hist)
    n2 = len(a) ** 2
    return IntSet(s for s, c in hist.items() if 4 * d * c >= n2)


def popular(a):
    return popular_energy_sum(a).popular


def test_popular_differences_examples():
    assert popular(IntSet([0, 1])) == IntSet([-1, 0, 1])
    for length in range(2, 10):
        ap = IntSet(range(length))
        assert popular(ap) == popular_oracle(ap)
    # short progressions keep every difference popular, longer ones do not
    ap7, ap9 = IntSet(range(7)), IntSet(range(9))
    assert popular(ap7) == sumset(ap7, ap7.negate())
    assert popular(ap9) != sumset(ap9, ap9.negate())
    assert popular(IntSet([42])) == IntSet([0])


def test_popular_threshold_tie_included():
    # |A| = 2, D = {-1, 0, 1}: threshold 4/12 = 1/3, extreme counts are 1 >= 1/3
    a = IntSet([0, 1])
    assert popular(a) == IntSet([-1, 0, 1])


def test_popular_energy_sum_examples():
    assert popular_energy_sum(IntSet([0, 1]), 3).sum == 7
    assert popular_energy_sum(IntSet([9]), 3).sum == 1
    squares = IntSet([m * m for m in range(1, 51)])
    result = popular_energy_sum(squares, 5)
    p = popular_oracle(squares)
    d = sumset(squares, squares.negate())
    pp = naive_rep(p, p, "minus")
    assert result.sum == sum(pp.get(x, 0) for x in d)
    assert result.reference == pytest.approx(50 ** 2.5)


# ---------------------------------------------------------------------------
# fourth-moment decomposition
# ---------------------------------------------------------------------------


def test_fourth_moment_splits_into_distinct_and_cross_terms():
    rng = random.Random(23)
    for _ in range(12):
        a = random_intset(rng, 8, -25, 25)
        counts = {}
        for tup in itertools.product(a.elements, repeat=4):
            key = tuple(y - tup[0] for y in tup[1:])
            counts[key] = counts.get(key, 0) + 1
        distinct_nonzero = sum(
            c * c
            for key, c in counts.items()
            if 0 not in key and len(set(key)) == 3
        )
        cross = sum(
            c * c
            for key, c in counts.items()
            if 0 in key or len(set(key)) != 3
        )
        assert higher_energy(a, 4) == distinct_nonzero + cross
