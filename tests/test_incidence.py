import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import IntSet, bound_report, count_solutions, tau
from addcomb.incidence import PointSet2D
from conftest import naive_count_solutions, random_intset


def random_points(rng: random.Random, max_size: int, bound: int) -> PointSet2D:
    size = rng.randint(1, max_size)
    pairs = set()
    while len(pairs) < size:
        pairs.add((rng.randint(-bound, bound), rng.randint(-bound, bound)))
    return PointSet2D(tuple(sorted(pairs)))


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet2D(((1, 2), (1, 2)))


def test_tau_examples():
    assert tau(PointSet2D(((1, 2), (2, 4), (1, 3)))) == 2
    assert tau(PointSet2D(((1, 2), (1, 3), (1, 5)))) == 1
    assert tau(PointSet2D(((0, 5),))) == 0


def test_tau_scaling_invariance():
    rng = random.Random(3)
    for _ in range(20):
        points = random_points(rng, 12, 9)
        for lam in (2, -3, 7):
            scaled = PointSet2D(tuple((lam * b, lam * d) for b, d in points))
            assert tau(scaled) == tau(points)


def test_tau_mixed_signs_share_ratio():
    assert tau(PointSet2D(((1, 2), (-2, -4), (3, 6)))) == 3


def test_count_solutions_examples():
    a = IntSet([1, 4, 9])
    assert count_solutions(a, IntSet([1, 2]), PointSet2D(((1, 0),))) == 1
    assert count_solutions(a, IntSet([1, 2]), PointSet2D(())) == 0
    squares = IntSet([m * m for m in range(1, 11)])
    c = IntSet(range(1, 11))
    points = PointSet2D(tuple((b, d) for b in range(1, 6) for d in range(0, 6)))
    brute = sum(
        1
        for x in squares
        for v in c
        for b, d in points
        if x == b * v + d
    )
    assert count_solutions(squares, c, points) == brute


def test_count_solutions_fast_equals_naive_random():
    rng = random.Random(5)
    for _ in range(25):
        a = random_intset(rng, 50, -60, 60)
        c = random_intset(rng, 50, -20, 20)
        points = random_points(rng, 50, 15)
        assert count_solutions(a, c, points) == naive_count_solutions(a, c, points)


def test_sigma_additive_over_partition():
    rng = random.Random(9)
    a = random_intset(rng, 30, -40, 40)
    c = random_intset(rng, 10, -10, 10)
    points = random_points(rng, 30, 10)
    pairs = list(points)
    half = len(pairs) // 2
    left, right = pairs[:half], pairs[half:]
    total = count_solutions(a, c, points)
    parts = 0
    for chunk in (left, right):
        if chunk:
            parts += count_solutions(a, c, PointSet2D(tuple(chunk)))
    assert total == parts


@given(st.integers(1, 20), st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_single_point_cap(a_size, c_size):
    a = IntSet(range(a_size))
    c = IntSet(range(c_size))
    points = PointSet2D(((2, 1),))
    assert count_solutions(a, c, points) <= len(c)


def test_bound_report():
    a = IntSet([m * m for m in range(1, 20)])
    c = IntSet(range(1, 8))
    points = PointSet2D(tuple((b, d) for b in range(1, 5) for d in range(3)))
    report = bound_report(a, c, points, squares_b=True)
    assert report.sigma <= len(a) * len(c) * len(points)
    assert report.applicable == "34"
    assert report.bound34 <= report.bound56 or report.tau <= 1
    assert report.sigma == count_solutions(a, c, points)
