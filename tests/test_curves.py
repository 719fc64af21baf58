import math
import random
from fractions import Fraction

import pytest

from addcomb import (
    BudgetExceededError,
    CurveSpec,
    IntegerOverflowError,
    IntSet,
    UnsupportedCurveError,
    genus,
    pair_square_edges,
    point_search,
    square_sum_clique_search,
)
from addcomb import curves
from addcomb.curves import census_from_counts, is_squarefree, quadruple_counts, quadruple_curve
from conftest import naive_clique_search

QUINTIC = CurveSpec(2, (120, 274, 225, 85, 15, 1))  # (x+1)(x+2)(x+3)(x+4)(x+5)


def poly_shift(coeffs, c):
    """Coefficients of f(x + c), by binomial expansion."""
    out = [0] * len(coeffs)
    for power, coef in enumerate(coeffs):
        for i in range(power + 1):
            out[i] += coef * math.comb(power, i) * c ** (power - i)
    return tuple(out)


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------


def test_genus_examples():
    assert genus(QUINTIC) == 2
    assert genus(CurveSpec(5, (7, 0, 0, 0, 0, 1))) == 6
    with pytest.raises(UnsupportedCurveError):
        genus(CurveSpec(2, (0, 0, 1)))  # x^2 is not squarefree


def test_genus_binomial_family():
    assert genus(CurveSpec(3, (5, 0, 0, 1))) == 1
    assert genus(CurveSpec(4, (-2, 0, 0, 0, 1))) == 3
    with pytest.raises(UnsupportedCurveError):
        genus(CurveSpec(3, (0, 0, 0, 1)))  # a = 0
    with pytest.raises(UnsupportedCurveError):
        genus(CurveSpec(3, (1, 1, 0, 1)))  # not binomial


def test_genus_shift_invariant():
    for c in (-2, 1, 3):
        shifted = CurveSpec(2, poly_shift(QUINTIC.coeffs, c))
        assert genus(shifted) == 2


def test_squarefree_detection():
    assert is_squarefree((120, 274, 225, 85, 15, 1))
    assert not is_squarefree((0, 0, 1))  # x^2
    assert not is_squarefree((2, 5, 4, 1))  # (x+1)^2 (x+2)
    assert is_squarefree((1, 0, 1))


# ---------------------------------------------------------------------------
# point search
# ---------------------------------------------------------------------------


def test_point_search_quintic_binomial():
    curve = CurveSpec(5, (1, 0, 0, 0, 0, 1))  # y^5 = x^5 + 1
    points = point_search(curve, 10, "integer")
    assert points.points == ((-1, 0), (0, 1))
    assert points.verify(curve)


def test_point_search_root_points():
    curve = quadruple_curve(-1, -4, -9)
    points = point_search(curve, 100, "integer")
    assert set(points.points) == {(x, 0) for x in (-3, -2, -1, 1, 2, 3)}


def test_point_search_nontrivial_squares():
    curve = quadruple_curve(3, 8, 15)
    points = point_search(curve, 1000, "integer")
    assert points.points == ((-1, -24), (-1, 24), (1, -24), (1, 24))
    assert points.verify(curve)


def test_point_search_height_monotone():
    curve = quadruple_curve(-1, -4, -9)
    small = set(point_search(curve, 5, "integer").points)
    large = set(point_search(curve, 50, "integer").points)
    assert small <= large


def test_point_search_rational_circleish():
    curve = CurveSpec(2, (1, 0, 1))  # y^2 = x^2 + 1
    points = point_search(curve, 5, "rational")
    expected = set()
    for p, q in [(0, 1), (3, 4), (-3, 4), (4, 3), (-4, 3)]:
        x = Fraction(p, q)
        y = Fraction(5, q) if q != 1 else Fraction(1)
        expected |= {(x, y), (x, -y)}
    assert set(points.points) == expected
    assert points.verify(curve)


def test_point_search_rational_contains_integer_points():
    curve = quadruple_curve(3, 8, 15)
    rational = point_search(curve, 12, "rational")
    integer = point_search(curve, 12, "integer")
    rational_pairs = set(rational.points)
    for x, y in integer.points:
        assert (Fraction(x), Fraction(y)) in rational_pairs


def test_point_search_overflow_names_x():
    curve = CurveSpec(2, (0, 0, 0, 0, 0, 0, 1))  # y^2 = x^6
    with pytest.raises(IntegerOverflowError, match="x=-4194304"):
        point_search(curve, 1 << 22, "integer")


# ---------------------------------------------------------------------------
# quadruple census
# ---------------------------------------------------------------------------


def probe(alpha_lo, alpha_hi, height):
    """The census of the probe-quadruples command."""
    return census_from_counts(quadruple_counts(alpha_lo, alpha_hi, height), height, alpha_lo, alpha_hi)


def test_probe_quadruple_family_small():
    census = probe(2, 5, 100)
    assert census.triples_total == 4  # C(4, 3) from {2,3,4,5}
    assert sum(census.histogram.values()) == census.triples_total
    # (3, 4, 5)? no: triples from {2,3,4,5}; check a known member (3,8,15) needs wider range
    wide = probe(3, 15, 40)
    assert wide.max_count >= 4  # (3,8,15) has (+-1, +-24)


def test_probe_quadruple_family_all_negative_far():
    census = probe(-5, -3, 1)
    # x^2 + alpha < 0 for |x| <= 1, product of three negatives is negative
    assert census.histogram == {0: 1}
    assert census.max_count == 0


def test_probe_budget(monkeypatch):
    monkeypatch.setattr(curves, "DEFAULT_PROBE_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        quadruple_counts(-10, 10, 1000)


def test_quadruple_counts_match_census():
    counts = quadruple_counts(2, 6, 50)
    census = probe(2, 6, 50)
    assert len(counts) == census.triples_total
    assert census.histogram == {c: sum(1 for _, n in counts if n == c) for _, c in counts}
    assert census.max_count == max(c for _, c in counts)
    assert census.argmax == tuple(t for t, c in counts if c == census.max_count)
    for triple, count in counts:
        assert count == len(point_search(quadruple_curve(*triple), 50, "integer"))


# ---------------------------------------------------------------------------
# square-sum structures
# ---------------------------------------------------------------------------


def clique_oracle(height, size):
    import itertools

    def is_square(v):
        return v >= 0 and math.isqrt(v) ** 2 == v

    out = []
    for combo in itertools.combinations(range(1, height + 1), size):
        if all(is_square(a + b) for a, b in itertools.combinations(combo, 2)):
            out.append(set(combo))
    return out


def test_clique_search_examples():
    cliques = square_sum_clique_search(50, 3)
    as_sets = [set(c) for c in cliques]
    assert {6, 19, 30} in as_sets
    assert as_sets == clique_oracle(50, 3)

    pairs = square_sum_clique_search(10, 2)
    assert {1, 3} in [set(c) for c in pairs]
    assert [set(c) for c in pairs] == clique_oracle(10, 2)


def test_clique_downward_closed():
    cliques = square_sum_clique_search(60, 3)
    smaller = [set(c) for c in square_sum_clique_search(60, 2)]
    for clique in cliques:
        members = sorted(clique)
        for drop in range(3):
            sub = set(members[:drop] + members[drop + 1 :])
            assert sub in smaller


def test_clique_cap_and_order():
    capped = square_sum_clique_search(50, 3, max_results=2)
    full = square_sum_clique_search(50, 3)
    assert capped == full[:2]
    # ascending by smallest element, then lexicographic
    assert full == sorted(full)


def test_clique_search_matches_naive_oracle():
    # h < 6 has no triple; 3473 holds both size-4 cliques below 4000
    rng = random.Random(16)
    heights = [*range(6), *rng.sample(range(6, 4001), 6), 3473]
    found = {}
    for height in heights:
        for size in (2, 3, 4, 5):
            full = naive_clique_search(height, size)
            found[size] = found.get(size, 0) + len(full)
            k = rng.randint(2, len(full) + 2)
            for cap in (None, 0, 1, k):
                got = square_sum_clique_search(height, size, max_results=cap)
                assert got == full[:cap], (height, size, cap)
    assert found[2] and found[3] and found[4]


def test_clique_cap_zero_and_negative():
    assert square_sum_clique_search(50, 3, max_results=0) == []
    for cap in (-1, -5):
        with pytest.raises(ValueError):
            square_sum_clique_search(50, 3, max_results=cap)


def test_clique_node_budget(monkeypatch):
    assert len(square_sum_clique_search(20000, 3)) == 88917
    monkeypatch.setattr(curves, "DEFAULT_CLIQUE_NODE_BUDGET", 50)
    for size in (2, 3, 4):
        with pytest.raises(BudgetExceededError):
            square_sum_clique_search(500, size)


def test_clique_cap_stops_size_two_listing(monkeypatch):
    # at this height the full pair list is far past the default budget;
    # a capped size-2 query lists only the pairs it keeps
    first = [(1, 3), (1, 8), (1, 15), (1, 24), (1, 35)]
    assert square_sum_clique_search(10**9, 2, max_results=5) == first
    monkeypatch.setattr(curves, "DEFAULT_CLIQUE_NODE_BUDGET", 5)
    assert square_sum_clique_search(10**9, 2, max_results=5) == first
    with pytest.raises(BudgetExceededError):
        square_sum_clique_search(10**9, 2, max_results=6)
    monkeypatch.setattr(curves, "DEFAULT_CLIQUE_NODE_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        square_sum_clique_search(10**9, 2)


def test_pair_square_edges():
    report = pair_square_edges(IntSet([1]), IntSet([3, 8, 15]))
    assert report.count == 3
    empty = pair_square_edges(IntSet(), IntSet())
    assert empty.count == 0
    a = IntSet(range(1, 101))
    report = pair_square_edges(a, a)
    brute = sum(
        1
        for x in range(1, 101)
        for y in range(1, 101)
        if math.isqrt(x + y) ** 2 == x + y
    )
    assert report.count == brute
