"""Solution counting for a = b*c + d over a planar point set of (b, d)
pairs, and the ratio multiplicity tau.

Ratios are keyed exactly by sign-normalized reduced pairs, never floats.
Pairs with b = 0 exist in point sets but are excluded from tau only (its
definition requires a nonzero abscissa); the solution counter accepts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .checked import checked_add, checked_mul
from .intset import IntSet


@dataclass(frozen=True)
class PointSet2D:
    """Distinct integer (b, d) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((int(b), int(d)) for b, d in self.pairs)
        if len(set(pairs)) != len(pairs):
            raise ValueError("point set pairs must be pairwise distinct")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.pairs]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "PointSet2D":
        return cls(pairs=tuple(tuple(p) for p in data))


def _ratio_key(b: int, d: int) -> tuple[int, int]:
    g = math.gcd(b, d)
    b, d = b // g, d // g
    if b < 0:
        b, d = -b, -d
    return (d, b)


def tau(points: PointSet2D) -> int:
    """Largest number of pairs sharing one reduced ratio d/b (b nonzero)."""
    groups: dict[tuple[int, int], int] = {}
    for b, d in points:
        if b == 0:
            continue
        key = _ratio_key(b, d)
        groups[key] = groups.get(key, 0) + 1
    return max(groups.values(), default=0)


def count_solutions(a: IntSet, c: IntSet, points: PointSet2D) -> int:
    """sigma = #{(a, c, (b, d)) : a = b*c + d}, by hashing A and walking
    C x L."""
    if not a or not c or not len(points):
        return 0
    # corner products bound every b*c, so checking them checks all
    babs = max(abs(b) for b, _ in points)
    cabs = max(abs(v) for v in (c.min(), c.max()))
    dabs = max(abs(d) for _, d in points)
    checked_add(checked_mul(babs, cabs), dabs)
    checked_add(-checked_mul(babs, cabs), -dabs)
    members = a.as_set()
    sigma = 0
    for v in c:
        for b, d in points:
            if (b * v + d) in members:
                sigma += 1
    return sigma


@dataclass(frozen=True)
class IncidenceBoundReport:
    sigma: int
    tau: int
    bound56: float
    bound34: float
    ratio56: float
    ratio34: float
    applicable: str

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "tau": self.tau,
            "bound56": self.bound56,
            "bound34": self.bound34,
            "ratio56": self.ratio56,
            "ratio34": self.ratio34,
            "applicable": self.applicable,
        }


def bound_report(a: IntSet, c: IntSet, points: PointSet2D, squares_b: bool = False) -> IncidenceBoundReport:
    """sigma against the two conditional incidence bounds (report only).

    bound56 is tau^(1/6) |C| |L|^(5/6) + |L|; bound34 tightens the
    exponents to 1/4 and 3/4 and applies when the b-side comes from
    squares.  Neither is enforced; only the trivial cap sigma <= |A||C||L|
    is checked.
    """
    sigma = count_solutions(a, c, points)
    if sigma > len(a) * len(c) * len(points):
        raise RuntimeError(f"sigma {sigma} exceeds the trivial cap |A||C||L|")
    t = tau(points)
    size = len(points)
    bound56 = t ** (1 / 6) * len(c) * size ** (5 / 6) + size
    bound34 = t ** (1 / 4) * len(c) * size ** (3 / 4) + size
    return IncidenceBoundReport(
        sigma=sigma,
        tau=t,
        bound56=bound56,
        bound34=bound34,
        ratio56=float(f"{sigma / bound56:.12g}") if bound56 else 0.0,
        ratio34=float(f"{sigma / bound34:.12g}") if bound34 else 0.0,
        applicable="34" if squares_b else "56",
    )
