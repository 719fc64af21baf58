"""Generalized arithmetic progressions and gcd stratification machinery.

A progression of dimension d is the value set {base + sum_j step_j * x_j}
with 0 <= x_j < length_j.  It need not be proper: a value that several
index tuples reach is one value of the set.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .checked import check_int, check_int64
from .errors import BudgetExceededError
from .intset import IntSet

DEFAULT_ENUM_BUDGET = 1 << 24
DEFAULT_PAIR_BUDGET = 1 << 26


@dataclass(frozen=True)
class Gap:
    """base + step_1*[0,len_1) + ... + step_d*[0,len_d), as data."""

    base: int
    steps: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "lengths", tuple(self.lengths))
        if len(self.steps) != len(self.lengths) or not self.steps:
            raise ValueError("steps and lengths must be equal-length and nonempty")
        check_int64(check_int(self.base, "gap base"), "gap base")
        for s in self.steps:
            if check_int(s, "gap step") == 0:
                raise ValueError("gap steps must be nonzero")
            check_int64(s, "gap step")
        for length in self.lengths:
            if check_int(length, "gap length") < 1:
                raise ValueError("gap lengths must be >= 1")
        # coordinatewise extremes are reachable values and bound all others
        lo = self.base + sum(min(0, s * (n - 1)) for s, n in zip(self.steps, self.lengths))
        hi = self.base + sum(max(0, s * (n - 1)) for s, n in zip(self.steps, self.lengths))
        check_int64(lo, "gap value")
        check_int64(hi, "gap value")

    @property
    def dimension(self) -> int:
        return len(self.steps)

    def index_box_size(self) -> int:
        return math.prod(self.lengths)

    def to_json(self) -> dict:
        return {"base": self.base, "steps": list(self.steps), "lengths": list(self.lengths)}

    @classmethod
    def from_json(cls, data: dict) -> "Gap":
        return cls(base=data["base"], steps=tuple(data["steps"]), lengths=tuple(data["lengths"]))


def enumerate_gap(gap: Gap) -> IntSet:
    """The deduplicated value set of the progression."""
    size = gap.index_box_size()
    if size > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(f"index box size {size} exceeds enumeration budget {DEFAULT_ENUM_BUDGET}")
    values = {gap.base}
    for step, length in zip(gap.steps, gap.lengths):
        values = {v + step * x for v in values for x in range(length)}
    return IntSet(values)


@dataclass(frozen=True)
class GapNormalization:
    gcd: int
    primed: Gap


def gcd_normalize(gap: Gap) -> GapNormalization:
    """Pull out gcd(base, steps...); the primed progression has coprime data."""
    g = math.gcd(gap.base, *gap.steps)
    primed = Gap(
        base=gap.base // g,
        steps=tuple(s // g for s in gap.steps),
        lengths=gap.lengths,
    )
    return GapNormalization(gcd=g, primed=primed)


@dataclass(frozen=True)
class Stratification:
    """Pair counts by gcd class: classes[l] = #{(i, h) : gcd(i, h) = l},
    taken over I x (normalized progression values)."""

    classes: dict[int, int]
    gcd: int

    def total(self) -> int:
        return sum(self.classes.values())


def stratify(index_set: IntSet, gap: Gap) -> Stratification:
    """Split I x H'' into gcd classes, H'' the gcd-normalized value set."""
    if len(index_set) == 0 or index_set.min() < 1:
        raise ValueError("index set must consist of positive integers")
    norm = gcd_normalize(gap)
    values = enumerate_gap(norm.primed)
    pairs = len(index_set) * len(values)
    if pairs > DEFAULT_PAIR_BUDGET:
        raise BudgetExceededError(f"{pairs} pairs exceed stratification budget {DEFAULT_PAIR_BUDGET}")
    classes: dict[int, int] = {}
    for i in index_set:
        for h in values.elements:
            g = math.gcd(i, h)
            classes[g] = classes.get(g, 0) + 1
    return Stratification(classes=classes, gcd=norm.gcd)


@dataclass(frozen=True)
class MobiusCheck:
    direct: int
    transformed: int
    equal: bool

    def to_json(self) -> dict:
        return {"direct": self.direct, "transformed": self.transformed, "equal": self.equal}


def mobius_identity_check(index_set: IntSet, gap: Gap, l_values: Sequence[int]) -> list[MobiusCheck]:
    """Gcd-class counts versus their Mobius-transformed divisor sums, one
    check per class index l in l_values.

    direct counts pairs with gcd exactly l, read from one stratification;
    transformed evaluates sum_t mu(t) |I_{lt}| |H''_{lt}| with X_m the
    multiples of m in X, over the value set enumerated on its own, so it
    never reads the gcd classes; mu comes from one sieve per call, and
    terms with mu(t) = 0 are skipped.  The two sides agree exactly on every
    input (Mobius inversion).
    """
    for l in l_values:
        if l < 1:
            raise ValueError(f"class index must be >= 1, got {l}")
    if not l_values:
        return []
    strat = stratify(index_set, gap)
    values = enumerate_gap(gcd_normalize(gap).primed)
    top = index_set.max()
    mu = mobius_sieve(top // min(l_values))

    @functools.cache
    def multiples(m: int) -> int:
        """|I_m| |H''_m|, shared by every l dividing m."""
        i_count = sum(1 for i in index_set if i % m == 0)
        return i_count * sum(1 for h in values if h % m == 0) if i_count else 0

    checks = []
    for l in l_values:
        direct = strat.classes.get(l, 0)
        transformed = sum(mu[t] * multiples(l * t) for t in range(1, top // l + 1) if mu[t])
        checks.append(MobiusCheck(direct=direct, transformed=transformed, equal=direct == transformed))
    return checks


# ---------------------------------------------------------------------------
# Mobius function: a sieve, and trial division for one argument
# ---------------------------------------------------------------------------


def mobius_sieve(n: int) -> list[int]:
    """[mu(0), mu(1), ..., mu(n)] with mu(0) = 0, by one sieve of
    Eratosthenes: each prime p flips the sign of its multiples and zeroes
    the multiples of p^2."""
    if n + 1 > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(
            f"mobius sieve to {n} exceeds enumeration budget {DEFAULT_ENUM_BUDGET}"
        )
    mu = [1] * (n + 1)
    mu[0] = 0
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, n + 1, p))
        for m in range(p, n + 1, p):
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return mu


def _factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, primes increasing, by trial
    division by 2 and the odd numbers."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors = []
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n > 1:
        factors.append((n, 1))
    return factors


def mobius(n: int) -> int:
    """mu(n): (-1)^(number of prime factors) on squarefree n, else 0."""
    if n < 1:
        raise ValueError(f"mobius argument must be >= 1, got {n}")
    if n == 1:
        return 1
    result = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        result = -result
    return result
