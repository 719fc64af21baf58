"""Generalized arithmetic progressions and gcd stratification machinery.

A progression of dimension d is the value set {base + sum_j step_j * x_j}
with 0 <= x_j < length_j.  Properness (value count equals the index-box
size) is a queried property, never a type invariant: improper progressions
are first-class citizens so the boundary can be detected.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .checked import check_int, check_int64, checked_add
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


def enumerate_gap(gap: Gap, budget: int = DEFAULT_ENUM_BUDGET) -> IntSet:
    """The deduplicated value set of the progression."""
    size = gap.index_box_size()
    if size > budget:
        raise BudgetExceededError(f"index box size {size} exceeds enumeration budget {budget}")
    values = {gap.base}
    for step, length in zip(gap.steps, gap.lengths):
        values = {v + step * x for v in values for x in range(length)}
    return IntSet(values)


def is_proper(gap: Gap, budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """True iff the value count equals the index-box size."""
    return len(enumerate_gap(gap, budget)) == gap.index_box_size()


@dataclass(frozen=True)
class GapSplitPart:
    gap: Gap
    doubling_proper: bool


def split_for_double_properness(gap: Gap, budget: int = DEFAULT_ENUM_BUDGET) -> list[GapSplitPart]:
    """Halve every side of the index box, yielding 2^d sub-progressions.

    Each part is tagged with whether its doubling (same steps, lengths
    2L-1, base doubled) is proper, checked by enumeration.  The parts
    partition the index box, so their value sets union to the original's.
    """
    if any(length < 2 for length in gap.lengths):
        raise ValueError("splitting requires every length >= 2")
    parts = []
    halves = []
    for length in gap.lengths:
        h = length // 2
        halves.append(((0, h), (h, length - h)))
    for choice in itertools.product((0, 1), repeat=gap.dimension):
        base = gap.base
        lengths = []
        for j, bit in enumerate(choice):
            start, size = halves[j][bit]
            base = checked_add(base, gap.steps[j] * start)
            lengths.append(size)
        part = Gap(base=base, steps=gap.steps, lengths=tuple(lengths))
        doubling = Gap(
            base=checked_add(part.base, part.base),
            steps=part.steps,
            lengths=tuple(2 * n - 1 for n in part.lengths),
        )
        parts.append(GapSplitPart(gap=part, doubling_proper=is_proper(doubling, budget)))
    return parts


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


def residue_count(gap: Gap, l: int) -> int:
    """#{index tuples x : base + sum step_j x_j == 0 mod l}, by a
    residue-class dynamic program over the dimensions (O(d*l^2),
    independent of the box size)."""
    if l < 1:
        raise ValueError(f"modulus must be >= 1, got {l}")
    ways = [0] * l
    ways[gap.base % l] = 1
    for step, length in zip(gap.steps, gap.lengths):
        q, srem = divmod(length, l)
        # class_count[c] = #{x in [0, length) : x == c mod l}
        class_count = [q + 1 if c < srem else q for c in range(l)]
        nxt = [0] * l
        for r, w in enumerate(ways):
            if not w:
                continue
            for c, cc in enumerate(class_count):
                if cc:
                    nxt[(r + step * c) % l] += w * cc
        ways = nxt
    return ways[0]


@dataclass(frozen=True)
class ResidueErrorReport:
    """Report-only comparison of the index-box residue count against the
    uniform reference box/l; the scale d*box/min(length) is the shape of
    the error term for proper progressions with proper doubling."""

    count: int
    reference: float
    error: float
    scale: float

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "reference": self.reference,
            "error": self.error,
            "scale": self.scale,
        }


def residue_error_report(gap: Gap, l: int) -> ResidueErrorReport:
    count = residue_count(gap, l)
    box = gap.index_box_size()
    reference = box / l
    return ResidueErrorReport(
        count=count,
        reference=reference,
        error=count - reference,
        scale=gap.dimension * box / min(gap.lengths),
    )


def ring_solution_count(gap: Gap, l: int) -> int:
    """Solutions of base + sum step_j x_j == 0 mod l with every x_j ranging
    over the full residue ring Z/l.

    This count is multiplicative in l; the closed form per prime power m is
    g * m^(d-1) when g = gcd(steps..., m) divides the base, else 0.
    """
    if l < 1:
        raise ValueError(f"modulus must be >= 1, got {l}")
    d = gap.dimension
    total = 1
    for p, e in _factorize(l):
        m = p**e
        g = math.gcd(m, *gap.steps)
        total *= g * m ** (d - 1) if gap.base % g == 0 else 0
    return total


@dataclass(frozen=True)
class Stratification:
    """Pair counts by gcd class: classes[l] = #{(i, h) : gcd(i, h) = l},
    taken over I x (normalized progression values)."""

    classes: dict[int, int]
    gcd: int

    def total(self) -> int:
        return sum(self.classes.values())

    def to_json(self) -> dict:
        return {"gcd": self.gcd, "classes": {str(l): c for l, c in sorted(self.classes.items())}}


def stratify(
    index_set: IntSet,
    gap: Gap,
    pairs_budget: int = DEFAULT_PAIR_BUDGET,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> Stratification:
    """Split I x H'' into gcd classes, H'' the gcd-normalized value set."""
    if len(index_set) == 0 or index_set.min() < 1:
        raise ValueError("index set must consist of positive integers")
    norm = gcd_normalize(gap)
    values = enumerate_gap(norm.primed, enum_budget)
    pairs = len(index_set) * len(values)
    if pairs > pairs_budget:
        raise BudgetExceededError(f"{pairs} pairs exceed stratification budget {pairs_budget}")
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


def shrink(gap: Gap, inverse_eps: int) -> Gap:
    """Divide every side length by the shrink factor, clamped to >= 1."""
    if inverse_eps < 1:
        raise ValueError(f"shrink factor must be >= 1, got {inverse_eps}")
    return Gap(
        base=gap.base,
        steps=gap.steps,
        lengths=tuple(max(1, n // inverse_eps) for n in gap.lengths),
    )


def fix_fiber(gap: Gap, assignments: dict[int, int]) -> Gap:
    """Substitute fixed index values for some dimensions.

    The fixed contribution folds into the base; at least one free dimension
    must remain.  Which fiber to fix is the caller's choice.
    """
    base = gap.base
    steps = []
    lengths = []
    for j, (step, length) in enumerate(zip(gap.steps, gap.lengths)):
        if j in assignments:
            x = assignments[j]
            if not 0 <= x < length:
                raise ValueError(f"fiber index {x} outside [0, {length}) in dimension {j}")
            base = checked_add(base, step * x)
        else:
            steps.append(step)
            lengths.append(length)
    unknown = set(assignments) - set(range(gap.dimension))
    if unknown:
        raise ValueError(f"assignments reference unknown dimensions {sorted(unknown)}")
    if not steps:
        raise ValueError("fixing every dimension leaves no progression")
    return Gap(base=base, steps=tuple(steps), lengths=tuple(lengths))


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
