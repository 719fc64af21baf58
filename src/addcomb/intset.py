"""Exact set arithmetic, representation functions and energy functionals.

Everything here is pure and exact: sets are immutable sorted tuples of
signed 64-bit integers, a representation function r_{A+-B} is a pair of
arrays (values strictly increasing, counts positive), energies are plain
integers accumulated under a 128-bit cap.  Threshold comparisons (popular
differences) are done in integers, never with floats.

Representation counts, and the sumsets as their values, come from one
kernel, ``_rep_windows``: it cuts the sum range into value windows of
about WINDOW_PAIRS pair sums each and counts each window by sorting, so
memory follows the window rather than the sum span.  The energies fold
their moments window by window without joining the windows.  The tests
hold the plain double-loop oracle the kernel is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .checked import (
    check_int,
    check_int64,
    check_int128,
    checked_add,
    checked_neg,
    checked_sub,
)
from .errors import BudgetExceededError

# Pair sums per window of the representation-counting kernel; a window is
# wider only when a single value has more representations than this.
WINDOW_PAIRS = 1 << 22

# Cap on tuple iterations performed by mixed_energy.
DEFAULT_WORK_BUDGET = 1 << 26


class IntSet:
    """Immutable finite set of distinct signed integers, kept sorted.

    The universal carrier for every set the workbench manipulates.  All
    elements must fit in signed 64-bit; arithmetic on elements elsewhere is
    range-checked rather than allowed to grow silently.
    """

    __slots__ = ("_elements", "_members")

    def __init__(self, elements: Iterable[int] = ()) -> None:
        members = {check_int(x, "IntSet element") for x in elements}
        self._elements: tuple[int, ...] = tuple(sorted(members))
        self._members: frozenset[int] = frozenset(members)
        if self._elements:
            # the extreme elements bound every other, so checking them checks all
            check_int64(self._elements[0], "set element")
            check_int64(self._elements[-1], "set element")

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    def __contains__(self, x: object) -> bool:
        return x in self._members

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntSet):
            return self._elements == other._elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"IntSet({list(self._elements)!r})"

    def min(self) -> int:
        if not self._elements:
            raise ValueError("empty set has no minimum")
        return self._elements[0]

    def max(self) -> int:
        if not self._elements:
            raise ValueError("empty set has no maximum")
        return self._elements[-1]

    def as_set(self) -> frozenset[int]:
        return self._members

    def negate(self) -> "IntSet":
        return IntSet(checked_neg(x) for x in self._elements)

    def to_json(self) -> list[int]:
        return list(self._elements)


# ---------------------------------------------------------------------------
# sumsets
# ---------------------------------------------------------------------------


def sumset(a: IntSet, b: IntSet) -> IntSet:
    """A + B = {x + y : x in A, y in B}: the values of r_{A+B}."""
    values, _ = rep_function(a, b)
    return IntSet(values.tolist())


def signed_sumset(a: IntSet, n: int, m: int) -> IntSet:
    """nA - mA computed by iterated sumsets; requires n + m >= 1."""
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"need n, m >= 0 and n + m >= 1, got n={n}, m={m}")
    if not a:
        return IntSet()
    neg = a.negate()
    acc: IntSet | None = None
    for _ in range(n):
        acc = a if acc is None else sumset(acc, a)
    for _ in range(m):
        acc = neg if acc is None else sumset(acc, neg)
    if acc is None:
        raise RuntimeError("iterated sumset produced no terms")
    return acc


# ---------------------------------------------------------------------------
# representation functions
# ---------------------------------------------------------------------------


def rep_function(a: IntSet, b: IntSet, sign: str = "plus") -> tuple[np.ndarray, np.ndarray]:
    """r_{A+-B}(x) = #{(p, q) in A x B : p +- q = x} as (values, counts):
    the windows of the kernel ``_rep_windows`` joined, values strictly
    increasing in int64 and counts positive."""
    windows = list(_rep_windows(a, _signed(a, b, sign)))
    if not windows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    values, counts = zip(*windows)
    return np.concatenate(values), np.concatenate(counts)


def _signed(a: IntSet, b: IntSet, sign: str) -> IntSet:
    """B for A + B or -B for A - B, with every sum of A and it range-checked."""
    if sign == "plus":
        rhs = b
    elif sign == "minus":
        rhs = b.negate()
    else:
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if a and rhs:
        # Extreme pairs bound every other sum, so checking them checks all.
        checked_add(a.min(), rhs.min())
        checked_add(a.max(), rhs.max())
    return rhs


def _rep_windows(a: IntSet, b: IntSet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """r_{A+B} as sorted (values, counts) arrays, one value window at a time.

    The sum range is cut at values t where C(t) = #{(p, q) : p + q < t} is
    the largest not above the previous cut's count plus WINDOW_PAIRS, found
    by binary search on t; a window is wider only when a single value has
    more representations than that.  Inside a window [t0, t1), row p
    contributes the slice of B in [t0 - p, t1 - p), whose ends are the
    per-row counts at t0 and t1.  The slices are gathered, sorted and
    run-length counted, so memory follows the window, not the sum span.
    Every sum of A and B must lie in signed 64-bit.
    """
    if not a or not b:
        return
    av = np.asarray(a.elements, dtype=np.int64)
    bv = np.asarray(b.elements, dtype=np.int64)
    total = len(av) * len(bv)
    t0, t_end = a.min() + b.min(), a.max() + b.max() + 1
    left = np.zeros(len(av), dtype=np.int64)
    mass = 0
    while t0 < t_end:
        target = int(left.sum()) + WINDOW_PAIRS
        if target >= total:
            t1, right = t_end, np.full(len(av), len(bv), dtype=np.int64)
        else:
            # invariant: C(t1) <= target < C(beyond)
            t1, right, beyond = t0, left, t_end
            while beyond - t1 > 1:
                mid = (t1 + beyond) // 2
                below = _rows_below(av, bv, mid)
                if below.sum() <= target:
                    t1, right = mid, below
                else:
                    beyond = mid
            if t1 == t0:
                t1 = t0 + 1
                right = _rows_below(av, bv, t1)
        lengths = right - left
        rows = np.flatnonzero(lengths)
        if len(rows):
            run = lengths[rows]
            offsets = np.cumsum(run) - run
            picks = np.repeat(left[rows] - offsets, run)
            picks += np.arange(len(picks))
            sums = bv[picks]
            del picks
            sums += np.repeat(av[rows], run)
            sums.sort()
            starts = np.concatenate(([0], np.flatnonzero(sums[1:] != sums[:-1]) + 1))
            counts = np.diff(starts, append=len(sums))
            mass += len(sums)
            yield sums[starts], counts
        t0, left = t1, right
    if mass != total:
        raise RuntimeError(f"representation mass {mass} != |A||B| = {total}")


def _rows_below(av: np.ndarray, bv: np.ndarray, t: int) -> np.ndarray:
    """Per element p of av (sorted), #{q in bv (sorted) : p + q < t}."""
    # Rows p < t - max(B) take all of B and rows p >= t - min(B) none; in
    # between, t - p lies in (min(B), max(B)], so it cannot wrap.
    full = _count_below(av, t - int(bv[-1]))
    some = _count_below(av, t - int(bv[0]))
    out = np.zeros(len(av), dtype=np.int64)
    out[:full] = len(bv)
    if full < some:
        out[full:some] = np.searchsorted(bv, np.int64(t) - av[full:some])
    return out


def _count_below(v: np.ndarray, x: int) -> int:
    """#{e in v (sorted) : e < x} for any integer x, int64 or not."""
    if x <= int(v[0]):
        return 0
    if x > int(v[-1]):
        return len(v)
    return int(np.searchsorted(v, x))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def energy(a: IntSet, b: IntSet) -> int:
    """Common energy: #{(a1, a2, b1, b2) in A^2 x B^2 : a1 + b1 = a2 + b2},
    computed as the sum of squared representation counts of A + B."""
    return _moment(a, b, "plus", 2)


def higher_energy(a: IntSet, k: int) -> int:
    """k-th moment of the difference representation function,
    sum over x of r_{A-A}(x)^k."""
    if k < 2:
        raise ValueError(f"moment order k must be >= 2, got {k}")
    return _moment(a, a, "minus", k)


def _moment(a: IntSet, b: IntSet, sign: str, k: int) -> int:
    """Sum over x of r_{A+-B}(x)^k under the 128-bit cap, folded window by
    window without building the histogram."""
    total = 0
    for _, counts in _rep_windows(a, _signed(a, b, sign)):
        total = check_int128(total + _power_sum(counts, k), "energy accumulator")
    return total


def _power_sum(counts: np.ndarray, k: int) -> int:
    """Sum of c^k over counts: in int64 when max(c)^k * len(c) < 2^63,
    otherwise over the distinct counts in Python integers."""
    if int(counts.max()) ** k * len(counts) < 1 << 63:
        return int((counts**k).sum())
    values, mult = np.unique(counts, return_counts=True)
    return sum(c**k * m for c, m in zip(values.tolist(), mult.tolist()))


def mixed_energy(a: IntSet, k: int, l: int) -> int:
    """Mixed moment over (k-1)-tuples of shifts.

    Sums |A meet (A+s_1) meet ... meet (A+s_{k-1})|^l over every realizable
    shift tuple.  Tuples are generated from A^k directly (each k-tuple of
    elements realizes exactly one shift tuple), so only nonempty
    intersections are ever touched; cost is |A|^k tuple visits, guarded by
    DEFAULT_WORK_BUDGET.
    """
    if k < 2 or l < 2:
        raise ValueError(f"moment orders must be >= 2, got k={k}, l={l}")
    n = len(a)
    if n == 0:
        return 0
    if n**k > DEFAULT_WORK_BUDGET:
        raise BudgetExceededError(f"|A|^k = {n}^{k} exceeds work budget {DEFAULT_WORK_BUDGET}")
    elements = a.elements
    # differences of in-range elements must themselves stay in range
    checked_sub(a.max(), a.min())
    checked_sub(a.min(), a.max())
    counts: dict[tuple[int, ...], int] = {}
    get = counts.get
    for rest in itertools.product(elements, repeat=k - 1):
        for x in elements:
            key = tuple(y - x for y in rest)
            counts[key] = get(key, 0) + 1
    total = 0
    for c in counts.values():
        total += c**l
        check_int128(total, "energy accumulator")
    return total


# ---------------------------------------------------------------------------
# inequalities and counters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingCheck:
    lhs: int
    rhs: Fraction
    holds: bool

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "holds": self.holds,
        }


def pluennecke_check(a: IntSet, n: int, m: int) -> DoublingCheck:
    """Compare |nA - mA| against (|A+A|/|A|)^(n+m) * |A|, exactly.

    The inequality is a theorem for subsets of an abelian group, so holds
    is expected to be True on every input.
    """
    if len(a) == 0:
        raise ValueError("pluennecke_check requires a nonempty set")
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"need n, m >= 0 and n + m >= 1, got n={n}, m={m}")
    lhs = len(signed_sumset(a, n, m))
    ratio = Fraction(len(sumset(a, a)), len(a))
    rhs = ratio ** (n + m) * len(a)
    return DoublingCheck(lhs=lhs, rhs=rhs, holds=Fraction(lhs) <= rhs)


def _popular(values: np.ndarray, counts: np.ndarray, size: int) -> IntSet:
    """The popular differences of a set of the given size, from its r_{A-A}
    as (values, counts).  An integer count c satisfies c >= n^2 / (4|A-A|)
    exactly when it reaches the integer ceiling of the right-hand side."""
    threshold = -(-size * size // (4 * len(values)))
    return IntSet(values[counts >= threshold].tolist())


@dataclass(frozen=True)
class PopularEnergySum:
    popular: IntSet  # the popular differences P; not part of to_json
    sum: int
    reference: float
    ratio: float

    def to_json(self) -> dict:
        return {"sum": self.sum, "reference": self.reference, "ratio": self.ratio}


def popular_energy_sum(a: IntSet, k: int = 3) -> PopularEnergySum:
    """Sum of r_{P-P}(x) over x in A - A, with P the popular differences.

    reference is |A|^(2k/(k-1)) for the caller-supplied k; the comparison
    is report-only (the associated lower bound is conditional).  One
    r_{A-A} gives both A - A (its values) and P.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(a) == 0:
        raise ValueError("popular_energy_sum requires a nonempty set")
    diffs, counts = rep_function(a, a, "minus")
    p = _popular(diffs, counts, len(a))
    values, counts = rep_function(p, p, "minus")
    total = int(counts[np.isin(values, diffs)].sum())
    reference = float(len(a)) ** (2 * k / (k - 1))
    ratio = total / reference if reference else 0.0
    return PopularEnergySum(popular=p, sum=total, reference=reference, ratio=ratio)
