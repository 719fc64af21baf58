"""Bounded-height point search on superelliptic curves y^k = f(x), genus
for the two supported families, and square-sum structures.

All arithmetic is exact; rational search clears denominators and extracts
integer k-th roots, so no floating point ever decides membership.
Evaluation intermediates are capped at signed 128-bit and violations name
the offending x.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .checked import INT128_MAX, check_int, checked_add
from .errors import BudgetExceededError, IntegerOverflowError, UnsupportedCurveError
from .intset import IntSet
from .powers import is_kth_power, kth_power_root

DEFAULT_PROBE_BUDGET = 1 << 26
DEFAULT_CLIQUE_NODE_BUDGET = 1 << 22
# Most triples of the largest count that a census lists.
ARGMAX_CAP = 16


# ---------------------------------------------------------------------------
# integer polynomials (coefficients ascending by degree)
# ---------------------------------------------------------------------------


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _derivative(coeffs: tuple[int, ...]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _primitive(coeffs: list[int]) -> list[int]:
    coeffs = _trim(list(coeffs))
    if not coeffs:
        return []
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    sign = 1 if coeffs[-1] > 0 else -1
    return [sign * c // g for c in coeffs]


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """Remainder of lc(g)^s * f modulo g, integer coefficients throughout."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while True:
        f = _trim(f)
        if len(f) - 1 < dg or not f:
            return f
        coef = f[-1]
        shift = len(f) - 1 - dg
        f = [c * lg for c in f]
        for i, gc in enumerate(g):
            f[i + shift] -= gc * coef
        # leading term cancelled by construction


def poly_gcd(f: tuple[int, ...], g: tuple[int, ...]) -> list[int]:
    """Primitive gcd over the rationals via integer pseudo-remainders."""
    a = _primitive(list(f))
    b = _primitive(list(g))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _primitive(_pseudo_remainder(a, b))
        a, b = b, r
    return a


def is_squarefree(coeffs: tuple[int, ...]) -> bool:
    return len(poly_gcd(coeffs, tuple(_derivative(coeffs)))) <= 1


# ---------------------------------------------------------------------------
# curve types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    """y^k = f(x), f given by integer coefficients in ascending degree."""

    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if check_int(self.k, "curve exponent") < 2:
            raise ValueError(f"exponent must be >= 2, got {self.k}")
        for c in self.coeffs:
            check_int(c, "curve coefficient")
        if len(self.coeffs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> dict:
        return {"k": self.k, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "CurveSpec":
        return cls(k=data["k"], coeffs=tuple(data["coeffs"]))


def evaluate_at_int(curve: CurveSpec, x: int) -> int:
    """Horner evaluation of f(x), every intermediate capped at 128-bit."""
    acc = 0
    for c in reversed(curve.coeffs):
        acc = acc * x + c
        if acc > INT128_MAX or acc < -INT128_MAX - 1:
            raise IntegerOverflowError(f"curve evaluation at x={x} leaves 128-bit range")
    return acc


def evaluate_at(curve: CurveSpec, x):
    """Exact f(x) for an int or Fraction argument."""
    if isinstance(x, Fraction):
        acc = Fraction(0)
        for c in reversed(curve.coeffs):
            acc = acc * x + c
        return acc
    return evaluate_at_int(curve, x)


@dataclass(frozen=True)
class PointList:
    """Exact points on a curve; every entry satisfies y^k = f(x)."""

    points: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.points)

    def verify(self, curve: CurveSpec) -> bool:
        return all(y**curve.k == evaluate_at(curve, x) for x, y in self.points)

    def to_json(self) -> list:
        out = []
        for x, y in self.points:
            if isinstance(x, Fraction) or isinstance(y, Fraction):
                out.append([_frac_str(x), _frac_str(y)])
            else:
                out.append([x, y])
        return out


def _frac_str(v) -> str:
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------


def genus(curve: CurveSpec) -> int:
    """Genus for the two supported families.

    Hyperelliptic k=2 with squarefree f of degree d has genus (d-1)//2;
    the superelliptic binomial y^k = x^k + a (a nonzero) is smooth of genus
    (k-1)(k-2)/2.  Anything else is refused rather than guessed.
    """
    if curve.k == 2:
        if not is_squarefree(curve.coeffs):
            raise UnsupportedCurveError("genus not computed: f is not squarefree")
        return (curve.degree - 1) // 2
    c = curve.coeffs
    is_binomial = (
        curve.degree == curve.k
        and c[-1] == 1
        and c[0] != 0
        and all(v == 0 for v in c[1:-1])
    )
    if not is_binomial:
        raise UnsupportedCurveError(
            "genus not computed: only k=2 squarefree and y^k = x^k + a are supported"
        )
    return (curve.k - 1) * (curve.k - 2) // 2


# ---------------------------------------------------------------------------
# point search
# ---------------------------------------------------------------------------


def point_search(curve: CurveSpec, height: int, mode: str = "integer") -> PointList:
    """All curve points of height at most the bound, exactly.

    integer mode: x in [-height, height] with f(x) a perfect k-th power.
    rational mode: x = p/q in lowest terms, max(|p|, q) <= height, with
    f(p/q) a k-th power in the rationals.  For even k both y signs are
    returned (solution counting includes sign variants).
    """
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    if mode == "integer":
        points = []
        for x in range(-height, height + 1):
            value = evaluate_at_int(curve, x)
            points.extend((x, y) for y in _roots_of(value, curve.k))
        return PointList(points=tuple(sorted(points)))
    if mode != "rational":
        raise ValueError(f"mode must be 'integer' or 'rational', got {mode!r}")
    d = curve.degree
    points = []
    for q in range(1, height + 1):
        qpow = [q**i for i in range(d + 1)]
        for p in range(-height, height + 1):
            if math.gcd(p, q) != 1:
                continue
            numer = sum(c * p**i * qpow[d - i] for i, c in enumerate(curve.coeffs))
            if abs(numer) > INT128_MAX:
                raise IntegerOverflowError(
                    f"curve evaluation at x={p}/{q} leaves 128-bit range"
                )
            g = math.gcd(numer, qpow[d])
            num, den = numer // g, qpow[d] // g
            broot = kth_power_root(den, curve.k)
            if broot is None:
                continue
            x = Fraction(p, q)
            for aroot in _roots_of(num, curve.k):
                points.append((x, Fraction(aroot, broot)))
    return PointList(points=tuple(sorted(points)))


def _roots_of(value: int, k: int) -> list[int]:
    """All integer y with y^k = value; both signs for even k."""
    root = kth_power_root(value, k)
    if root is None:
        return []
    if k % 2 == 0 and root != 0:
        return [-root, root]
    return [root]


# ---------------------------------------------------------------------------
# quadruple family census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadrupleCensus:
    height: int
    alpha_lo: int
    alpha_hi: int
    triples_total: int
    histogram: dict[int, int]
    max_count: int
    argmax: tuple[tuple[int, int, int], ...]

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "alpha_range": [self.alpha_lo, self.alpha_hi],
            "triples_total": self.triples_total,
            "histogram": {str(c): t for c, t in sorted(self.histogram.items())},
            "max_count": self.max_count,
            "argmax": [list(t) for t in self.argmax],
        }


def quadruple_curve(alpha: int, beta: int, gamma: int) -> CurveSpec:
    """y^2 = (x^2+alpha)(x^2+beta)(x^2+gamma), expanded."""
    e1 = alpha + beta + gamma
    e2 = alpha * beta + alpha * gamma + beta * gamma
    e3 = alpha * beta * gamma
    return CurveSpec(k=2, coeffs=(e3, 0, e2, 0, e1, 0, 1))


def quadruple_counts(
    alpha_lo: int,
    alpha_hi: int,
    height: int,
) -> list[tuple[tuple[int, int, int], int]]:
    """Integer-point count per admissible shift triple.

    Admissible means distinct nonzero alpha < beta < gamma drawn from the
    range; each count is the number of (x, y) points on the triple's sextic
    with |x| at most the height (sign variants included).
    """
    values = [v for v in range(alpha_lo, alpha_hi + 1) if v != 0]
    triples = list(itertools.combinations(values, 3))
    work = len(triples) * (2 * height + 1)
    if work > DEFAULT_PROBE_BUDGET:
        raise BudgetExceededError(f"{work} evaluations exceed probe budget {DEFAULT_PROBE_BUDGET}")
    return [
        (triple, len(point_search(quadruple_curve(*triple), height, "integer")))
        for triple in triples
    ]


def census_from_counts(
    counts: list[tuple[tuple[int, int, int], int]],
    height: int,
    alpha_lo: int,
    alpha_hi: int,
) -> QuadrupleCensus:
    histogram: dict[int, int] = {}
    max_count = -1
    argmax: list[tuple[int, int, int]] = []
    for triple, count in counts:
        histogram[count] = histogram.get(count, 0) + 1
        if count > max_count:
            max_count = count
            argmax = [triple]
        elif count == max_count and len(argmax) < ARGMAX_CAP:
            argmax.append(triple)
    return QuadrupleCensus(
        height=height,
        alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        triples_total=len(counts),
        histogram=histogram,
        max_count=max(max_count, 0),
        argmax=tuple(argmax[:ARGMAX_CAP]),
    )


# ---------------------------------------------------------------------------
# square-sum structures
# ---------------------------------------------------------------------------


def square_sum_clique_search(
    height: int,
    target_size: int,
    max_results: int | None = None,
) -> list[tuple[int, ...]]:
    """All target-size subsets of [1, height] whose pairwise sums are all
    perfect squares, as increasing tuples, sorted (smallest element first,
    then lexicographic).  An optional cap keeps only the first max_results
    of them.

    Size 3 uses Euler's parametrization: a + b = s^2, a + c = t^2 and
    b + c = u^2 with s < t < u give a = (s^2 + t^2 - u^2)/2,
    b = (s^2 - t^2 + u^2)/2 and c = (t^2 + u^2 - s^2)/2, so every triple
    comes from one (s, t, u) and no power test is run.  A larger clique
    extends a smaller one by a common third element of its two smallest
    members.  DEFAULT_CLIQUE_NODE_BUDGET bounds the work, and with it the
    memory: each (t, u) pair, each triple, each size-2 pair and each
    extension candidate counts one.  Size 2 stops listing pairs at the
    cap; larger sizes enumerate every clique before the cap applies, so
    the budget covers the full enumeration whatever the cap.
    """
    if target_size < 2:
        raise ValueError(f"target size must be >= 2, got {target_size}")
    if max_results is not None and max_results < 0:
        raise ValueError(f"max results must be >= 0, got {max_results}")
    if height < 1 or max_results == 0:
        return []
    work = 0

    def spend(amount: int) -> None:
        nonlocal work
        work += amount
        if work > DEFAULT_CLIQUE_NODE_BUDGET:
            raise BudgetExceededError(f"clique search exceeded node budget {DEFAULT_CLIQUE_NODE_BUDGET}")

    if target_size == 2:
        # pairs come sorted, so a cap stops the listing; one pair over the
        # budget is enough to raise
        pairs = (
            (a, s * s - a)
            for a in range(1, height + 1)
            for s in range(math.isqrt(2 * a) + 1, math.isqrt(a + height) + 1)
        )
        limit = DEFAULT_CLIQUE_NODE_BUDGET + 1
        cliques = list(itertools.islice(pairs, limit if max_results is None else min(max_results, limit)))
        spend(len(cliques))
    else:
        cliques = sorted(_square_triples(height, spend))
        if target_size > 3:
            cliques = _extend_cliques(cliques, target_size, height, spend)
    return cliques[:max_results]


def _extend_cliques(triples, target_size: int, height: int, spend) -> list[tuple[int, ...]]:
    """The target-size cliques, grown from the sorted triples one element
    at a time: a clique takes each larger third element of its two
    smallest members that makes a square with every other member.  Each
    round keeps the list sorted."""
    thirds: dict[tuple[int, int], list[int]] = {}
    for a, b, c in triples:
        thirds.setdefault((a, b), []).append(c)
    squares = {s * s for s in range(math.isqrt(2 * height) + 1)}
    cliques = triples
    for _ in range(target_size - 3):
        grown = []
        for clique in cliques:
            pool = thirds[clique[:2]]
            fresh = pool[bisect.bisect_right(pool, clique[-1]) :]
            spend(len(fresh))
            grown.extend(
                clique + (d,) for d in fresh if all(x + d in squares for x in clique[2:])
            )
        cliques = grown
    return cliques


def _square_triples(height: int, spend) -> list[tuple[int, int, int]]:
    """Every a < b < c in [1, height] with a + b, a + c and b + c square,
    from the (s, t, u) of Euler's parametrization, unsorted."""
    triples = []
    for u in range(3, math.isqrt(2 * height - 1) + 1):
        uu = u * u
        # s < t and s^2 > u^2 - t^2 need 2 t^2 > u^2
        ts = range(math.isqrt(uu // 2), u)
        spend(len(ts))
        for t in ts:
            tt = t * t
            lo = math.isqrt(uu - tt) + 1  # a >= 1
            excess = tt + uu - 2 * height
            if excess > 0:  # c <= height
                lo = max(lo, math.isqrt(excess - 1) + 1)
            lo += (lo + t + u) % 2  # s = t + u (mod 2): a, b, c are integers
            ss = range(lo, t, 2)
            spend(len(ss))
            triples.extend(
                ((s * s + tt - uu) // 2, (s * s - tt + uu) // 2, (tt + uu - s * s) // 2)
                for s in ss
            )
    return triples


@dataclass(frozen=True)
class SquareEdgeReport:
    edges: tuple[tuple[int, int], ...]
    count: int
    bound: float
    ratio: float

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "count": self.count,
            "bound": self.bound,
            "ratio": self.ratio,
        }


def pair_square_edges(a: IntSet, b: IntSet) -> SquareEdgeReport:
    """Edges of the bipartite square-sum graph on A x B, with the
    conditional |A||B|^(4/5) + |B| comparison (report only)."""
    if a and b:
        checked_add(a.min(), b.min())
        checked_add(a.max(), b.max())
    edges = tuple(
        (x, y) for x in a for y in b.elements if is_kth_power(x + y, 2)
    )
    bound = len(a) * len(b) ** 0.8 + len(b)
    ratio = float(f"{len(edges) / bound:.12g}") if bound else 0.0
    return SquareEdgeReport(edges=edges, count=len(edges), bound=bound, ratio=ratio)
