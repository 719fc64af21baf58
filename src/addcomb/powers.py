"""Scanners for k-th powers in arithmetic structures.

Power membership is decided by exact integer root extraction (binary
search, no floating point).  The record-of-the-box scanner is exhaustive
over a declared (p, r) box with a deterministic tie-break, so every record
is replayable from its witness.

The box scan enumerates the sparse table T of k-th powers up to
pmax + rmax*(n-1), about (pmax + rmax*n)^(1/k) entries, instead of testing
each cell: a row r costs O(n log|T| + hits) integer operations, where hits
counts the pairs (p, j) with p + r*j a power, in place of (pmax+1)*n root
tests.  Memory stays O(TILE_CELLS) whatever the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checked import check_int64, checked_mul
from .errors import BudgetExceededError
from .gaps import Gap, enumerate_gap
from .intset import IntSet, energy, signed_sumset

DEFAULT_SCAN_BUDGET = 1 << 28
DEFAULT_INCLUSION_BUDGET = 1 << 26
CHECKPOINT_EVERY = 10**6
TILE_CELLS = 1 << 16


def kth_root_floor(n: int, k: int) -> int:
    """Largest r >= 0 with r^k <= n, for n >= 0."""
    if n < 0:
        raise ValueError(f"kth_root_floor needs n >= 0, got {n}")
    if k < 1:
        raise ValueError(f"root order must be >= 1, got {k}")
    if k == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    hi = 1 << (n.bit_length() // k + 1)
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def is_kth_power(value: int, k: int) -> bool:
    """Exact membership test; for even k only nonnegative values qualify."""
    if k == 2:
        return value >= 0 and math.isqrt(value) ** 2 == value
    if value < 0:
        if k % 2 == 0:
            return False
        return kth_root_floor(-value, k) ** k == -value
    return kth_root_floor(value, k) ** k == value


def kth_power_root(value: int, k: int) -> int | None:
    """The (sign-preserving) integer k-th root, or None when not a power."""
    if value < 0:
        if k % 2 == 0:
            return None
        r = kth_root_floor(-value, k)
        return -r if r**k == -value else None
    r = kth_root_floor(value, k)
    return r if r**k == value else None


def kth_powers_in(lo: int, hi: int, k: int) -> IntSet:
    """All perfect k-th powers inside [lo, hi]."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if k < 2:
        raise ValueError(f"power order must be >= 2, got {k}")
    check_int64(lo, "range endpoint")
    check_int64(hi, "range endpoint")
    # even powers are nonnegative; m becomes the smallest root with m^k >= start
    start = max(lo, 0) if k % 2 == 0 else lo
    m = kth_root_floor(start, k) if start >= 0 else -kth_root_floor(-start, k)
    if m**k < start:
        m += 1
    powers = []
    while m**k <= hi:
        powers.append(m**k)
        m += 1
    return IntSet(powers)


def count_in_ap(k: int, p: int, r: int, n: int) -> int:
    """Number of j in [0, n) for which p + r*j is a perfect k-th power."""
    if k < 2:
        raise ValueError(f"power order must be >= 2, got {k}")
    if r < 1:
        raise ValueError(f"step must be >= 1, got {r}")
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    check_int64(p, "progression base")
    check_int64(p + r * (n - 1), "progression endpoint")
    count = 0
    value = p
    for _ in range(n):
        if is_kth_power(value, k):
            count += 1
        value += r
    return count


# ---------------------------------------------------------------------------
# exhaustive (p, r) box scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    """Best k-th-power count over a declared AP search box, with witness.

    bound_ratio relates best_count to the trend denominator n^(2/3) for
    k <= 3 and n^(1/2) beyond (12 significant digits; report only).
    """

    k: int
    n: int
    best_count: int
    witness_p: int
    witness_r: int
    pmax: int
    rmax: int
    bound_ratio: float

    def to_json(self) -> dict:
        return {
            "type": "qk",
            "k": self.k,
            "n": self.n,
            "best_count": self.best_count,
            "witness": {"p": self.witness_p, "r": self.witness_r},
            "search_bounds": {"pmax": self.pmax, "rmax": self.rmax},
            "bound_ratio": self.bound_ratio,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScanRecord":
        return cls(
            k=data["k"],
            n=data["n"],
            best_count=data["best_count"],
            witness_p=data["witness"]["p"],
            witness_r=data["witness"]["r"],
            pmax=data["search_bounds"]["pmax"],
            rmax=data["search_bounds"]["rmax"],
            bound_ratio=data["bound_ratio"],
        )


@dataclass(frozen=True)
class ScanFrontier:
    """Progress marker for a resumable box scan: the last processed cell
    plus the best seen so far."""

    r: int
    p: int
    best_count: int
    witness_p: int
    witness_r: int

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "p": self.p,
            "best_count": self.best_count,
            "witness": {"p": self.witness_p, "r": self.witness_r},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScanFrontier":
        return cls(
            r=data["r"],
            p=data["p"],
            best_count=data["best_count"],
            witness_p=data["witness"]["p"],
            witness_r=data["witness"]["r"],
        )


def trend_ratio(count: int, n: int, k: int) -> float:
    exponent = 2.0 / 3.0 if k <= 3 else 0.5
    return float(f"{count / n ** exponent:.12g}")


def _box_tiles(pmax: int, rmax: int, rows: int, resume: ScanFrontier | None):
    """Tiles (r_lo, r_hi, p_lo, p_hi) of the box in (r, p) scan order.

    A tile holds `rows` whole rows, or, when rows == 1, one p-window of at
    most TILE_CELLS cells.  A frontier skips every cell up to and including
    its own (r, p); a mid-row frontier leaves the rest of its row as the
    first tiles.
    """
    r_start = 1
    if resume is not None:
        r_start = max(1, resume.r + 1)
        if 1 <= resume.r <= rmax and resume.p < pmax:
            for p_lo in range(max(0, resume.p + 1), pmax + 1, TILE_CELLS):
                yield resume.r, resume.r, p_lo, min(pmax, p_lo + TILE_CELLS - 1)
    for r_lo in range(r_start, rmax + 1, rows):
        r_hi = min(rmax, r_lo + rows - 1)
        for p_lo in range(0, pmax + 1, TILE_CELLS):
            yield r_lo, r_hi, p_lo, min(pmax, p_lo + TILE_CELLS - 1)


def _count_tile(table: np.ndarray, n: int, r_lo: int, r_hi: int, p_lo: int, p_hi: int) -> np.ndarray:
    """counts[r - r_lo, p - p_lo] = #{j < n : p + r*j in table} over the tile.

    For each row r and each j, the powers v in [r*j + p_lo, r*j + p_hi] are
    the hits of that term, one for cell p = v - r*j.  The (row, j) pairs go
    in chunks small enough that neither a chunk's pairs nor its hits exceed
    TILE_CELLS: the gaps between k-th powers grow, so no window of the tile's
    width holds more powers than [0, width) does.
    """
    rows = r_hi - r_lo + 1
    width = p_hi - p_lo + 1
    per_pair = int(np.searchsorted(table, width - 1, side="right"))
    chunk = max(1, TILE_CELLS // per_pair)
    pairs = rows * n
    counts = np.zeros(rows * width, dtype=np.int64)
    for q_lo in range(0, pairs, chunk):
        row, j = np.divmod(np.arange(q_lo, min(pairs, q_lo + chunk), dtype=np.int64), n)
        start = (r_lo + row) * j + p_lo
        lo = np.searchsorted(table, start, side="left")
        lens = np.searchsorted(table, start + (width - 1), side="right") - lo
        total = int(lens.sum())
        if total == 0:
            continue
        # index every hit: the lens[i] consecutive table entries from lo[i]
        idx = np.arange(total, dtype=np.int64) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
        cells = table[idx] + np.repeat(row * width - start, lens)
        counts += np.bincount(cells, minlength=rows * width)
    return counts.reshape(rows, width)


def qk_oracle(
    k: int,
    n: int,
    pmax: int,
    rmax: int,
    resume: ScanFrontier | None = None,
    checkpoint: Callable[[ScanFrontier], None] | None = None,
    checkpoint_every: int = CHECKPOINT_EVERY,
) -> ScanRecord:
    """Exhaustive maximum of count_in_ap over 0 <= p <= pmax, 1 <= r <= rmax.

    Ties break deterministically to the smallest r, then the smallest p.
    The box is counted tile by tile against the table of k-th powers up to
    pmax + rmax*(n-1) (see _count_tile).  A tile holds
    max(1, min(TILE_CELLS, checkpoint_every) // (pmax+1)) rows; after each
    tile in which the scanned-cell count crosses a multiple of
    checkpoint_every, the frontier is written at the tile's last row with
    p = pmax.  A resumed scan skips every cell up to the frontier's (r, p).
    """
    if n < 1 or pmax < 0 or rmax < 1:
        raise ValueError(f"bad search box n={n}, pmax={pmax}, rmax={rmax}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint interval must be >= 1, got {checkpoint_every}")
    cells = (pmax + 1) * rmax
    if cells * n > DEFAULT_SCAN_BUDGET:
        raise BudgetExceededError(f"{cells} cells x n={n} exceeds scan budget {DEFAULT_SCAN_BUDGET}")
    table = np.array(kth_powers_in(0, pmax + rmax * (n - 1), k).elements, dtype=np.int64)
    rows = max(1, min(TILE_CELLS, checkpoint_every) // (pmax + 1))
    # the first cell (r=1, p=0) always beats the sentinel, so the witness is
    # always a really-scanned cell
    best_count, best_r, best_p = (resume.best_count, resume.witness_r, resume.witness_p) if resume else (-1, 1, 0)
    scanned = 0
    next_mark = checkpoint_every
    for r_lo, r_hi, p_lo, p_hi in _box_tiles(pmax, rmax, rows, resume):
        counts = _count_tile(table, n, r_lo, r_hi, p_lo, p_hi)
        # the row-major first maximum is the smallest r, then smallest p
        at = int(counts.argmax())
        if counts.flat[at] > best_count:
            row, col = divmod(at, p_hi - p_lo + 1)
            best_count, best_r, best_p = int(counts.flat[at]), r_lo + row, p_lo + col
        scanned += counts.size
        if checkpoint is not None and p_hi == pmax and scanned >= next_mark:
            checkpoint(ScanFrontier(r=r_hi, p=pmax, best_count=best_count,
                                    witness_p=best_p, witness_r=best_r))
            next_mark = (scanned // checkpoint_every + 1) * checkpoint_every
    return ScanRecord(
        k=k,
        n=n,
        best_count=best_count,
        witness_p=best_p,
        witness_r=best_r,
        pmax=pmax,
        rmax=rmax,
        bound_ratio=trend_ratio(best_count, n, k),
    )


def replay_scan_record(record: ScanRecord) -> bool:
    """Check that the witness lies in the recorded box and re-derive the
    recorded count from it."""
    if not (0 <= record.witness_p <= record.pmax and 1 <= record.witness_r <= record.rmax):
        return False
    return count_in_ap(record.k, record.witness_p, record.witness_r, record.n) == record.best_count


# ---------------------------------------------------------------------------
# progression and energy reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapScan:
    k: int
    gap: Gap
    count: int
    value_count: int
    bound_ratio: float

    def to_json(self) -> dict:
        return {
            "type": "gap_scan",
            "k": self.k,
            "gap": self.gap.to_json(),
            "count": self.count,
            "value_count": self.value_count,
            "bound_ratio": self.bound_ratio,
        }


def scan_gap(k: int, gap: Gap) -> GapScan:
    """Count k-th powers in the progression's value set.

    bound_ratio divides the count by 8^d * |H|^(3/4 - 3/(32d+4)), the
    conditional multidimensional trend denominator; report only, improper
    progressions are counted over their value set like any other.
    """
    if k < 2:
        raise ValueError(f"power order must be >= 2, got {k}")
    values = enumerate_gap(gap)
    count = sum(1 for v in values if is_kth_power(v, k))
    h = len(values)
    d = gap.dimension
    denominator = 8.0**d * h ** (0.75 - 3.0 / (32 * d + 4))
    ratio = float(f"{count / denominator:.12g}") if h else 0.0
    return GapScan(k=k, gap=gap, count=count, value_count=h, bound_ratio=ratio)


@dataclass(frozen=True)
class EnergyTrendRow:
    k: int
    n: int
    size: int
    energy: int
    exponent: str
    ratio: float

    def to_json(self) -> dict:
        return {
            "type": "energy_trend",
            "k": self.k,
            "n": self.n,
            "size": self.size,
            "energy": self.energy,
            "exponent": self.exponent,
            "ratio": self.ratio,
        }


def energy_experiment(k: int, n: int) -> EnergyTrendRow:
    """Exact additive energy of the k-th powers in [1, n], with the trend
    ratio against the conjectured exponent for that k (report only):
    |A|^(8/3) for squares, |A|^(5/2) for cubes, |A|^2 beyond."""
    if n < 1:
        raise ValueError(f"range bound must be >= 1, got {n}")
    a = kth_powers_in(1, n, k)
    value = energy(a, a)
    size = len(a)
    if k == 2:
        exponent, exp_value = "8/3", 8.0 / 3.0
    elif k == 3:
        exponent, exp_value = "5/2", 2.5
    else:
        exponent, exp_value = "2", 2.0
    ratio = float(f"{value / size ** exp_value:.12g}") if size else 0.0
    return EnergyTrendRow(k=k, n=n, size=size, energy=value, exponent=exponent, ratio=ratio)


@dataclass(frozen=True)
class InclusionCheck:
    holds: bool
    witnesses: tuple[int, ...]
    products_checked: int

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "witnesses": list(self.witnesses),
            "products_checked": self.products_checked,
        }


def multiplicative_inclusion_check(a: IntSet, z: IntSet, d: int, l: int) -> InclusionCheck:
    """Check [1, d^l] * Z inside 2A - 2A, listing up to ten failing products."""
    if d < 2 or l < 1:
        raise ValueError(f"need d >= 2 and l >= 1, got d={d}, l={l}")
    m_max = d**l
    work = m_max * len(z)
    if work > DEFAULT_INCLUSION_BUDGET:
        raise BudgetExceededError(f"{work} products exceed inclusion budget {DEFAULT_INCLUSION_BUDGET}")
    if z:
        checked_mul(m_max, z.max())
        checked_mul(m_max, z.min())
    target = signed_sumset(a, 2, 2).as_set() if a else frozenset()
    witnesses: list[int] = []
    holds = True
    for m in range(1, m_max + 1):
        for zv in z:
            if (m * zv) not in target:
                holds = False
                if len(witnesses) < 10:
                    witnesses.append(m * zv)
    return InclusionCheck(holds=holds, witnesses=tuple(witnesses), products_checked=work)
