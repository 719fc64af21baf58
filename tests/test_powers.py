import math
import random

import pytest

from addcomb import (
    BudgetExceededError,
    Gap,
    IntSet,
    count_in_ap,
    energy_experiment,
    enumerate_gap,
    is_kth_power,
    kth_powers_in,
    multiplicative_inclusion_check,
    qk_oracle,
    replay_scan_record,
    scan_gap,
)
from addcomb import powers
from addcomb.powers import TILE_CELLS, ScanFrontier, kth_root_floor


# ---------------------------------------------------------------------------
# roots and membership
# ---------------------------------------------------------------------------


def test_kth_root_floor_matches_definition():
    for n in list(range(0, 200)) + [10**12, 10**15 + 7]:
        for k in (2, 3, 4, 5, 7):
            r = kth_root_floor(n, k)
            assert r**k <= n < (r + 1) ** k


def test_is_kth_power():
    assert is_kth_power(0, 2) and is_kth_power(0, 5)
    assert is_kth_power(-8, 3) and not is_kth_power(-8, 2)
    assert is_kth_power(1 << 62, 2)
    assert not is_kth_power((1 << 62) + 1, 2)


def test_kth_powers_in_examples():
    assert kth_powers_in(1, 25, 2) == IntSet([1, 4, 9, 16, 25])
    assert kth_powers_in(-8, 8, 3) == IntSet([-8, -1, 0, 1, 8])
    assert kth_powers_in(1, 100, 5) == IntSet([1, 32])


def test_kth_powers_in_brute_force():
    rng = random.Random(48)
    cases = [(-50, 50, 3), (0, 300, 2), (-100, -1, 5), (17, 23, 2)]
    for _ in range(200):
        scale = rng.choice([10, 10**4, 10**9])
        lo = rng.randint(-scale, scale)
        cases.append((lo, lo + rng.randint(0, 3000), rng.randint(2, 7)))
    cases += [(v, v, k) for v in (-27, -8, -1, 0, 1, 16, 17, 64) for k in range(2, 8)]
    cases += [(-100, -1, 2), (-5000, -4, 4), (-1, -1, 6)]  # even k, hi < 0
    cases += [(-100, 50, 2), (-700, 300, 4)]  # even k, lo < 0 <= hi
    for lo, hi, k in cases:
        expected = IntSet(v for v in range(lo, hi + 1) if is_kth_power(v, k))
        assert kth_powers_in(lo, hi, k) == expected, (lo, hi, k)
    # -2^63 = (-2^21)^3, and the next cube up lies beyond -2^63 + 10^6
    assert (-(1 << 21)) ** 3 == -(1 << 63) and -((1 << 21) - 1) ** 3 > -(1 << 63) + 10**6
    assert kth_powers_in(-(1 << 63), -(1 << 63) + 10**6, 3) == IntSet([-(1 << 63)])


# ---------------------------------------------------------------------------
# counting inside progressions
# ---------------------------------------------------------------------------


def test_count_in_ap_examples():
    assert count_in_ap(2, 1, 1, 25) == 5
    assert count_in_ap(2, 1, 24, 8) == 5
    assert count_in_ap(3, 0, 7, 10) == 1


def test_count_in_ap_matches_power_listing():
    rng = random.Random(13)
    for _ in range(30):
        k = rng.choice([2, 3, 5])
        p = rng.randint(-50, 200)
        r = rng.randint(1, 30)
        n = rng.randint(1, 40)
        terms = {p + r * j for j in range(n)}
        powers = kth_powers_in(min(terms), max(terms), k)
        assert count_in_ap(k, p, r, n) == len(terms & powers.as_set())


# ---------------------------------------------------------------------------
# box scanning
# ---------------------------------------------------------------------------


def qk_reference(k, n, pmax, rmax):
    """Independent double-loop scanner with a precomputed power table."""
    top = pmax + rmax * (n - 1)
    table = set()
    m = 0
    while m**k <= top:
        table.add(m**k)
        m += 1
    best = (-1, 1, 0)
    for r in range(1, rmax + 1):
        for p in range(0, pmax + 1):
            c = sum(1 for j in range(n) if (p + r * j) in table)
            if c > best[0]:
                best = (c, r, p)
    return best


def test_qk_known_witness():
    record = qk_oracle(2, 3, 100, 100)
    assert record.best_count == 3
    assert (record.witness_p, record.witness_r) == (1, 24)
    assert replay_scan_record(record)


def test_qk_single_term():
    record = qk_oracle(2, 1, 50, 10)
    assert record.best_count == 1
    assert (record.witness_p, record.witness_r) == (0, 1)


def test_qk_matches_reference():
    for n in (1, 4, 9):
        record = qk_oracle(2, n, 60, 60)
        count, r, p = qk_reference(2, n, 60, 60)
        assert (record.best_count, record.witness_r, record.witness_p) == (count, r, p)


def test_qk_monotone_in_length():
    prev = 0
    for n in range(1, 8):
        record = qk_oracle(2, n, 80, 80)
        assert record.best_count >= prev
        prev = record.best_count


def test_qk_deterministic():
    assert qk_oracle(2, 5, 70, 70) == qk_oracle(2, 5, 70, 70)


def assert_matches_reference_and_resumes(k, n, pmax, rmax, checkpoint_every):
    record = qk_oracle(k, n, pmax, rmax)
    box = (k, n, pmax, rmax, checkpoint_every)
    assert (record.best_count, record.witness_r, record.witness_p) == qk_reference(k, n, pmax, rmax), box
    checkpoints = []
    again = qk_oracle(k, n, pmax, rmax, checkpoint=checkpoints.append, checkpoint_every=checkpoint_every)
    assert again == record, box
    for frontier in checkpoints:
        assert frontier.p == pmax and 1 <= frontier.r <= rmax, (box, frontier)
        assert qk_oracle(k, n, pmax, rmax, resume=frontier) == record, (box, frontier)


def test_qk_matches_reference_randomized():
    rng = random.Random(2024)
    edge_boxes = [
        (2, 5, 0, 40),  # pmax = 0
        (3, 12, 60, 1),  # rmax = 1
        (4, 1, 50, 30),  # n = 1
        (2, 4, 2, 80),  # thin: (pmax+1)*n < 16
        (2, 30, 0, 3000),  # the (row, j) pairs of one tile span several chunks
        (2, 3, TILE_CELLS + 37, 2),  # a row wider than TILE_CELLS
    ]
    for k, n, pmax, rmax in edge_boxes:
        cells = (pmax + 1) * rmax
        assert_matches_reference_and_resumes(k, n, pmax, rmax, rng.randint(1, cells))
    for _ in range(200):
        k = rng.choice([2, 3, 4, 5])
        n = rng.randint(1, 30)
        pmax = rng.randint(0, 80)
        rmax = rng.randint(1, 80)
        checkpoint_every = rng.randint(1, (pmax + 1) * rmax)
        assert_matches_reference_and_resumes(k, n, pmax, rmax, checkpoint_every)


def prefix_frontier(k, n, pmax, r, p):
    """The frontier a scan would hold after cell (r, p), found cell by cell."""
    best = (-1, 1, 0)
    for rr in range(1, r + 1):
        for pp in range(0, (p if rr == r else pmax) + 1):
            c = count_in_ap(k, pp, rr, n)
            if c > best[0]:
                best = (c, rr, pp)
    return ScanFrontier(r=r, p=p, best_count=best[0], witness_p=best[2], witness_r=best[1])


def test_qk_resume_mid_row():
    full = qk_oracle(2, 3, 40, 40)
    assert (full.witness_r, full.witness_p) == (24, 1)
    # frontiers before the witness, inside its row on either side, and after it
    for r, p in [(1, 0), (10, 17), (24, 0), (24, 1), (24, 39), (30, 5)]:
        frontier = prefix_frontier(2, 3, 40, r, p)
        assert qk_oracle(2, 3, 40, 40, resume=frontier) == full, (r, p)
        assert qk_oracle(2, 3, 40, 40, resume=ScanFrontier.from_json(frontier.to_json())) == full


def test_qk_resume_equals_full_scan():
    full = qk_oracle(2, 4, 50, 50)
    checkpoints = []
    qk_oracle(2, 4, 50, 50, checkpoint=checkpoints.append, checkpoint_every=300)
    assert checkpoints, "expected at least one checkpoint"
    resumed = qk_oracle(2, 4, 50, 50, resume=checkpoints[0])
    assert resumed == full
    # resuming from a parsed frontier behaves identically
    rebuilt = ScanFrontier.from_json(checkpoints[-1].to_json())
    assert qk_oracle(2, 4, 50, 50, resume=rebuilt) == full


def test_qk_checkpoints_at_tile_ends():
    # 51-cell rows, 300 // 51 = 5 rows a tile: a checkpoint ends each tile
    # whose 255 cells carry the running count past a multiple of 300
    checkpoints = []
    qk_oracle(2, 4, 50, 50, checkpoint=checkpoints.append, checkpoint_every=300)
    assert [f.r for f in checkpoints] == [10, 15, 20, 25, 30, 40, 45, 50]
    for frontier in checkpoints:
        assert frontier == prefix_frontier(2, 4, 50, frontier.r, 50)


def test_qk_budget():
    with pytest.raises(BudgetExceededError):
        qk_oracle(2, 100, 10**6, 10**6)


def test_qk_rejects_bad_checkpoint_interval():
    with pytest.raises(ValueError):
        qk_oracle(2, 3, 10, 10, checkpoint=lambda frontier: None, checkpoint_every=0)


def test_scan_record_round_trip():
    record = qk_oracle(3, 4, 30, 30)
    from addcomb.powers import ScanRecord

    assert ScanRecord.from_json(record.to_json()) == record


# ---------------------------------------------------------------------------
# progression scans and energy trends
# ---------------------------------------------------------------------------


def test_scan_gap_examples():
    assert scan_gap(2, Gap(1, (1,), (25,))).count == 5
    improper = Gap(0, (1, 2), (3, 3))
    values = enumerate_gap(improper)
    assert scan_gap(2, improper).count == sum(1 for v in values if is_kth_power(v, 2))
    wide = Gap(1, (24, 5040), (8, 4))
    expected = sum(1 for v in enumerate_gap(wide) if math.isqrt(v) ** 2 == v)
    assert scan_gap(2, wide).count == expected == 7


def test_energy_experiment_small():
    row = energy_experiment(2, 25)
    # naive quadruple count over {1,4,9,16,25}
    a = [1, 4, 9, 16, 25]
    quads = sum(
        1 for x in a for y in a for z in a for w in a if x + y == z + w
    )
    assert row.energy == quads == 45
    assert row.size == 5 and row.exponent == "8/3"
    assert row.ratio == pytest.approx(45 / 5 ** (8 / 3))


def test_energy_experiment_singleton():
    row = energy_experiment(5, 31)  # only 1 is a fifth power below 32
    assert row.size == 1 and row.energy == 1


def test_energy_experiment_quartics():
    row = energy_experiment(4, 10**4)
    a = [m**4 for m in range(1, 11)]
    quads = sum(1 for x in a for y in a for z in a for w in a if x + y == z + w)
    assert row.size == 10 and row.energy == quads
    assert row.exponent == "2"


# ---------------------------------------------------------------------------
# dilate inclusion
# ---------------------------------------------------------------------------


def test_inclusion_examples():
    assert multiplicative_inclusion_check(IntSet(range(21)), IntSet([0]), 2, 3).holds
    res = multiplicative_inclusion_check(IntSet([0, 1]), IntSet([1]), 2, 3)
    assert not res.holds and res.witnesses[0] == 3
    assert multiplicative_inclusion_check(IntSet(range(100)), IntSet([1, 2]), 2, 5).holds


def test_inclusion_budget(monkeypatch):
    monkeypatch.setattr(powers, "DEFAULT_INCLUSION_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        multiplicative_inclusion_check(IntSet([0, 1]), IntSet([1]), 2, 40)
