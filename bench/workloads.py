"""Seeded job streams for the four benchmark workloads.

A workload is an endless sequence of rounds.  Round i of a workload under
seed s comes from its own random generator, so the same seed always gives
the same jobs, and every round has the same mix of job kinds.  Sizes inside
a round are stratified: the jobs of one kind get one cost level each, spread
evenly over the kind's range with a seeded draw inside each stratum, and
every size of a job follows its level.  So the cost of a round varies little
between seeds while its inputs differ.

Rounds share a record store in segments of ``ROUNDS_PER_STORE`` rounds, and
every segment starts from an empty store, so the store a job sees depends
only on its place in the stream, never on how fast the program ran the jobs
before it.  Jobs carry only the subcommand argv; the runner adds
``--record-store``.  The decoded inputs ride along in ``Job.inputs`` for the
output checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Sum-span classes of a representation count (see ``span_class``): "small"
# fits a counting array in L2, "mid" reaches far beyond L3, "large" is past
# both.  These are the benchmark's own constants, not the program's.
SMALL_SPAN_MAX = 1 << 18
MID_SPAN_MAX = 1 << 26

WORKLOADS = ("scan", "energy", "census", "ledger")
SIZES = ("full", "tiny")

# Rounds per record store: ledger grows one store to about 1.1k lines, the
# other workloads start every round from an empty store.
ROUNDS_PER_STORE = {"scan": 1, "energy": 1, "census": 1, "ledger": 12}

# Percentile of job_tail_s: fixed per workload, so it does not move with the
# number of jobs a run completes.  Each is the highest whole percentile with
# at least ten jobs beyond it in a 25 s run at the commit that added the
# benchmark (scan about 100 jobs, energy 250, census 75, ledger 650).
TAIL_PCT = {"scan": 90, "energy": 95, "census": 85, "ledger": 98}


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    inputs: dict = field(default_factory=dict, compare=False)


def span_class(span: int) -> str:
    if span <= SMALL_SPAN_MAX:
        return "small"
    return "mid" if span <= MID_SPAN_MAX else "large"


def _js(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _levels(rng: random.Random, count: int) -> list[float]:
    """count levels in (0, 1), one seeded draw in each of count equal
    strata, in stratum order."""
    return [(i + rng.random()) / count for i in range(count)]


def _scale(u: float, lo: float, hi: float, log: bool = False) -> int:
    return round(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)


def _strata(rng: random.Random, count: int, lo: float, hi: float, log: bool = False) -> list[int]:
    """count integers spread over [lo, hi] by _levels, in shuffled order."""
    values = [_scale(u, lo, hi, log) for u in _levels(rng, count)]
    rng.shuffle(values)
    return values


def _random_set(rng: random.Random, size: int, width: int, offset: int = 0) -> list[int]:
    """size distinct integers in [offset, offset + width), always including
    both ends so the span of the set is exactly width - 1."""
    inner = rng.sample(range(offset + 1, offset + width - 1), size - 2)
    return sorted([offset, offset + width - 1, *inner])


def _random_gap(rng: random.Random, lengths: list[int], max_step: int) -> dict:
    steps = rng.sample(range(1, max_step + 1), len(lengths))
    return {"base": rng.randint(1, 1000), "steps": steps, "lengths": lengths}


def _split_lengths(rng: random.Random, box: int, dims: int) -> list[int]:
    """dims side lengths >= 2 whose product is close to box."""
    side = max(2, round(box ** (1.0 / dims)))
    lengths = [max(2, round(side * rng.uniform(0.7, 1.4))) for _ in range(dims - 1)]
    rest = box
    for length in lengths:
        rest //= length
    return lengths + [max(2, rest)]


# ---------------------------------------------------------------------------
# scan: the (p, r) box scanner and gcd stratification
# ---------------------------------------------------------------------------

_SCAN = {
    "full": {"qk": 8, "n": (8, 24), "tests": (4 * 10**5, 8 * 10**5), "gap": 4, "gap_box": (2000, 20000),
             "mobius": 4, "i_size": (55, 65), "pairs": (9 * 10**4, 1.1 * 10**5)},
    "tiny": {"qk": 2, "n": (6, 10), "tests": (2000, 8000), "gap": 2, "gap_box": (100, 400),
             "mobius": 1, "i_size": (8, 12), "pairs": (500, 1000)},
}


def _scan_round(rng: random.Random, size: str) -> list[Job]:
    cfg = _SCAN[size]
    jobs = []
    for i, u in enumerate(_levels(rng, cfg["qk"])):
        # n and the power tests (cells * n) grow with the level, so the box
        # sides stay between 120 and 300; a cube test costs about twice a
        # square test, so cube boxes get half the tests and the scan costs
        # of both spread evenly over one range
        k = 2 + i % 2
        n = _scale(u, *cfg["n"])
        cells = _scale(u, *cfg["tests"], log=True) // (n * (k - 1))
        pmax = round(cells**0.5 * rng.uniform(0.85, 1.15))
        params = {"k": k, "n": n, "pmax": pmax, "rmax": max(1, cells // (pmax + 1))}
        argv = ["qk", *(f"--{key}={value}" for key, value in params.items())]
        jobs.append(Job("qk", tuple(argv), params))
    # the largest progression sets the peak memory, so every round has one
    # of the full size and the peak matches across seeds
    boxes = _strata(rng, cfg["gap"] - 1, *cfg["gap_box"], log=True) + [cfg["gap_box"][1]]
    for i, box in enumerate(boxes):
        gap = _random_gap(rng, _split_lengths(rng, box, 2 + i % 2), 5000)
        k = 2 + rng.randrange(2)
        jobs.append(Job("scan-gap", ("scan-gap", f"--k={k}", f"--gap={_js(gap)}"), {"k": k, "gap": gap}))
    for u in _levels(rng, cfg["mobius"]):
        i_size = _scale(u, *cfg["i_size"])
        i_set = sorted(rng.sample(range(2, 3000), i_size))
        gap = _random_gap(rng, _split_lengths(rng, _scale(u, *cfg["pairs"]) // i_size, 2), 5000)
        jobs.append(Job("mobius-check", ("mobius-check", f"--i-set={_js(i_set)}", f"--gap={_js(gap)}"),
                        {"i_set": i_set, "gap": gap}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# energy: representation counting in three span classes
# ---------------------------------------------------------------------------

_ENERGY = {
    "full": {"pair": 3, "pair_size": (150, 400), "self": 2, "popular": 2, "pop_size": (20, 40),
             "pluennecke": 2, "plue_size": (20, 35), "mixed": 1, "mixed_size": (15, 28),
             "mid_size": (430, 470), "mid_log_span": ((19, 22), (22, 24.5), (24.9, 25.0), (24.9, 25.0)),
             "large_size": (450, 550), "large": 3},
    "tiny": {"pair": 1, "pair_size": (20, 40), "self": 1, "popular": 1, "pop_size": (8, 12),
             "pluennecke": 1, "plue_size": (8, 12), "mixed": 1, "mixed_size": (6, 10),
             "mid_size": (20, 40), "mid_log_span": ((19, 20),), "large_size": (20, 40), "large": 1},
}


def _energy_job(a: list[int], b: list[int] | None) -> Job:
    argv = ["energy", f"--set={_js(a)}"]
    if b is not None:
        argv.append(f"--b-set={_js(b)}")
    return Job("energy", tuple(argv), {"a": a, "b": b})


def _energy_round(rng: random.Random, size: str) -> list[Job]:
    cfg = _ENERGY[size]
    jobs = []
    # small: every sum span at most SMALL_SPAN_MAX
    for n_a, n_b, width in zip(_strata(rng, cfg["pair"], *cfg["pair_size"]),
                               _strata(rng, cfg["pair"], *cfg["pair_size"]),
                               _strata(rng, cfg["pair"], 1 << 14, 1 << 17, log=True)):
        jobs.append(_energy_job(_random_set(rng, n_a, width), _random_set(rng, n_b, width)))
    for n_a, width in zip(_strata(rng, cfg["self"], *cfg["pair_size"]),
                          _strata(rng, cfg["self"], 1 << 14, 1 << 17, log=True)):
        jobs.append(_energy_job(_random_set(rng, n_a, width), None))
    for n_a in _strata(rng, cfg["popular"], *cfg["pop_size"]):
        a = _random_set(rng, n_a, rng.randint(1 << 10, 1 << 14))
        jobs.append(Job("popular", ("popular", f"--set={_js(a)}", "--k=3"), {"a": a, "k": 3}))
    for n_a in _strata(rng, cfg["pluennecke"], *cfg["plue_size"]):
        a = _random_set(rng, n_a, rng.randint(1 << 8, 1 << 14))
        jobs.append(Job("pluennecke", ("pluennecke", f"--set={_js(a)}", "--n=2", "--m=1"),
                        {"a": a, "n": 2, "m": 1}))
    for i, n_a in enumerate(_strata(rng, cfg["mixed"], *cfg["mixed_size"])):
        a = _random_set(rng, n_a, rng.randint(4 * n_a, 16 * n_a))
        k, l = (3, 2) if i % 2 == 0 else (2, 3)
        jobs.append(Job("mixed-energy", ("mixed-energy", f"--set={_js(a)}", f"--k={k}", f"--l={l}"),
                        {"a": a, "k": k, "l": l}))
    squares = sorted(_strata(rng, 3, 10**4, 10**5, log=True))
    jobs.append(Job("energy-powers", ("energy", "--powers=2", f"--n-list={','.join(map(str, squares))}"),
                    {"k": 2, "n_list": squares}))
    cubes = sorted(_strata(rng, 2, 10**4, 1 << 16, log=True))
    jobs.append(Job("energy-powers", ("energy", "--powers=3", f"--n-list={','.join(map(str, cubes))}"),
                    {"k": 3, "n_list": cubes}))
    # mid: one span stratum per job; the last two reach 2^25 with nearly
    # fixed sizes, so the slowest jobs and peak memory match across seeds
    for lo, hi in cfg["mid_log_span"]:
        span = round(2 ** rng.uniform(lo, hi))
        n_a, n_b = (rng.randint(*cfg["mid_size"]) for _ in range(2))
        width_a = rng.randint(span // 4, span // 2)
        jobs.append(_energy_job(_random_set(rng, n_a, width_a),
                                _random_set(rng, n_b, span - width_a + 1)))
    # large: spans far above MID_SPAN_MAX
    for i, u in enumerate(_levels(rng, cfg["large"])):
        a = _random_set(rng, _scale(u, *cfg["large_size"]), 1 << 40)
        b = _random_set(rng, _scale(u, *cfg["large_size"]), 1 << 40, 1 << 38) if i % 3 else None
        jobs.append(_energy_job(a, b))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# census: curve evaluation, the power test and the clique reporter
# ---------------------------------------------------------------------------

_CENSUS = {
    "full": {"probe": 6, "window": (8, 10), "probe_height": (200, 600), "clique": 3,
             "clique_height": (5200, 5800), "clique4_height": (2500, 3500), "curves": 3,
             "int_height": (1000, 5000), "rat_height": (40, 120)},
    "tiny": {"probe": 1, "window": (4, 5), "probe_height": (20, 40), "clique": 1,
             "clique_height": (200, 400), "clique4_height": (100, 200), "curves": 2,
             "int_height": (50, 100), "rat_height": (8, 12)},
}


def _random_curve(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        degree = rng.randint(3, 6)
        coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [rng.choice((1, 2, 3))]
        return {"k": 2, "coeffs": coeffs}
    if rng.random() < 0.5:
        return {"k": 3, "coeffs": [rng.randint(1, 50), 0, 0, 1]}
    return {"k": 3, "coeffs": [rng.randint(-30, 30), rng.randint(-10, 10), 0, 1]}


def _census_round(rng: random.Random, size: str) -> list[Job]:
    # as many fast curve searches as slow cliques, so the median job is a
    # census probe; the size-3 cliques are close in cost and form the tail,
    # so the tail does not depend on how many rounds a run completes
    cfg = _CENSUS[size]
    jobs = []
    for u in _levels(rng, cfg["probe"]):
        # window counts the nonzero shifts in [alpha_min, alpha_max]
        window, height = _scale(u, *cfg["window"]), _scale(u, *cfg["probe_height"])
        alpha_min = rng.randint(-12, 8)
        alpha_max = alpha_min + window - 1 + (alpha_min <= 0 <= alpha_min + window - 1)
        params = {"alpha_min": alpha_min, "alpha_max": alpha_max, "height": height}
        argv = ["probe-quadruples", *(f"--{key.replace('_', '-')}={value}" for key, value in params.items())]
        jobs.append(Job("probe-quadruples", tuple(argv), params))
    heights = [(3, _scale(u, *cfg["clique_height"])) for u in _levels(rng, cfg["clique"])]
    for clique_size, height in [*heights, (4, rng.randint(*cfg["clique4_height"]))]:
        jobs.append(Job("clique", ("clique", f"--height={height}", f"--size={clique_size}"),
                        {"height": height, "size": clique_size}))
    for i, u in enumerate(_levels(rng, cfg["curves"])):
        mode = "rational" if i % 2 else "integer"
        height = _scale(u, *cfg["rat_height" if i % 2 else "int_height"])
        curve = _random_curve(rng)
        jobs.append(Job("curve-points", ("curve-points", f"--curve={_js(curve)}", f"--height={height}",
                                         f"--mode={mode}"),
                        {"curve": curve, "height": height, "mode": mode}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# ledger: record-store appends and reads under CLI overhead
# ---------------------------------------------------------------------------

_LEDGER = {
    "full": {"ap": 12, "gap": 8, "qk": 6, "resume": 3, "side": (30, 60), "every": (100, 300)},
    "tiny": {"ap": 3, "gap": 2, "qk": 2, "resume": 1, "side": (8, 12), "every": (20, 40)},
}


def _ledger_round(rng: random.Random, size: str) -> list[Job]:
    cfg = _LEDGER[size]
    jobs = []
    for _ in range(cfg["ap"]):
        params = {"k": 2 + rng.randrange(2), "p": rng.randint(0, 10**6), "r": rng.randint(1, 10**4),
                  "n": rng.randint(10, 60)}
        jobs.append(Job("scan-ap", ("scan-ap", *(f"--{key}={value}" for key, value in params.items())), params))
    for i in range(cfg["gap"]):
        gap = _random_gap(rng, _split_lengths(rng, rng.randint(50, 400), 2 + i % 2), 2000)
        k = 2 + rng.randrange(2)
        jobs.append(Job("scan-gap", ("scan-gap", f"--k={k}", f"--gap={_js(gap)}"), {"k": k, "gap": gap}))
    scans = []
    for pmax, rmax, every in zip(_strata(rng, cfg["qk"], *cfg["side"]), _strata(rng, cfg["qk"], *cfg["side"]),
                                 _strata(rng, cfg["qk"], *cfg["every"])):
        params = {"k": 2, "n": rng.randint(6, 10), "pmax": pmax, "rmax": rmax}
        argv = ["qk", *(f"--{key}={value}" for key, value in params.items()), f"--checkpoint-every={every}"]
        scans.append(Job("qk", tuple(argv), params))
    jobs.extend(scans)
    rng.shuffle(jobs)
    # a resumed scan replays a config that already ran earlier in the stream
    for source in rng.sample(scans, cfg["resume"]):
        after = jobs.index(source) + 1
        jobs.insert(rng.randint(after, len(jobs)), Job("qk", (*source.argv, "--resume"), source.inputs))
    jobs.append(Job("verify", ("verify",), {}))
    return jobs


_ROUNDS = {"scan": _scan_round, "energy": _energy_round, "census": _census_round, "ledger": _ledger_round}


def round_jobs(workload: str, seed: int, index: int, size: str = "full") -> list[Job]:
    """The jobs of round ``index`` of ``workload`` under ``seed``."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}:{index}"), size)


def warmup_job(workload: str) -> tuple[str, ...]:
    """A small job of the workload's family, run once before timing."""
    return {
        "scan": ("qk", "--k=2", "--n=8", "--pmax=30", "--rmax=30"),
        "energy": ("energy", "--set=[0,1,3,7,12,20]", "--b-set=[2,5,11]"),
        "census": ("curve-points", '--curve={"k":2,"coeffs":[15,0,1]}', "--height=50"),
        "ledger": ("scan-ap", "--k=2", "--p=1", "--r=24", "--n=8"),
    }[workload]
