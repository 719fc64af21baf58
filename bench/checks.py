"""Output checks written independently of the code under test.

Each check parses a job's JSON-lines output and re-derives what it can with
the benchmark's own arithmetic: integer roots by Newton's method, exact
energies by sorting all pair sums with NumPy, curve points by exact
rational evaluation.  A check returns a list of problems; an empty list
means the output passed.  Checks run outside the timed region, and read an
output one line at a time without keeping the replay config of its rows, so
they hold far less memory than the jobs they check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np

# Result fields left out of the pinned digests: the replay config (its shard
# count is planned to go), wall-clock stamps, and the method tag of energy
# rows (the counting paths are planned to merge).
_UNPINNED = ("config", "timestamp", "method")


def iroot(value: int, k: int) -> int:
    """Largest r >= 0 with r**k <= value, for value >= 0 (Newton from above)."""
    if value < 2:
        return value
    x = 1 << -(-value.bit_length() // k)
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_power(value: int, k: int) -> bool:
    if value < 0:
        return k % 2 == 1 and is_power(-value, k)
    return iroot(value, k) ** k == value


def gap_values(gap: dict) -> set[int]:
    values = {gap["base"]}
    for step, length in zip(gap["steps"], gap["lengths"]):
        values = {v + step * x for v in values for x in range(length)}
    return values


def rep_counts(a, b, sign: int = 1) -> np.ndarray:
    """Counts of the distinct values a + sign*b over all pairs."""
    av = np.asarray(a, dtype=np.int64)
    bv = np.asarray(b, dtype=np.int64) * sign
    return np.unique((av[:, None] + bv[None, :]).ravel(), return_counts=True)[1]


def moment(counts: np.ndarray, power: int) -> int:
    return sum(int(c) ** power * int(m) for c, m in zip(*np.unique(counts, return_counts=True)))


def _rows(stdout: str):
    """The rows of an output after its header, one at a time, each without
    its replay config."""
    pos = 0
    while pos < len(stdout):
        end = stdout.find("\n", pos)
        end = len(stdout) if end < 0 else end
        row = json.loads(stdout[pos:end])
        pos = end + 1
        if row.get("type") != "header":
            row.pop("config", None)
            yield row


def digest(code: int, stdout: str) -> str:
    """Digest of the result fields of an output, header and config excluded:
    the hash of the compact JSON of [code, rows], built a row at a time."""
    sha = hashlib.sha256(f"[{code},[".encode())
    for i, row in enumerate(_rows(stdout)):
        kept = {k: v for k, v in row.items() if k not in _UNPINNED}
        sha.update(((',' if i else '') + json.dumps(kept, sort_keys=True, separators=(",", ":"))).encode())
    sha.update(b"]]")
    return sha.hexdigest()[:16]


class StoreModel:
    """What the benchmark expects its record store to hold: the number of
    result records the program can replay, and each scan's best result."""

    def __init__(self) -> None:
        self.replayable = 0
        self.scans: dict[str, tuple] = {}


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _check_qk(inputs, rows, store):
    (row,) = [r for r in rows if r["type"] == "qk"]
    k, n, pmax, rmax = inputs["k"], inputs["n"], inputs["pmax"], inputs["rmax"]
    p, r = row["witness"]["p"], row["witness"]["r"]
    problems = []
    if (row["k"], row["n"]) != (k, n) or not (0 <= p <= pmax and 1 <= r <= rmax):
        problems.append(f"witness {p},{r} outside the box")
    recount = sum(1 for j in range(n) if is_power(p + r * j, k))
    if recount != row["best_count"]:
        problems.append(f"witness recount {recount} != best_count {row['best_count']}")
    key = json.dumps(inputs, sort_keys=True)
    result = (row["best_count"], p, r)
    if store.scans.setdefault(key, result) != result:
        problems.append(f"scan {key} gave {result}, earlier {store.scans[key]}")
    store.replayable += 1
    return problems


def _check_scan_ap(inputs, rows, store):
    (row,) = rows
    k, p, r, n = inputs["k"], inputs["p"], inputs["r"], inputs["n"]
    recount = sum(1 for j in range(n) if is_power(p + r * j, k))
    store.replayable += 1
    return [] if recount == row["count"] else [f"ap recount {recount} != {row['count']}"]


def _check_scan_gap(inputs, rows, store):
    (row,) = rows
    values = gap_values(inputs["gap"])
    recount = sum(1 for v in values if is_power(v, inputs["k"]))
    store.replayable += 1
    if (recount, len(values)) != (row["count"], row["value_count"]):
        return [f"gap recount {recount}/{len(values)} != {row['count']}/{row['value_count']}"]
    return []


def _check_mobius(inputs, rows, store):
    rows = list(rows)
    problems = []
    if [row["l"] for row in rows] != list(range(1, len(rows) + 1)) or not rows:
        problems.append("mobius rows are not l = 1, 2, ...")
    for row in rows:
        if not (row["equal"] and row["direct"] == row["transformed"]):
            problems.append(f"mobius l={row['l']}: {row['direct']} != {row['transformed']}")
    gap = inputs["gap"]
    g = math.gcd(gap["base"], *gap["steps"])
    primed = {v // g for v in gap_values(gap)}
    coprime = sum(1 for i in inputs["i_set"] for h in primed if math.gcd(i, h) == 1)
    if rows and rows[0]["direct"] != coprime:
        problems.append(f"mobius l=1 direct {rows[0]['direct']} != recount {coprime}")
    return problems


def _energy_identities(value: int, n_a: int, n_b: int, same: bool) -> list[str]:
    """Mass identities: the diagonal quadruples are always there, the rest
    come in swapped pairs, and no sum has more than min(|A|, |B|) pairs."""
    problems = []
    if not n_a * n_b <= value <= n_a * n_b * min(n_a, n_b):
        problems.append(f"energy {value} outside [|A||B|, |A||B|min]")
    if (value - n_a * n_b) % 2:
        problems.append(f"energy {value} - |A||B| is odd")
    if same and (value - 2 * n_a * n_a + n_a) % 4:
        problems.append(f"energy {value} != 2|A|^2 - |A| mod 4")
    return problems


def _check_energy(inputs, rows, store):
    (row,) = rows
    a, b = inputs["a"], inputs["b"]
    value = row["value"]
    if b is None:
        return _energy_identities(value, len(a), len(a), True) + (
            [] if value == moment(rep_counts(a, a, -1), 2) else [f"energy {value} != recount"])
    return _energy_identities(value, len(a), len(b), False) + (
        [] if value == moment(rep_counts(a, b), 2) else [f"energy {value} != recount"])


def _check_energy_powers(inputs, rows, store):
    k = inputs["k"]
    rows = list(rows)
    problems = []
    if [row["n"] for row in rows] != inputs["n_list"]:
        problems.append("trend rows do not follow the n list")
    for row in rows:
        powers = [m**k for m in range(1, iroot(row["n"], k) + 1)]
        if row["size"] != len(powers):
            problems.append(f"trend size {row['size']} != {len(powers)}")
            continue
        problems += _energy_identities(row["energy"], len(powers), len(powers), True)
        if row["energy"] != moment(rep_counts(powers, powers), 2):
            problems.append(f"trend energy at n={row['n']} != recount")
    return problems


def _check_popular(inputs, rows, store):
    (row,) = rows
    a = np.asarray(inputs["a"], dtype=np.int64)
    diffs, counts = np.unique((a[:, None] - a[None, :]).ravel(), return_counts=True)
    popular = diffs[4 * len(diffs) * counts >= len(a) ** 2]
    pp_values, pp_counts = np.unique((popular[:, None] - popular[None, :]).ravel(), return_counts=True)
    total = int(pp_counts[np.isin(pp_values, diffs)].sum())
    problems = []
    if row["popular"] != popular.tolist():
        problems.append("popular differences differ from recount")
    if row["sum"] != total:
        problems.append(f"popular sum {row['sum']} != recount {total}")
    return problems


def _check_pluennecke(inputs, rows, store):
    (row,) = rows
    a = np.asarray(inputs["a"], dtype=np.int64)
    twice = np.unique((a[:, None] + a[None, :]).ravel())
    lhs = len(np.unique((twice[:, None] - a[None, :]).ravel()))
    rhs = Fraction(len(twice), len(a)) ** 3 * len(a)
    expected = {"lhs": lhs, "rhs": f"{rhs.numerator}/{rhs.denominator}", "holds": lhs <= rhs}
    got = {key: row[key] for key in expected}
    return [] if got == expected else [f"pluennecke {got} != {expected}"]


def _check_mixed(inputs, rows, store):
    (row,) = rows
    # E_{3,2} = E_{2,3} = sum over differences of r_{A-A}^3
    expected = moment(rep_counts(inputs["a"], inputs["a"], -1), 3)
    if row["value"] == row["mirrored"] == expected and row["symmetric"]:
        return []
    return [f"mixed energy {row['value']}/{row['mirrored']} != {expected}"]


def _poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_curve(inputs, rows, store):
    (row,) = rows
    k, coeffs = inputs["curve"]["k"], inputs["curve"]["coeffs"]
    points = [(Fraction(x), Fraction(y)) for x, y in row["points"]]
    problems = [] if row["count"] == len(points) else ["curve count != number of points"]
    if points != sorted(set(points)):
        problems.append("curve points not sorted and distinct")
    for x, y in points:
        height = max(abs(x.numerator), x.denominator)
        if y**k != _poly(coeffs, x) or height > inputs["height"]:
            problems.append(f"point ({x}, {y}) is not on the curve within the height")
    return problems


def _sextic_count(triple, height):
    e1 = sum(triple)
    e2 = triple[0] * triple[1] + triple[0] * triple[2] + triple[1] * triple[2]
    e3 = triple[0] * triple[1] * triple[2]
    count = 0
    for x in range(-height, height + 1):
        value = _poly((e3, 0, e2, 0, e1, 0, 1), x)
        if value >= 0 and iroot(value, 2) ** 2 == value:
            count += 1 if value == 0 else 2
    return count


def _check_quadruples(inputs, rows, store):
    lo, hi, height = inputs["alpha_min"], inputs["alpha_max"], inputs["height"]
    triples = list(itertools.combinations([v for v in range(lo, hi + 1) if v != 0], 3))
    counts, censuses = [], []
    for r in rows:
        if r["type"] == "quadruple_count":
            counts.append((tuple(r["triple"]), r["count"]))
        elif r["type"] == "quadruple_census":
            censuses.append(r)
    (census,) = censuses
    problems = []
    if [t for t, _ in counts] != triples:
        return ["quadruple rows do not list every admissible triple in order"]
    histogram: dict[str, int] = {}
    for _, c in counts:
        histogram[str(c)] = histogram.get(str(c), 0) + 1
    best = max(c for _, c in counts)
    argmax = [list(t) for t, c in counts if c == best][:16]
    if (census["triples_total"], census["histogram"], census["max_count"], census["argmax"]) != (
            len(triples), dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))), best, argmax):
        problems.append("census row disagrees with the count rows")
    # recount two triples chosen by the window, so the choice is reproducible
    for triple, count in (counts[0], counts[(lo * 7 + height) % len(counts)]):
        if _sextic_count(triple, height) != count:
            problems.append(f"triple {triple}: count {count} != recount")
    return problems


def _check_clique(inputs, rows, store):
    height, size = inputs["height"], inputs["size"]
    cliques, summaries = [], []
    for r in rows:
        if r["type"] == "clique":
            cliques.append(r["members"])
        elif r["type"] == "clique_summary":
            summaries.append(r)
    (summary,) = summaries
    problems = [] if summary["count"] == len(cliques) else ["clique summary count != rows"]
    if cliques != sorted(cliques) or len({tuple(c) for c in cliques}) != len(cliques):
        problems.append("cliques not in order or repeated")
    for members in cliques:
        ok = (len(members) == size and members == sorted(set(members))
              and 1 <= members[0] and members[-1] <= height
              and all(is_power(x + y, 2) for x, y in itertools.combinations(members, 2)))
        if not ok:
            problems.append(f"clique {members} is not a square-sum clique")
            break
    return problems


def _check_verify(inputs, rows, store):
    checked, summaries = [], []
    for r in rows:
        if r["type"] == "verify":
            checked.append(r)
        elif r["type"] == "verify_summary":
            summaries.append(r)
    (summary,) = summaries
    problems = []
    if len(checked) != store.replayable:
        problems.append(f"verify replayed {len(checked)} records, store holds {store.replayable}")
    if not summary["all_ok"] or not all(r["ok"] for r in checked):
        problems.append("verify reports a failed replay")
    return problems


CHECKS = {
    "qk": _check_qk,
    "scan-ap": _check_scan_ap,
    "scan-gap": _check_scan_gap,
    "mobius-check": _check_mobius,
    "energy": _check_energy,
    "energy-powers": _check_energy_powers,
    "popular": _check_popular,
    "pluennecke": _check_pluennecke,
    "mixed-energy": _check_mixed,
    "curve-points": _check_curve,
    "probe-quadruples": _check_quadruples,
    "clique": _check_clique,
    "verify": _check_verify,
}


def check(job, code: int, stdout: str, store: StoreModel, pinned: str | None = None) -> list[str]:
    """Problems with one job's result; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        problems = CHECKS[job.kind](job.inputs, _rows(stdout), store)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        # a malformed output is a failed job, not a benchmark crash
        return [f"unreadable output: {exc!r}"]
    if pinned is not None and digest(code, stdout) != pinned:
        problems.append(f"result differs from the pinned digest {pinned}")
    return problems
