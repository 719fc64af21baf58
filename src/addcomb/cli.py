"""Batch command surface: JSON-lines reports with replayable configs.

Every output record embeds the run configuration (command, parameters,
seed, budgets), so identical invocations produce byte-identical
output; timestamps are off unless requested.  Exit codes: 0 ok, 1 failed
verify, 2 usage (malformed arguments), 3 budget exceeded, 4 integer range
violation.

Each subcommand's flags are declared as data in its ``COMMANDS`` entry,
beside its handler and help line.  ``parse_args`` reads the global flags
and the subcommand name first, then builds the parser of that one
subcommand only; ``addcomb -h`` lists the subcommands from the same table.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import curves, gaps, incidence, powers, sumproduct
from .errors import BudgetExceededError
from .intset import (
    IntSet,
    energy,
    higher_energy,
    mixed_energy,
    pluennecke_check,
    popular_energy_sum,
)
from .records import RecordStore, dumps

DEFAULT_STORE = "addcomb-records.jsonl"
STORE_ENV_VAR = "ADDCOMB_RECORDS"


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            flat.update(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
        return flat
    key = prefix.rstrip(".")
    if isinstance(obj, (list, tuple)):
        flat[key] = dumps(obj)
    else:
        flat[key] = obj
    return flat


class Reporter:
    """Writes the header plus one record per result row."""

    def __init__(self, config: dict, fmt: str, out=None) -> None:
        self.config = config
        self.fmt = fmt
        self.out = out if out is not None else sys.stdout
        self.rows: list[dict] = []
        self._write_row({"type": "header", "config": config})

    def emit(self, record: dict) -> None:
        row = dict(record)
        row["config"] = self.config
        self._write_row(row)

    def _write_row(self, row: dict) -> None:
        if self.fmt == "jsonl":
            self.out.write(dumps(row) + "\n")
        else:
            self.rows.append(_flatten(row))

    def close(self) -> None:
        if self.fmt != "csv" or not self.rows:
            return
        header = sorted({key for row in self.rows for key in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, restval="")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        self.out.write(buf.getvalue())


def _int_set(data) -> IntSet:
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array of integers, got {data!r}")
    return IntSet(data)


def _decode(decode, data):
    """decode(data) for JSON from outside the program, a CLI argument or a
    stored checkpoint.  A value of the wrong shape (a missing key, a list
    where an object belongs) is a ValueError, a usage error."""
    try:
        return decode(data)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed JSON value {data!r}: {exc!r}") from None


def _store(args) -> RecordStore:
    path = args.record_store or os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE
    return RecordStore(path)


def _config(args, params: dict) -> dict:
    return {
        "command": args.command,
        "params": params,
        "seed": args.seed,
        "budgets": {
            "enum": gaps.DEFAULT_ENUM_BUDGET,
            "pairs": gaps.DEFAULT_PAIR_BUDGET,
            "scan": powers.DEFAULT_SCAN_BUDGET,
        },
    }


def _now(args) -> float | None:
    return time.time() if args.timestamps else None


def _energy(args):
    if args.powers is not None:
        if not args.n_list:
            raise ValueError("--powers requires --n-list")
        bounds = [int(v) for v in args.n_list.split(",") if v.strip()]
        yield {"powers": args.powers, "n_list": bounds}
        for bound in bounds:
            yield powers.energy_experiment(args.powers, bound).to_json()
        return
    if not args.set_json:
        raise ValueError("energy needs --set or --powers/--n-list")
    a = _decode(_int_set, json.loads(args.set_json))
    b = _decode(_int_set, json.loads(args.b_set_json)) if args.b_set_json else None
    yield {"set": a.to_json(), "b_set": b.to_json() if b is not None else None}
    if b is None:
        yield {"type": "energy", "k": 2, "l": 2, "value": higher_energy(a, 2)}
    else:
        yield {"type": "energy", "value": energy(a, b)}


def _mixed_energy(args):
    a = _decode(_int_set, json.loads(args.set_json))
    yield {"set": a.to_json(), "k": args.k, "l": args.l}
    value = mixed_energy(a, args.k, args.l)
    mirrored = mixed_energy(a, args.l, args.k)
    yield {"type": "mixed_energy", "k": args.k, "l": args.l,
           "value": value, "mirrored": mirrored, "symmetric": value == mirrored}


def _pluennecke(args):
    a = _decode(_int_set, json.loads(args.set_json))
    yield {"set": a.to_json(), "n": args.n, "m": args.m}
    yield {"type": "pluennecke", "n": args.n, "m": args.m, **pluennecke_check(a, args.n, args.m).to_json()}


def _scan_ap(args):
    params = {"k": args.k, "p": args.p, "r": args.r, "n": args.n}
    yield params
    yield {"type": "ap_count", **params, "count": powers.count_in_ap(args.k, args.p, args.r, args.n)}


def _scan_gap(args):
    gap = _decode(gaps.Gap.from_json, json.loads(args.gap))
    yield {"k": args.k, "gap": gap.to_json()}
    yield powers.scan_gap(args.k, gap).to_json()


def _qk(args):
    params = {"k": args.k, "n": args.n, "pmax": args.pmax, "rmax": args.rmax}
    yield params
    store = _store(args)
    config_key = dumps(params)
    checkpoint = store.last_checkpoint(config_key) if args.resume else None
    resume = _decode(lambda c: powers.ScanFrontier.from_json(c["frontier"]), checkpoint) if checkpoint else None
    yield powers.qk_oracle(
        args.k, args.n, args.pmax, args.rmax,
        resume=resume,
        checkpoint=lambda frontier: store.append({"type": "checkpoint", "config_key": config_key,
                                                  "frontier": frontier.to_json()}),
        checkpoint_every=args.checkpoint_every,
    ).to_json()


def _curve_points(args):
    curve = _decode(curves.CurveSpec.from_json, json.loads(args.curve))
    yield {"curve": curve.to_json(), "height": args.height, "mode": args.mode}
    points = curves.point_search(curve, args.height, args.mode)
    try:
        g = curves.genus(curve)
    except curves.UnsupportedCurveError:
        g = None
    yield {"type": "curve_points", "points": points.to_json(), "count": len(points), "genus": g}


def _probe_quadruples(args):
    yield {"alpha_min": args.alpha_min, "alpha_max": args.alpha_max, "height": args.height}
    counts = curves.quadruple_counts(args.alpha_min, args.alpha_max, args.height)
    for triple, count in counts:
        yield {"type": "quadruple_count", "triple": list(triple), "count": count, "height": args.height}
    census = curves.census_from_counts(counts, args.height, args.alpha_min, args.alpha_max)
    yield {"type": "quadruple_census", **census.to_json()}


def _clique(args):
    yield {"height": args.height, "size": args.size, "max_results": args.max_results}
    cliques = curves.square_sum_clique_search(args.height, args.size, args.max_results)
    for clique in cliques:
        yield {"type": "clique", "members": clique.to_json()}
    yield {"type": "clique_summary", "count": len(cliques)}


def _incidence(args):
    a = _decode(_int_set, json.loads(args.a_set))
    c = _decode(_int_set, json.loads(args.c_set))
    points = _decode(incidence.PointSet2D.from_json, json.loads(args.points))
    yield {"a_set": a.to_json(), "c_set": c.to_json(), "points": points.to_json(), "squares_b": args.squares_b}
    yield {"type": "incidence", **incidence.bound_report(a, c, points, args.squares_b).to_json()}


def _matching(args):
    matching = _decode(sumproduct.Matching.from_json, json.loads(args.pairs))
    yield {"pairs": matching.to_json()}
    sp = sumproduct.sums_products(matching)
    graph = sumproduct.sp_graph(matching)
    yield {"type": "matching", **sp.to_json(), "P_size": len(sp.products), "S_size": len(sp.sums),
           "edges": len(graph.edges), "cubic_energy": sumproduct.cubic_energy(graph)}


def _extremal(args):
    yield {"n": args.n, "box": args.box, "iterations": args.iterations, "mode": args.mode}
    result = sumproduct.extremal_search(args.n, box=args.box, seed=args.seed,
                                        iterations=args.iterations, mode=args.mode)
    yield {"type": "extremal", **result.to_json()}


def _mobius_check(args):
    i_set = _decode(_int_set, json.loads(args.i_set))
    gap = _decode(gaps.Gap.from_json, json.loads(args.gap))
    ls = [args.l] if args.l is not None else list(range(1, args.l_max + 1))
    yield {"i_set": i_set.to_json(), "gap": gap.to_json(), "l_values": ls}
    for l, check in zip(ls, gaps.mobius_identity_check(i_set, gap, ls)):
        yield {"type": "mobius_check", "l": l, **check.to_json()}


def _inclusion_check(args):
    a = _decode(_int_set, json.loads(args.set_json))
    z = _decode(_int_set, json.loads(args.z))
    yield {"set": a.to_json(), "z": z.to_json(), "d": args.d, "l": args.l}
    check = powers.multiplicative_inclusion_check(a, z, args.d, args.l)
    yield {"type": "inclusion_check", "d": args.d, "l": args.l, **check.to_json()}


def _popular(args):
    a = _decode(_int_set, json.loads(args.set_json))
    yield {"set": a.to_json(), "k": args.k}
    summary = popular_energy_sum(a, args.k)
    yield {"type": "popular", "popular": summary.popular.to_json(), "k": args.k, **summary.to_json()}


# stored record type -> whether replaying its witness gives what it claims
_REPLAYS = {
    "qk": lambda r: powers.replay_scan_record(powers.ScanRecord.from_json(r)),
    "ap_count": lambda r: powers.count_in_ap(r["k"], r["p"], r["r"], r["n"]) == r["count"],
    "gap_scan": lambda r: powers.scan_gap(r["k"], gaps.Gap.from_json(r["gap"])).count == r["count"],
}


def _verify(args):
    yield {}
    all_ok = True
    try:
        records = _store(args).read_all()
    except ValueError as exc:  # a store that cannot be read verifies nothing
        print(f"verify failed: {exc}", file=sys.stderr)
        records, all_ok = [], False
    for index, record in enumerate(records):
        kind = record.get("type")
        if kind not in _REPLAYS:
            continue
        try:
            ok = _REPLAYS[kind](record)
        except (KeyError, TypeError, ValueError):
            ok = False  # a record that cannot be decoded verifies nothing
        all_ok = all_ok and ok
        yield {"type": "verify", "index": index, "record_type": kind, "ok": ok}
    yield {"type": "verify_summary", "all_ok": all_ok}


# subcommand -> (handler, whether its result rows go to the record store,
# help line, its flags as (flag, add_argument keywords) pairs)
COMMANDS = {
    "energy": (_energy, False, "additive energy of a set, or power-set trend rows", (
        ("--set", {"dest": "set_json"}),
        ("--b-set", {"dest": "b_set_json"}),
        ("--powers", {"type": int, "help": "power order k for trend rows"}),
        ("--n-list", {"help": "comma-separated range bounds for trend rows"}))),
    "mixed-energy": (_mixed_energy, False, "mixed moment E_{k,l}", (
        ("--set", {"dest": "set_json", "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--l", {"type": int, "required": True}))),
    "pluennecke": (_pluennecke, False, "iterated sumset growth check", (
        ("--set", {"dest": "set_json", "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--m", {"type": int, "required": True}))),
    "scan-ap": (_scan_ap, True, "count k-th powers in one progression", (
        ("--k", {"type": int, "required": True}),
        ("--p", {"type": int, "required": True}),
        ("--r", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}))),
    "scan-gap": (_scan_gap, True, "count k-th powers in a generalized progression", (
        ("--k", {"type": int, "required": True}),
        ("--gap", {"required": True}))),
    "qk": (_qk, True, "exhaustive best k-th-power count over a (p, r) box", (
        ("--k", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--pmax", {"type": int, "required": True}),
        ("--rmax", {"type": int, "required": True}),
        ("--resume", {"action": "store_true", "help": "resume from the last matching checkpoint"}),
        ("--checkpoint-every", {"type": int, "default": powers.CHECKPOINT_EVERY}))),
    "curve-points": (_curve_points, False, "bounded-height point search", (
        ("--curve", {"required": True, "help": 'JSON {"k": ..., "coeffs": [...]}'}),
        ("--height", {"type": int, "required": True}),
        ("--mode", {"choices": ("integer", "rational"), "default": "integer"}))),
    "probe-quadruples": (_probe_quadruples, False, "integer-point census for shift triples", (
        ("--alpha-min", {"type": int, "required": True}),
        ("--alpha-max", {"type": int, "required": True}),
        ("--height", {"type": int, "required": True}))),
    "clique": (_clique, False, "distinct integers with all pairwise sums square", (
        ("--height", {"type": int, "required": True}),
        ("--size", {"type": int, "required": True}),
        ("--max-results", {"type": int, "default": None}))),
    "incidence": (_incidence, False, "solutions of a = b*c + d over a point set", (
        ("--a-set", {"required": True}),
        ("--c-set", {"required": True}),
        ("--points", {"required": True, "help": "JSON array of [b, d] pairs"}),
        ("--squares-b", {"action": "store_true"}))),
    "matching": (_matching, False, "sums, products and the product-sum graph", (
        ("--pairs", {"required": True, "help": "JSON array of [a, b] pairs"}),)),
    "extremal": (_extremal, False, "matching minimizing |P| + |S|", (
        ("--n", {"type": int, "required": True}),
        ("--box", {"type": int, "default": 5}),
        ("--iterations", {"type": int, "default": 2000}),
        ("--mode", {"choices": ("auto", "exhaustive", "local"), "default": "auto"}))),
    "mobius-check": (_mobius_check, False, "gcd class counts versus Mobius-transformed sums", (
        ("--i-set", {"required": True}),
        ("--gap", {"required": True}),
        ("--l", {"type": int, "default": None}),
        ("--l-max", {"type": int, "default": 12}))),
    "inclusion-check": (_inclusion_check, False, "dilates of Z inside 2A - 2A", (
        ("--set", {"dest": "set_json", "required": True}),
        ("--z", {"required": True}),
        ("--d", {"type": int, "required": True}),
        ("--l", {"type": int, "required": True}))),
    "popular": (_popular, False, "popular differences and their difference energy", (
        ("--set", {"dest": "set_json", "required": True}),
        ("--k", {"type": int, "default": 3}))),
    "verify": (_verify, False, "replay every stored record from its witness", ()),
}


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the global flags and the subcommand name, then build the parser
    of that one subcommand from its COMMANDS entry and parse its flags into
    the same namespace."""
    parser = argparse.ArgumentParser(
        prog="addcomb",
        description="exact workbench for sumset energies, progressions, power scans and sum-product graphs",
        epilog="commands:\n"
        + "".join(f"  {name:<18}{help_line}\n" for name, (_, _, help_line, _) in COMMANDS.items())
        + "\nGlobal flags go before the command.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    parser.add_argument("--record-store", default=None, help="record store path (also env ADDCOMB_RECORDS)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized commands (default 0)")
    parser.add_argument("--timestamps", action="store_true", help="stamp scan records with wall time")
    parser.add_argument("command", choices=COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("command_args", nargs=argparse.REMAINDER, metavar="flags",
                        help="the command's flags; addcomb <command> -h lists them")
    args = parser.parse_args(argv)
    command = argparse.ArgumentParser(prog=f"addcomb {args.command}")
    _, _, _, flags = COMMANDS[args.command]
    for flag, kwargs in flags:
        command.add_argument(flag, **kwargs)
    return command.parse_args(args.command_args, namespace=args)


def run(args) -> int:
    """Write the header, then every result row of the command; a row with
    all_ok false (a failed verify) makes the exit code 1."""
    handler, stored, _, _ = COMMANDS[args.command]
    # a handler is a generator: it parses its inputs and yields the run's
    # params, then computes its result rows as they are read
    rows = handler(args)
    params = next(rows)
    config = _config(args, params)
    reporter = Reporter(config, args.format)
    store = _store(args) if stored else None
    exit_code = 0
    for row in rows:
        if store is not None:
            row["timestamp"] = _now(args)
            store.append({**row, "config": config})
        if row.get("all_ok") is False:
            exit_code = 1
        reporter.emit(row)
    reporter.close()
    return exit_code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"integer range violation: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
