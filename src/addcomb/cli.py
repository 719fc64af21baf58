"""Batch command surface: JSON-lines reports with replayable configs.

Every output record embeds the run configuration (command, parameters,
seed, budgets), so identical invocations produce byte-identical
output; timestamps are off unless requested.  Exit codes: 0 ok, 2 usage,
3 budget exceeded, 4 integer range violation.
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
    energy_report,
    mixed_energy,
    pluennecke_check,
    popular_energy_sum,
)
from .records import RecordStore

DEFAULT_STORE = "addcomb-records.jsonl"
STORE_ENV_VAR = "ADDCOMB_RECORDS"


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            flat.update(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
        return flat
    key = prefix.rstrip(".")
    if isinstance(obj, (list, tuple)):
        flat[key] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
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
            self.out.write(_dumps(row) + "\n")
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


def _parse_set(text: str) -> IntSet:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array of integers, got {text!r}")
    return IntSet(data)


def _parse_gap(text: str) -> gaps.Gap:
    return gaps.Gap.from_json(json.loads(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addcomb",
        description="exact workbench for sumset energies, progressions, power scans and sum-product graphs",
    )
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    parser.add_argument("--record-store", default=None, help="record store path (also env ADDCOMB_RECORDS)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized commands (default 0)")
    parser.add_argument("--timestamps", action="store_true", help="stamp scan records with wall time")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="additive energy of a set, or power-set trend rows")
    p.add_argument("--set", dest="set_json")
    p.add_argument("--b-set", dest="b_set_json")
    p.add_argument("--method", choices=("naive", "convolution"), default="convolution")
    p.add_argument("--powers", type=int, help="power order k for trend rows")
    p.add_argument("--n-list", help="comma-separated range bounds for trend rows")

    p = sub.add_parser("mixed-energy", help="mixed moment E_{k,l}")
    p.add_argument("--set", dest="set_json", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("pluennecke", help="iterated sumset growth check")
    p.add_argument("--set", dest="set_json", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("scan-ap", help="count k-th powers in one progression")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("scan-gap", help="count k-th powers in a generalized progression")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gap", required=True)

    p = sub.add_parser("qk", help="exhaustive best k-th-power count over a (p, r) box")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--resume", action="store_true", help="resume from the last matching checkpoint")
    p.add_argument("--checkpoint-every", type=int, default=powers.CHECKPOINT_EVERY)

    p = sub.add_parser("curve-points", help="bounded-height point search")
    p.add_argument("--curve", required=True, help='JSON {"k": ..., "coeffs": [...]}')
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--mode", choices=("integer", "rational"), default="integer")

    p = sub.add_parser("probe-quadruples", help="integer-point census for shift triples")
    p.add_argument("--alpha-min", type=int, required=True)
    p.add_argument("--alpha-max", type=int, required=True)
    p.add_argument("--height", type=int, required=True)

    p = sub.add_parser("clique", help="distinct integers with all pairwise sums square")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--max-results", type=int, default=None)

    p = sub.add_parser("incidence", help="solutions of a = b*c + d over a point set")
    p.add_argument("--a-set", required=True)
    p.add_argument("--c-set", required=True)
    p.add_argument("--points", required=True, help="JSON array of [b, d] pairs")
    p.add_argument("--squares-b", action="store_true")

    p = sub.add_parser("matching", help="sums, products and the product-sum graph")
    p.add_argument("--pairs", required=True, help="JSON array of [a, b] pairs")

    p = sub.add_parser("extremal", help="matching minimizing |P| + |S|")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--box", type=int, default=5)
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--mode", choices=("auto", "exhaustive", "local"), default="auto")

    p = sub.add_parser("mobius-check", help="gcd class counts versus Mobius-transformed sums")
    p.add_argument("--i-set", required=True)
    p.add_argument("--gap", required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--l-max", type=int, default=12)

    p = sub.add_parser("inclusion-check", help="dilates of Z inside 2A - 2A")
    p.add_argument("--set", dest="set_json", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("popular", help="popular differences and their difference energy")
    p.add_argument("--set", dest="set_json", required=True)
    p.add_argument("--k", type=int, default=3)

    sub.add_parser("verify", help="replay every stored record from its witness")

    return parser


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


def run(args) -> int:
    exit_code = 0

    if args.command == "energy":
        if args.powers is not None:
            if not args.n_list:
                raise ValueError("--powers requires --n-list")
            bounds = [int(v) for v in args.n_list.split(",") if v.strip()]
            reporter = Reporter(_config(args, {"powers": args.powers, "n_list": bounds}), args.format)
            for bound in bounds:
                reporter.emit(powers.energy_experiment(args.powers, bound).to_json())
            reporter.close()
            return 0
        if not args.set_json:
            raise ValueError("energy needs --set or --powers/--n-list")
        a = _parse_set(args.set_json)
        reporter = Reporter(_config(args, {"set": a.to_json(), "b_set": args.b_set_json, "method": args.method}), args.format)
        if args.b_set_json:
            b = _parse_set(args.b_set_json)
            value = energy(a, b, method="naive" if args.method == "naive" else "windowed")
            reporter.emit({"type": "energy", "value": value, "method": args.method})
        else:
            reporter.emit({"type": "energy", **energy_report(a, 2, 2, args.method).to_json()})
        reporter.close()
        return 0

    if args.command == "mixed-energy":
        a = _parse_set(args.set_json)
        reporter = Reporter(_config(args, {"set": a.to_json(), "k": args.k, "l": args.l}), args.format)
        value = mixed_energy(a, args.k, args.l)
        mirrored = mixed_energy(a, args.l, args.k)
        reporter.emit({
            "type": "mixed_energy", "k": args.k, "l": args.l,
            "value": value, "mirrored": mirrored, "symmetric": value == mirrored,
        })
        reporter.close()
        return 0

    if args.command == "pluennecke":
        a = _parse_set(args.set_json)
        reporter = Reporter(_config(args, {"set": a.to_json(), "n": args.n, "m": args.m}), args.format)
        reporter.emit({"type": "pluennecke", "n": args.n, "m": args.m,
                       **pluennecke_check(a, args.n, args.m).to_json()})
        reporter.close()
        return 0

    if args.command == "scan-ap":
        params = {"k": args.k, "p": args.p, "r": args.r, "n": args.n}
        reporter = Reporter(_config(args, params), args.format)
        count = powers.count_in_ap(args.k, args.p, args.r, args.n)
        record = {"type": "ap_count", **params, "count": count, "timestamp": _now(args)}
        _store(args).append({**record, "config": reporter.config})
        reporter.emit(record)
        reporter.close()
        return 0

    if args.command == "scan-gap":
        gap = _parse_gap(args.gap)
        params = {"k": args.k, "gap": gap.to_json()}
        reporter = Reporter(_config(args, params), args.format)
        record = powers.scan_gap(args.k, gap).to_json()
        record["timestamp"] = _now(args)
        _store(args).append({**record, "config": reporter.config})
        reporter.emit(record)
        reporter.close()
        return 0

    if args.command == "qk":
        params = {"k": args.k, "n": args.n, "pmax": args.pmax, "rmax": args.rmax}
        config = _config(args, params)
        reporter = Reporter(config, args.format)
        store = _store(args)
        config_key = _dumps(params)
        resume_state = None
        if args.resume:
            checkpoint = store.last_checkpoint(config_key)
            if checkpoint is not None:
                resume_state = powers.ScanFrontier.from_json(checkpoint["frontier"])
        def write_checkpoint(frontier: powers.ScanFrontier) -> None:
            store.append({"type": "checkpoint", "config_key": config_key,
                          "frontier": frontier.to_json()})
        record = powers.qk_oracle(
            args.k, args.n, args.pmax, args.rmax,
            resume=resume_state,
            checkpoint=write_checkpoint,
            checkpoint_every=args.checkpoint_every,
            timestamp=_now(args),
        )
        store.append({**record.to_json(), "config": config})
        reporter.emit(record.to_json())
        reporter.close()
        return 0

    if args.command == "curve-points":
        curve = curves.CurveSpec.from_json(json.loads(args.curve))
        reporter = Reporter(_config(args, {"curve": curve.to_json(), "height": args.height,
                                           "mode": args.mode}), args.format)
        points = curves.point_search(curve, args.height, args.mode)
        try:
            g = curves.genus(curve)
        except curves.UnsupportedCurveError:
            g = None
        reporter.emit({"type": "curve_points", "points": points.to_json(),
                       "count": len(points), "genus": g})
        reporter.close()
        return 0

    if args.command == "probe-quadruples":
        params = {"alpha_min": args.alpha_min, "alpha_max": args.alpha_max, "height": args.height}
        reporter = Reporter(_config(args, params), args.format)
        counts = curves.quadruple_counts(args.alpha_min, args.alpha_max, args.height)
        for triple, count in counts:
            reporter.emit({"type": "quadruple_count", "triple": list(triple),
                           "count": count, "height": args.height})
        census = curves.census_from_counts(counts, args.height, args.alpha_min, args.alpha_max)
        reporter.emit({"type": "quadruple_census", **census.to_json()})
        reporter.close()
        return 0

    if args.command == "clique":
        params = {"height": args.height, "size": args.size, "max_results": args.max_results}
        reporter = Reporter(_config(args, params), args.format)
        cliques = curves.square_sum_clique_search(args.height, args.size, args.max_results)
        for clique in cliques:
            reporter.emit({"type": "clique", "members": clique.to_json()})
        reporter.emit({"type": "clique_summary", "count": len(cliques)})
        reporter.close()
        return 0

    if args.command == "incidence":
        a = _parse_set(args.a_set)
        c = _parse_set(args.c_set)
        points = incidence.PointSet2D.from_json(json.loads(args.points))
        reporter = Reporter(_config(args, {"a_set": a.to_json(), "c_set": c.to_json(),
                                           "points": points.to_json(),
                                           "squares_b": args.squares_b}), args.format)
        reporter.emit({"type": "incidence", **incidence.bound_report(a, c, points, args.squares_b).to_json()})
        reporter.close()
        return 0

    if args.command == "matching":
        matching = sumproduct.Matching.from_json(json.loads(args.pairs))
        reporter = Reporter(_config(args, {"pairs": matching.to_json()}), args.format)
        sp = sumproduct.sums_products(matching)
        graph = sumproduct.sp_graph(matching)
        reporter.emit({
            "type": "matching",
            **sp.to_json(),
            "P_size": len(sp.products),
            "S_size": len(sp.sums),
            "edges": len(graph.edges),
            "cubic_energy": sumproduct.cubic_energy(graph),
        })
        reporter.close()
        return 0

    if args.command == "extremal":
        params = {"n": args.n, "box": args.box, "iterations": args.iterations, "mode": args.mode}
        reporter = Reporter(_config(args, params), args.format)
        result = sumproduct.extremal_search(args.n, box=args.box, seed=args.seed,
                                            iterations=args.iterations, mode=args.mode)
        reporter.emit({"type": "extremal", **result.to_json()})
        reporter.close()
        return 0

    if args.command == "mobius-check":
        i_set = _parse_set(args.i_set)
        gap = _parse_gap(args.gap)
        ls = [args.l] if args.l is not None else list(range(1, args.l_max + 1))
        reporter = Reporter(_config(args, {"i_set": i_set.to_json(), "gap": gap.to_json(),
                                           "l_values": ls}), args.format)
        for l in ls:
            check = gaps.mobius_identity_check(i_set, gap, l)
            reporter.emit({"type": "mobius_check", "l": l, **check.to_json()})
        reporter.close()
        return 0

    if args.command == "inclusion-check":
        a = _parse_set(args.set_json)
        z = _parse_set(args.z)
        reporter = Reporter(_config(args, {"set": a.to_json(), "z": z.to_json(),
                                           "d": args.d, "l": args.l}), args.format)
        check = powers.multiplicative_inclusion_check(a, z, args.d, args.l)
        reporter.emit({"type": "inclusion_check", "d": args.d, "l": args.l, **check.to_json()})
        reporter.close()
        return 0

    if args.command == "popular":
        a = _parse_set(args.set_json)
        reporter = Reporter(_config(args, {"set": a.to_json(), "k": args.k}), args.format)
        summary = popular_energy_sum(a, args.k)
        reporter.emit({"type": "popular", "popular": summary.popular.to_json(), "k": args.k,
                       **summary.to_json()})
        reporter.close()
        return 0

    if args.command == "verify":
        reporter = Reporter(_config(args, {}), args.format)
        store = _store(args)
        all_ok = True
        for index, record in enumerate(store.read_all()):
            kind = record.get("type")
            if kind == "qk":
                ok = powers.replay_scan_record(powers.ScanRecord.from_json(record))
            elif kind == "ap_count":
                ok = powers.count_in_ap(record["k"], record["p"], record["r"], record["n"]) == record["count"]
            elif kind == "gap_scan":
                scan = powers.scan_gap(record["k"], gaps.Gap.from_json(record["gap"]))
                ok = scan.count == record["count"]
            else:
                continue
            all_ok = all_ok and ok
            reporter.emit({"type": "verify", "index": index, "record_type": kind, "ok": ok})
        reporter.emit({"type": "verify_summary", "all_ok": all_ok})
        reporter.close()
        return 0 if all_ok else 1

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"integer range violation: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
