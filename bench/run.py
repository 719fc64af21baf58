"""Benchmark for addcomb: seeded batch-job streams through ``addcomb.cli``.

One client, a batch user, sends jobs one after another (a closed loop) and
waits for each to finish.  Jobs are whole CLI invocations run through
``addcomb.cli.main`` in this process, against the ``src/`` tree next to this
directory, with ``--record-store`` pointing into a temporary directory.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference host speed (see REFERENCE_S), ``--trace 1`` runs every round
twice, untraced and traced, and prints the per-layer metrics with the
tracing overhead.  Each job's output is checked outside the timed region.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import workloads
from tracer import LAYERS, Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
PINNED = Path(__file__).resolve().parent / "pinned.json"
PINNED_SEED = 0
PINNED_ROUNDS = 2
# setup_s is the median of set-up probes taken before the first job and then
# at the first job boundary after every PROBE_EVERY_S of job time, so it
# samples the host over the whole run, as the job times do.  Set-up time
# follows process start-up and file reads more than the reference kernel, so
# it is not scaled.
PROBE_EVERY_S = 3.0

# Host speed on a shared machine drifts, by up to 2x over minutes, and CPU
# time drifts with wall time, so runs minutes apart disagree more than any
# change worth measuring.  The benchmark therefore times a fixed reference
# kernel, which never calls addcomb, before the first job, again at the first
# job boundary after every KERNEL_EVERY_S of job time, and after the last job.
# It reports each job's time scaled by REFERENCE_S over the mean of the two
# kernel times around it: seconds on a host where the kernel takes
# REFERENCE_S.  A change to addcomb moves scaled times as it moves raw ones;
# the unscaled figures are printed alongside.
REFERENCE_S = 0.02
KERNEL_EVERY_S = 1.0

_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import addcomb.cli; sys.exit(addcomb.cli.main(sys.argv[2:]))"


@dataclass
class Stream:
    """What one run of a job stream measured and found."""

    latencies: list[float] = field(default_factory=list)
    interval_of: list[int] = field(default_factory=list)  # the kernel time before each latency
    reference_s: list[float] = field(default_factory=list)  # kernel times, first before the first job
    setup_s: list[float] = field(default_factory=list)  # set-up probes during the stream
    store_bytes: list[int] = field(default_factory=list)  # each store's size at the end of its segment
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    timed_s: float = 0.0
    untraced_s: float = 0.0
    traced_s: float = 0.0
    peak_rss_mb: float = 0.0
    digests: list[list[str]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def scaled_latencies(self) -> list[float]:
        ref = self.reference_s
        factors = [2 * REFERENCE_S / (before + after) for before, after in zip(ref, ref[1:])]
        return [latency * factors[i] for latency, i in zip(self.latencies, self.interval_of)]


def reference_seconds() -> float:
    """Median of three timings of the reference kernel: multi-digit integer
    roots, gcds and dict counts, a JSON round trip, NumPy counting."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(1, 20000):
            value = (i * i * i + 7 * i) * 1000003
            root = math.isqrt(value)
            key = math.gcd(i, 360360) + (root * root == value)
            counts[key] = counts.get(key, 0) + 1
        json.loads(json.dumps([[i, i * i, str(i)] for i in range(2000)]))
        for _ in range(8):  # small arrays, so the kernel never sets the peak memory
            values = (np.arange(1 << 16, dtype=np.int64) * 7919) & ((1 << 17) - 1)
            np.bincount(values, minlength=1 << 17)
            np.sort(values[: 1 << 13])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_job(main, argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI job in this process; exit code, stdout and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job; keep the stream going
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def run_stream(main, workload: str, seed: int, seconds: float, work: Path, *,
               size: str = "full", rounds: int = 0, tracer: Tracer | None = None,
               probe: Callable[[], float] | None = None,
               pinned: list[list[str]] | None = None, keep_digests: bool = False) -> Stream:
    """Run whole segments of rounds until the timed jobs add up to
    ``seconds``, or run exactly ``rounds`` rounds when it is positive.  Each
    segment starts from an empty record store in ``work``.  With a tracer
    every round runs twice, untraced and traced, in alternating order, and
    each pass keeps its own store.  ``probe`` is a set-up probe to take
    between jobs every PROBE_EVERY_S of job time."""
    result = Stream()
    per_store = workloads.ROUNDS_PER_STORE[workload]
    stores = {False: work / "records.jsonl", True: work / "records-traced.jsonl"}
    models: dict[bool, checks.StoreModel] = {}
    since_kernel = since_probe = 0.0
    result.reference_s.append(reference_seconds())

    def end_segment() -> None:
        measured = stores[tracer is not None]
        result.store_bytes.append(measured.stat().st_size if measured.exists() else 0)
        for store in stores.values():
            store.unlink(missing_ok=True)

    while (result.rounds < rounds if rounds > 0
           else result.timed_s < seconds or result.rounds % per_store):
        index = result.rounds
        if index % per_store == 0:
            if index:
                end_segment()
            models = {traced: checks.StoreModel() for traced in stores}
        jobs = workloads.round_jobs(workload, seed, index, size)
        passes = [False] if tracer is None else [False, True] if index % 2 == 0 else [True, False]
        for traced in passes:
            if traced:
                tracer.install()
            digests = []
            for position, job in enumerate(jobs):
                if probe is not None and since_probe >= PROBE_EVERY_S:
                    result.setup_s.append(probe())
                    since_probe = 0.0
                if since_kernel >= KERNEL_EVERY_S:
                    result.reference_s.append(reference_seconds())
                    since_kernel = 0.0
                argv = ["--record-store", str(stores[traced]), *job.argv]
                if traced:
                    tracer.job += 1
                    tracer.kinds[tracer.job] = job.kind
                    code, stdout, elapsed = run_job(
                        lambda a: tracer.span("main", "cli", main, a), argv)
                    tracer.bytes_out += len(stdout.encode())
                    result.traced_s += elapsed
                else:
                    code, stdout, elapsed = run_job(main, argv)
                    result.untraced_s += elapsed
                result.attempted += 1
                result.latencies.append(elapsed)
                result.interval_of.append(len(result.reference_s) - 1)
                result.timed_s += elapsed
                since_kernel += elapsed
                since_probe += elapsed
                expected = None
                if pinned and index < len(pinned):
                    # a pin missing from a pinned round fails the job: pinned.json is stale
                    expected = pinned[index][position] if position < len(pinned[index]) else "missing"
                problems = checks.check(job, code, stdout, models[traced], expected)
                if keep_digests:
                    digests.append(checks.digest(code, stdout))
                del stdout  # the captured output must not raise the next job's peak memory
                if problems:
                    result.failed += 1
                    result.problems.append(f"round {index} {' '.join(job.argv)[:120]}: {'; '.join(problems)}")
            if traced:
                tracer.uninstall()
            if keep_digests:
                result.digests.append(digests)
        result.rounds += 1
    end_segment()
    result.reference_s.append(reference_seconds())
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def setup_probe(workload: str, store: Path) -> float:
    """Seconds for a fresh interpreter to import addcomb.cli and finish the
    workload's warm-up job."""
    argv = [sys.executable, "-c", _PROBE, str(SRC), "--record-store", str(store),
            *workloads.warmup_job(workload)]
    start = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"warm-up job failed: {done.stderr.decode(errors='replace')[-400:]}")
    return elapsed


def load_program():
    """Import addcomb.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import addcomb.cli

    if Path(addcomb.cli.__file__).resolve().parent != (SRC / "addcomb").resolve():
        raise RuntimeError(f"imported addcomb from {addcomb.cli.__file__}, not from {SRC}")
    return addcomb.cli


@functools.cache
def distinct_values(gap_json: str) -> int:
    return len(checks.gap_values(json.loads(gap_json)))


def job_metrics(latencies: list[float], tail_pct: int) -> dict:
    return {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (percentile(latencies, tail_pct), "s"),
    }


def end_to_end(stream: Stream, setup: list[float], tail_pct: int) -> dict:
    raw = job_metrics(stream.latencies, tail_pct)
    metrics = {"setup_s": (statistics.median(setup), "s"),
               **job_metrics(stream.scaled_latencies(), tail_pct),
               "peak_rss_mb": (stream.peak_rss_mb, "MB")}
    print(f"fail_ratio {stream.failed / stream.attempted:.6g} ({stream.failed} failed of "
          f"{stream.attempted} attempted)")
    beyond = len(stream.latencies) - math.ceil(tail_pct * len(stream.latencies) / 100)
    print(f"job_tail_s is p{tail_pct} of {len(stream.latencies)} jobs, {beyond} beyond it")
    print(f"reference kernel median {statistics.median(stream.reference_s) * 1e3:.2f} ms over "
          f"{len(stream.reference_s)} timings, times scaled to {REFERENCE_S * 1e3:g} ms")
    print(f"setup_s is the median of {len(setup)} probes")
    print("unscaled: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed job seconds to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="job sizes; tiny is for the self-tests")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead of --seconds")
    args = parser.parse_args(argv)
    if not (SRC / "addcomb" / "cli.py").is_file():
        print(f"bench: no addcomb sources at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        work = Path(tmp)
        probes = itertools.count()

        def probe() -> float:
            return setup_probe(args.workload, work / f"probe{next(probes)}.jsonl")
        try:
            setup = [probe()]
            cli = load_program()
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        warm_code, _, _ = run_job(cli.main, ["--record-store", str(work / "warmup.jsonl"),
                                             *workloads.warmup_job(args.workload)])
        if warm_code != 0:
            print(f"bench: warm-up job exited with {warm_code}", file=sys.stderr)
            return 1
        pinned = None
        if args.seed == PINNED_SEED and not args.trace and PINNED.exists():
            pinned = json.loads(PINNED.read_text()).get(args.size, {}).get(args.workload)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.calibrate()
        harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            stream = run_stream(cli.main, args.workload, args.seed, args.seconds, work,
                                size=args.size, rounds=args.rounds, tracer=tracer,
                                probe=None if tracer else probe, pinned=pinned)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1

    for problem in stream.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size}: {stream.rounds} rounds, "
          f"{stream.attempted} jobs, {stream.timed_s:.3f} s timed, "
          f"{len(stream.store_bytes)} stores of {statistics.mean(stream.store_bytes):.0f} bytes on average")
    print(f"peak memory before the timed jobs {harness_mb:.1f} MB (interpreter, NumPy, addcomb, benchmark)")
    if tracer is None:
        metrics = end_to_end(stream, setup + stream.setup_s, workloads.TAIL_PCT[args.workload])
    else:
        metrics = tracer.metrics(distinct_values, statistics.mean(stream.store_bytes))
        print(f"instrumentation per call, subtracted from self times: hot wrapper {tracer.hot_cost_ns:.0f} ns, "
              f"span {tracer.span_cost_ns:.0f} ns, clock pair {tracer.clock_ns:.0f} ns")
        metrics["trace.overhead_ratio"] = (stream.traced_s / stream.untraced_s, "ratio")
        total_self = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) or 1.0
        print("self time by layer: " + ", ".join(
            f"{layer} {100 * metrics[f'{layer}.self_s'][0] / total_self:.1f}%" for layer in LAYERS))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(s.to_json()) + "\n" for s in tracer.spans))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": stream.failed == 0,
        "attempted": stream.attempted,
        "failed": stream.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
