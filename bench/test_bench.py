"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--rounds", "2"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def printed_metrics(stdout: str) -> dict[str, str]:
    """name -> unit of every 'name value unit' line the run printed."""
    return {parts[0]: parts[2] for parts in map(str.split, stdout.splitlines()) if len(parts) == 3}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_print_and_pass(workload):
    done = bench(workload, 0)
    result = result_of(done)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert printed_metrics(done.stdout).items() >= expected.items()
    assert f"fail_ratio 0 (0 failed of {result['attempted']} attempted)" in done.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    a, b = result_of(first), result_of(second)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert a["correct"] and b["correct"]
    assert {name: m["unit"] for name, m in a["metrics"].items()} == expected
    assert printed_metrics(first.stdout).items() >= expected.items()
    assert "self time by layer" in first.stdout
    counts = [name for name, unit in expected.items() if unit == "count"]
    assert {n: a["metrics"][n]["value"] for n in counts} == {n: b["metrics"][n]["value"] for n in counts}


def test_corrupted_result_counts_as_failed(tmp_path):
    cli = run.load_program()

    def corrupting_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        sys.stdout.write(out.getvalue().replace('"best_count":', '"best_count":1', 1))
        return code

    stream = run.run_stream(corrupting_main, "scan", 0, 0, tmp_path, size="tiny", rounds=1)
    scans = sum(job.kind == "qk" for job in workloads.round_jobs("scan", 0, 0, "tiny"))
    assert scans > 0
    assert stream.failed == scans
    assert all("witness recount" in problem for problem in stream.problems)


def test_nonzero_exit_counts_as_failed(tmp_path):
    stream = run.run_stream(lambda argv: 3, "census", 0, 0, tmp_path, size="tiny", rounds=1)
    assert stream.failed == stream.attempted > 0


def test_runs_whole_segments_each_from_an_empty_store(tmp_path):
    cli = run.load_program()
    per_store = workloads.ROUNDS_PER_STORE["ledger"]
    # a time budget that one job exceeds still runs the first segment to its end
    stream = run.run_stream(cli.main, "ledger", 0, 1e-9, tmp_path, size="tiny")
    assert stream.failed == 0
    assert stream.rounds == per_store and len(stream.store_bytes) == 1
    stream = run.run_stream(cli.main, "ledger", 0, 0, tmp_path, size="tiny", rounds=per_store + 1)
    assert stream.failed == 0
    assert len(stream.store_bytes) == 2 and stream.store_bytes[1] < stream.store_bytes[0]
    assert not list(tmp_path.iterdir())


def test_calibration_takes_the_wrappers_out_of_self_time():
    tracer = Tracer()
    tracer.calibrate()
    assert tracer.hot_cost_ns > 0 and tracer.span_cost_ns > 0 and tracer.clock_ns > 0
    hot = tracer._hot(0, "is_kth_power", "powers", lambda value, k: value)

    def caller():
        for i in range(20000):
            hot(i, 2)

    tracer.span("main", "cli", caller)
    metrics = tracer.metrics(lambda gap: 0, 0)
    (span,) = tracer.spans
    traced_s = sum(metrics[f"{layer}.self_s"][0] for layer in ("cli", "powers"))
    assert traced_s < 0.6 * (span.end - span.start) / 1e9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("scan", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_integer_roots_are_exact():
    rng = random.Random(7)
    for _ in range(2000):
        k = rng.choice((2, 3, 5))
        value = rng.randrange(1 << rng.randint(1, 120))
        root = checks.iroot(value, k)
        assert root**k <= value < (root + 1) ** k
        assert checks.is_power(root**k, k) and checks.is_power(-(root**3), 3)


def test_same_seed_same_jobs():
    for workload in workloads.WORKLOADS:
        assert workloads.round_jobs(workload, 5, 3) == workloads.round_jobs(workload, 5, 3)
        assert workloads.round_jobs(workload, 5, 3) != workloads.round_jobs(workload, 6, 3)
