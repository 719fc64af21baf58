"""Per-layer tracing from outside the program.

The benchmark patches wrappers onto the public functions of the measured
modules, under every name that refers to them (``curves.is_kth_power`` and
``cli.energy`` are the same objects as ``powers.is_kth_power`` and
``intset.energy``).  A spanned call records its name, start, end, parent
span and job; spans stay in memory until the run ends.  Hot functions, the
power test and the progression count, get an exact call counter and timing
of one call in ``SAMPLE_PERIOD`` instead of a span.

The layers are the modules ``cli``, ``powers``, ``gaps``, ``intset``,
``curves`` and ``records``.  A layer's self time is the length of its spans
minus their children.  Hot calls made from a span of another layer move
their estimated time (call count times the sampled mean) to ``powers``.

The wrappers cost time of their own, and on workloads with millions of hot
calls that is a large part of the traced run.  ``calibrate`` measures it
once per run on an identity function, and ``metrics`` takes it out: the
extra cost of a hot or span wrapper from the span that made the call, the
cost of an empty clock pair from every timed sample, and the wrappers of
the power tests inside a sampled ``count_in_ap`` from its sample.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from workloads import span_class

PACKAGE = "addcomb"
LAYERS = ("cli", "powers", "gaps", "intset", "curves", "records")
SAMPLE_PERIOD = 64

# (module, attribute) of every spanned function; a name the program no longer
# has is skipped, so the tracer survives renames with the metric reading 0.
SPANNED = (
    ("powers", "qk_oracle"), ("powers", "scan_gap"), ("powers", "replay_scan_record"),
    ("powers", "energy_experiment"), ("powers", "kth_powers_in"),
    ("gaps", "enumerate_gap"), ("gaps", "stratify"), ("gaps", "mobius_identity_check"),
    ("intset", "rep_function"), ("intset", "energy"), ("intset", "higher_energy"),
    ("intset", "mixed_energy"), ("intset", "energy_report"), ("intset", "sumset"),
    ("intset", "difference_set"), ("intset", "signed_sumset"), ("intset", "popular_differences"),
    ("intset", "popular_energy_sum"), ("intset", "pluennecke_check"),
    ("curves", "quadruple_counts"), ("curves", "census_from_counts"), ("curves", "point_search"),
    ("curves", "square_sum_clique_search"), ("curves", "genus"),
    ("records", "RecordStore.append"), ("records", "RecordStore.read_all"),
    ("records", "RecordStore.last_checkpoint"),
)
# count_in_ap calls is_kth_power; the power tests call no hot function
HOT = (("powers", "is_kth_power"), ("powers", "kth_power_root"), ("powers", "count_in_ap"))
POWER_TESTS = ("is_kth_power", "kth_power_root")

MOMENTS = ("energy", "higher_energy", "mixed_energy")
SUMSETS = ("sumset", "difference_set", "signed_sumset")
READS = ("RecordStore.read_all", "RecordStore.last_checkpoint")


@dataclass
class Span:
    id: int
    parent: int
    job: int
    name: str
    layer: str
    start: int
    end: int
    hot: tuple[int, ...]  # hot calls made while the span was open
    tag: str = ""  # span class of a representation count, or the search mode

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "job": self.job, "name": self.name,
                "layer": self.layer, "start_ns": self.start, "end_ns": self.end}


def _bind(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return {}
        bound.apply_defaults()
        return bound.arguments
    return arguments


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = 0
        self.kinds: dict[int, str] = {}  # job id -> job kind
        self.hot_calls = [0] * len(HOT)
        self.hot_sampled_ns = [0] * len(HOT)
        self.hot_samples = [0] * len(HOT)
        self.hot_nested = [0] * len(HOT)  # hot calls made inside the sampled calls
        self.hot_cost_ns = self.span_cost_ns = self.clock_ns = 0.0
        self.counts: Counter = Counter()
        self.stratify_args: list[tuple[int, str]] = []
        self.bytes_out = 0
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, attr in SPANNED:
            self._patch(modules, layer, attr, self._spanned)
        for index, (layer, attr) in enumerate(HOT):
            self._patch(modules, layer, attr, functools.partial(self._hot, index))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, modules, layer, attr, make) -> None:
        home = sys.modules.get(f"{PACKAGE}.{layer}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        original = getattr(owner, method or attr, None)
        if original is None:
            return
        wrapper = make(attr, layer, original)
        if owner_name:
            self._patched.append((owner, method, original))
            setattr(owner, method, wrapper)
            return
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)

    def _spanned(self, name, layer, fn):
        arguments = _bind(fn)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, layer, fn, *args, **kwargs)
            if hook is not None:
                # the span just closed is the last one recorded
                hook(arguments(args, kwargs), result, self.spans[-1])
            return result
        return wrapper

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span of the current job."""
        stack = self.stack
        parent = stack[-1] if stack else 0
        span_id = self._next_id
        self._next_id += 1
        stack.append(span_id)
        hot_before = tuple(self.hot_calls)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            hot = tuple(after - before for after, before in zip(self.hot_calls, hot_before))
            self.spans.append(Span(span_id, parent, self.job, name, layer, start, end, hot))

    def _hot(self, index, name, layer, fn):
        calls, sampled_ns, samples = self.hot_calls, self.hot_sampled_ns, self.hot_samples
        nested = self.hot_nested
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = calls[index] + 1
            calls[index] = count
            if count % SAMPLE_PERIOD != 1:
                return fn(*args, **kwargs)
            calls_before = sum(calls)
            start = clock()
            result = fn(*args, **kwargs)
            sampled_ns[index] += clock() - start
            samples[index] += 1
            nested[index] += sum(calls) - calls_before
            return result
        return wrapper

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure the instrumentation on an identity function, in a tracer
        of its own: the extra cost per call of a hot wrapper, the cost of a
        span wrapper outside the span it records, and an empty clock pair."""
        probe = Tracer()
        clock = time.perf_counter_ns

        def identity(value, k):
            return value

        def per_call(fn, count: int) -> float:
            times = []
            for _ in range(repeats):
                start = clock()
                for i in range(count):
                    fn(i, 2)
                times.append((clock() - start) / count)
            return statistics.median(times)

        self.hot_cost_ns = max(0.0, per_call(probe._hot(0, "identity", "powers", identity), calls)
                               - per_call(identity, calls))
        # fewer span calls: every one keeps a Span
        spanned = per_call(probe._spanned("identity", "cli", identity), calls // 10) - per_call(identity, calls // 10)
        inside = statistics.median(s.end - s.start for s in probe.spans)
        self.span_cost_ns = max(0.0, spanned - inside)
        pairs = []
        for _ in range(calls):
            start = clock()
            pairs.append(clock() - start)
        self.clock_ns = statistics.median(pairs)

    # -- computed counts, from call arguments ------------------------------

    def _on_qk_oracle(self, args, result, span):
        if "pmax" in args and "rmax" in args:
            self.counts["powers.cells"] += (args["pmax"] + 1) * args["rmax"]

    def _on_enumerate_gap(self, args, result, span):
        if "gap" in args:
            self.counts["gaps.enum_values"] += args["gap"].index_box_size()

    def _on_stratify(self, args, result, span):
        if "index_set" in args and "gap" in args:
            self.stratify_args.append((len(args["index_set"]), json.dumps(args["gap"].to_json())))

    def _on_rep_function(self, args, result, span):
        a, b = args.get("a"), args.get("b")
        if a and b:
            span.tag = span_class((a.max() - a.min()) + (b.max() - b.min()) + 1)
            self.counts[f"intset.pair_sums.{span.tag}"] += len(a) * len(b)

    def _on_quadruple_counts(self, args, result, span):
        if {"alpha_lo", "alpha_hi", "height"} <= args.keys():
            shifts = sum(1 for v in range(args["alpha_lo"], args["alpha_hi"] + 1) if v)
            triples = shifts * (shifts - 1) * (shifts - 2) // 6
            self.counts["curves.evaluations"] += triples * (2 * args["height"] + 1)

    def _on_point_search(self, args, result, span):
        span.tag = args.get("mode", "")

    def _on_square_sum_clique_search(self, args, result, span):
        self.counts["curves.cliques"] += len(result)

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, count_values, store_bytes: float) -> dict:
        """Per-layer metrics of the traced jobs.  count_values(gap_json) gives
        the number of distinct values of a progression (benchmark's own)."""
        # a span's length without the instrumentation inside it: the hot
        # wrappers called while it was open and the wrappers of the spans
        # nested in it (spans are recorded children first)
        nested_spans = defaultdict(int)
        for s in self.spans:
            if s.parent:
                nested_spans[s.parent] += nested_spans[s.id] + 1
        length = {s.id: s.end - s.start - sum(s.hot) * self.hot_cost_ns - nested_spans[s.id] * self.span_cost_ns
                  for s in self.spans}
        children = defaultdict(float)
        child_hot = defaultdict(lambda: [0] * len(HOT))
        for s in self.spans:
            if s.parent:
                children[s.parent] += length[s.id]
                acc = child_hot[s.parent]
                for i, n in enumerate(s.hot):
                    acc[i] += n
        # sampled mean per call, without the clock pair and the wrappers of
        # the hot calls nested in the sample
        mean_ns = [max(0.0, (ns - n * self.clock_ns - nested * self.hot_cost_ns) / n) if n else 0.0
                   for ns, n, nested in zip(self.hot_sampled_ns, self.hot_samples, self.hot_nested)]
        tests = [i for i, (_, attr) in enumerate(HOT) if attr in POWER_TESTS]

        self_ns = defaultdict(float)
        replay_ns = 0.0
        moment_ns = 0.0
        for s in self.spans:
            own = max(0.0, length[s.id] - children[s.id])
            moved = 0.0
            if s.layer != "powers":
                # count_in_ap holds its power tests, so either the power tests
                # or count_in_ap account for the hot time of a span
                estimates = [(n - c) * m for n, c, m in zip(s.hot, child_hot[s.id], mean_ns)]
                moved = min(own, max(sum(estimates[i] for i in tests),
                                     *(e for i, e in enumerate(estimates) if i not in tests)))
            self_ns[s.layer] += own - moved
            self_ns["powers"] += moved
            if self.kinds.get(s.job) == "verify":
                replay_ns += moved if s.layer != "powers" else own
            if s.name in MOMENTS:
                moment_ns += own
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def total_s(name, keep=lambda s: True):
            return sum(length[s.id] for s in by_name[name] if keep(s)) / 1e9

        parents = {s.id: s for s in self.spans}

        def outermost(names):
            return lambda s: parents.get(s.parent) is None or parents[s.parent].name not in names

        m = {}
        scan_s = total_s("qk_oracle")
        m["powers.scan_s"] = (scan_s, "s")
        m["powers.cells"] = (self.counts["powers.cells"], "count")
        m["powers.cells_per_s"] = (self.counts["powers.cells"] / scan_s if scan_s else 0.0, "1/s")
        m["powers.ap_counts"] = (self.hot_calls[HOT.index(("powers", "count_in_ap"))], "count")
        samples = sum(self.hot_samples[i] for i in tests)
        m["powers.power_tests"] = (sum(self.hot_calls[i] for i in tests), "count")
        m["powers.power_test_ns"] = (sum(mean_ns[i] * self.hot_samples[i] for i in tests) / samples
                                     if samples else 0.0, "ns")
        m["powers.replay_s"] = (replay_ns / 1e9, "s")

        m["gaps.enum_s"] = (total_s("enumerate_gap"), "s")
        m["gaps.enum_values"] = (self.counts["gaps.enum_values"], "count")
        m["gaps.stratify_s"] = (total_s("stratify"), "s")
        m["gaps.stratify_calls"] = (len(by_name["stratify"]), "count")
        m["gaps.stratify_pairs"] = (sum(size * count_values(gap) for size, gap in self.stratify_args), "count")

        m["intset.rep_calls"] = (len(by_name["rep_function"]), "count")
        for cls in ("small", "mid", "large"):
            rep_s = total_s("rep_function", lambda s: s.tag == cls)
            pairs = self.counts[f"intset.pair_sums.{cls}"]
            m[f"intset.rep_s.{cls}"] = (rep_s, "s")
            m[f"intset.pair_sums.{cls}"] = (pairs, "count")
            m[f"intset.pair_sums_per_s.{cls}"] = (pairs / rep_s if rep_s else 0.0, "1/s")
        m["intset.moment_s"] = (moment_ns / 1e9, "s")
        m["intset.sumset_s"] = (sum(total_s(name, outermost(SUMSETS)) for name in SUMSETS), "s")

        census_s = total_s("quadruple_counts")
        evaluations = self.counts["curves.evaluations"]
        m["curves.census_s"] = (census_s, "s")
        m["curves.evaluations"] = (evaluations, "count")
        m["curves.evaluations_per_s"] = (evaluations / census_s if census_s else 0.0, "1/s")
        m["curves.point_searches"] = (len(by_name["point_search"]), "count")
        m["curves.rational_s"] = (total_s("point_search", lambda s: s.tag == "rational"), "s")
        m["curves.clique_s"] = (total_s("square_sum_clique_search"), "s")
        m["curves.cliques"] = (self.counts["curves.cliques"], "count")

        appends_ms = sorted(length[s.id] / 1e6 for s in by_name["RecordStore.append"])
        m["records.appends"] = (len(appends_ms), "count")
        m["records.append_s"] = (sum(appends_ms) / 1e3, "s")
        m["records.append_p50_ms"] = (statistics.median(appends_ms) if appends_ms else 0.0, "ms")
        m["records.append_tail_ms"] = (percentile(appends_ms, 99) if appends_ms else 0.0, "ms")
        m["records.read_s"] = (sum(total_s(name, outermost(READS)) for name in READS), "s")
        m["records.store_bytes"] = (store_bytes, "bytes")

        m["cli.bytes_out"] = (self.bytes_out, "bytes")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
        return m


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile of values, by nearest rank."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]
