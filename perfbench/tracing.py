"""The traced run: spans around each call into a maxreg layer.

Spans are recorded only here, around calls the benchmark makes; the package
is not patched.  Each span is (id, parent, name, item, start, end), kept in
memory and written out when the run ends.  A layer is the part of a span
name before the first dot; its self time is the time its spans cover minus
the time their child spans cover.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from collections import defaultdict
from time import perf_counter

from workloads import Item, SweepNarrow, check_one

SEARCH_LENGTH = 13          # exhaustive(13) for the search-layer metrics, 1 and 2 workers
POINTS_PER_SET = 4          # maximal_at calls per probed set

# metric -> (span name, unit); the value is the median span duration.
TIMED_METRICS = {
    "lattice.from_mask_us": ("lattice.from_mask", "us"),
    "lattice.second_difference_us": ("lattice.second_difference", "us"),
    "maximal.profile_us": ("maximal.profile", "us"),
    "maximal.oracle_profile_us": ("maximal.oracle_profile", "us"),
    "maximal.point_us": ("maximal.point", "us"),
    "regularity.second_norm_us": ("regularity.second_norm", "us"),
    "regularity.funeq_rhs_us": ("regularity.funeq_rhs", "us"),
    "regularity.decompose_us": ("regularity.decompose", "us"),
    "regularity.theorem1_us": ("regularity.theorem1", "us"),
    "regularity.lemma1_us": ("regularity.lemma1", "us"),
    "regularity.first_derivative_us": ("regularity.first_derivative", "us"),
    "reporting.build_report_ms": ("reporting.build_report", "ms"),
    "reporting.render_json_ms": ("reporting.render_json", "ms"),
    "reporting.render_csv_ms": ("reporting.render_csv", "ms"),
}
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
PER_LAYER = (*TIMED_METRICS, "cli.self_ms", "reporting.json_bytes",
             "reporting.profiles_per_report", "search.instances_checked",
             "search.sets_per_s_w2", "search.speedup_w2")

# Sibling spans that cli.main repeats, per verb: parse, build, render.
CLI_SIBLINGS = {
    "report": ("reporting.parse", "reporting.build_report", "reporting.render_json"),
    "scan": ("reporting.parse", "search.higher_derivative_scan", "cli.render_scan"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._open: dict[int, tuple] = {}
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin(self, name: str, item: int, parent: int | None = None) -> int:
        sid = self._new_id()
        self._open[sid] = (sid, parent, name, item, perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.spans.append(self._open.pop(sid) + (perf_counter(),))

    def call(self, name: str, item: int, parent: int | None, fn, *args, **kwargs):
        """``fn(*args)`` inside a span; a function that is gone records nothing."""
        if fn is None:
            return None
        sid = self._new_id()
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((sid, parent, name, item, start, perf_counter()))
        return out

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def children(self) -> dict[int | None, list[tuple]]:
        out = defaultdict(list)
        for s in self.spans:
            out[s[1]].append(s)
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        kids = self.children()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered = sum(c[5] - c[4] for c in kids.get(s[0], ()))
            out[s[2].split(".")[0]] += s[5] - s[4] - covered
        return dict(out)

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "item", "start", "end")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in sorted(self.spans)],
                       "counts": self.counts}, fh)


def probe_layers(tracer: Tracer, adapter, workload, item, with_oracle: bool) -> None:
    """One call into each layer's public functions on ``item``'s set."""
    f, prod = adapter.function, adapter.production
    root = tracer.begin("bench.probe", item.index)

    def call(name, fn, *args):
        return tracer.call(name, item.index, root, fn, *args)

    IndexSet, LatticeFunction = f("lattice.IndexSet"), f("lattice.LatticeFunction")
    a = IndexSet(item.elements)
    chi = LatticeFunction.from_set(a)
    call("lattice.from_mask", getattr(IndexSet, "from_mask", None), a.bits)
    call("lattice.second_difference", f("lattice.forward_difference"), chi, 2)
    profile = call("maximal.profile", f("maximal.maximal_profile_fast"), chi)
    if with_oracle:
        call("maximal.oracle_profile", f("maximal.maximal_profile"), chi)
    rng = random.Random(f"points:{item.index}")
    lo, hi = ((-workload.truncation, workload.truncation + item.order)
              if workload.verb == "scan" else (a.min() - 1, a.max() + 1))
    for _ in range(POINTS_PER_SET):
        call("maximal.point", f("maximal.maximal_at"), chi, rng.randint(lo, hi))
    analyzed = f("regularity.AnalyzedFunction")
    if profile is not None and analyzed is not None:
        g = analyzed.from_profile(profile)
        call("regularity.second_norm", f("regularity.second_norm"), g)
        call("regularity.funeq_rhs", f("regularity.funeq_rhs"), g)
        call("regularity.decompose", f("regularity.decompose"), g)
    call("regularity.theorem1", prod("regularity.theorem1_report"), a)
    call("regularity.lemma1", prod("regularity.lemma1_violations"), a)
    call("regularity.first_derivative", prod("regularity.first_derivative_norms"), a)

    literal = item.literal
    if workload.verb == "scan":
        t = workload.truncation
        call("cli.main", adapter.cli, workload.argv(item, t))
        parsed = call("reporting.parse", f("reporting.parse_set_literal"), literal)
        scan = call("search.higher_derivative_scan", f("search.higher_derivative_scan"),
                    parsed, item.order, t)
        to_dict = f("cli.scan_to_dict")
        if to_dict is not None:
            call("cli.render_scan", lambda s: json.dumps(to_dict(s), indent=2), scan)
    else:
        call("cli.main", adapter.cli, ["report", literal, "--format", "json"])
        parsed = call("reporting.parse", f("reporting.parse_set_literal"), literal)
    report = call("reporting.build_report", prod("reporting.build_report"), a)
    text = call("reporting.render_json", f("reporting.render_report_json"), report)
    call("reporting.render_csv", prod("reporting.render_report_csv"), a)
    if text is not None:
        tracer.counts["reporting.json_bytes"].append(len(text.encode()))
    tracer.end(root)


def per_probe_metrics(tracer: Tracer, verb: str) -> dict[str, list[float]]:
    """cli.self_ms and reporting.profiles_per_report, one value per probed set."""
    out: dict[str, list[float]] = defaultdict(list)
    for root, kids in tracer.children().items():
        d = {}
        for s in kids:
            d.setdefault(s[2], s[5] - s[4])
        if "cli.main" in d and all(n in d for n in CLI_SIBLINGS[verb]):
            out["cli.self_ms"].append(
                1e3 * (d["cli.main"] - sum(d[n] for n in CLI_SIBLINGS[verb])))
        if "reporting.build_report" in d and "maximal.profile" in d:
            out["reporting.profiles_per_report"].append(
                d["reporting.build_report"] / d["maximal.profile"])
    return out


def search_probe(tracer: Tracer, adapter) -> tuple[dict, list[str]]:
    """exhaustive(SEARCH_LENGTH) on 1 and on min(2, nproc) workers."""
    exhaustive = adapter.production("search.exhaustive")
    if exhaustive is None:
        return {}, []
    length = SEARCH_LENGTH
    workers = min(2, os.cpu_count() or 1)
    sweep = SweepNarrow(length)
    times, errors = [], []
    for w in (1, workers):
        t0 = perf_counter()
        summary = tracer.call(f"search.exhaustive_w{w}", -1, None, exhaustive,
                              length, workers=w)
        times.append(perf_counter() - t0)
        err = check_one(sweep, Item(-1, ()), summary)
        if err:
            errors.append(f"exhaustive({length}, workers={w}): {err}")
    raw = (1 << length) - 1
    metrics = {
        "search.instances_checked": (summary.instances_checked, "count", 1),
        "search.sets_per_s_w2": (raw / times[1], "1/s", 1),
        "search.speedup_w2": (times[0] / times[1], "x", 1),
    }
    return metrics, errors


def layer_metrics(tracer: Tracer, verb: str) -> dict[str, tuple[float, str, int]]:
    out = {}
    for metric, (span, unit) in TIMED_METRICS.items():
        values = tracer.durations(span)
        if values:
            out[metric] = (statistics.median(values) * SCALE[unit], unit, len(values))
    extra = per_probe_metrics(tracer, verb)
    extra["reporting.json_bytes"] = tracer.counts["reporting.json_bytes"]
    for metric, unit in (("cli.self_ms", "ms"), ("reporting.json_bytes", "bytes"),
                         ("reporting.profiles_per_report", "ratio")):
        if extra[metric]:
            out[metric] = (statistics.median(extra[metric]), unit, len(extra[metric]))
    return out
