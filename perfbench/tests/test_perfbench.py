"""Tests of the benchmark itself, at smoke sizes.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
from adapter import Adapter, read_scan
from workloads import (Checker, Item, ReportWide, ScanDeep, ScanReference, SweepNarrow,
                       reference_profile, second_norm_from_profile, set_literal)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# More items than samples, so that the per-item checks must catch what the
# sample checks miss, as in a full run.
SMOKE = {
    "sweep-narrow": SweepNarrow(length=6),
    "report-wide": ReportWide(width=24, samples=2),
    "scan-deep": ScanDeep(width=8, truncation=40, nest_extra=10, samples=2),
}
SMOKE_ITEMS = 6


@pytest.fixture(scope="module")
def adapter():
    return Adapter()


def smoke_pairs(workload, adapter):
    items = [workload.item(7, i) for i in range(SMOKE_ITEMS)]
    return [(item, workload.run(adapter, item)) for item in items]


def smoke_checker(workload):
    return Checker(workload, seed=7, pool=SMOKE_ITEMS)


def evaluate(workload, adapter, pairs):
    checker = smoke_checker(workload)
    for item, output in pairs:
        checker(item, output)
    return checker.finish(adapter)


def error_rate(workload, adapter, pairs):
    return len(evaluate(workload, adapter, pairs)) / len(pairs)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_passes_every_check(name, adapter):
    workload = SMOKE[name]
    assert error_rate(workload, adapter, smoke_pairs(workload, adapter)) == 0


def test_inputs_depend_on_the_seed_alone():
    w = ReportWide()
    assert w.item(3, 5) == ReportWide().item(3, 5)
    assert w.item(3, 5) != w.item(4, 5)
    assert [w.item(3, i).elements[-1] for i in range(3)] == [511] * 3
    assert [ScanDeep().item(1, i).order for i in range(4)] == [3, 4, 5, 3]


def _with_json(output, change):
    rc, text = output
    d = json.loads(text)
    change(d)
    return rc, json.dumps(d)


def _bump(key, delta):
    def change(d):
        d[key] = str(Fraction(d[key]) + delta)
    return change


def _bump_profile(d):
    mid = len(d["profile_values"]) // 2
    d["profile_values"][mid] = str(Fraction(d["profile_values"][mid]) + Fraction(1, 1000))


def _sweep_span_ratio(summary):
    by_span = dict(summary.stats["max_by_span"])
    by_span[2] = dataclasses.replace(by_span[2], ratio=Fraction(1, 2))
    return dataclasses.replace(summary, stats={**summary.stats, "max_by_span": by_span})


def _sweep_skipped_chunk(summary):
    return dataclasses.replace(summary, instances_checked=summary.instances_checked - 8)


CORRUPTIONS = {
    "report ratio": ("report-wide", lambda out: _with_json(out, _bump("ratio", Fraction(1, 97)))),
    "report profile value": ("report-wide", lambda out: _with_json(out, _bump_profile)),
    "report exit code": ("report-wide", lambda out: (3, out[1])),
    "report garbage": ("report-wide", lambda out: (0, out[1][:-40])),
    "scan value": ("scan-deep", lambda out: _with_json(out, _bump("value", 1))),
    "scan value off by a tail": ("scan-deep",
                                 lambda out: _with_json(out, _bump("value", Fraction(1, 10**9)))),
    "scan remainder dropped": ("scan-deep",
                               lambda out: _with_json(out, lambda d: d.update(remainder_bound="0"))),
    "scan order": ("scan-deep", lambda out: _with_json(out, lambda d: d.update(order=9))),
    "sweep span ratio": ("sweep-narrow", _sweep_span_ratio),
    "sweep skipped chunk": ("sweep-narrow", _sweep_skipped_chunk),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_counts_in_error_rate(case, adapter):
    name, corrupt = CORRUPTIONS[case]
    workload = SMOKE[name]
    pairs = smoke_pairs(workload, adapter)
    # corrupt an item the sample checks do not see
    k = min(set(range(SMOKE_ITEMS)) - smoke_checker(workload).sampled)
    item, output = pairs[k]
    pairs[k] = (item, corrupt(output))
    bad = evaluate(workload, adapter, pairs)
    assert list(bad) == [item.index]
    assert error_rate(workload, adapter, pairs) == 1 / len(pairs)


def test_sweep_accepts_reflection_canonical_coverage(adapter):
    workload = SMOKE["sweep-narrow"]
    summary = adapter.production("search.exhaustive")(6, workers=1)
    assert workload.check(Item(0, ()), summary) is None
    # 14 of the 32 odd masks below 2^6 are palindromes: (32 + 14) / 2 mirror classes
    assert workload.class_counts == {63, 32, 23}
    folded = dataclasses.replace(summary, instances_checked=23)
    assert workload.check(Item(0, ()), folded) is None


def test_sample_checks_see_only_the_sampled_items(adapter):
    workload = SMOKE["report-wide"]
    checker = smoke_checker(workload)
    for item, output in smoke_pairs(workload, adapter):
        checker(item, output)
    assert [item.index for item, _ in checker.kept] == sorted(checker.sampled)
    assert len(checker.sampled) == workload.samples
    assert checker.finish(adapter) == {}


def test_scan_reference_matches_the_library(adapter):
    maximal_at = adapter.function("maximal.maximal_at")
    scan = adapter.function("search.higher_derivative_scan")
    from_set = adapter.function("lattice.LatticeFunction").from_set
    index_set = adapter.function("lattice.IndexSet")
    for elements, k in (((0,), 3), ((0, 2, 3, 7), 4), ((-3, -1, 4, 5, 6, 9), 5)):
        a = index_set(elements)
        chi = from_set(a)
        ref = ScanReference(elements, k)
        assert [ref.value(n) for n in range(-40, 40)] == [maximal_at(chi, n)
                                                         for n in range(-40, 40)]
        s = scan(a, k, 30)
        assert ref.total(-30, 30) == s.value
        assert s.value < ref.total() <= s.value + s.remainder_bound


def test_reference_profile_matches_the_library_oracle(adapter):
    maximal_profile = adapter.function("maximal.maximal_profile")
    from_set = adapter.function("lattice.LatticeFunction").from_set
    index_set = adapter.function("lattice.IndexSet")
    for mask in range(1, 1 << 7, 2):
        elements = tuple(i for i in range(7) if mask >> i & 1)
        want = list(maximal_profile(from_set(index_set(elements))).values)
        assert reference_profile(elements) == want
        assert second_norm_from_profile(want) > 0


def test_set_literal_merges_runs():
    assert set_literal((0, 2, 3, 4, 7)) == "0,2-4,7"


def test_adapter_passes_fast_while_it_is_accepted(adapter):
    assert adapter.cli_fast
    assert adapter.production("search.exhaustive").keywords == {"fast": True}
    assert adapter.production("maximal.maximal_at") is adapter.function("maximal.maximal_at")


def test_adapter_drops_fast_once_the_parser_rejects_it(monkeypatch):
    import maxreg.cli
    real_main = maxreg.cli.main
    seen = []

    def main_without_fast(argv):
        seen.append(list(argv))
        if "--fast" in argv:
            raise SystemExit(2)
        return real_main(argv)

    monkeypatch.setattr(maxreg.cli, "main", main_without_fast)
    adapter = Adapter()
    assert not adapter.cli_fast
    rc, text = adapter.cli(["report", "0,2", "--format", "json"])
    assert rc == 0 and json.loads(text)["ratio"] == "5/12"
    assert seen[-1] == ["report", "0,2", "--format", "json"]


def test_scan_without_remainder_reads_as_exact():
    text = json.dumps({"set": [0], "order": 3, "truncation": 9, "value": "5/2"})
    assert read_scan(text)["remainder_bound"] == 0


def test_missing_function_makes_its_metric_absent(adapter):
    tracer = tracing.Tracer()
    assert adapter.function("maximal.no_such_function") is None
    assert adapter.production("no_such_layer.f") is None
    assert tracer.call("maximal.profile", 0, None, None) is None
    assert "maximal.profile_us" not in tracing.layer_metrics(tracer, "report")


@pytest.mark.parametrize("name", ["sweep-narrow", "scan-deep"])
def test_probes_give_every_per_layer_metric(name, adapter, monkeypatch):
    monkeypatch.setattr(tracing, "SEARCH_LENGTH", 6)
    workload = SMOKE[name]
    tracer = tracing.Tracer()
    for i in range(3):
        tracing.probe_layers(tracer, adapter, workload, workload.probe_item(7, i), True)
    metrics = tracing.layer_metrics(tracer, workload.verb)
    search, errors = tracing.search_probe(tracer, adapter)
    metrics.update(search)
    assert not errors
    assert set(metrics) == set(tracing.PER_LAYER) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["search.instances_checked"] == (32, "count", 1)
    assert {layer for layer in tracer.self_time_by_layer()} >= set(
        ["bench", "lattice", "maximal", "regularity", "reporting", "cli", "search"])


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "scan-deep", "--seed", "3", "--seconds", "0.5"]) == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(tracing, "SEARCH_LENGTH", 6)
    monkeypatch.setitem(run.WORKLOADS, "scan-deep", lambda: SMOKE["scan-deep"])
    assert run.main(["--workload", "scan-deep", "--seed", "3", "--seconds", "1",
                     "--trace", "1"]) == 0
    result = _result(capsys)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = json.loads(next(tmp_path.iterdir()).read_text())["spans"]
    assert {"id", "parent", "name", "item", "start", "end"} == set(spans[0])


def test_benchmark_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "report-wide",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
