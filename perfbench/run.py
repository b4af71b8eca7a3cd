"""maxreg benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload report-wide --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; maxreg is imported from its ``src/``.
The last line of stdout is the result, a JSON object.  With ``--trace 0``
it holds every end-to-end metric, with times scaled to a reference host
speed (``clock.py``); the unscaled wall-clock figures are printed above
it.  With ``--trace 1`` it holds the per-layer metrics of a traced run,
and the lines above give self time per layer and the tracing overhead;
spans are written to ``perfbench/out/``.  Above the result are also the
environment and each metric with its sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from adapter import Adapter
from clock import REFERENCE_S, timed
from workloads import WORKLOADS, Checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9           # setup_s is the median of these
INPUT_POOL = 32             # inputs generated during setup, and the items the
                            # sample checks draw from; later inputs on demand


def setup(workload, seed: int):
    """Import maxreg afresh, generate the first inputs, warm up: (adapter, items)."""
    for name in [m for m in sys.modules if m == "maxreg" or m.startswith("maxreg.")]:
        del sys.modules[name]
    adapter = Adapter()
    items = [workload.item(seed, i) for i in range(INPUT_POOL)]
    workload.warm_up(adapter)
    return adapter, items


def closed_loop(seconds: float, step) -> float:
    """Call ``step(i)`` for i = 0, 1, ... while the next call should end in time.

    Always makes at least one call; returns the wall time of the loop.
    """
    gc.collect()
    start = perf_counter()
    calls = 0
    while True:
        step(calls)
        calls += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / calls > seconds:
            return elapsed


def run_items(workload, adapter, items, seed: int, seconds: float, checker, wrap=None):
    """Closed loop over the workload's items; ``checker`` sees each output
    right after its timed call.

    Returns (wall latencies, reference latencies); ``wrap(item, call)`` may
    wrap each call, e.g. in a span.
    """
    walls, refs = [], []

    def step(i):
        item = items[i] if i < len(items) else workload.item(seed, i)

        def call():
            return workload.run(adapter, item)
        out, wall, ref = timed(wrap(item, call) if wrap else call)
        walls.append(wall)
        refs.append(ref)
        checker(item, out)

    closed_loop(seconds, step)
    return walls, refs


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(adapter, args, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "maxreg_version": getattr(adapter.package, "__version__", None),
        "git_commit": git_commit(),
        "workers": samples.pop("workers"),
        "fast_flag": adapter.cli_fast,
        "reference_kernel_s": REFERENCE_S,
        "samples": samples,
    }


def untraced(workload, adapter, items, args):
    checker = Checker(workload, args.seed, INPUT_POOL)
    walls, refs = run_items(workload, adapter, items, args.seed, args.seconds, checker)
    bad = checker.finish(adapter)
    n = len(refs)
    raw = n * workload.raw_sets
    metrics = {
        "sets_per_s": (raw / sum(refs), "1/s", raw),
        "latency_p50_ms": (1e3 * statistics.median(refs), "ms", n),
        "latency_p90_ms": (1e3 * percentile(refs, 90), "ms", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
    }
    lines = [f"wall clock, unscaled: sets_per_s {raw / sum(walls):.6f}, latency_p50_ms "
             f"{1e3 * statistics.median(walls):.6f}, latency_p90_ms "
             f"{1e3 * percentile(walls, 90):.6f}"]
    samples = {"workers": 1, "items": n, "raw_sets": raw,
               "sample_checked": len(checker.kept)}
    return metrics, n, bad, samples, lines


def traced(workload, adapter, items, args):
    """Untraced items, then traced items, then per-layer probes and the search probe."""
    from tracing import PER_LAYER, Tracer, layer_metrics, probe_layers, search_probe
    tracer = Tracer()
    quarter = args.seconds / 4
    check_a = Checker(workload, args.seed, INPUT_POOL)
    _, lat_a = run_items(workload, adapter, items, args.seed, quarter, check_a)

    def in_span(item, call):
        def spanned():
            root = tracer.begin("bench.item", item.index)
            out = tracer.call(workload.e2e_span, item.index, root, call)
            tracer.end(root)
            return out
        return spanned

    check_b = Checker(workload, args.seed + 1, INPUT_POOL)
    _, lat_b = run_items(workload, adapter, items, args.seed, quarter, check_b, in_span)
    bad = {f"untraced-{i}": err for i, err in check_a.finish(adapter).items()}
    bad.update({f"traced-{i}": err for i, err in check_b.finish(adapter).items()})

    def probe(i):
        item = workload.probe_item(args.seed, i)
        # the naive oracle is cubic in the hull width: wide sets get one call
        probe_layers(tracer, adapter, workload, item,
                     i == 0 or item.elements[-1] - item.elements[0] < 64)
    probes = closed_loop(args.seconds / 2, probe)
    search, errors = search_probe(tracer, adapter)
    bad.update({f"search-{k}": err for k, err in enumerate(errors)})

    metrics = layer_metrics(tracer, workload.verb)
    metrics.update(search)
    overhead = statistics.median(lat_b) - statistics.median(lat_a)
    lines = [f"tracing overhead {1e3 * overhead:+.3f} ms per item (traced minus untraced "
             f"median in reference ms, {len(lat_b)} vs {len(lat_a)} items)"]
    lines += [f"self time {layer:<10} {1e3 * t:12.3f} ms"
              for layer, t in sorted(tracer.self_time_by_layer().items())]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write(path)
    lines.append(f"spans written to {os.path.relpath(path)}")
    absent = [name for name in PER_LAYER if name not in metrics]
    if absent:
        lines.append(f"absent, their functions are gone: {', '.join(absent)}")
    samples = {"workers": [1, min(2, os.cpu_count() or 1)], "untraced_items": len(lat_a),
               "traced_items": len(lat_b), "probe_seconds": probes,
               "probed_sets": len(tracer.durations("bench.probe"))}
    attempted = len(lat_a) + len(lat_b) + (2 if search else 0)
    return metrics, attempted, bad, samples, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maxreg" / "__init__.py").is_file():
        print(f"error: no maxreg source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        (adapter, items), _, ref = timed(lambda: setup(workload, args.seed))
        setup_times.append(ref)
    if not Path(adapter.package.__file__).resolve().is_relative_to(SRC):
        print(f"error: maxreg was imported from {adapter.package.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run = traced if args.trace else untraced
    metrics, attempted, bad, samples, lines = run(workload, adapter, items, args)
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_times), "s", SETUP_REPEATS), **metrics}
        samples["setups"] = SETUP_REPEATS

    print("env " + json.dumps(environment(adapter, args, samples)))
    for line in lines:
        print(line)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<34} {value:14.6f} {unit:<6} (n={n})")
    for key, err in list(bad.items())[:10]:
        print(f"FAILED item {key}: {err}")
    print(f"error_rate {len(bad) / attempted:.6f} ({len(bad)} of {attempted} items)")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
